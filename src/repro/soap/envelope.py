"""SOAP envelope construction, serialization and parsing."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.soap.types import TypedValue, typed_value, write_typed
from repro.wsa.headers import AddressingHeaders
from repro.xmlx import NS, Element, QName, WireText, parse, to_string
from repro.xmlx.writer import XML_DECLARATION, DocumentFrames, write_fragment

_ENVELOPE = QName(NS.SOAP, "Envelope")
_HEADER = QName(NS.SOAP, "Header")
_BODY = QName(NS.SOAP, "Body")


class EnvelopeCache:
    """The envelope hand-off: a message encoded in this process is
    written in one pass and not re-parsed (docs/performance.md, "Codec
    fast path").

    Every :class:`~repro.net.Network` owns one (``network.codec``);
    endpoints pass it to :meth:`SoapEnvelope.serialize` / ``deserialize``.

    :meth:`encode` builds no envelope tree: the WS-Addressing blocks are
    concatenated from the header fields, the body and any ``wsse:``
    block are written as fragments, and the root's declarations are the
    union of the namespaces they mention — byte for byte the reference
    ``to_string(envelope.to_element(), xml_declaration=True)``.  A
    message the splice cannot reproduce exactly (:meth:`_splice` lists
    the conditions, each a property of the message) is written by the
    reference encoder instead, as a plain ``str``.

    A spliced message is a :class:`~repro.xmlx.WireText`: the pieces
    the splice wrote (joined at once unless one is a deferred base64
    piece, soap/types.py), and what the receiver is to have — a new
    :class:`SoapEnvelope` with its own addressing headers, body and
    extra-header copies (built by the walk that wrote their text, a
    typed value in the body as a fresh copy of its value; only the
    immutable EPR is shared), equal field for field to the strict
    parse of the text.  The first :meth:`parse` of that very object by
    this codec takes the envelope off it (move semantics — exactly one
    receiver, free to mutate), so the text is never read.  Anything
    else — the same message delivered a second time (a lost reply's
    retry resends the message it holds), delivered to another network's
    codec, or any plain ``str`` (reference-encoded, hand-built, hostile,
    restored or GT4 payloads) — goes through the strict parser, which
    builds a fresh tree each time, so repeated deliveries can never
    observe each other's mutations (most handlers do mutate — EPR
    resolution pops headers).

    An undelivered message's envelope, and the ``bytes`` any deferred
    piece was written from, are freed with the message: no table holds
    messages.  What the codec remembers is the text that depends only
    on the deployment, each keyed by exactly what it is a function of:

    - the root frame (:class:`~repro.xmlx.writer.DocumentFrames`): the
      envelope's start tag with its declarations, and its end tag, per
      namespace set the pieces mention.  Only namespaces with a
      preferred prefix reach it, so the sets are the deployment's
      message shapes;
    - the addressing head (:meth:`AddressingHeaders.write_blocks`):
      ``<wsa:To>…</wsa:To>`` per address — the deployment's services
      and the anonymous reply address of each sending host — and
      ``<wsa:Action>…</wsa:Action><wsa:MessageID>`` per action.  Two
      memos, so the entries are the addresses plus the actions, not
      their product.  The message id, ``RelatesTo`` and the reference
      properties are written per message; no memo is keyed by an EPR,
      which would grow with the resources.

    State blobs of the services deployed on this codec's network write
    their root frames through :attr:`frames` too.
    """

    __slots__ = ("parse_hits", "parse_misses", "encode_hits", "encode_misses",
                 "frames", "to_blocks", "action_blocks")

    def __init__(self) -> None:
        #: hand-off effectiveness counters for the obs registry; no
        #: message is memoized, so every encode is a miss and encode_hits
        #: stays 0 (the ledger and the perf export read all four)
        self.parse_hits = 0
        self.parse_misses = 0
        self.encode_hits = 0
        self.encode_misses = 0
        #: a document's root frame per (root tag, namespace set)
        self.frames = DocumentFrames()
        #: the addressing head: the To block per address, the Action
        #: block (up to the MessageID start tag) per action
        self.to_blocks: Dict[str, str] = {}
        self.action_blocks: Dict[str, str] = {}

    def parse(self, text: Union[str, WireText]) -> "SoapEnvelope":
        if isinstance(text, WireText) and text.owner is self and text.handed is not None:
            # This receiver is the envelope's only owner: no defensive copy.
            handed, text.handed = text.handed, None
            self.parse_hits += 1
            return handed
        self.parse_misses += 1
        return SoapEnvelope.from_element(parse(text))

    def encode(self, envelope: "SoapEnvelope") -> Union[str, WireText]:
        self.encode_misses += 1
        spliced = self._splice(envelope)
        if spliced is None:
            # Nothing is handed over: the receiver's strict parse reads
            # this text, and raises where the reference decoder would.
            return to_string(envelope.to_element(), xml_declaration=True)
        pieces, deferred, handed = spliced
        # A body can be megabytes of text: joined once, here, unless a
        # piece is deferred — then only a reader of the text joins it.
        return WireText(pieces if deferred else "".join(pieces), self, handed)

    def _splice(
        self, envelope: "SoapEnvelope"
    ) -> Optional[Tuple[List[Any], bool, "SoapEnvelope"]]:
        """The pieces of the reference wire text of *envelope*, written
        without building its tree, whether one of them is a deferred
        base64 piece, and the envelope its receiver is handed (body and
        blocks copied by the walk that wrote them, a typed value in the
        body handed over as a value: :func:`_write_body`) — or None when
        the text, or what the strict parser reads back from it, depends
        on more than the pieces: the addressing headers decline
        (:meth:`AddressingHeaders.write_blocks`), an extra header is
        not a ``wsse:`` block (:meth:`SoapEnvelope.from_element` reads
        any other back as a reference property), or the body or a
        ``wsse:`` block mentions a namespace without a preferred prefix.
        """
        sent = envelope.addressing
        # out[1] is the root's start tag, known when every piece is written.
        out: List[Any] = [XML_DECLARATION, "", "<soap:Header>"]
        uris: Dict[str, None] = {}
        if not sent.write_blocks(self.to_blocks, self.action_blocks, out, uris):
            return None
        blocks = []
        for block in envelope.extra_headers:
            block = write_fragment(block, out, uris) if block.tag.uri == NS.WSSE else None
            if block is None:
                return None
            blocks.append(block)
        out.append("</soap:Header><soap:Body>")
        deferred: List[Any] = []
        body = _write_body(envelope.body, out, uris, deferred)
        if body is None:
            return None
        out[1], closing = self.frames(_ENVELOPE, uris)
        out.append("</soap:Body>" + closing)
        addressing = AddressingHeaders(sent.to_epr, sent.action, sent.message_id, sent.relates_to)
        return out, bool(deferred), SoapEnvelope(addressing, body, blocks)


def _write_body(body: Element, out: List[Any], uris, deferred: List[Any]) -> Optional[Element]:
    """``write_fragment(body, out, uris)``, except for each direct child
    that is a :class:`~repro.soap.types.TypedValue` nobody has read:
    its text is :func:`~repro.soap.types.write_typed` of its value (the
    same text, a ``bytes`` leaf's base64 as a piece added to *deferred*)
    and the receiver's copy a fresh ``typed_value`` over that value, so
    no tree is built, copied or walked for it, and no byte encoded.

    A payload wrapper has neither attributes nor text; one that has them
    is written whole by ``write_fragment``, which reads any typed child's
    tree.
    """
    children = body.children
    if body.attrib or body.text or body.tail or not children:
        return write_fragment(body, out, uris)
    uri, name = tag = body.tag
    if uri:
        prefix = NS.PREFERRED_PREFIXES.get(uri)
        if prefix is None:
            return None
        uris[uri] = None
        name = f"{prefix}:{name}"
    out.append(f"<{name}>")
    copy = Element(tag)
    handed = copy.children
    for child in children:
        if type(child) is TypedValue and child.unread and not child.tail:
            mentions = write_typed(child.tag, child.value, out, deferred)
            if mentions is None:
                return None
            uris.update(dict.fromkeys(mentions))
            child = typed_value(child.tag, child.value)
        else:
            child = write_fragment(child, out, uris)
            if child is None:
                return None
        handed.append(child)
    out.append(f"</{name}>")
    return copy


class SoapEnvelope:
    """One SOAP message: addressing headers, extra headers and a body.

    ``body`` holds exactly one payload element (document/literal style —
    the operation's wrapper element).  ``extra_headers`` carries
    non-addressing blocks such as the WS-Security header of §4.2.
    """

    __slots__ = ("addressing", "extra_headers", "body")

    def __init__(
        self,
        addressing: AddressingHeaders,
        body: Element,
        extra_headers: Optional[List[Element]] = None,
    ) -> None:
        self.addressing = addressing
        self.body = body
        self.extra_headers = list(extra_headers or [])

    # -- wire format -----------------------------------------------------------

    def to_element(self) -> Element:
        root = Element(_ENVELOPE)
        header = root.subelement(_HEADER)
        for block in self.addressing.to_header_elements():
            header.append(block)
        for block in self.extra_headers:
            header.append(block)
        root.subelement(_BODY).append(self.body)
        return root

    def serialize(self, cache: Optional[EnvelopeCache] = None) -> Union[str, WireText]:
        """Wire text.  Endpoints pass their network's hand-off
        (``network.codec``) as *cache*, which answers a
        :class:`~repro.xmlx.WireText` (``str()`` of it is the text) for
        a message it hands over; without one this is the reference
        encoding, ``to_string`` of :meth:`to_element`."""
        if cache is not None:
            return cache.encode(self)
        return to_string(self.to_element(), xml_declaration=True)

    @classmethod
    def from_element(cls, root: Element) -> "SoapEnvelope":
        if root.tag != _ENVELOPE:
            raise ValueError(f"not a SOAP envelope: {root.tag}")
        header = root.find(_HEADER)
        body = root.find(_BODY)
        if body is None or not body.children:
            raise ValueError("SOAP envelope lacks a body payload")
        if len(body.children) != 1:
            raise ValueError("document/literal body must hold exactly one element")
        header_blocks = list(header.children) if header is not None else []
        addressing = AddressingHeaders.from_header_elements(header_blocks)
        # What was read as addressing: every wsa: block, and the blocks
        # taken for reference properties.
        known = addressing.to_epr.reference_properties
        extra = [
            block
            for block in header_blocks
            if block.tag.uri != NS.WSA and block.tag not in known
        ]
        return cls(addressing, body.children[0], extra_headers=extra)

    @classmethod
    def deserialize(
        cls, text: Union[str, WireText], cache: Optional[EnvelopeCache] = None
    ) -> "SoapEnvelope":
        """Inverse of :meth:`serialize`; without *cache* the reference
        decoding, the strict ``parse`` of *text*."""
        if cache is not None:
            return cache.parse(text)
        return cls.from_element(parse(text))

    # -- conveniences ------------------------------------------------------------

    @property
    def action(self) -> str:
        return self.addressing.action

    @property
    def payload(self) -> Element:
        return self.body

    def find_header(self, tag) -> Optional[Element]:
        want = tag if isinstance(tag, QName) else QName(tag)
        for block in self.extra_headers:
            if block.tag == want:
                return block
        return None

    def __repr__(self) -> str:
        return (
            f"<SoapEnvelope action={self.addressing.action!r} "
            f"to={self.addressing.to_epr.address!r}>"
        )
