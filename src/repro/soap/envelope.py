"""SOAP envelope construction, serialization and parsing."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.soap.types import TypedValue, typed_value, write_typed
from repro.wsa.headers import AddressingHeaders
from repro.xmlx import NS, Element, QName, parse, to_string
from repro.xmlx.writer import XML_DECLARATION, document_frame, write_fragment

_ENVELOPE = QName(NS.SOAP, "Envelope")
_HEADER = QName(NS.SOAP, "Header")
_BODY = QName(NS.SOAP, "Body")


class ContentTable(dict):
    """FIFO table keyed on immutable content, bounded by total key size.

    Both codec hand-off tables (:class:`EnvelopeCache` here,
    :class:`repro.db.DecodeCache`) are content-addressed — the key *is*
    the wire text or the blob bytes — so the keys are what costs memory,
    and the bound is on their summed length, not on an entry count.  A
    key longer than the whole bound is not kept.  Lookups are plain
    ``dict`` lookups; insert with :meth:`put`, remove with :meth:`take`
    so the running size stays right.
    """

    __slots__ = ("max_bytes", "bytes")

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 1:
            raise ValueError("a content table needs max_bytes >= 1")
        super().__init__()
        self.max_bytes = max_bytes
        self.bytes = 0

    def put(self, key, value) -> None:
        """Insert *key* (absent), dropping the oldest entries to fit."""
        size = len(key)
        if size > self.max_bytes:
            return
        self.bytes += size
        while self.bytes > self.max_bytes:
            oldest = next(iter(self))
            self.bytes -= len(oldest)
            del self[oldest]
        self[key] = value

    def take(self, key):
        """Remove *key* and return its value, or None when absent."""
        value = self.pop(key, None)
        if value is not None:
            self.bytes -= len(key)
        return value


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
    message the splice cannot reproduce exactly (:func:`_splice` lists
    the conditions, each a property of the message) is written by the
    reference encoder instead.

    One move-once table, keyed on the raw wire text.  The encoder
    registers what the receiver is to have — a new
    :class:`SoapEnvelope` with its own addressing headers, body and
    extra-header copies (built by the walk that wrote their text, a
    typed value in the body as a fresh copy of its value; only the
    immutable EPR is shared), equal field for field to the strict
    parse of the text — and the receiving
    endpoint's parse of that exact text *consumes* the entry (move
    semantics — exactly one receiver, free to mutate).  Any other text
    — reference-encoded (no workload sends one: docs/performance.md),
    delivered a second time (a lost reply's retry resends the text it
    holds), or never encoded here (hand-built, hostile or restored
    payloads) — goes through the strict parser, which builds a fresh
    tree each time, so repeated deliveries can never observe each
    other's mutations (most handlers do mutate — EPR resolution pops
    headers).

    The table is bounded by the bytes of text it keys on (*max_bytes*);
    a delivered text's entry is gone, so the cache keeps none alive.
    An undelivered entry also keeps alive the ``bytes`` any base64 leaf
    of its body was encoded from (soap/types.py hands them over with
    the text: 0.75x that text's length); the bound still counts text
    bytes only.
    """

    __slots__ = ("parse_hits", "parse_misses", "encode_hits", "encode_misses",
                 "_fresh")

    def __init__(self, max_bytes: int = 8 << 20) -> None:
        #: hand-off effectiveness counters for the obs registry; there is
        #: no encode memo, so every encode is a miss and encode_hits
        #: stays 0 (the ledger and the perf export read all four)
        self.parse_hits = 0
        self.parse_misses = 0
        self.encode_hits = 0
        self.encode_misses = 0
        #: wire text -> what its receiver is handed, until delivered
        self._fresh = ContentTable(max_bytes)

    def parse(self, text: str) -> "SoapEnvelope":
        handed = self._fresh.take(text)
        if handed is None:
            self.parse_misses += 1
            return SoapEnvelope.from_element(parse(text))
        # This receiver is the entry's only owner: no defensive copy.
        self.parse_hits += 1
        return handed

    def encode(self, envelope: "SoapEnvelope") -> str:
        self.encode_misses += 1
        spliced = _splice(envelope)
        if spliced is None:
            # Nothing is handed over: the receiver's strict parse reads
            # this text, and raises where the reference decoder would.
            return to_string(envelope.to_element(), xml_declaration=True)
        wire, handed = spliced
        if wire not in self._fresh:
            self._fresh.put(wire, handed)
        return wire


def _splice(envelope: "SoapEnvelope") -> Optional[Tuple[str, "SoapEnvelope"]]:
    """The reference wire text of *envelope*, written without building
    its tree, and the envelope its receiver is handed (body and blocks
    copied by the walk that wrote them, a typed value in the body handed
    over as a value: :func:`_write_body`) — or None when the text, or what
    the strict parser reads back from it, depends on more than the
    pieces: the addressing headers decline
    (:meth:`AddressingHeaders.header_fragment`), an extra header is not
    a ``wsse:`` block (:meth:`SoapEnvelope.from_element` reads any other
    back as a reference property), or the body or a ``wsse:`` block
    mentions a namespace without a preferred prefix.
    """
    sent = envelope.addressing
    head = sent.header_fragment()
    if head is None:
        return None
    # One list of pieces, joined once: a body can be megabytes of text.
    # out[1] is the root's start tag, known when every piece is written.
    out = [XML_DECLARATION, "", "<soap:Header>", head[0]]
    uris = dict.fromkeys(head[1])
    blocks = []
    for block in envelope.extra_headers:
        block = write_fragment(block, out, uris) if block.tag.uri == NS.WSSE else None
        if block is None:
            return None
        blocks.append(block)
    out.append("</soap:Header><soap:Body>")
    body = _write_body(envelope.body, out, uris)
    if body is None:
        return None
    out[1], closing = document_frame(_ENVELOPE, uris)
    out.append("</soap:Body>" + closing)
    addressing = AddressingHeaders(sent.to_epr, sent.action, sent.message_id, sent.relates_to)
    return "".join(out), SoapEnvelope(addressing, body, blocks)


def _write_body(body: Element, out: List[str], uris) -> Optional[Element]:
    """``write_fragment(body, out, uris)``, except for each direct child
    that is a :class:`~repro.soap.types.TypedValue` nobody has read:
    its text is :func:`~repro.soap.types.write_typed` of its value (the
    same text) and the receiver's copy a fresh ``typed_value`` over that
    value, so no tree is built, copied or walked for it.

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
            mentions = write_typed(child.tag, child.value, out)
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

    def serialize(self, cache: Optional[EnvelopeCache] = None) -> str:
        """Wire text.  Endpoints pass their network's hand-off
        (``network.codec``) as *cache*; without one this is the
        reference encoding, ``to_string`` of :meth:`to_element`."""
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
    def deserialize(cls, text: str, cache: Optional[EnvelopeCache] = None) -> "SoapEnvelope":
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
