"""Namespace-aware XML serializer."""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.xmlx.element import Element
from repro.xmlx.qname import NS, QName


def escape_text(value: str) -> str:
    """*value* as character data: ``&``, ``<`` and ``>`` replaced.

    Most values hold none of the three, and a staged file's base64 text
    is megabytes of none: each test is one substring search, and a value
    with nothing to escape comes back as the object it was (the base64
    hand-off in soap/types.py and the envelope splice rely on that —
    no copy, no second pass).
    """
    if "&" in value:
        value = value.replace("&", "&amp;")
    if "<" in value:
        value = value.replace("<", "&lt;")
    if ">" in value:
        value = value.replace(">", "&gt;")
    return value


def escape_attr(value: str) -> str:
    """:func:`escape_text` plus ``"``, for a double-quoted attribute."""
    value = escape_text(value)
    if '"' in value:
        value = value.replace('"', "&quot;")
    return value


#: what ``to_string(..., xml_declaration=True)`` opens a document with
XML_DECLARATION = '<?xml version="1.0" encoding="utf-8"?>'


def utf8_size(text: str) -> int:
    """``len(text.encode("utf-8"))``, without the encoded copy when the
    text is ASCII (``isascii`` reads a flag): a message carrying a
    staged file is megabytes of it."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class WireText:
    """A document kept as the pieces a writer appended, joined only
    when someone reads the text (docs/performance.md, "What is handed
    over").

    A piece is a ``str`` or a *deferred piece*: ASCII text of
    ``len(piece)`` characters that ``str(piece)`` writes (the base64
    text of a staged file, soap/types.py).  ``str(wire)`` is the
    document, joined once; ``len(wire)`` is ``len(str(wire))`` and
    :attr:`size` its UTF-8 size, both computed without joining.  The
    size is computed when first read, so a text UTF-8 cannot encode (a
    lone surrogate) raises where the transport first asks for it.

    *owner* and *handed* belong to the one writer that made it: the
    envelope hand-off (:class:`repro.soap.EnvelopeCache`) puts the
    envelope the receiver is to have here, and takes it off once.
    """

    __slots__ = ("_content", "_size", "owner", "handed")

    def __init__(self, content: Union[str, List[Any]], owner: object, handed: Any) -> None:
        #: the joined text, or the pieces until someone reads it
        self._content = content
        self._size: Optional[int] = None
        self.owner = owner
        self.handed = handed

    def __str__(self) -> str:
        content = self._content
        if not isinstance(content, str):
            # the deferred pieces, and what they were written from, go
            content = self._content = "".join(
                [piece if type(piece) is str else str(piece) for piece in content]
            )
        return content

    def __len__(self) -> int:
        content = self._content
        return len(content) if isinstance(content, str) else sum(map(len, content))

    @property
    def size(self) -> int:
        """The UTF-8 size of the document."""
        size = self._size
        if size is None:
            content = self._content
            if isinstance(content, str):
                size = utf8_size(content)
            else:
                size = sum(
                    utf8_size(piece) if type(piece) is str else len(piece)
                    for piece in content
                )
            self._size = size
        return size


def _declaration(prefix: str, uri: str) -> str:
    return f' xmlns:{prefix}="{escape_attr(uri)}"'


class _PrefixAllocator:
    """Assigns stable prefixes to namespace URIs within one document."""

    def __init__(self) -> None:
        self._by_uri: Dict[str, str] = {}
        self._used = set()
        self._counter = 0
        #: memoized "prefix:local" strings — prefixes are stable within
        #: one document, so each distinct QName is formatted once
        self._name_memo: Dict[QName, str] = {}
        #: memoized ("<prefix:local", "</prefix:local>") tag fragments
        self._tag_memo: Dict[QName, Tuple[str, str]] = {}

    def prefix_for(self, uri: str) -> str:
        prefix = self._by_uri.get(uri)
        if prefix is not None:
            return prefix
        preferred = NS.PREFERRED_PREFIXES.get(uri)
        if preferred and preferred not in self._used:
            prefix = preferred
        else:
            while True:
                candidate = f"ns{self._counter}"
                self._counter += 1
                if candidate not in self._used:
                    prefix = candidate
                    break
        self._by_uri[uri] = prefix
        self._used.add(prefix)
        return prefix

    def declarations(self) -> str:
        """What the root's start tag carries, sorted by prefix."""
        return "".join(
            _declaration(prefix, uri)
            for uri, prefix in sorted(self._by_uri.items(), key=lambda kv: kv[1])
        )


def to_string(root: Element, xml_declaration: bool = False) -> str:
    """Serialize *root* to compact XML text.

    All namespace declarations are hoisted to the root element (the style
    ASP.NET uses for SOAP envelopes), which keeps prefixes stable and the
    output easy to diff in tests.
    """
    allocator = _PrefixAllocator()
    out: List[str] = [XML_DECLARATION] if xml_declaration else []
    # One walk: prefixes are allocated as names are first written (tag,
    # attributes, children), and the root's declarations, known only
    # when the walk ends, go in behind its name, the walk's first piece.
    slot = len(out)
    _write_compact(root, allocator, out)
    out[slot] += allocator.declarations()
    return "".join(out)


_PREFERRED = NS.PREFERRED_PREFIXES
_new_element = Element.__new__


def write_fragment(element: Element, out: List[str], mentions: Dict[str, None]) -> Optional[Element]:
    """Append to *out* the pieces of *element* as it appears *inside* a
    :func:`to_string` document — compact, no declarations (the root
    hoists them), its tail behind it — add the namespace URIs it
    mentions to *mentions* in order of first mention, and return the
    deep copy of *element* (:meth:`Element.copy`) built in the same walk.

    Only possible when every namespace the fragment mentions has an
    entry in ``NS.PREFERRED_PREFIXES`` — such a prefix is the same in
    any document.  Any other namespace is given ``ns0``, ``ns1``, ... in
    document order, so its prefix depends on what precedes the fragment;
    the walk gives up at the first one with ``None`` (what was appended
    is of no use) and the caller writes the document with :func:`to_string`.
    """
    uri, local = tag = element.tag
    if uri:
        prefix = _PREFERRED.get(uri)
        if prefix is None:
            return None
        mentions[uri] = None
        out.append(f"<{prefix}:{local}")
        end = f"</{prefix}:{local}>"
    else:
        out.append("<" + local)
        end = f"</{local}>"
    copy = _new_element(Element)
    copy.tag = tag
    copy.text = text = element.text
    copy.tail = tail = element.tail
    copy.attrib = attrib = element.attrib.copy()
    if attrib:
        for (uri, local), value in attrib.items():
            if uri:
                prefix = _PREFERRED.get(uri)
                if prefix is None:
                    return None
                mentions[uri] = None
                local = f"{prefix}:{local}"
            # the escapes' own tests, inline: a clean value costs no call
            if "&" in value or "<" in value or ">" in value or '"' in value:
                value = escape_attr(value)
            out.append(f' {local}="{value}"')
    copy.children = children = []
    if text or element.children:
        out.append(">")
        if text:
            out.append(escape_text(text) if "&" in text or "<" in text or ">" in text else text)
        for child in element.children:
            child = write_fragment(child, out, mentions)
            if child is None:
                return None
            children.append(child)
        out.append(end)
    else:
        out.append(" />")
    if tail:
        out.append(escape_text(tail))
    return copy


#: namespace -> (its preferred prefix, the declaration a root carries
#: for it): a preferred prefix is the same in every document
_PREFERRED_DECLARATIONS = {
    uri: (prefix, _declaration(prefix, uri))
    for uri, prefix in NS.PREFERRED_PREFIXES.items()
}


def document_frame(tag: QName, uris: Iterable[str]) -> Tuple[str, str]:
    """The start and end tag :func:`to_string` writes for an
    attribute-less root *tag* with element content only, when the
    fragments inside mention the namespaces *uris* (each, like the
    root's, with a preferred prefix): the document is start tag +
    fragments + end tag."""
    declared = set(uris)
    name = tag.local
    try:
        if tag.uri:
            declared.add(tag.uri)
            name = _PREFERRED_DECLARATIONS[tag.uri][0] + ":" + name
        # hoisted declarations are sorted by prefix
        decls = sorted([_PREFERRED_DECLARATIONS[uri] for uri in declared])
    except KeyError as missing:
        raise ValueError(f"namespace {missing} has no preferred prefix") from None
    return "<" + name + "".join([decl for _, decl in decls]) + ">", "</" + name + ">"


class DocumentFrames:
    """:func:`document_frame`, written once per (root tag, namespace
    set) and remembered.

    A codec writes few document shapes many times over: an envelope
    whose pieces mention ``wsa:`` and one service's namespace, a state
    blob of one service's fields.  The key is what the frame depends on
    and nothing else, and every namespace in it has a preferred prefix
    (a set that holds one without raises, each time, and is not kept),
    so the table is bounded by the deployment's message and state
    shapes — never by the messages, rows or job sets that use them.
    """

    __slots__ = ("_frames",)

    def __init__(self) -> None:
        self._frames: Dict[Tuple[QName, FrozenSet[str]], Tuple[str, str]] = {}

    def __call__(self, tag: QName, uris: Iterable[str]) -> Tuple[str, str]:
        key = (tag, frozenset(uris))
        frame = self._frames.get(key)
        if frame is None:
            frame = self._frames[key] = document_frame(tag, key[1])
        return frame

    def __len__(self) -> int:
        return len(self._frames)


def _name(qname: QName, allocator: _PrefixAllocator) -> str:
    memo = allocator._name_memo
    formatted = memo.get(qname)
    if formatted is None:
        if not qname.uri:
            formatted = qname.local
        else:
            formatted = f"{allocator.prefix_for(qname.uri)}:{qname.local}"
        memo[qname] = formatted
    return formatted


def _write_compact(
    element: Element,
    allocator: _PrefixAllocator,
    out: List[str],
) -> None:
    """Compact serialization for :func:`to_string`, the reference.

    Start/end tag fragments are memoized per QName so repeated names
    cost two dict hits, not string formatting.
    """
    memo = allocator._tag_memo
    tag = element.tag
    parts = memo.get(tag)
    if parts is None:
        name = _name(tag, allocator)
        parts = ("<" + name, "</" + name + ">")
        memo[tag] = parts
    out.append(parts[0])
    if element.attrib:
        for name, value in element.attrib.items():
            out.append(f' {_name(name, allocator)}="{escape_attr(value)}"')
    text = element.text
    children = element.children
    if not text and not children:
        out.append(" />")
        return
    out.append(">")
    if text:
        out.append(escape_text(text))
    for child in children:
        _write_compact(child, allocator, out)
        if child.tail:
            out.append(escape_text(child.tail))
    out.append(parts[1])
