"""Namespace-aware XML serializer."""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.xmlx.element import Element
from repro.xmlx.qname import NS, QName

_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;")]

# Most values carry no markup characters; one C-level scan decides
# whether any replace() allocations are needed at all.
_TEXT_NEEDS_ESCAPE = re.compile(r"[&<>]").search
_ATTR_NEEDS_ESCAPE = re.compile(r'[&<>"]').search


def escape_text(value: str) -> str:
    if _TEXT_NEEDS_ESCAPE(value) is None:
        return value
    if "&" in value:
        value = value.replace("&", "&amp;")
    if "<" in value:
        value = value.replace("<", "&lt;")
    if ">" in value:
        value = value.replace(">", "&gt;")
    return value


def escape_attr(value: str) -> str:
    if _ATTR_NEEDS_ESCAPE(value) is None:
        return value
    value = escape_text(value)
    if '"' in value:
        value = value.replace('"', "&quot;")
    return value


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

    def declarations(self) -> List[str]:
        return [
            f'xmlns:{prefix}="{escape_attr(uri)}"'
            for uri, prefix in sorted(self._by_uri.items(), key=lambda kv: kv[1])
        ]


def _collect_uris(element: Element, allocator: _PrefixAllocator) -> None:
    if element.tag.uri:
        allocator.prefix_for(element.tag.uri)
    for name in element.attrib:
        if name.uri:
            allocator.prefix_for(name.uri)
    for child in element.children:
        _collect_uris(child, allocator)


def to_string(root: Element, xml_declaration: bool = False, indent: bool = False) -> str:
    """Serialize *root* to XML text.

    All namespace declarations are hoisted to the root element (the style
    ASP.NET uses for SOAP envelopes), which keeps prefixes stable and the
    output easy to diff in tests.
    """
    allocator = _PrefixAllocator()
    _collect_uris(root, allocator)
    out: List[str] = []
    if xml_declaration:
        out.append('<?xml version="1.0" encoding="utf-8"?>')
        if indent:
            out.append("\n")
    if indent:
        _write(root, allocator, out, root_decls=allocator.declarations(), indent=True, depth=0)
    else:
        _write_compact(root, allocator, out, allocator.declarations())
    return "".join(out)


#: a serialized child element plus the namespace URIs it mentions (which
#: the document that embeds it must declare on its root)
Fragment = Tuple[str, Tuple[str, ...]]


def fragment_to_string(element: Element) -> Optional[Fragment]:
    """Serialize *element* as it appears *inside* a :func:`to_string`
    document: compact, no declarations (the root hoists them).

    Only possible when every namespace the fragment mentions has an
    entry in ``NS.PREFERRED_PREFIXES`` — such a prefix is the same in
    any document.  Any other namespace is given ``ns0``, ``ns1``, ... in
    document order, so its prefix depends on what precedes the fragment;
    the answer is then ``None`` and the caller serializes the whole
    document with :func:`to_string`.
    """
    allocator = _PrefixAllocator()
    out: List[str] = []
    _write_compact(element, allocator, out)
    preferred = NS.PREFERRED_PREFIXES
    for uri, prefix in allocator._by_uri.items():
        if preferred.get(uri) != prefix:
            return None
    return "".join(out), tuple(allocator._by_uri)


def document_frame(tag: QName, uris: Iterable[str]) -> Tuple[str, str]:
    """The start and end tag :func:`to_string` writes for an
    attribute-less root *tag* with element content only, when the
    fragments inside mention the namespaces *uris*: the document is
    start tag + fragments + end tag."""
    if tag.uri and tag.uri not in NS.PREFERRED_PREFIXES:
        raise ValueError(f"root namespace {tag.uri!r} has no preferred prefix")
    allocator = _PrefixAllocator()
    name = _name(tag, allocator)
    for uri in uris:
        allocator.prefix_for(uri)
    decls = "".join(" " + decl for decl in allocator.declarations())
    return "<" + name + decls + ">", "</" + name + ">"


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
    root_decls=None,
) -> None:
    """Non-indented serialization — the wire-format hot path.

    Same output as ``_write(indent=False)``; start/end tag fragments are
    memoized per QName so repeated names cost two dict hits, not string
    formatting.
    """
    memo = allocator._tag_memo
    tag = element.tag
    parts = memo.get(tag)
    if parts is None:
        name = _name(tag, allocator)
        parts = ("<" + name, "</" + name + ">")
        memo[tag] = parts
    out.append(parts[0])
    if root_decls:
        for decl in root_decls:
            out.append(" " + decl)
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


def _write(
    element: Element,
    allocator: _PrefixAllocator,
    out: List[str],
    root_decls=None,
    indent: bool = False,
    depth: int = 0,
) -> None:
    pad = "  " * depth if indent else ""
    tag = _name(element.tag, allocator)
    out.append(f"{pad}<{tag}")
    if root_decls:
        for decl in root_decls:
            out.append(f" {decl}")
    for name, value in element.attrib.items():
        out.append(f' {_name(name, allocator)}="{escape_attr(value)}"')
    if not element.text and not element.children:
        out.append(" />")
        if indent:
            out.append("\n")
        return
    out.append(">")
    if element.text:
        out.append(escape_text(element.text))
    if element.children:
        if indent and not element.text:
            out.append("\n")
        for child in element.children:
            _write(child, allocator, out, indent=indent and not element.text, depth=depth + 1)
            if child.tail:
                out.append(escape_text(child.tail))
        if indent and not element.text:
            out.append(pad)
    out.append(f"</{tag}>")
    if indent:
        out.append("\n")
