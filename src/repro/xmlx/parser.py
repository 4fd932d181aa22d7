"""A small, strict, from-scratch XML parser.

Supports the subset of XML that SOAP messages use: a single root element,
namespace declarations (default and prefixed), attributes, character data
with the five predefined entities plus numeric character references,
comments, processing instructions and CDATA sections.  DTDs are rejected.

It is the reference decoder and the only path for text this process did
not write (foreign, hostile, resent or restored): everything the stack
encodes itself is handed over decoded (docs/performance.md), so no
ledger workload parses at all and the parser carries no memo or fast
path of its own — one way through each construct, every check on it.
The scanner indexes into the input instead of allocating substrings.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

from repro.xmlx.element import Element
from repro.xmlx.qname import QName
from repro.xmlx.writer import WireText

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

#: one C-level scan per name.  ``:`` is deliberately NOT a name-start
#: character: a name may carry at most one colon (prefix separator),
#: never leading or trailing (read_name).
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9._:\-]*")
_WHITESPACE = set(" \t\r\n")
_HEX_DIGITS = set("0123456789abcdefABCDEF")


class XmlParseError(ValueError):
    """Raised on malformed XML, with the byte offset of the problem."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class _Scanner:
    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def at_end(self) -> bool:
        return self.pos >= self.length

    def skip_whitespace(self) -> None:
        text, pos, length = self.text, self.pos, self.length
        while pos < length and text[pos] in _WHITESPACE:
            pos += 1
        self.pos = pos

    def read_until(self, literal: str) -> str:
        end = self.text.find(literal, self.pos)
        if end < 0:
            raise XmlParseError(f"unterminated construct, expected {literal!r}", self.pos)
        chunk = self.text[self.pos : end]
        self.pos = end + len(literal)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        match = _NAME_RE.match(self.text, start)
        if match is None:
            raise XmlParseError("expected a name", start)
        name = match.group()
        colon = name.find(":")
        if colon >= 0:
            second = name.find(":", colon + 1)
            if second >= 0:
                raise XmlParseError("multiple colons in name", start + second)
            if colon == len(name) - 1:
                raise XmlParseError("name must not end with a colon", start + colon)
        self.pos = match.end()
        return name


def _decode_char_reference(body: str, pos: int) -> str:
    if body[1:2] in ("x", "X"):
        digits = body[2:]
        if not digits or any(c not in _HEX_DIGITS for c in digits):
            raise XmlParseError(f"malformed character reference &{body};", pos)
        code = int(digits, 16)
    else:
        digits = body[1:]
        if not digits or not digits.isascii() or not digits.isdigit():
            raise XmlParseError(f"malformed character reference &{body};", pos)
        code = int(digits)
    if code > 0x10FFFF:
        raise XmlParseError(f"character reference &{body}; is beyond U+10FFFF", pos)
    if 0xD800 <= code <= 0xDFFF:
        raise XmlParseError(f"character reference &{body}; is a surrogate code point", pos)
    return chr(code)


def _decode_entities(raw: str, pos_hint: int) -> str:
    if "&" not in raw:
        return raw
    out: List[str] = []
    i = 0
    length = len(raw)
    while i < length:
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i)
        if end < 0:
            raise XmlParseError("unterminated entity reference", pos_hint + i)
        body = raw[i + 1 : end]
        if body.startswith("#"):
            out.append(_decode_char_reference(body, pos_hint + i))
        elif body in _ENTITIES:
            out.append(_ENTITIES[body])
        else:
            raise XmlParseError(f"unknown entity &{body};", pos_hint + i)
        i = end + 1
    return "".join(out)


class _NsScope:
    """A chain of in-scope namespace bindings."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: Dict[str, str], parent: Optional["_NsScope"]) -> None:
        self.bindings = bindings
        self.parent = parent

    def resolve(self, prefix: str) -> Optional[str]:
        scope: Optional[_NsScope] = self
        while scope is not None:
            if prefix in scope.bindings:
                return scope.bindings[prefix]
            scope = scope.parent
        return None


def _split_qname(raw: str, scope: _NsScope, pos: int, is_attr: bool) -> QName:
    colon = raw.find(":")
    if colon >= 0:
        prefix = raw[:colon]
        uri = scope.resolve(prefix)
        if uri is None:
            raise XmlParseError(f"unbound namespace prefix {prefix!r}", pos)
        return QName(uri, raw[colon + 1 :])
    if is_attr:
        # Per the namespaces spec, unprefixed attributes are in no namespace.
        return QName("", raw)
    return QName(scope.resolve("") or "", raw)


def _is_xml_decl(text: str, pos: int) -> bool:
    """True when ``text[pos:]`` starts an XML declaration (not a mere
    ``<?xml-stylesheet ...?>`` PI, whose target merely *starts* with xml)."""
    if text[pos : pos + 5].lower() != "<?xml":
        return False
    nxt = text[pos + 5 : pos + 6]
    return nxt == "" or nxt == "?" or nxt in _WHITESPACE


def parse(text: Union[str, WireText]) -> Element:
    """Parse *text* and return the root :class:`Element`; a
    :class:`~repro.xmlx.writer.WireText` is read as its text."""
    if isinstance(text, WireText):
        text = str(text)
    elif not isinstance(text, str):
        raise TypeError(f"parse() reads a str or a WireText, not {type(text).__name__}")
    scanner = _Scanner(text)
    # An XML declaration is legal only as the very first bytes of the
    # document — consume it here, and let _skip_misc reject any other.
    if _is_xml_decl(text, 0):
        scanner.advance(2)
        scanner.read_until("?>")
    _skip_misc(scanner)
    if scanner.at_end() or text[scanner.pos] != "<":
        raise XmlParseError("expected root element", scanner.pos)
    root = _parse_element(scanner, _NsScope({"xml": "http://www.w3.org/XML/1998/namespace"}, None))
    _skip_misc(scanner)
    if not scanner.at_end():
        raise XmlParseError("content after document root", scanner.pos)
    return root


def _skip_misc(scanner: _Scanner) -> None:
    text = scanner.text
    while True:
        scanner.skip_whitespace()
        pos = scanner.pos
        if text.startswith("<!--", pos):
            scanner.pos = pos + 4
            scanner.read_until("-->")
        elif text.startswith("<?", pos):
            if _is_xml_decl(text, pos):
                raise XmlParseError("misplaced XML declaration", pos)
            scanner.pos = pos + 2
            scanner.read_until("?>")
        elif text[pos : pos + 9].upper() == "<!DOCTYPE":
            raise XmlParseError("DTDs are not supported", pos)
        else:
            return


def _parse_attributes(
    scanner: _Scanner,
) -> Tuple[List[Tuple[str, str, int]], Dict[str, str], bool]:
    """Read a start tag's attributes up to its ``>`` or ``/>``; returns
    (raw attrs, xmlns bindings, empty element?)."""
    raw_attrs: List[Tuple[str, str, int]] = []
    ns_bindings: Dict[str, str] = {}
    text, length = scanner.text, scanner.length
    while True:
        scanner.skip_whitespace()
        pos = scanner.pos
        ch = text[pos] if pos < length else ""
        if ch == ">":
            scanner.pos = pos + 1
            return raw_attrs, ns_bindings, False
        if ch == "/" and text.startswith("/>", pos):
            scanner.pos = pos + 2
            return raw_attrs, ns_bindings, True
        name = scanner.read_name()
        scanner.skip_whitespace()
        if scanner.pos >= length or text[scanner.pos] != "=":
            raise XmlParseError("expected '='", scanner.pos)
        scanner.pos += 1
        scanner.skip_whitespace()
        quote = text[scanner.pos] if scanner.pos < length else ""
        if quote not in ("'", '"'):
            raise XmlParseError("attribute value must be quoted", scanner.pos)
        scanner.pos += 1
        value = _decode_entities(scanner.read_until(quote), pos)
        if name == "xmlns":
            ns_bindings[""] = value
        elif name.startswith("xmlns:"):
            ns_bindings[name[6:]] = value
        else:
            raw_attrs.append((name, value, pos))


def _parse_element(scanner: _Scanner, scope: _NsScope) -> Element:
    # Every caller has already seen "<" at the cursor.
    scanner.pos += 1
    tag_pos = scanner.pos
    raw_tag = scanner.read_name()
    raw_attrs, ns_bindings, is_empty = _parse_attributes(scanner)
    if ns_bindings:
        scope = _NsScope(ns_bindings, scope)
    # __new__ skips Element.__init__'s NameLike normalization — the
    # parser always holds a QName already.
    element = Element.__new__(Element)
    element.tag = _split_qname(raw_tag, scope, tag_pos, is_attr=False)
    element.attrib = {}
    element.text = ""
    element.tail = ""
    element.children = []
    attrib = element.attrib
    for name, value, pos in raw_attrs:
        qname = _split_qname(name, scope, pos, is_attr=True)
        if qname in attrib:
            raise XmlParseError(f"duplicate attribute {qname}", pos)
        attrib[qname] = value
    if is_empty:
        return element

    _parse_content(scanner, element, scope, raw_tag)
    return element


def _parse_content(scanner: _Scanner, element: Element, scope: _NsScope, raw_tag: str) -> None:
    text_parts: List[str] = []
    last_child: Optional[Element] = None
    text, length = scanner.text, scanner.length

    def flush_text() -> None:
        nonlocal last_child
        if not text_parts:
            return
        chunk = "".join(text_parts)
        text_parts.clear()
        if last_child is None:
            element.text += chunk
        else:
            last_child.tail += chunk

    while True:
        pos = scanner.pos
        if pos >= length:
            raise XmlParseError(f"unterminated element <{raw_tag}>", pos)
        if text[pos] == "<":
            nxt = text[pos + 1] if pos + 1 < length else ""
            if nxt == "/":
                flush_text()
                scanner.pos = pos + 2
                end_tag = scanner.read_name()
                if end_tag != raw_tag:
                    raise XmlParseError(
                        f"mismatched end tag </{end_tag}>, expected </{raw_tag}>",
                        scanner.pos,
                    )
                scanner.skip_whitespace()
                if scanner.pos >= length or text[scanner.pos] != ">":
                    raise XmlParseError("expected '>'", scanner.pos)
                scanner.pos += 1
                return
            if nxt == "!":
                if text.startswith("<!--", pos):
                    scanner.pos = pos + 4
                    scanner.read_until("-->")
                    continue
                if text.startswith("<![CDATA[", pos):
                    scanner.pos = pos + 9
                    text_parts.append(scanner.read_until("]]>"))
                    continue
            elif nxt == "?":
                scanner.pos = pos + 2
                scanner.read_until("?>")
                continue
            flush_text()
            last_child = _parse_element(scanner, scope)
            element.children.append(last_child)
            continue
        end = text.find("<", pos)
        if end < 0:
            raise XmlParseError(f"unterminated element <{raw_tag}>", pos)
        text_parts.append(_decode_entities(text[pos:end], pos))
        scanner.pos = end
