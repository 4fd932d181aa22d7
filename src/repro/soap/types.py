"""xsi-typed value (de)serialization.

The WSRF.NET wrapper serializes method arguments, return values and
resource state to XML.  This module is the equivalent of the ASP.NET
XML serializer for the primitive types the testbed uses, plus EPRs,
byte blobs, lists and string-keyed dicts.  A value that decodes to
itself can also cross the in-process hand-off as a value
(:func:`typed_value`), its element built only if someone reads it.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Optional, Tuple

from repro.soap.fault import SoapFault
from repro.wsa.epr import EndpointReference
from repro.xmlx import NS, Element, QName
from repro.xmlx.writer import escape_text, write_fragment

_XSI_TYPE = QName(NS.XSI, "type")
_XSI_NIL = QName(NS.XSI, "nil")

_ITEM = QName(NS.UVACG, "item")
_ENTRY = QName(NS.UVACG, "entry")
_KEY = QName(NS.UVACG, "key")
_VALUE = QName(NS.UVACG, "value")
_EPR_ADDRESS = QName(NS.WSA, "Address")
_EPR_PROPERTIES = QName(NS.WSA, "ReferenceProperties")

#: the ``xsi:type`` names of the two containers
_ARRAY = "uva:array"
_MAP = "uva:map"


class _Base64Piece:
    """The base64 text of :attr:`raw`, written only if the document is
    read as text: the deferred piece (:class:`~repro.xmlx.writer.WireText`)
    the envelope writer appends for a ``bytes`` leaf, whose receiver is
    handed the value and never reads the text (docs/performance.md,
    "Bulk data path")."""

    __slots__ = ("raw",)

    def __init__(self, raw: bytes) -> None:
        self.raw = raw

    def __len__(self) -> int:
        return (len(self.raw) + 2) // 3 * 4

    def __str__(self) -> str:
        return base64.b64encode(self.raw).decode("ascii")


def _literal(element: Element, xsi_type: str, convert) -> Any:
    """``convert(text)`` of a numeric leaf, a bad literal being the
    sender's mistake (``soap:Client``) and not a stray ``ValueError``.

    Python's ``int()`` / ``float()`` read more than any sender writes —
    ``1_000``, digits of other scripts — so a literal with an underscore
    or a non-ASCII character is refused before they see it.
    """
    text = element.full_text().strip()
    if "_" not in text and text.isascii():
        try:
            return convert(text)
        except ValueError:
            pass
    kind = xsi_type[len("xsd:"):]
    raise SoapFault("soap:Client", f"bad {kind} literal {text!r}")


#: the leaf types: what :func:`_leaf` spells
_LEAVES = (bool, int, float, str, bytes)


def _leaf(value: Any) -> Tuple[str, str]:
    """The ``xsi:type`` name and the literal of a leaf *value* (one of
    :data:`_LEAVES`, ``bool`` before ``int``): the one spelling, for the
    element :func:`to_typed_element` builds and the text
    :func:`write_typed` appends."""
    if isinstance(value, bool):
        return "xsd:boolean", "true" if value else "false"
    if isinstance(value, int):
        return "xsd:long", str(value)
    if isinstance(value, float):
        return "xsd:double", repr(value)
    if isinstance(value, str):
        return "xsd:string", value
    return "xsd:base64Binary", base64.b64encode(value).decode("ascii")


def to_typed_element(tag, value: Any) -> Element:
    """Serialize *value* into an element named *tag* with an xsi:type.
    A value that is to cross the envelope goes as :func:`typed_value`,
    which builds no element unless someone reads it."""
    el = Element(tag)
    if value is None:
        el.attrib[_XSI_NIL] = "true"
    elif isinstance(value, _LEAVES):
        el.attrib[_XSI_TYPE], el.text = _leaf(value)
    elif isinstance(value, EndpointReference):
        el.attrib[_XSI_TYPE] = "wsa:EndpointReferenceType"
        for child in value.to_xml().children:
            el.append(child)
    elif isinstance(value, Element):
        el.attrib[_XSI_TYPE] = "uva:xmlAny"
        el.append(value.copy())
    elif isinstance(value, (list, tuple)) and not isinstance(value, QName):  # a name is no array
        el.attrib[_XSI_TYPE] = _ARRAY
        for item in value:
            el.append(to_typed_element(_ITEM, item))
    elif isinstance(value, dict):
        el.attrib[_XSI_TYPE] = _MAP
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"map keys must be strings, got {key!r}")
            entry = el.subelement(_ENTRY)
            entry.subelement(_KEY, text=key)
            entry.append(to_typed_element(_VALUE, item))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")
    return el


def _prefixed(qname: QName) -> str:
    return f"{NS.PREFERRED_PREFIXES[qname.uri]}:{qname.local}"


_TYPE_ATTR = _prefixed(_XSI_TYPE)
_NIL_ATTR = _prefixed(_XSI_NIL)
_ITEM_NAME = _prefixed(_ITEM)
_ENTRY_NAME = _prefixed(_ENTRY)
_KEY_NAME = _prefixed(_KEY)
_VALUE_NAME = _prefixed(_VALUE)
#: the exact types :func:`write_typed` spells itself
_LEAF_TYPES = frozenset(_LEAVES)
_STR_ONLY = frozenset({str})


#: where one entry of a map sits in a :func:`write_typed` output: its
#: pieces ``out[begin:end]`` and the namespaces its value mentions
#: beyond the map's own (its tag's, xsi, uva)
EntrySpan = Tuple[int, int, Tuple[str, ...]]


def write_typed(
    tag: QName, value: Any, out: List[Any], deferred: Optional[List[Any]] = None,
    entries: Optional[List[EntrySpan]] = None,
) -> Optional[Tuple[str, ...]]:
    """:func:`~repro.xmlx.writer.write_fragment` of
    ``to_typed_element(tag, value)`` without the element: the same
    pieces of text appended to *out*, the namespaces it mentions
    returned in the same order, in one walk of *value*.

    Given a *deferred* list, the text of a non-empty value that is
    exactly ``bytes`` is appended as a deferred base64 piece (its
    length known, encoded only if the text is read), to *out* and to
    *deferred*: *out* then makes a :class:`~repro.xmlx.writer.WireText`,
    not a ``"".join``.

    Given an *entries* list, a non-empty map with ``str`` keys reports
    its entry boundaries there, one :data:`EntrySpan` per entry in
    order: what lets a state encoder copy an unchanged entry out of the
    blob it was written into (``repro.db.resource_store._assemble``).

    A second output of one grammar, not a second grammar.  The walk
    spells the exact types ``str``, ``int``, ``bool``, ``float``,
    ``bytes``, ``None``, ``dict`` with ``str`` keys, ``list`` and
    ``EndpointReference`` — the leaves through :func:`_leaf`, as the
    element does — and hands everything else to the reference, subtree
    by subtree: an ``Element``, a tuple, any subclass, a map with some
    other key.  So the reference's ``TypeError`` is raised by the
    reference, and ``None`` is its answer too: a namespace without a
    preferred prefix, in *tag* or below it, has no document-independent
    spelling (:func:`~repro.xmlx.writer.write_fragment`).
    """
    name = tag.local
    mentions: Dict[str, None] = {}  # in order of first mention
    if tag.uri:
        prefix = NS.PREFERRED_PREFIXES.get(tag.uri)
        if prefix is None:
            to_typed_element(tag, value)  # raises what the reference raises
            return None
        name = f"{prefix}:{name}"
        mentions[tag.uri] = None
    mentions[NS.XSI] = None
    exact = _write_typed(tag, name, value, out, mentions, deferred, entries)
    return tuple(mentions) if exact else None


def _write_typed(
    tag: QName, name: str, value: Any, out: List[Any], mentions: Dict[str, None],
    deferred: Optional[List[Any]], entries: Optional[List[EntrySpan]] = None,
) -> bool:
    """The element *name* (*tag* as written) of *value*; False when a
    subtree handed to the reference has no document-independent
    spelling — the walk goes on, what it meets next may not encode."""
    cls = type(value)
    if cls in _LEAF_TYPES:
        if cls is bytes and value and deferred is not None:
            piece = _Base64Piece(value)
            deferred.append(piece)
            out += (f'<{name} {_TYPE_ATTR}="xsd:base64Binary">', piece, f"</{name}>")
            return True
        xsi_type, text = _leaf(value)
        start = f'<{name} {_TYPE_ATTR}="{xsi_type}"'
        if text:
            out += (start + ">", escape_text(text), f"</{name}>")
        else:
            out.append(start + " />")
    elif value is None:
        out.append(f'<{name} {_NIL_ATTR}="true" />')
    elif cls is list or (cls is dict and _STR_ONLY.issuperset(map(type, value))):
        start = f'<{name} {_TYPE_ATTR}="{_ARRAY if cls is list else _MAP}"'
        if not value:
            out.append(start + " />")
            return True
        out.append(start + ">")
        mentions[NS.UVACG] = None
        exact = True
        if cls is list:
            for item in value:
                exact &= _write_typed(_ITEM, _ITEM_NAME, item, out, mentions, deferred)
        else:
            for key, item in value.items():
                begin = len(out)
                out.append(
                    f"<{_ENTRY_NAME}><{_KEY_NAME}>{escape_text(key)}</{_KEY_NAME}>"
                    if key else f"<{_ENTRY_NAME}><{_KEY_NAME} />"
                )
                if entries is None:
                    exact &= _write_typed(_VALUE, _VALUE_NAME, item, out, mentions, deferred)
                else:
                    own: Dict[str, None] = {}
                    exact &= _write_typed(_VALUE, _VALUE_NAME, item, out, own, deferred)
                    mentions.update(own)
                out.append(f"</{_ENTRY_NAME}>")
                if entries is not None:
                    entries.append((begin, len(out), tuple(own)))
        out.append(f"</{name}>")
        return exact
    elif cls is EndpointReference:
        return _write_epr(name, value, out, mentions)
    else:
        return write_fragment(to_typed_element(tag, value), out, mentions) is not None
    return True


_EPR_START = f' {_TYPE_ATTR}="wsa:EndpointReferenceType"><{_prefixed(_EPR_ADDRESS)}>'
_EPR_ADDRESS_END = f"</{_prefixed(_EPR_ADDRESS)}>"
_EPR_PROPS = _prefixed(_EPR_PROPERTIES)


def _write_epr(name: str, epr: EndpointReference, out: List[Any], mentions: Dict[str, None]) -> bool:
    """The element *name* of *epr*, as ``write_fragment`` writes what
    :func:`to_typed_element` builds for it (the element stays the
    reference, ``TestTypedWriter`` the differential).  False for a
    reference property in a namespace without a preferred prefix."""
    mentions[NS.WSA] = None
    out += ("<" + name + _EPR_START, escape_text(epr.address), _EPR_ADDRESS_END)
    props = epr.property_items
    if props:
        out.append(f"<{_EPR_PROPS}>")
        for (uri, local), text in props:
            if uri:
                prefix = NS.PREFERRED_PREFIXES.get(uri)
                if prefix is None:
                    return False
                mentions[uri] = None
                local = f"{prefix}:{local}"
            out.append(f"<{local}>{escape_text(text)}</{local}>" if text else f"<{local} />")
        out.append(f"</{_EPR_PROPS}>")
    out.append(f"</{name}>")
    return True


# -- values that decode to themselves ------------------------------------------------

#: the exact types whose values are immutable and decode to themselves:
#: a kept value of one of them is its own copy (:func:`copy_field`
#: returns it as it is), so a reader may take it without the call
IMMUTABLE_LEAVES = frozenset({str, int, bool, float, bytes, type(None)})


class _Inexact(Exception):
    """A value that does not decode to itself (a tuple comes back a
    list, a subclass its base): it must cross the codec to be loaded."""


def copy_field(value: Any) -> Any:
    """Isolation copy of a value that decodes to itself: what a reader
    of a kept field (:meth:`repro.db.DecodeCache.kept`) or of a
    :class:`TypedValue` gets to own and mutate.  An immutable leaf is
    its own copy.

    The typed-value universe is closed: the only mutable shapes are
    dict, list and Element — everything else (str, int, float, bool,
    bytes, None, EndpointReference) is immutable and safe to share.  So
    a container is copied in one call and only the members that are not
    plain leaves are looked at again; the leaves, nearly all of a value,
    cost no call of their own.  What :func:`from_typed_element` produced
    is always inside the universe; what a caller hands in may not be —
    a tuple, a subclass, a map key that is not exactly ``str``, an EPR
    whose address the parser would strip — and raises :class:`_Inexact`.
    """
    cls = type(value)
    if cls is dict:
        if not _STR_ONLY.issuperset(map(type, value)):
            raise _Inexact
        copy = value.copy()
        for key, item in value.items():
            if type(item) not in IMMUTABLE_LEAVES:
                copy[key] = copy_field(item)
        return copy
    if cls is list:
        copy = value.copy()
        for at, item in enumerate(value):
            if type(item) not in IMMUTABLE_LEAVES:
                copy[at] = copy_field(item)
        return copy
    if cls in IMMUTABLE_LEAVES:
        return value
    if cls is Element:
        return value.copy()
    if cls is EndpointReference and value.address == value.address.strip():
        return value
    raise _Inexact


#: what a read copy shares with the kept value it copies: the immutable
#: leaves and the EPRs, each checked once on its way in
SHARED_ON_READ = IMMUTABLE_LEAVES | {EndpointReference}


def read_copy(value: Any) -> Any:
    """:func:`copy_field` of a value that is already kept: a kept value
    entered through :func:`copy_field` or the strict decode, which
    checked every member, so the copy only isolates the mutable shapes
    (dict, list, Element) and shares everything else.  A container of
    shared members only, the common case, is copied without a Python
    loop."""
    cls = type(value)
    if cls is dict:
        copy = value.copy()
        if not SHARED_ON_READ.issuperset(map(type, value.values())):
            for key, item in value.items():
                if type(item) not in SHARED_ON_READ:
                    copy[key] = read_copy(item)
        return copy
    if cls is list:
        copy = value.copy()
        if not SHARED_ON_READ.issuperset(map(type, value)):
            for at, item in enumerate(value):
                if type(item) not in SHARED_ON_READ:
                    copy[at] = read_copy(item)
        return copy
    if cls is Element:
        return value.copy()
    return value


#: what a :class:`TypedValue` holds once its tree is built
_BUILT = object()
_ATTRIB, _TEXT, _CHILDREN = (Element.__dict__[slot] for slot in ("attrib", "text", "children"))


def _tree_slot(slot):
    """An element slot of :class:`TypedValue`: read or written, it is
    the slot of the tree :func:`to_typed_element` builds, built first."""

    def get(self):
        if self.value is not _BUILT:
            self._build()
        return slot.__get__(self)

    def put(self, content):
        if self.value is not _BUILT:
            self._build()
        slot.__set__(self, content)

    return property(get, put)


class TypedValue(Element):
    """``to_typed_element(tag, value)`` not built yet: the element a
    producer hands to the envelope (:func:`typed_value`).

    It holds an isolated copy of the value (:func:`copy_field`).  The
    first read or write of ``attrib``, ``text`` or ``children`` builds
    the tree, so every reader and writer of elements sees exactly the
    element it stands for; after that it is that element, and ``value``
    no longer holds the value.  Until then the envelope splice writes its text with
    :func:`write_typed` and hands the receiver a fresh one over the same
    value, and :func:`from_typed_element` answers with a copy of the
    value: nobody builds, copies or walks a tree.  It needs no table,
    and nothing invalidates it.
    """

    __slots__ = ("value",)

    attrib = _tree_slot(_ATTRIB)
    text = _tree_slot(_TEXT)
    children = _tree_slot(_CHILDREN)

    @property
    def unread(self) -> bool:
        """True while the tree is not built: ``value`` is what it holds."""
        return self.value is not _BUILT

    def _build(self) -> None:
        tree = to_typed_element(self.tag, self.value)
        self.value = _BUILT
        _ATTRIB.__set__(self, tree.attrib)
        _TEXT.__set__(self, tree.text)
        _CHILDREN.__set__(self, tree.children)


_new_typed = TypedValue.__new__


def typed_value(tag: QName, value: Any) -> Element:
    """The element :func:`to_typed_element` builds for *value*, as a
    :class:`TypedValue` over an isolated copy — or, for a value that
    does not decode to itself (:class:`_Inexact`), that element built
    now, raising what it raises.  The caller may go on mutating
    *value*; the element does not see it."""
    if type(value) not in IMMUTABLE_LEAVES:
        try:
            value = copy_field(value)
        except _Inexact:
            return to_typed_element(tag, value)
    element = _new_typed(TypedValue)
    element.tag = tag
    element.tail = ""
    element.value = value
    return element


def from_typed_element(element: Element) -> Any:
    """Inverse of :func:`to_typed_element`.

    A :class:`TypedValue` whose tree nobody built answers with a copy of
    its value.  A malformed literal raises ``SoapFault("soap:Client",
    "bad <type> literal ...")``.
    """
    if type(element) is TypedValue and element.unread:
        value = element.value
        return value if type(value) in SHARED_ON_READ else read_copy(value)
    if element.get(_XSI_NIL) == "true":
        return None
    xsi_type = element.get(_XSI_TYPE)
    if xsi_type is None:
        # Untyped leaves decode as strings; this keeps hand-written
        # envelopes in tests convenient.
        return element.full_text()
    if xsi_type == "xsd:boolean":
        text = element.full_text().strip()
        if text not in ("true", "false", "1", "0"):
            raise SoapFault("soap:Client", f"bad boolean literal {text!r}")
        return text in ("true", "1")
    if xsi_type in ("xsd:long", "xsd:int"):
        return _literal(element, xsi_type, int)
    if xsi_type in ("xsd:double", "xsd:float"):
        return _literal(element, xsi_type, float)
    if xsi_type == "xsd:string":
        return element.full_text()
    if xsi_type == "xsd:base64Binary":
        try:
            return base64.b64decode(element.full_text().strip().encode("ascii"))
        except ValueError as exc:  # binascii.Error, UnicodeEncodeError
            # the reason, not the text: the literal may be megabytes
            raise SoapFault("soap:Client", f"bad base64Binary literal: {exc}") from None
    if xsi_type == "wsa:EndpointReferenceType":
        try:
            return EndpointReference.from_xml(element)
        except ValueError as exc:
            raise SoapFault("soap:Client", f"bad EndpointReferenceType: {exc}") from None
    if xsi_type == "uva:xmlAny":
        if len(element.children) != 1:
            raise SoapFault("soap:Client", "xmlAny must wrap exactly one element")
        return element.children[0].copy()
    if xsi_type == _ARRAY:
        return [from_typed_element(child) for child in element.children]
    if xsi_type == _MAP:
        out = {}
        for entry in element.children:
            key = entry.child_text(_KEY)
            value_el = entry.find(_VALUE)
            if key is None or value_el is None:
                raise SoapFault("soap:Client", "malformed map entry")
            out[key] = from_typed_element(value_el)
        return out
    raise SoapFault("soap:Client", f"unknown xsi:type {xsi_type!r}")
