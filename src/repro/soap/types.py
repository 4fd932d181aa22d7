"""xsi-typed value (de)serialization.

The WSRF.NET wrapper serializes method arguments, return values and
resource state to XML.  This module is the equivalent of the ASP.NET
XML serializer for the primitive types the testbed uses, plus EPRs,
byte blobs, lists and string-keyed dicts.
"""

from __future__ import annotations

import base64
from typing import Any

from repro.soap.fault import SoapFault
from repro.wsa.epr import EndpointReference
from repro.xmlx import NS, Element, QName

_XSI_TYPE = QName(NS.XSI, "type")
_XSI_NIL = QName(NS.XSI, "nil")

_ITEM = QName(NS.UVACG, "item")
_ENTRY = QName(NS.UVACG, "entry")
_KEY = QName(NS.UVACG, "key")
_VALUE = QName(NS.UVACG, "value")


class _Base64Text(str):
    """The base64 text of :attr:`raw`, still referring to it: the
    decoded hand-off for a ``bytes`` leaf (docs/performance.md, "Bulk
    data path").  Equal, hashed and written as the plain ``str`` it is;
    immutable, so it cannot go stale, and it lives as long as the text
    does — no table, nothing to reset.  Text that came through the
    parser is a plain ``str`` and is decoded.
    """

    __slots__ = ("raw",)
    raw: bytes

    def __new__(cls, raw: bytes) -> "_Base64Text":
        # str(bytes, "ascii"): built straight from the encoder's output
        self = super().__new__(cls, base64.b64encode(raw), "ascii")
        self.raw = raw
        return self


def _literal(element: Element, xsi_type: str, convert) -> Any:
    """``convert(text)`` of a numeric leaf, a bad literal being the
    sender's mistake (``soap:Client``) and not a stray ``ValueError``."""
    text = element.full_text().strip()
    try:
        return convert(text)
    except ValueError:
        kind = xsi_type[len("xsd:"):]
        raise SoapFault("soap:Client", f"bad {kind} literal {text!r}") from None


def to_typed_element(tag, value: Any) -> Element:
    """Serialize *value* into an element named *tag* with an xsi:type.

    A value that is exactly ``bytes`` (immutable, and it decodes to
    itself) gets a text that still refers to it, so a receiver handed
    this very element — or a copy, :meth:`Element.copy` carries the text
    object — need not decode megabytes back into a second copy.  A
    ``bytes`` subclass decodes to its base, so it gets a plain ``str``.
    """
    el = Element(tag)
    if value is None:
        el.attrib[_XSI_NIL] = "true"
    elif isinstance(value, bool):
        el.attrib[_XSI_TYPE] = "xsd:boolean"
        el.text = "true" if value else "false"
    elif isinstance(value, int):
        el.attrib[_XSI_TYPE] = "xsd:long"
        el.text = str(value)
    elif isinstance(value, float):
        el.attrib[_XSI_TYPE] = "xsd:double"
        el.text = repr(value)
    elif isinstance(value, str):
        el.attrib[_XSI_TYPE] = "xsd:string"
        el.text = value
    elif isinstance(value, bytes):
        el.attrib[_XSI_TYPE] = "xsd:base64Binary"
        if type(value) is bytes:
            el.text = _Base64Text(value)
        else:
            el.text = base64.b64encode(value).decode("ascii")
    elif isinstance(value, EndpointReference):
        el.attrib[_XSI_TYPE] = "wsa:EndpointReferenceType"
        for child in value.to_xml().children:
            el.append(child)
    elif isinstance(value, Element):
        el.attrib[_XSI_TYPE] = "uva:xmlAny"
        el.append(value.copy())
    elif isinstance(value, (list, tuple)):
        el.attrib[_XSI_TYPE] = "uva:array"
        for item in value:
            el.append(to_typed_element(_ITEM, item))
    elif isinstance(value, dict):
        el.attrib[_XSI_TYPE] = "uva:map"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"map keys must be strings, got {key!r}")
            entry = el.subelement(_ENTRY)
            entry.subelement(_KEY, text=key)
            entry.append(to_typed_element(_VALUE, item))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")
    return el


def from_typed_element(element: Element) -> Any:
    """Inverse of :func:`to_typed_element`.

    A malformed literal raises ``SoapFault("soap:Client", "bad <type>
    literal ...")``.  A base64 leaf whose text is the very object
    :func:`to_typed_element` wrote (and that has gained no child) hands
    back the ``bytes`` it was encoded from; any other text — parsed,
    assigned, foreign — goes through ``base64.b64decode``.
    """
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
        text = element.text
        if type(text) is _Base64Text and not element.children:
            return text.raw
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
    if xsi_type == "uva:array":
        return [from_typed_element(child) for child in element.children]
    if xsi_type == "uva:map":
        out = {}
        for entry in element.children:
            key = entry.child_text(_KEY)
            value_el = entry.find(_VALUE)
            if key is None or value_el is None:
                raise SoapFault("soap:Client", "malformed map entry")
            out[key] = from_typed_element(value_el)
        return out
    raise SoapFault("soap:Client", f"unknown xsi:type {xsi_type!r}")
