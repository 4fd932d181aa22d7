"""Qualified names and the namespace URIs of every spec the paper uses."""

from __future__ import annotations

from collections import namedtuple
from typing import Optional


class NS:
    """Namespace URI constants.

    The WSRF/WSN URIs follow the 2004 draft specifications referenced by
    the paper (the GGF/OASIS drafts WSRF.NET 1.1 implemented).
    """

    SOAP = "http://schemas.xmlsoap.org/soap/envelope/"
    XSD = "http://www.w3.org/2001/XMLSchema"
    XSI = "http://www.w3.org/2001/XMLSchema-instance"
    WSA = "http://schemas.xmlsoap.org/ws/2004/03/addressing"
    WSRF_RP = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceProperties"
    WSRF_RL = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceLifetime"
    WSRF_BF = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-BaseFaults"
    WSRF_SG = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ServiceGroup"
    WSNT = "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BaseNotification"
    WSTOP = "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-Topics"
    WSBN = "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BrokeredNotification"
    WSSE = (
        "http://docs.oasis-open.org/wss/2004/01/"
        "oasis-200401-wss-wssecurity-secext-1.0.xsd"
    )
    WSDL = "http://schemas.xmlsoap.org/wsdl/"
    #: the testbed's own application namespace (UVa campus grid services)
    UVACG = "http://www.cs.virginia.edu/~gsw2c/uvacg"

    #: conventional prefixes used by the serializer when none is bound
    PREFERRED_PREFIXES = {
        SOAP: "soap",
        XSD: "xsd",
        XSI: "xsi",
        WSA: "wsa",
        WSRF_RP: "wsrp",
        WSRF_RL: "wsrl",
        WSRF_BF: "wsbf",
        WSRF_SG: "wssg",
        WSNT: "wsnt",
        WSTOP: "wstop",
        WSBN: "wsbn",
        WSSE: "wsse",
        WSDL: "wsdl",
        UVACG: "uva",
    }


class QName(namedtuple("QName", ("uri", "local"))):
    """An immutable namespace-qualified name: the tuple ``(uri, local)``.

    ``QName("ns", "local")`` or ``QName("{ns}local")`` (Clark notation).
    Unqualified names use ``uri=""``.  Hash and equality are the tuple's,
    in C: ``hash(q) == hash((q.uri, q.local))``, and a name equals the
    tuple of its fields, never its Clark string.
    """

    __slots__ = ()

    def __new__(cls, uri_or_clark: str, local: Optional[str] = None) -> "QName":
        if local is None:
            text = uri_or_clark
            if text.startswith("{"):
                end = text.find("}")
                if end < 0:
                    raise ValueError(f"malformed Clark notation: {text!r}")
                uri, local = text[1:end], text[end + 1 :]
            else:
                uri, local = "", text
        else:
            uri = uri_or_clark
        if not local:
            raise ValueError("QName requires a non-empty local name")
        return tuple.__new__(cls, (uri, local))

    def clark(self) -> str:
        """Clark notation, e.g. ``{http://ns}local``."""
        return f"{{{self.uri}}}{self.local}" if self.uri else self.local

    def __repr__(self) -> str:
        return f"QName({self.clark()!r})"

    def __str__(self) -> str:
        return self.clark()
