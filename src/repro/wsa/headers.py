"""WS-Addressing SOAP header block."""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.wsa.epr import EndpointReference
from repro.xmlx import NS, Element, QName
from repro.xmlx.writer import Fragment, escape_text

_TO = QName(NS.WSA, "To")
_ACTION = QName(NS.WSA, "Action")
_MESSAGE_ID = QName(NS.WSA, "MessageID")
_RELATES_TO = QName(NS.WSA, "RelatesTo")
_REPLY_TO = QName(NS.WSA, "ReplyTo")
_FAULT_TO = QName(NS.WSA, "FaultTo")

_id_counter = itertools.count(1)


def make_message_id() -> str:
    """A unique (per-run, deterministic) WS-Addressing MessageID URI."""
    return f"uuid:msg-{next(_id_counter):08d}"


class AddressingHeaders:
    """The WS-Addressing headers of one SOAP message.

    ``to_epr`` is the full EndpointReference the sender targeted; its
    reference properties are serialized as *separate header blocks*
    alongside ``<To>`` (the WS-Addressing binding the paper describes:
    "the unique name given in the ReferenceProperties element of the
    EPR" arrives in the headers of the invocation).
    """

    __slots__ = ("to_epr", "action", "message_id", "relates_to", "reply_to", "fault_to")

    def __init__(
        self,
        to_epr: EndpointReference,
        action: str,
        message_id: Optional[str] = None,
        relates_to: Optional[str] = None,
        reply_to: Optional[EndpointReference] = None,
        fault_to: Optional[EndpointReference] = None,
    ) -> None:
        self.to_epr = to_epr
        self.action = action
        self.message_id = message_id or make_message_id()
        self.relates_to = relates_to
        self.reply_to = reply_to
        self.fault_to = fault_to

    def to_header_elements(self) -> List[Element]:
        out: List[Element] = []
        out.append(Element(_TO, text=self.to_epr.address))
        out.append(Element(_ACTION, text=self.action))
        out.append(Element(_MESSAGE_ID, text=self.message_id))
        if self.relates_to:
            out.append(Element(_RELATES_TO, text=self.relates_to))
        if self.reply_to is not None:
            out.append(self.reply_to.to_xml(_REPLY_TO))
        if self.fault_to is not None:
            out.append(self.fault_to.to_xml(_FAULT_TO))
        for name, value in self.to_epr.reference_properties.items():
            out.append(Element(name, text=value))
        return out

    def header_fragment(self) -> Optional[Fragment]:
        """The blocks of :meth:`to_header_elements` as ``to_string``
        writes them inside an envelope, with the namespaces they mention
        — or None when :meth:`from_header_elements` would not read every
        field back as it stands here: ``reply_to`` / ``fault_to`` set, a
        value that is empty or that ``strip()`` changes, a reference
        property whose namespace has no preferred prefix (its ``ns0`` /
        ``ns1`` depends on the whole document) or is ``wsa:`` / ``wsse:``
        (not read back as a reference property).
        """
        if self.reply_to is not None or self.fault_to is not None:
            return None
        fields = [self.to_epr.address, self.action, self.message_id]
        if self.relates_to is not None:
            fields.append(self.relates_to)
        for value in fields:
            if not value or value != value.strip():
                return None
        text = (
            f"<wsa:To>{escape_text(fields[0])}</wsa:To>"
            f"<wsa:Action>{escape_text(fields[1])}</wsa:Action>"
            f"<wsa:MessageID>{escape_text(fields[2])}</wsa:MessageID>"
        )
        if self.relates_to is not None:
            text += f"<wsa:RelatesTo>{escape_text(self.relates_to)}</wsa:RelatesTo>"
        uris = [NS.WSA]
        for name, value in self.to_epr.reference_properties.items():
            prefix = NS.PREFERRED_PREFIXES.get(name.uri)
            if prefix is None or name.uri in (NS.WSA, NS.WSSE):
                return None
            uris.append(name.uri)
            tag = prefix + ":" + name.local
            text += f"<{tag}>{escape_text(value)}</{tag}>" if value else f"<{tag} />"
        return text, tuple(uris)

    @classmethod
    def from_header_elements(cls, headers: List[Element]) -> "AddressingHeaders":
        to_address = action = message_id = relates_to = None
        reply_to = fault_to = None
        ref_props = {}
        for header in headers:
            tag = header.tag
            if tag == _TO:
                to_address = header.full_text().strip()
            elif tag == _ACTION:
                action = header.full_text().strip()
            elif tag == _MESSAGE_ID:
                message_id = header.full_text().strip()
            elif tag == _RELATES_TO:
                relates_to = header.full_text().strip()
            elif tag == _REPLY_TO:
                reply_to = EndpointReference.from_xml(header)
            elif tag == _FAULT_TO:
                fault_to = EndpointReference.from_xml(header)
            elif tag.uri not in (NS.WSA, NS.WSSE):
                # Any other header is treated as an EPR reference property;
                # this is the "opaque name in the headers" WSRF convention.
                ref_props[tag] = header.full_text()
        if to_address is None:
            raise ValueError("message lacks a wsa:To header")
        if action is None:
            raise ValueError("message lacks a wsa:Action header")
        epr = EndpointReference(to_address, ref_props)
        return cls(
            to_epr=epr,
            action=action,
            message_id=message_id,
            relates_to=relates_to,
            reply_to=reply_to,
            fault_to=fault_to,
        )
