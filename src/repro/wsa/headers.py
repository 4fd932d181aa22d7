"""WS-Addressing SOAP header block."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.wsa.epr import EndpointReference
from repro.xmlx import NS, Element, QName
from repro.xmlx.writer import escape_text

_TO = QName(NS.WSA, "To")
_ACTION = QName(NS.WSA, "Action")
_MESSAGE_ID = QName(NS.WSA, "MessageID")
_RELATES_TO = QName(NS.WSA, "RelatesTo")
_REPLY_TO = QName(NS.WSA, "ReplyTo")
_FAULT_TO = QName(NS.WSA, "FaultTo")

_id_counter = itertools.count(1)


def _clean(value: str) -> bool:
    """Whether the strict reader gets *value* back from its text: it
    strips what it reads, and an empty one is read as absent."""
    return bool(value) and value == value.strip()


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

    def write_blocks(
        self, to_blocks: Dict[str, str], action_blocks: Dict[str, str],
        out: List[str], mentions: Dict[str, None],
    ) -> bool:
        """Append the blocks of :meth:`to_header_elements` to *out* as
        ``to_string`` writes them inside an envelope, and the namespaces
        they mention to *mentions* — or answer False (the caller drops
        *out*) when :meth:`from_header_elements` would not read every
        field back as it stands here: ``reply_to`` / ``fault_to`` set, a
        value that is empty or that ``strip()`` changes, a reference
        property whose namespace has no preferred prefix (its ``ns0`` /
        ``ns1`` depends on the whole document) or is ``wsa:`` / ``wsse:``
        (not read back as a reference property).

        *to_blocks* and *action_blocks* are the writing codec's memos of
        ``<wsa:To>…</wsa:To>`` per address and of
        ``<wsa:Action>…</wsa:Action><wsa:MessageID>`` per action.  A
        block is kept only once its value passed the check above, which
        depends on that value alone, so a hit skips no check a miss
        would make.  The message id, ``RelatesTo`` and the reference
        properties are checked and written per message.
        """
        if self.reply_to is not None or self.fault_to is not None:
            return False
        epr, action = self.to_epr, self.action
        to_block = to_blocks.get(epr.address)
        if to_block is None:
            if not _clean(epr.address):
                return False
            to_block = to_blocks[epr.address] = f"<wsa:To>{escape_text(epr.address)}</wsa:To>"
        action_block = action_blocks.get(action)
        if action_block is None:
            if not _clean(action):
                return False
            action_block = action_blocks[action] = (
                f"<wsa:Action>{escape_text(action)}</wsa:Action><wsa:MessageID>"
            )
        message_id, relates_to = self.message_id, self.relates_to
        if not _clean(message_id) or (relates_to is not None and not _clean(relates_to)):
            return False
        out += (to_block, action_block, escape_text(message_id), "</wsa:MessageID>")
        if relates_to is not None:
            out.append(f"<wsa:RelatesTo>{escape_text(relates_to)}</wsa:RelatesTo>")
        mentions[NS.WSA] = None
        for name, value in epr.property_items:
            uri = name.uri
            prefix = NS.PREFERRED_PREFIXES.get(uri)
            if prefix is None or uri in (NS.WSA, NS.WSSE):
                return False
            mentions[uri] = None
            tag = prefix + ":" + name.local
            out.append(f"<{tag}>{escape_text(value)}</{tag}>" if value else f"<{tag} />")
        return True

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
