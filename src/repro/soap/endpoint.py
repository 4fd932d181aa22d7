"""The wire contract of every bound port, written once.

A message that reaches an endpoint — a WSRF wrapper behind IIS, the
client's TCP file server, the light-weight notification receiver — is
answered with an envelope (a response, or a ``soap:Fault``:
``soap:Client`` when the sender is at fault, ``soap:Server`` when the
service is) or, if it is one-way, handled or *counted and dropped*:
nothing a sender wrote becomes a Python exception in someone else's
process.  Plain functions, called from the endpoints' own generators;
docs/fault_tolerance.md ("The wire contract") has the table.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.soap.envelope import EnvelopeCache, SoapEnvelope
from repro.soap.fault import SoapFault
from repro.wsa import AddressingHeaders, EndpointReference
from repro.xmlx import NS, Element, WireText


def read_request(payload: Union[str, WireText], codec: EnvelopeCache) -> SoapEnvelope:
    """The envelope in *payload*, through the network's hand-off — or
    a ``soap:Client`` fault when it cannot be read (every reader's
    error is a ``ValueError``)."""
    try:
        return SoapEnvelope.deserialize(payload, codec)
    except ValueError as exc:
        raise SoapFault(
            "soap:Client", f"unreadable message: {type(exc).__name__}: {exc}"
        ) from None


def server_fault(exc: Exception) -> SoapFault:
    """What a service's own code raised, as its caller receives it."""
    return SoapFault("soap:Server", f"{type(exc).__name__}: {exc}")


def reply_text(
    codec: EnvelopeCache,
    delivery,
    request: Optional[SoapEnvelope],
    body: Element,
    anonymous_host: Optional[str] = None,
) -> Optional[Union[str, WireText]]:
    """The wire text answering *request* with *body*; None for a
    one-way delivery, whose sender has closed the connection.

    Addressed to the request's ``ReplyTo`` or the anonymous EPR of the
    sending host (*anonymous_host* names another: the client file
    server has always named itself, and the pinned byte counts include
    it), ``Action`` the request's plus ``"Response"``, ``RelatesTo``
    its ``MessageID``.  A message that could not be read (*request*
    None) leaves nothing to quote: the anonymous EPR, WS-Addressing's
    fault action, and the delivery's ``message_id`` if it has one.
    """
    if delivery.one_way:
        return None
    if request is None:
        reply_to, action, relates_to = None, NS.WSA + "/fault", delivery.message_id or None
    else:
        sent = request.addressing
        reply_to, action, relates_to = sent.reply_to, sent.action + "Response", sent.message_id
    if reply_to is None:
        reply_to = EndpointReference(
            f"http://{anonymous_host or delivery.source_host}/anonymous"
        )
    headers = AddressingHeaders(reply_to, action, relates_to=relates_to)
    return SoapEnvelope(headers, body).serialize(codec)


def reject(
    network, delivery, request, fault: SoapFault, anonymous_host=None
) -> Optional[Union[str, WireText]]:
    """*fault* as the end of a message: the fault envelope, or — one-way,
    nobody to tell — a drop counted in ``stats.faults["rejected"]``."""
    if delivery.one_way:
        network.stats.record_fault("rejected")
    return reply_text(network.codec, delivery, request, fault.to_element(), anonymous_host)
