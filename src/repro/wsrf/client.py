"""Client-side plumbing: typed proxies over WSRF services.

§5 argues that standardized Resource Property interfaces let the toolkit
ship "higher-level interfaces ... provided to all clients and work on
all services".  :class:`WsrfClient` is that plumbing: generic invoke,
author-method calls, the four WS-ResourceProperties operations,
WS-ResourceLifetime operations and WS-BaseNotification Subscribe — all
working against any wrapped service.  (Benchmark D-1 compares this
against hand-rolled per-service proxies.)
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional

import numpy as np

from repro.net import Network
from repro.net.retry import RetryPolicy, with_retry
from repro.soap import SoapEnvelope, SoapFault, from_typed_element, to_typed_element, typed_value
from repro.wsa import AddressingHeaders, EndpointReference
from repro.wsrf.basefaults import BaseFault
from repro.wsrf.lifetime import DESTROY, SET_TERMINATION_TIME
from repro.wsrf.porttypes import (
    GET_MULTIPLE_RP,
    GET_RP,
    QUERY_RP,
    SET_RP,
    XPATH_DIALECT,
)
from repro.xmlx import NS, Element, QName


class WsrfClient:
    """Issues SOAP calls from a given source host to any EPR.

    With a :class:`~repro.net.retry.RetryPolicy` attached, transport
    faults (``DeliveryError``, per-call timeouts) on request/response
    calls are retried with exponential backoff before surfacing; SOAP
    faults always propagate immediately.  One-way sends are never
    retried here — their loss semantics belong to the sender's layer
    (see broker redelivery in :mod:`repro.wsn.base_notification`).
    """

    def __init__(
        self,
        network: Network,
        source_host: str,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.network = network
        self.source_host = source_host
        self.retry_policy = retry_policy
        # Jitter RNG: seeded from the host name (crc32, not the salted
        # builtin hash) so backoff schedules are stable across runs.
        self._rng = np.random.default_rng(zlib.crc32(source_host.encode("utf-8")))

    def _count_retry(self, failures: int, exc: BaseException) -> None:
        self.network.stats.retries += 1

    # -- core --------------------------------------------------------------------

    def invoke(
        self,
        epr: EndpointReference,
        body: Element,
        action: Optional[str] = None,
        extra_headers: Optional[List[Element]] = None,
        reply_to: Optional[EndpointReference] = None,
        category: str = "rpc",
        one_way: bool = False,
        parent_span=None,
    ):
        """Coroutine: send one SOAP message; returns the response payload.

        Request/response calls raise reconstructed :class:`BaseFault`
        subtypes (or plain :class:`SoapFault`) on service faults.
        One-way sends return None immediately after delivery.
        *parent_span* explicitly parents this call's span (used by
        detached senders — notification fan-out — whose logical parent
        is not on the message-id correlation path).
        """
        if action is None:
            action = f"{body.tag.uri}/{body.tag.local}"
        headers = AddressingHeaders(to_epr=epr, action=action, reply_to=reply_to)
        envelope = SoapEnvelope(headers, body, extra_headers=extra_headers)
        codec = self.network.codec
        raw = envelope.serialize(codec)
        mid = headers.message_id
        obs = self.network.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "client.invoke",
                parent=parent_span,
                message_id=mid,
                attrs={
                    "source": self.source_host,
                    "action": action,
                    "operation": body.tag.local,
                    "category": category,
                },
            )
        try:
            if one_way:
                yield from self.network.send_one_way(
                    self.source_host, epr.address, raw, category=category,
                    message_id=mid,
                )
                return None
            if self.retry_policy is None:
                response_raw = yield from self.network.request(
                    self.source_host, epr.address, raw, category=category,
                    message_id=mid,
                )
            else:
                response_raw = yield from with_retry(
                    self.network.env,
                    self.retry_policy,
                    lambda: self.network.request(
                        self.source_host, epr.address, raw, category=category,
                        message_id=mid,
                    ),
                    rng=self._rng,
                    on_retry=self._count_retry,
                )
            response = SoapEnvelope.deserialize(response_raw, codec)
            payload = response.body
            if SoapFault.is_fault(payload):
                fault = SoapFault.from_element(payload)
                typed = BaseFault.from_soap_fault(fault)
                if span is not None:
                    span.attrs["fault"] = fault.code
                raise typed if typed is not None else fault
            return payload
        finally:
            if span is not None:
                obs.finish(span)

    def call(
        self,
        epr: EndpointReference,
        service_ns: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
        extra_headers: Optional[List[Element]] = None,
        category: str = "rpc",
        one_way: bool = False,
    ):
        """Coroutine: invoke an author-written web method by name.

        Arguments are serialized as typed child elements; the
        ``<method>Result`` child of the response is deserialized and
        returned (None for void methods and one-way sends).
        """
        body = Element(QName(service_ns, method))
        for name, value in (args or {}).items():
            body.append(typed_value(QName(service_ns, name), value))
        response = yield from self.invoke(
            epr,
            body,
            extra_headers=extra_headers,
            category=category,
            one_way=one_way,
        )
        if response is None:
            return None
        result = response.find(QName(service_ns, f"{method}Result"))
        return from_typed_element(result) if result is not None else None

    # -- WS-ResourceProperties ------------------------------------------------------

    def get_resource_property(self, epr: EndpointReference, qname: QName, category="rp"):
        """Coroutine: one GetResourceProperty; returns the decoded value."""
        body = Element(GET_RP, text=qname.clark())
        response = yield from self.invoke(epr, body, category=category)
        if not response.children:
            return None
        return from_typed_element(response.children[0])

    def get_multiple_resource_properties(self, epr, qnames, category="rp"):
        """Coroutine: returns {qname: value} for the requested properties."""
        body = Element(GET_MULTIPLE_RP)
        for qname in qnames:
            body.subelement(QName(NS.WSRF_RP, "ResourceProperty"), text=qname.clark())
        response = yield from self.invoke(epr, body, category=category)
        return {
            child.tag: from_typed_element(child) for child in response.children
        }

    def query_resource_properties(self, epr, xpath: str, category="rp"):
        """Coroutine: QueryResourceProperties; returns elements/strings."""
        body = Element(QUERY_RP)
        expr = body.subelement(QName(NS.WSRF_RP, "QueryExpression"), text=xpath)
        expr.set("Dialect", XPATH_DIALECT)
        response = yield from self.invoke(epr, body, category=category)
        out: list = []
        for child in response.children:
            if child.tag == QName(NS.WSRF_RP, "Result"):
                out.append(child.full_text())
            else:
                out.append(child)
        return out

    def set_resource_properties(
        self,
        epr,
        update: Optional[Dict[QName, Any]] = None,
        delete: Optional[List[QName]] = None,
        category="rp",
    ):
        """Coroutine: SetResourceProperties with Update/Delete blocks."""
        body = Element(SET_RP)
        if update:
            block = body.subelement(QName(NS.WSRF_RP, "Update"))
            for qname, value in update.items():
                block.append(to_typed_element(qname, value))
        for qname in delete or []:
            body.subelement(QName(NS.WSRF_RP, "Delete")).set(
                "ResourceProperty", qname.clark()
            )
        yield from self.invoke(epr, body, category=category)

    # -- WS-ResourceLifetime -----------------------------------------------------------

    def destroy(self, epr: EndpointReference, category="lifetime"):
        """Coroutine: wsrl:Destroy the resource behind *epr*."""
        yield from self.invoke(epr, Element(DESTROY), category=category)

    def set_termination_time(self, epr, when: Optional[float], category="lifetime"):
        """Coroutine: schedule destruction; None = never. Returns new time."""
        body = Element(SET_TERMINATION_TIME)
        requested = body.subelement(QName(NS.WSRF_RL, "RequestedTerminationTime"))
        if when is None:
            requested.set(QName(NS.XSI, "nil"), "true")
        else:
            requested.text = repr(float(when))
        response = yield from self.invoke(epr, body, category=category)
        new_el = response.find(QName(NS.WSRF_RL, "NewTerminationTime"))
        if new_el is None or new_el.get(QName(NS.XSI, "nil")) == "true":
            return None
        return float(new_el.full_text())

    # -- WS-BaseNotification (client side) -----------------------------------------------

    def subscribe(
        self,
        producer_epr: EndpointReference,
        consumer_epr: EndpointReference,
        topic_expression: str,
        dialect: Optional[str] = None,
        category: str = "subscribe",
    ):
        """Coroutine: wsnt:Subscribe; returns the subscription EPR."""
        from repro.wsn.base_notification import build_subscribe_body

        body = build_subscribe_body(consumer_epr, topic_expression, dialect)
        response = yield from self.invoke(producer_epr, body, category=category)
        ref = response.find(QName(NS.WSNT, "SubscriptionReference"))
        if ref is None:
            raise SoapFault("soap:Client", "SubscribeResponse lacks a reference")
        return EndpointReference.from_xml(ref)
