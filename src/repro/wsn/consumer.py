"""Client-side lightweight notification receiver.

§4.6: "the client program starts one of WSRF.NET's light-weight
notification receivers to receive asynchronous, WS-Notification
compliant, notifications via HTTP."  The listener binds directly to a
port on the client's host (no IIS involved — it is deliberately
lightweight), parses inbound wsnt:Notify envelopes and runs registered
callbacks whose topic expression matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.net import Network
from repro.soap import SoapFault
from repro.soap.endpoint import read_request, reject, reply_text
from repro.wsa import EndpointReference
from repro.wsn.base_notification import NOTIFY, NOTIFY_RESPONSE, parse_notify_body
from repro.wsn.topics import FULL_DIALECT, TopicExpression
from repro.xmlx import Element


@dataclass(frozen=True)
class ReceivedNotification:
    at: float
    topic: str
    payload: Element
    producer: Optional[EndpointReference]


class NotificationListener:
    """Binds to ``http://<host>:<port>/<path>`` and dispatches callbacks.

    A message that is not a readable ``wsnt:Notify`` runs no callback:
    it is counted and dropped, or — sent request/response — answered
    with a ``soap:Client`` fault; a Notify sent request/response gets a
    ``NotifyResponse`` (:mod:`repro.soap.endpoint`).
    """

    def __init__(
        self,
        network: Network,
        host_name: str,
        port: int = 7000,
        path: str = "notify",
    ) -> None:
        self.network = network
        self.env = network.env
        self.host_name = host_name
        self.port = port
        self.path = path.strip("/")
        self._callbacks: List[Tuple[TopicExpression, Callable]] = []
        #: every notification ever received, in arrival order
        self.received: List[ReceivedNotification] = []
        network.host(host_name).bind(port, self)

    @property
    def epr(self) -> EndpointReference:
        """The ConsumerReference to put in Subscribe requests."""
        return EndpointReference(f"http://{self.host_name}:{self.port}/{self.path}")

    def on_topic(self, expression: str, callback: Callable, dialect: str = FULL_DIALECT):
        """Run ``callback(notification)`` for matching topics."""
        self._callbacks.append((TopicExpression(expression, dialect), callback))

    def close(self) -> None:
        self.network.host(self.host_name).unbind(self.port)

    # -- network server protocol -----------------------------------------------------

    def handle(self, payload: str, ctx):
        envelope = None
        try:
            envelope = read_request(payload, self.network.codec)
            if envelope.body.tag != NOTIFY:
                raise SoapFault(
                    "soap:Client",
                    f"notification listener received non-Notify {envelope.body.tag}",
                )
            messages = parse_notify_body(envelope.body)
        except SoapFault as fault:
            return reject(self.network, ctx, envelope, fault)
        for topic, message, producer in messages:
            note = ReceivedNotification(
                at=self.env.now, topic=topic, payload=message, producer=producer
            )
            self.received.append(note)
            for expression, callback in self._callbacks:
                if expression.matches(topic):
                    callback(note)
        return reply_text(self.network.codec, ctx, envelope, Element(NOTIFY_RESPONSE))
        yield  # unreached; it makes handle a generator, as a server's must be

    def topics_seen(self) -> List[str]:
        return [note.topic for note in self.received]
