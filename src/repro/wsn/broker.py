"""WS-BrokeredNotification: the NotificationBroker service of §4.3.

"Notification Brokers ... are used when notification producers and
consumers can not or do not care to have direct knowledge of each
other" and serve as "a multicast mechanism": producers send one Notify
to the broker; the broker re-publishes to every subscriber whose topic
expression matches.  The Scheduler subscribes both itself and the
client's listener to a job set's topic (§4.6 step 1); Execution
Services broadcast job events through the broker (steps 9-10).
"""

from __future__ import annotations

from repro.soap import SoapFault
from repro.wsa import EndpointReference
from repro.wsn.base_notification import (
    NotificationConsumerPortType,
    NotificationProducerPortType,
    SubscriptionManagerPortType,
)
from repro.wsrf.tooling import InvocationContext
from repro.wsrf.attributes import (
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
)
from repro.wsrf.lifetime import ImmediateResourceTerminationPortType
from repro.wsrf.porttypes import GetResourcePropertyPortType, SpecPortType
from repro.xmlx import NS, Element, QName

REGISTER_PUBLISHER = QName(NS.WSBN, "RegisterPublisher")
PAUSE_PUBLISHING = QName(NS.WSBN, "PausePublishing")
RESUME_PUBLISHING = QName(NS.WSBN, "ResumePublishing")


class RegisterPublisherPortType(SpecPortType):
    """wsbn:RegisterPublisher — record a producer with the broker.

    With ``<Demand>true</Demand>`` and a ``<Topic>`` root, the broker
    manages the publisher's output: it sends one-way PausePublishing
    when no unpaused subscription could match under the topic root, and
    ResumePublishing when interest (re)appears — WS-BrokeredNotification
    demand-based publishing.  (Topic-space intersection is approximated
    by root/first-segment matching; see NotificationProducer.
    active_interest_in.)
    """

    OPERATIONS = {REGISTER_PUBLISHER: "register_publisher"}
    OPTIONAL_RESOURCE_OPS = frozenset({REGISTER_PUBLISHER})

    @classmethod
    def deployment(cls):
        # The demand manager comes with the first demand registration.
        return {
            "registered_publishers": lambda wrapper: [],
            "demand_manager": lambda wrapper: None,
        }

    def register_publisher(self, request: Element) -> Element:
        ref = request.find(QName(NS.WSBN, "PublisherReference"))
        if ref is None:
            raise SoapFault("soap:Client", "RegisterPublisher lacks a reference")
        wrapper = self.wrapper
        epr = EndpointReference.from_xml(ref)
        registry = wrapper.registered_publishers
        if epr not in registry:
            registry.append(epr)
        demand = (request.child_text(QName(NS.WSBN, "Demand"), "") or "").strip()
        if demand == "true":
            topic_root = (request.child_text(QName(NS.WSBN, "Topic"), "") or "").strip()
            if not topic_root:
                raise SoapFault(
                    "soap:Client", "demand registration needs a Topic root"
                )
            if wrapper.demand_manager is None:
                wrapper.demand_manager = _DemandManager(wrapper)
            wrapper.demand_manager.register(epr, topic_root, ctx=self.instance.wsrf)
        return Element(QName(NS.WSBN, "RegisterPublisherResponse"))


class _DemandManager:
    """Broker-side demand evaluation + pause/resume signalling."""

    def __init__(self, wrapper) -> None:
        self.wrapper = wrapper
        #: {publisher EPR: (topic_root, currently_told_to_publish)}
        self.entries = {}
        wrapper.notification_producer.on_subscriptions_changed.append(self.reevaluate)

    def register(self, epr, topic_root: str, ctx=None) -> None:
        self.entries[epr] = [topic_root, None]  # unknown state yet
        self.reevaluate(ctx)

    def reevaluate(self, ctx=None) -> None:
        """Re-derive demand and signal publishers whose state flipped.

        Pause/Resume sends honor the write-ahead contract: when a live
        dispatch context is supplied, the one-way control messages queue
        on its outbox and leave only after the dispatch persists the
        subscription change.  With no dispatch in flight (recovery
        rebuild, resource-destroy callbacks) the state is already
        durable, so a closed context sends immediately.
        """
        producer = self.wrapper.notification_producer
        send = ctx
        if send is None:
            send = InvocationContext(self.wrapper, None, None, None)
            send._outbox_closed = True
        for epr, entry in self.entries.items():
            topic_root, told = entry
            want = producer.active_interest_in(topic_root)
            if want == told:
                continue
            entry[1] = want
            body = Element(RESUME_PUBLISHING if want else PAUSE_PUBLISHING)
            body.subelement(QName(NS.WSBN, "Topic"), text=topic_root)
            send.send_after_persist(epr, body, category="demand-control")


class DemandPublisherPortType(SpecPortType):
    """Publisher-side Pause/ResumePublishing control surface.

    Import this into a producer service and consult
    ``wrapper.publishing_paused`` (a set of paused topic roots) before
    publishing.
    """

    OPERATIONS = {
        PAUSE_PUBLISHING: "pause_publishing",
        RESUME_PUBLISHING: "resume_publishing",
    }
    OPTIONAL_RESOURCE_OPS = frozenset({PAUSE_PUBLISHING, RESUME_PUBLISHING})

    @classmethod
    def deployment(cls):
        return {"publishing_paused": lambda wrapper: set()}

    def pause_publishing(self, request: Element) -> Element:
        root = (request.child_text(QName(NS.WSBN, "Topic"), "") or "").strip()
        self.wrapper.publishing_paused.add(root)
        return Element(QName(NS.WSBN, "PausePublishingResponse"))

    def resume_publishing(self, request: Element) -> Element:
        root = (request.child_text(QName(NS.WSBN, "Topic"), "") or "").strip()
        self.wrapper.publishing_paused.discard(root)
        return Element(QName(NS.WSBN, "ResumePublishingResponse"))


@WSRFPortType(
    NotificationProducerPortType,
    NotificationConsumerPortType,
    SubscriptionManagerPortType,
    RegisterPublisherPortType,
    GetResourcePropertyPortType,
    ImmediateResourceTerminationPortType,
)
class NotificationBrokerService(ServiceSkeleton):
    """The testbed's single broker: consume, then multicast.

    All real state (subscriptions) lives in the producer its port types
    brought at deploy; the broker's own WS-Resources are its subscriptions, so PauseSubscription
    and Destroy work on them directly.
    """

    SERVICE_NS = NS.WSBN

    def on_notification(self, topic, payload, producer):
        """Inbound Notify (consumer side) → republish to subscribers."""
        # Routed through notify() so the broker's fan-out spans parent to
        # the inbound Notify's dispatch span.
        self.notify(topic, payload)

    @ResourceProperty
    @property
    def RegisteredPublishers(self):
        return [epr.to_xml() for epr in self.wsrf.wrapper.registered_publishers]

    @ResourceProperty
    @property
    def SubscriptionCount(self) -> int:
        return len(self.wsrf.wrapper.notification_producer.subscriptions)

    @ResourceProperty
    @property
    def DroppedSubscribers(self) -> int:
        """Subscriptions dropped after exhausting redelivery attempts."""
        return len(self.wsrf.wrapper.notification_producer.dropped_subscribers)

    @WebMethod(requires_resource=False)
    def Ping(self) -> str:
        """Liveness probe used by testbed assembly."""
        return "broker-alive"


def federate_brokers(zone_broker, root_epr: EndpointReference) -> str:
    """Uplink a zone broker into a root broker (broker hierarchy).

    The zone broker subscribes the root broker's consumer endpoint to
    ``**`` — every notification published at the zone is re-published
    at the root, where federation-wide subscribers (schedulers, client
    listeners) attach.  The hierarchy is strictly upward — the root
    never re-publishes down to zone brokers — so no notification loops.

    Runs at testbed assembly (the administrator wires the topology), so
    the subscription rows are not billed as traffic-driven db ops.
    Returns the uplink's subscription resource id.
    """
    from repro.wsn.topics import FULL_DIALECT, TopicExpression

    return zone_broker.notification_producer.add_subscription(
        root_epr, TopicExpression("**", FULL_DIALECT)
    )
