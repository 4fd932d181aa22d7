"""WS-BaseNotification: Subscribe, Notify, and subscriptions as resources."""

from __future__ import annotations

import inspect
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net import DeliveryError
from repro.soap import SoapFault
from repro.wsa import EndpointReference
from repro.wsn.topics import CONCRETE_DIALECT, TopicExpression, TopicExpressionError
from repro.wsrf.basefaults import BaseFault
from repro.wsrf.lifetime import Destroy
from repro.wsrf.porttypes import SpecPortType
from repro.xmlx import NS, Element, QName

SUBSCRIBE = QName(NS.WSNT, "Subscribe")
NOTIFY = QName(NS.WSNT, "Notify")
NOTIFY_RESPONSE = QName(NS.WSNT, "NotifyResponse")
PAUSE_SUBSCRIPTION = QName(NS.WSNT, "PauseSubscription")
RESUME_SUBSCRIPTION = QName(NS.WSNT, "ResumeSubscription")

_CONSUMER_REF = QName(NS.WSNT, "ConsumerReference")
_TOPIC_EXPR = QName(NS.WSNT, "TopicExpression")
_SUBSCRIPTION_REF = QName(NS.WSNT, "SubscriptionReference")
_NOTIFICATION_MESSAGE = QName(NS.WSNT, "NotificationMessage")
_TOPIC = QName(NS.WSNT, "Topic")
_PRODUCER_REF = QName(NS.WSNT, "ProducerReference")
_MESSAGE = QName(NS.WSNT, "Message")

# State keys for subscription resources (stored in the producer's store).
_K_CONSUMER = QName(NS.WSNT, "consumer")
_K_EXPR = QName(NS.WSNT, "expression")
_K_DIALECT = QName(NS.WSNT, "dialect")
_K_PAUSED = QName(NS.WSNT, "paused")


class SubscribeCreationFailedFault(BaseFault):
    FAULT_QNAME = QName(NS.WSNT, "SubscribeCreationFailedFault")


class PauseFailedFault(BaseFault):
    FAULT_QNAME = QName(NS.WSNT, "PauseFailedFault")


# -- message construction/parsing (shared by clients and services) -----------------


def build_subscribe_body(
    consumer_epr: EndpointReference,
    topic_expression: str,
    dialect: Optional[str] = None,
) -> Element:
    body = Element(SUBSCRIBE)
    body.append(consumer_epr.to_xml(_CONSUMER_REF))
    expr = body.subelement(_TOPIC_EXPR, text=topic_expression)
    expr.set("Dialect", dialect or CONCRETE_DIALECT)
    return body


def build_notify_body(
    topic_path: str,
    payload: Element,
    producer_epr: Optional[EndpointReference] = None,
) -> Element:
    """A wsnt:Notify carrying one NotificationMessage."""
    return build_notify_batch_body([(topic_path, payload)], producer_epr)


def build_notify_batch_body(
    events: List[Tuple[str, Element]],
    producer_epr: Optional[EndpointReference] = None,
) -> Element:
    """One wsnt:Notify carrying several NotificationMessages.

    The WS-BaseNotification schema allows any number of
    NotificationMessage children per Notify; :func:`parse_notify_body`
    (and therefore every consumer port type) already handles the
    multi-message form.  The performance layer's batcher uses this to
    coalesce a window of events to one subscriber into a single
    network message.  Messages keep publish order within the batch.
    """
    body = Element(NOTIFY)
    for topic_path, payload in events:
        message = body.subelement(_NOTIFICATION_MESSAGE)
        topic = message.subelement(_TOPIC, text=topic_path)
        topic.set("Dialect", CONCRETE_DIALECT)
        if producer_epr is not None:
            message.append(producer_epr.to_xml(_PRODUCER_REF))
        message.subelement(_MESSAGE).append(payload.copy())
    return body


def parse_notify_body(
    body: Element,
) -> List[Tuple[str, Element, Optional[EndpointReference]]]:
    """Returns [(topic_path, payload, producer_epr), ...]."""
    out = []
    for message in body.findall(_NOTIFICATION_MESSAGE):
        topic_el = message.find(_TOPIC)
        payload_holder = message.find(_MESSAGE)
        if topic_el is None or payload_holder is None or not payload_holder.children:
            raise SoapFault("soap:Client", "malformed NotificationMessage")
        producer_el = message.find(_PRODUCER_REF)
        try:
            producer = (
                EndpointReference.from_xml(producer_el) if producer_el is not None else None
            )
        except ValueError as exc:
            raise SoapFault("soap:Client", f"malformed ProducerReference: {exc}") from None
        out.append(
            (topic_el.full_text().strip(), payload_holder.children[0], producer)
        )
    return out


def fire_and_forget(env, client, target_epr, body, category="notify", parent_span=None):
    """Send a one-way message from a detached process, absorbing failures.

    One-way semantics (§4.1): the sender gets no delivery guarantee.  An
    unreachable consumer (host down, listener gone, partition) must not
    crash the producer — the message is simply lost.  The caller keeps
    ownership of *body*: it is serialized inside this send only, so pass
    a private copy when the same tree goes to several targets.
    """

    def send(env):
        try:
            yield from client.invoke(
                target_epr, body, category=category, one_way=True,
                parent_span=parent_span,
            )
        except DeliveryError:
            pass  # lost notification: fire-and-forget semantics

    return env.process(send(env))


# -- producer state ------------------------------------------------------------------


@dataclass
class Subscription:
    resource_id: str
    consumer: EndpointReference
    expression: TopicExpression
    paused: bool = False


class NotificationProducer:
    """Wrapper-side subscription registry + fan-out engine.

    Subscriptions are persisted as WS-Resources in the producer's own
    store (so lifetime operations work on them) and mirrored in memory
    for cheap matching on every publish.  A service importing
    :class:`NotificationProducerPortType` or
    :class:`SubscriptionManagerPortType` gets one at deploy, as
    ``wrapper.notification_producer``.
    """

    def __init__(self, wrapper) -> None:
        self.wrapper = wrapper
        self.subscriptions: Dict[str, Subscription] = {}
        #: next subscription-id suffix; rebuilt as a high-water
        #: mark from persisted rows after a host restart
        self._sub_next = 1
        self.notifications_sent = 0
        #: distinct topic paths ever published (advertised via the
        #: wstop:Topic resource property, bounded to keep state sane)
        self.topics_seen: set = set()
        self._topics_cap = 1000
        #: True once a published topic could not be recorded because the
        #: cap was hit — the wstop:Topic RP under-advertises from then on
        #: ("no silent caps": the truncation must be observable)
        self.topics_truncated = False
        #: count of publishes whose (new) topic path went unrecorded
        self.topics_dropped = 0
        #: callbacks run after any subscription change (add/pause/destroy);
        #: used by brokers for demand-based publishing.  Each callback
        #: receives the live InvocationContext when the change happened
        #: inside a dispatch (so follow-up sends can honor the
        #: write-ahead contract via send_after_persist), or None when no
        #: dispatch is in flight (recovery rebuild, destroy callbacks —
        #: the state is already durable there).
        self.on_subscriptions_changed: list = []
        #: optional RetryPolicy: bounded redelivery to unreachable
        #: consumers before the subscription is dropped.  None (default)
        #: keeps the documented one-way loss semantics.
        self.redelivery_policy = None
        self.redeliveries = 0
        #: optional NotificationBatcher (see repro.wsn.batching): when
        #: set, publish enqueues per-subscriber instead of sending one
        #: Notify per subscriber per event.  None keeps immediate fan-out.
        self.batcher = None
        #: subscription ids dropped after exhausting redelivery
        self.dropped_subscribers: list = []
        self._redelivery_rng = np.random.default_rng(
            zlib.crc32(wrapper.path.encode("utf-8"))
        )
        wrapper.on_resource_destroyed.append(self._forget)

    def _forget(self, resource_id: str) -> None:
        if self.subscriptions.pop(resource_id, None) is not None:
            self._changed()

    def rebuild_from_store(self) -> None:
        """Rebuild the in-memory mirror after a host restart.

        Subscriptions are WS-Resources, so the persisted rows are the
        source of truth; the mirror, the id high-water mark and any
        half-open batch windows are process memory that died with the
        old boot.  Pending batched notifications are *lost*, matching
        one-way semantics — an un-flushed batch is exactly a message
        that never left the dead host.
        """
        self.subscriptions = {}
        high_water = 0
        wrapper = self.wrapper
        for rid in wrapper.store.list_ids(wrapper.service_name):
            state = wrapper.store.load(wrapper.service_name, rid)
            if _K_CONSUMER not in state or _K_EXPR not in state:
                continue  # not a subscription resource
            self.subscriptions[rid] = Subscription(
                rid,
                state[_K_CONSUMER],
                TopicExpression(
                    state[_K_EXPR], state.get(_K_DIALECT, CONCRETE_DIALECT)
                ),
                paused=bool(state.get(_K_PAUSED, False)),
            )
            if rid.startswith("sub-"):
                try:
                    high_water = max(high_water, int(rid[4:]))
                except ValueError:
                    pass
        self._sub_next = max(self._sub_next, high_water + 1)
        # A drop whose store-destroy the checkpoint predates is undone by
        # the restore: the subscriber is live again, so the accounting
        # must not still list it as dropped.
        self.dropped_subscribers = [
            rid for rid in self.dropped_subscribers
            if rid not in self.subscriptions
        ]
        if self.batcher is not None:
            self.batcher.drop_pending()
        self._changed()

    def _changed(self, ctx=None) -> None:
        for callback in self.on_subscriptions_changed:
            callback(ctx)

    def add_subscription(
        self,
        consumer: EndpointReference,
        expression: TopicExpression,
        ctx=None,
    ) -> str:
        rid = f"sub-{self._sub_next:05d}"
        self._sub_next += 1
        self.wrapper.store.create(
            self.wrapper.service_name,
            rid,
            {
                _K_CONSUMER: consumer,
                _K_EXPR: expression.expression,
                _K_DIALECT: expression.dialect,
                _K_PAUSED: False,
            },
        )
        self.subscriptions[rid] = Subscription(rid, consumer, expression)
        self._changed(ctx)
        return rid

    def set_paused(self, resource_id: str, paused: bool, ctx=None) -> None:
        sub = self.subscriptions.get(resource_id)
        if sub is None:
            raise PauseFailedFault(
                description=f"no subscription {resource_id!r}",
                timestamp=self.wrapper.env.now,
            )
        sub.paused = paused
        state = self.wrapper.store.load(self.wrapper.service_name, resource_id)
        state[_K_PAUSED] = paused
        self.wrapper.store.save(self.wrapper.service_name, resource_id, state)
        self._changed(ctx)

    def active_interest_in(self, topic_root: str) -> bool:
        """True if any unpaused subscription could match under *root*.

        Used for demand-based publishing: a subscription is relevant if
        its expression matches the root itself or its own first segment
        is the root or a wildcard (an approximation of the spec's
        topic-space intersection, documented in repro.wsn.broker).
        """
        for sub in self.subscriptions.values():
            if sub.paused:
                continue
            first = sub.expression.expression.split("/")[0]
            if sub.expression.matches(topic_root) or first in ("*", "**", topic_root):
                return True
        return False

    def publish(self, topic_path: str, payload: Element, parent_span=None) -> int:
        """Fan out one event; returns the number of Notifies dispatched.

        Delivery is asynchronous: each matching subscriber gets a one-way
        wsnt:Notify sent by a detached simulation process (the publisher
        does not block on consumers, per §4.1's one-way semantics).
        """
        wrapper = self.wrapper
        if topic_path not in self.topics_seen:
            if len(self.topics_seen) < self._topics_cap:
                self.topics_seen.add(topic_path)
            else:
                self.topics_truncated = True
                self.topics_dropped += 1
        targets = [
            sub
            for sub in self.subscriptions.values()
            if not sub.paused and sub.expression.matches(topic_path)
        ]
        obs = wrapper.machine.network.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "wsn.publish",
                parent=parent_span,
                attrs={
                    "service": wrapper.path,
                    "topic": topic_path,
                    "targets": len(targets),
                    **({"batched": True} if self.batcher is not None else {}),
                },
            )
        if self.batcher is not None:
            for sub in targets:
                self.batcher.enqueue(sub, topic_path, payload)
        else:
            body = build_notify_body(topic_path, payload, wrapper.service_epr())
            for sub in targets:
                # Each dispatch gets its own deep copy: the sends (and any
                # redelivery retries) run detached and serialize later, so a
                # shared tree would alias one consumer's mutations into the
                # other subscribers' still-pending notifications.
                self.send(sub, body.copy(), parent_span=span)
        self.notifications_sent += len(targets)
        if span is not None:
            obs.finish(span)
        return len(targets)

    def send(self, sub: Subscription, body: Element, parent_span=None) -> None:
        """Start the detached delivery of one Notify *body* to *sub*.

        The one send path of immediate fan-out and of a batch flush:
        fire-and-forget, or the bounded redelivery when a policy is set.
        The send serializes *body* later, so the caller hands over a
        tree nothing else will touch.
        """
        wrapper = self.wrapper
        if self.redelivery_policy is None:
            fire_and_forget(
                wrapper.env, wrapper.client, sub.consumer, body,
                parent_span=parent_span,
            )
        else:
            wrapper.env.process(self._redeliver(sub, body, parent_span=parent_span))

    def _redeliver(self, sub: Subscription, body: Element, parent_span=None):
        """Detached coroutine: bounded redelivery, then drop the subscriber.

        A one-way send only fails observably when the consumer is
        unreachable (host down, partition, port unbound); those failures
        are retried per the policy.  Silent in-fabric losses remain
        undetectable by design — redelivery hardens reachability, it
        does not make one-way messaging reliable.  When the budget is
        exhausted the subscription resource is destroyed: a consumer
        that stays unreachable stops costing the broker send slots.
        """
        wrapper = self.wrapper
        policy = self.redelivery_policy
        env = wrapper.env
        obs = wrapper.machine.network.obs
        epoch = wrapper.machine.host.boot_epoch
        failures = 0
        while True:
            try:
                yield from wrapper.client.invoke(
                    sub.consumer, body, category="notify", one_way=True,
                    parent_span=parent_span,
                )
                return
            except DeliveryError:
                failures += 1
                if failures >= max(1, policy.max_attempts):
                    break
                self.redeliveries += 1
                wrapper.machine.network.stats.redeliveries += 1
                rspan = None
                if obs is not None:
                    rspan = obs.start_span(
                        "wsn.redelivery",
                        parent=parent_span,
                        attrs={
                            "service": wrapper.path,
                            "subscription": sub.resource_id,
                            "attempt": failures,
                        },
                    )
                yield env.timeout(policy.delay_for(failures, self._redelivery_rng))
                if rspan is not None:
                    obs.finish(rspan)
        # A local wsrl:Destroy.  A loop of a dead boot destroys nothing:
        # the restored broker never saw the failures it counted.
        if sub.resource_id in self.subscriptions and (
            yield from wrapper.run_local(sub.resource_id, Destroy, epoch)
        ) is not None:
            self.dropped_subscribers.append(sub.resource_id)


def attach_notification_producer(wrapper) -> Optional[NotificationProducer]:
    """*wrapper*'s producer, which deploy gave it (None: the service
    imports no producer port type)."""
    return wrapper.notification_producer


#: the deployment state of the two port types that work on the producer:
#: one producer per wrapper, whichever of them brought it
_PRODUCER_STATE = {"notification_producer": NotificationProducer}


# -- port types ----------------------------------------------------------------------


TOPIC_RP = QName(NS.WSTOP, "Topic")


def _advertised_topics(pt) -> list:
    return sorted(pt.wrapper.notification_producer.topics_seen)


class NotificationProducerPortType(SpecPortType):
    """wsnt:Subscribe — create a subscription WS-Resource.

    Also contributes the WS-Topics ``Topic`` resource property: the
    topic paths this producer has published, so clients can discover
    what to subscribe to (the spec's topic-space advertisement).
    """

    OPERATIONS = {SUBSCRIBE: "subscribe"}
    OPTIONAL_RESOURCE_OPS = frozenset({SUBSCRIBE})

    @classmethod
    def provides_rps(cls):
        return {TOPIC_RP: _advertised_topics}

    @classmethod
    def deployment(cls):
        return _PRODUCER_STATE

    def subscribe(self, request: Element) -> Element:
        producer = self.wrapper.notification_producer
        consumer_el = request.find(_CONSUMER_REF)
        expr_el = request.find(_TOPIC_EXPR)
        if consumer_el is None or expr_el is None:
            raise SubscribeCreationFailedFault(
                description="Subscribe needs ConsumerReference and TopicExpression",
                timestamp=self.wrapper.env.now,
            )
        try:
            expression = TopicExpression(
                expr_el.full_text(), expr_el.get("Dialect", CONCRETE_DIALECT)
            )
        except TopicExpressionError as exc:
            raise SubscribeCreationFailedFault(
                description=str(exc), timestamp=self.wrapper.env.now
            ) from exc
        consumer = EndpointReference.from_xml(consumer_el)
        rid = producer.add_subscription(
            consumer, expression, ctx=self.instance.wsrf
        )
        response = Element(QName(NS.WSNT, "SubscribeResponse"))
        response.append(self.wrapper.epr_for(rid).to_xml(_SUBSCRIPTION_REF))
        return response


class SubscriptionManagerPortType(SpecPortType):
    """Pause/Resume on subscription resources."""

    OPERATIONS = {
        PAUSE_SUBSCRIPTION: "pause",
        RESUME_SUBSCRIPTION: "resume",
    }

    @classmethod
    def deployment(cls):
        return _PRODUCER_STATE

    def pause(self, request: Element) -> Element:
        wsrf = self.instance.wsrf
        self.wrapper.notification_producer.set_paused(wsrf.resource_id, True, ctx=wsrf)
        return Element(QName(NS.WSNT, "PauseSubscriptionResponse"))

    def resume(self, request: Element) -> Element:
        wsrf = self.instance.wsrf
        self.wrapper.notification_producer.set_paused(wsrf.resource_id, False, ctx=wsrf)
        return Element(QName(NS.WSNT, "ResumeSubscriptionResponse"))


class NotificationConsumerPortType(SpecPortType):
    """wsnt:Notify — deliver messages to the author's handler.

    The author's service defines::

        def on_notification(self, topic, payload, producer_epr):
            ...

    which may be a plain method or a simulation coroutine.  A service
    that imports this port type without one answers a Notify with the
    ``AttributeError`` as a ``soap:Server`` fault: the mistake is the
    service's, not the sender's.
    """

    OPERATIONS = {NOTIFY: "notify"}
    OPTIONAL_RESOURCE_OPS = frozenset({NOTIFY})

    def notify(self, request: Element):
        handler = self.instance.on_notification
        for topic, payload, producer in parse_notify_body(request):
            result = handler(topic, payload, producer)
            if inspect.isgenerator(result):
                yield from result
        return Element(NOTIFY_RESPONSE)
