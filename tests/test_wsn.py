"""Tests for WS-Notification: topics, subscribe/notify, broker fan-out."""

import pytest

from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.wsn import (
    CONCRETE_DIALECT,
    FULL_DIALECT,
    SIMPLE_DIALECT,
    NotificationConsumerPortType,
    NotificationListener,
    NotificationProducerPortType,
    SubscriptionManagerPortType,
    TopicExpression,
    TopicExpressionError,
    build_notify_body,
    parse_notify_body,
)
from repro.wsn.broker import NotificationBrokerService
from repro.wsrf import (
    GetResourcePropertyPortType,
    ImmediateResourceTerminationPortType,
    Resource,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
    WsrfClient,
    deploy,
)
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG


class TestTopicExpressions:
    def test_simple_matches_subtree(self):
        expr = TopicExpression("jobset-1", SIMPLE_DIALECT)
        assert expr.matches("jobset-1")
        assert expr.matches("jobset-1/job2/status")
        assert not expr.matches("jobset-2/job1")

    def test_concrete_exact(self):
        expr = TopicExpression("jobset-1/job2", CONCRETE_DIALECT)
        assert expr.matches("jobset-1/job2")
        assert not expr.matches("jobset-1/job2/status")
        assert not expr.matches("jobset-1")

    def test_full_single_wildcard(self):
        expr = TopicExpression("jobset-1/*/status", FULL_DIALECT)
        assert expr.matches("jobset-1/job9/status")
        assert not expr.matches("jobset-1/status")
        assert not expr.matches("jobset-1/a/b/status")

    def test_full_double_wildcard(self):
        expr = TopicExpression("jobset-1/**", FULL_DIALECT)
        assert expr.matches("jobset-1")
        assert expr.matches("jobset-1/a/b/c")
        assert not expr.matches("other")
        mid = TopicExpression("a/**/z", FULL_DIALECT)
        assert mid.matches("a/z")
        assert mid.matches("a/b/c/z")
        assert not mid.matches("a/b/c")

    def test_simple_rejects_paths(self):
        with pytest.raises(TopicExpressionError):
            TopicExpression("a/b", SIMPLE_DIALECT)

    def test_wildcards_require_full(self):
        with pytest.raises(TopicExpressionError):
            TopicExpression("a/*", CONCRETE_DIALECT)

    def test_unknown_dialect(self):
        with pytest.raises(TopicExpressionError):
            TopicExpression("a", "urn:bogus")

    def test_empty_rejected(self):
        with pytest.raises(TopicExpressionError):
            TopicExpression("   ")

    def test_equality_hash(self):
        a = TopicExpression("x/y")
        b = TopicExpression("x/y")
        assert a == b and hash(a) == hash(b)
        assert a != TopicExpression("x/z")
        assert a != TopicExpression("x", SIMPLE_DIALECT)

    def test_notify_body_roundtrip(self):
        from repro.wsa import EndpointReference

        payload = Element(QName(UVA, "JobExited"), text="0")
        producer = EndpointReference("http://n/ES")
        body = build_notify_body("js/job1/exit", payload, producer)
        from repro.xmlx import parse, to_string

        parsed = parse_notify_body(parse(to_string(body)))
        assert len(parsed) == 1
        topic, message, prod = parsed[0]
        assert topic == "js/job1/exit"
        assert message.tag == QName(UVA, "JobExited")
        assert prod == producer


@WSRFPortType(
    NotificationProducerPortType,
    SubscriptionManagerPortType,
    ImmediateResourceTerminationPortType,
    GetResourcePropertyPortType,
)
class ChattyService(ServiceSkeleton):
    """A producer service that publishes on demand."""

    @WebMethod(requires_resource=False)
    def Emit(self, topic: str, text: str) -> int:
        payload = Element(QName(UVA, "Event"), text=text)
        self.notify(topic, payload)
        return 0


class MuteService(ServiceSkeleton):
    """Publishes without importing a producer port type."""

    Emit = ChattyService.Emit


@WSRFPortType(NotificationConsumerPortType)
class SinkService(ServiceSkeleton):
    """A service-side notification consumer."""

    log = []

    def on_notification(self, topic, payload, producer):
        SinkService.log.append((self.env.now, topic, payload.full_text()))


@pytest.fixture()
def fabric():
    env = Environment()
    net = Network(env)
    producer_machine = Machine(net, "producer-node")
    wrapper = deploy(ChattyService, producer_machine, "Chatty")
    net.add_host("client")
    client = WsrfClient(net, "client")
    SinkService.log = []
    return env, net, producer_machine, wrapper, client


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


class TestSubscribeNotify:
    def test_client_listener_receives_matching_topic(self, fabric):
        env, net, pm, wrapper, client = fabric
        listener = NotificationListener(net, "client")
        seen = []
        listener.on_topic("js-1/**", lambda note: seen.append(note.topic))
        run(
            env,
            client.subscribe(wrapper.service_epr(), listener.epr, "js-1/status"),
        )
        run(env, client.call(wrapper.service_epr(), UVA, "Emit",
                             {"topic": "js-1/status", "text": "go"}))
        env.run()  # drain async notify
        assert [n.topic for n in listener.received] == ["js-1/status"]
        assert seen == ["js-1/status"]
        assert listener.received[0].payload.full_text() == "go"
        assert listener.received[0].producer == wrapper.service_epr()

    def test_non_matching_topic_not_delivered(self, fabric):
        env, net, pm, wrapper, client = fabric
        listener = NotificationListener(net, "client")
        run(env, client.subscribe(wrapper.service_epr(), listener.epr, "js-1/status"))
        run(env, client.call(wrapper.service_epr(), UVA, "Emit",
                             {"topic": "js-2/status", "text": "x"}))
        env.run()
        assert listener.received == []

    def test_wildcard_subscription(self, fabric):
        env, net, pm, wrapper, client = fabric
        listener = NotificationListener(net, "client")
        run(
            env,
            client.subscribe(
                wrapper.service_epr(), listener.epr, "js-1/**", dialect=FULL_DIALECT
            ),
        )
        for topic in ("js-1/a", "js-1/b/c", "js-2/a"):
            run(env, client.call(wrapper.service_epr(), UVA, "Emit",
                                 {"topic": topic, "text": "t"}))
        env.run()
        assert listener.topics_seen() == ["js-1/a", "js-1/b/c"]

    def test_pause_and_resume(self, fabric):
        env, net, pm, wrapper, client = fabric
        listener = NotificationListener(net, "client")
        sub_epr = run(
            env, client.subscribe(wrapper.service_epr(), listener.epr, "t/x")
        )
        from repro.wsn.base_notification import PAUSE_SUBSCRIPTION, RESUME_SUBSCRIPTION

        run(env, client.invoke(sub_epr, Element(PAUSE_SUBSCRIPTION)))
        run(env, client.call(wrapper.service_epr(), UVA, "Emit", {"topic": "t/x", "text": "1"}))
        env.run()
        assert listener.received == []
        run(env, client.invoke(sub_epr, Element(RESUME_SUBSCRIPTION)))
        run(env, client.call(wrapper.service_epr(), UVA, "Emit", {"topic": "t/x", "text": "2"}))
        env.run()
        assert [n.payload.full_text() for n in listener.received] == ["2"]

    def test_destroy_subscription_stops_delivery(self, fabric):
        env, net, pm, wrapper, client = fabric
        listener = NotificationListener(net, "client")
        sub_epr = run(env, client.subscribe(wrapper.service_epr(), listener.epr, "t/x"))
        run(env, client.destroy(sub_epr))
        run(env, client.call(wrapper.service_epr(), UVA, "Emit", {"topic": "t/x", "text": "1"}))
        env.run()
        assert listener.received == []
        producer = wrapper.notification_producer
        assert producer.subscriptions == {}

    def test_multiple_subscribers_fanout(self, fabric):
        env, net, pm, wrapper, client = fabric
        listeners = []
        for i in range(5):
            net.add_host(f"watcher{i}")
            listener = NotificationListener(net, f"watcher{i}")
            listeners.append(listener)
            run(env, client.subscribe(wrapper.service_epr(), listener.epr, "t/x"))
        run(env, client.call(wrapper.service_epr(), UVA, "Emit", {"topic": "t/x", "text": "all"}))
        env.run()
        assert all(len(l.received) == 1 for l in listeners)
        assert wrapper.notification_producer.notifications_sent == 5

    def test_publish_without_producer_raises(self, fabric):
        env, net, pm, wrapper, client = fabric
        machine2 = Machine(net, "other-node")
        bare = deploy(MuteService, machine2, "Bare")
        with pytest.raises(SoapFaultLike := Exception, match="NotificationProducer"):
            run(env, client.call(bare.service_epr(), UVA, "Emit", {"topic": "t", "text": "x"}))

    def test_service_side_consumer(self, fabric):
        env, net, pm, wrapper, client = fabric
        sink_machine = Machine(net, "sink-node")
        sink = deploy(SinkService, sink_machine, "Sink")
        run(env, client.subscribe(wrapper.service_epr(), sink.service_epr(), "t/x"))
        run(env, client.call(wrapper.service_epr(), UVA, "Emit", {"topic": "t/x", "text": "svc"}))
        env.run()
        assert len(SinkService.log) == 1
        assert SinkService.log[0][1] == "t/x"
        assert SinkService.log[0][2] == "svc"


class TestBroker:
    def test_broker_multicast(self, fabric):
        env, net, pm, wrapper, client = fabric
        broker_machine = Machine(net, "broker-node")
        broker = deploy(NotificationBrokerService, broker_machine, "NotificationBroker")
        # Two listeners subscribe at the broker.
        listeners = []
        for i in range(3):
            net.add_host(f"sub{i}")
            listener = NotificationListener(net, f"sub{i}")
            listeners.append(listener)
            run(env, client.subscribe(broker.service_epr(), listener.epr, "js-7/**",
                                      dialect=FULL_DIALECT))
        # A producer (here: the client itself) sends one Notify to the broker.
        payload = Element(QName(UVA, "JobStarted"), text="job1")
        body = build_notify_body("js-7/job1/started", payload)
        run(env, client.invoke(broker.service_epr(), body, category="notify"))
        env.run()
        for listener in listeners:
            assert listener.topics_seen() == ["js-7/job1/started"]

    def test_register_publisher(self, fabric):
        env, net, pm, wrapper, client = fabric
        broker_machine = Machine(net, "broker-node")
        broker = deploy(NotificationBrokerService, broker_machine, "NotificationBroker")
        from repro.wsn.broker import REGISTER_PUBLISHER

        body = Element(REGISTER_PUBLISHER)
        body.append(wrapper.service_epr().to_xml(QName(NS.WSBN, "PublisherReference")))
        run(env, client.invoke(broker.service_epr(), body))
        assert broker.registered_publishers == [wrapper.service_epr()]
        # Idempotent.
        run(env, client.invoke(broker.service_epr(), body))
        assert len(broker.registered_publishers) == 1

    def test_broker_ping(self, fabric):
        env, net, pm, wrapper, client = fabric
        broker_machine = Machine(net, "broker-node")
        broker = deploy(NotificationBrokerService, broker_machine, "NotificationBroker")
        assert run(env, client.call(broker.service_epr(), NS.WSBN, "Ping")) == "broker-alive"

    def test_broker_decouples_producer_from_consumers(self, fabric):
        """Producer sends ONE message regardless of subscriber count."""
        env, net, pm, wrapper, client = fabric
        broker_machine = Machine(net, "broker-node")
        broker = deploy(NotificationBrokerService, broker_machine, "NotificationBroker")
        for i in range(10):
            net.add_host(f"c{i}")
            listener = NotificationListener(net, f"c{i}")
            run(env, client.subscribe(broker.service_epr(), listener.epr, "t/**",
                                      dialect=FULL_DIALECT))
        net.stats.reset()
        payload = Element(QName(UVA, "E"), text="1")
        run(env, client.invoke(broker.service_epr(), build_notify_body("t/e", payload),
                               category="producer-notify"))
        env.run()
        assert net.stats.by_category["producer-notify"] == 2  # request+response only
        assert net.stats.by_category["notify"] == 10  # broker fan-out


class TestTopicAdvertisement:
    """The wstop:Topic RP — the producer's published topic space."""

    def test_topics_advertised_after_publish(self, fabric):
        env, net, pm, wrapper, client = fabric
        from repro.wsn.base_notification import TOPIC_RP

        # A subscription resource gives us an EPR to query RPs against.
        listener = NotificationListener(net, "client")
        sub_epr = run(env, client.subscribe(wrapper.service_epr(), listener.epr, "t/x"))
        run(env, client.call(wrapper.service_epr(), UVA, "Emit",
                             {"topic": "t/x", "text": "1"}))
        run(env, client.call(wrapper.service_epr(), UVA, "Emit",
                             {"topic": "t/y", "text": "2"}))
        env.run()
        topics = run(env, client.get_resource_property(sub_epr, TOPIC_RP))
        assert topics == ["t/x", "t/y"]

    def test_no_publishes_empty_advertisement(self, fabric):
        env, net, pm, wrapper, client = fabric
        from repro.wsn.base_notification import TOPIC_RP

        listener = NotificationListener(net, "client")
        sub_epr = run(env, client.subscribe(wrapper.service_epr(), listener.epr, "t/x"))
        assert run(env, client.get_resource_property(sub_epr, TOPIC_RP)) == []


class TestDemandPublishing:
    """WS-BrokeredNotification demand-based publishing."""

    def _demand_setup(self, fabric):
        env, net, pm, wrapper, client = fabric
        broker_machine = Machine(net, "broker-node")
        broker = deploy(NotificationBrokerService, broker_machine, "NotificationBroker")

        # A publisher service that honors Pause/ResumePublishing.
        from repro.wsn.broker import DemandPublisherPortType

        @WSRFPortType(DemandPublisherPortType)
        class Sensor(ServiceSkeleton):
            @WebMethod(requires_resource=False)
            def IsPublishing(self, root: str) -> bool:
                return root not in self.wsrf.wrapper.publishing_paused

        sensor_machine = Machine(net, "sensor-node")
        sensor = deploy(Sensor, sensor_machine, "Sensor")

        # Register the sensor as a demand publisher for topic root "env".
        from repro.wsn.broker import REGISTER_PUBLISHER

        body = Element(REGISTER_PUBLISHER)
        body.append(sensor.service_epr().to_xml(QName(NS.WSBN, "PublisherReference")))
        body.subelement(QName(NS.WSBN, "Demand"), text="true")
        body.subelement(QName(NS.WSBN, "Topic"), text="env")
        run(env, client.invoke(broker.service_epr(), body))
        env.run(until=env.now + 1.0)
        return env, net, broker, sensor, client

    def _is_publishing(self, env, client, sensor):
        return run(env, client.call(sensor.service_epr(), UVA, "IsPublishing",
                                    {"root": "env"}))

    def test_paused_until_first_subscriber(self, fabric):
        env, net, broker, sensor, client = self._demand_setup(fabric)
        # No subscriber interest yet: the broker told the sensor to pause.
        assert self._is_publishing(env, client, sensor) is False
        # A matching subscription appears -> resume.
        listener = NotificationListener(net, "client")
        run(env, client.subscribe(broker.service_epr(), listener.epr, "env/**",
                                  dialect=FULL_DIALECT))
        env.run(until=env.now + 1.0)
        assert self._is_publishing(env, client, sensor) is True

    def test_pause_returns_when_interest_vanishes(self, fabric):
        env, net, broker, sensor, client = self._demand_setup(fabric)
        listener = NotificationListener(net, "client")
        sub_epr = run(env, client.subscribe(broker.service_epr(), listener.epr,
                                            "env/**", dialect=FULL_DIALECT))
        env.run(until=env.now + 1.0)
        assert self._is_publishing(env, client, sensor) is True
        run(env, client.destroy(sub_epr))
        env.run(until=env.now + 1.0)
        assert self._is_publishing(env, client, sensor) is False

    def test_unrelated_subscription_does_not_resume(self, fabric):
        env, net, broker, sensor, client = self._demand_setup(fabric)
        listener = NotificationListener(net, "client")
        run(env, client.subscribe(broker.service_epr(), listener.epr,
                                  "othertopic/**", dialect=FULL_DIALECT))
        env.run(until=env.now + 1.0)
        assert self._is_publishing(env, client, sensor) is False

    def test_pausing_last_subscription_pauses_publisher(self, fabric):
        env, net, broker, sensor, client = self._demand_setup(fabric)
        from repro.wsn.base_notification import PAUSE_SUBSCRIPTION

        listener = NotificationListener(net, "client")
        sub_epr = run(env, client.subscribe(broker.service_epr(), listener.epr,
                                            "env/**", dialect=FULL_DIALECT))
        env.run(until=env.now + 1.0)
        run(env, client.invoke(sub_epr, Element(PAUSE_SUBSCRIPTION)))
        env.run(until=env.now + 1.0)
        assert self._is_publishing(env, client, sensor) is False

    def test_demand_signals_obey_write_ahead_order(self, fabric, monkeypatch):
        """Demand-control Pause/Resume rides the dispatch outbox (WAL001).

        The one-way signal must leave the broker only after the dispatch
        that changed the subscription state has persisted it — never
        mid-method, where a crash would have announced state that was
        about to be rolled back.
        """
        import repro.wsn.base_notification as base_notification

        env, net, broker, sensor, client = self._demand_setup(fabric)
        from repro.wsn.base_notification import PAUSE_SUBSCRIPTION

        listener = NotificationListener(net, "client")
        sub_epr = run(env, client.subscribe(broker.service_epr(), listener.epr,
                                            "env/**", dialect=FULL_DIALECT))
        env.run(until=env.now + 1.0)

        order = []
        real_save = broker.store.save
        real_send = base_notification.fire_and_forget

        def spy_save(service, rid, state):
            order.append(("save", rid))
            return real_save(service, rid, state)

        def spy_send(env_, client_, epr, body, category="notify", **kwargs):
            order.append(("send", category))
            return real_send(env_, client_, epr, body, category=category, **kwargs)

        monkeypatch.setattr(broker.store, "save", spy_save)
        monkeypatch.setattr(base_notification, "fire_and_forget", spy_send)

        # Pausing the only matching subscription flips demand -> Pause.
        run(env, client.invoke(sub_epr, Element(PAUSE_SUBSCRIPTION)))
        env.run(until=env.now + 1.0)

        sends = [i for i, (kind, tag) in enumerate(order)
                 if kind == "send" and tag == "demand-control"]
        saves = [i for i, (kind, _) in enumerate(order) if kind == "save"]
        assert sends, f"no demand-control send recorded: {order}"
        assert saves, f"no broker store save recorded: {order}"
        assert min(sends) > max(saves), (
            f"demand-control send left before the dispatch persisted the "
            f"subscription change: {order}"
        )
        assert self._is_publishing(env, client, sensor) is False

    def test_demand_signals_leave_after_the_dispatch_db_save(self, fabric, monkeypatch):
        """Each Pause/Resume that a RegisterPublisher or Subscribe
        dispatch decides is handed to the network only once that
        dispatch's db_save stage has finished (WAL001), never from the
        method.  The broker dispatch's stage spans, open while it runs,
        say which stage it is in when a send starts."""
        import repro.wsn.base_notification as base_notification
        from repro.obs import Observability

        obs = Observability(fabric[0]).attach(fabric[1])
        sends = []
        real_send = base_notification.fire_and_forget

        def spy_send(env_, client_, epr, body, category="notify", **kwargs):
            if category == "demand-control":
                (dispatch,) = [
                    span for span in obs.spans.open_spans()
                    if span.name == "wsrf.dispatch"
                    and span.attrs["service"] == "NotificationBroker"
                ]
                saved = [
                    span for span in obs.spans.children(dispatch)
                    if span.name == "wsrf.dispatch.db_save" and span.end is not None
                ]
                sends.append((dispatch.attrs["operation"], body.tag.local, len(saved)))
            return real_send(env_, client_, epr, body, category=category, **kwargs)

        monkeypatch.setattr(base_notification, "fire_and_forget", spy_send)
        env, net, broker, sensor, client = self._demand_setup(fabric)
        listener = NotificationListener(net, "client")
        for topic in ("env/**", "env/x"):  # the second changes no demand
            run(env, client.subscribe(broker.service_epr(), listener.epr, topic,
                                      dialect=FULL_DIALECT))
            env.run(until=env.now + 1.0)
        assert sends == [
            ("RegisterPublisher", "PausePublishing", 1),
            ("Subscribe", "ResumePublishing", 1),
        ]
        assert self._is_publishing(env, client, sensor) is True


class TestBrokerRedelivery:
    """Bounded notification redelivery, then dropping the subscriber."""

    def _policy(self, attempts=3):
        from repro.net import RetryPolicy

        return RetryPolicy(
            max_attempts=attempts, base_delay_s=1.0, backoff_factor=2.0,
            max_delay_s=8.0, jitter=0.0,
        )

    def _broker_with_listener(self, env, net, client, policy):
        broker_machine = Machine(net, "broker-node")
        broker = deploy(NotificationBrokerService, broker_machine, "NotificationBroker")
        broker.notification_producer.redelivery_policy = policy
        net.add_host("watcher")
        listener = NotificationListener(net, "watcher")
        sub_epr = run(
            env, client.subscribe(broker.service_epr(), listener.epr, "t/**",
                                  dialect=FULL_DIALECT)
        )
        return broker, listener, sub_epr

    def _notify(self, env, client, broker, text):
        payload = Element(QName(UVA, "E"), text=text)
        run(env, client.invoke(
            broker.service_epr(), build_notify_body("t/e", payload),
            category="producer-notify",
        ))

    def test_transient_outage_is_redelivered(self, fabric):
        env, net, pm, wrapper, client = fabric
        broker, listener, sub_epr = self._broker_with_listener(
            env, net, client, self._policy(attempts=4)
        )
        net.host("watcher").down = True

        def heal(env):
            yield env.timeout(2.5)  # back up before attempts run out
            net.host("watcher").down = False

        env.process(heal(env))
        self._notify(env, client, broker, "eventually")
        env.run()
        assert [n.payload.full_text() for n in listener.received] == ["eventually"]
        producer = broker.notification_producer
        assert producer.redeliveries >= 1
        assert net.stats.redeliveries == producer.redeliveries
        assert producer.dropped_subscribers == []
        assert len(producer.subscriptions) == 1

    def test_exhaustion_drops_the_subscriber(self, fabric):
        env, net, pm, wrapper, client = fabric
        broker, listener, sub_epr = self._broker_with_listener(
            env, net, client, self._policy(attempts=3)
        )
        net.host("watcher").down = True
        self._notify(env, client, broker, "never")
        env.run()
        producer = broker.notification_producer
        assert listener.received == []
        assert len(producer.dropped_subscribers) == 1
        assert producer.subscriptions == {}
        # Later publishes have no one to go to; no error either.
        net.host("watcher").down = False
        self._notify(env, client, broker, "late")
        env.run()
        assert listener.received == []

    @pytest.mark.parametrize("batched", [False, True])
    def test_exhaustion_spends_the_same_budget_batched_or_not(self, fabric, batched):
        """Immediate fan-out and a batch flush share one send path: under
        a redelivery policy both try an unreachable consumer exactly
        ``max_attempts`` times, then drop it."""
        from repro.wsn import NotificationBatcher

        env, net, pm, wrapper, client = fabric
        broker, listener, sub_epr = self._broker_with_listener(
            env, net, client, self._policy(attempts=3)
        )
        if batched:
            broker.notification_producer.batcher = NotificationBatcher(
                broker.notification_producer
            )
        net.host("watcher").down = True
        self._notify(env, client, broker, "never")
        env.run()
        producer = broker.notification_producer
        assert net.stats.faults["host-down"] == 3
        assert producer.redeliveries == 2
        assert len(producer.dropped_subscribers) == 1
        assert producer.subscriptions == {}
        if batched:
            assert producer.batcher.batches_sent == 1

    def test_a_broker_crash_mid_drop_keeps_the_subscription(self, fabric):
        """The drop is a local wsrl:Destroy: queued at the subscription's
        lock when the broker crashes, it destroys nothing, raises nothing
        out of the redelivery loop, and counts no drop."""
        env, net, pm, wrapper, client = fabric
        broker, listener, sub_epr = self._broker_with_listener(
            env, net, client, self._policy(attempts=2)
        )
        rid = sub_epr.get(QName(NS.UVACG, "ResourceID"))
        host = broker.machine.host
        producer = broker.notification_producer
        lock = broker.resource_lock(rid)
        lock.acquire()  # a handler holds the subscription past the last failure
        net.host("watcher").down = True
        self._notify(env, client, broker, "x")
        env.run(until=env.now + 10.0)
        snap = host.snapshot()
        host.down = True
        broker.release_resource_lock(rid, lock)
        env.run(until=env.now + 1.0)
        assert broker.store.exists(broker.service_name, rid)
        assert producer.dropped_subscribers == []
        host.restore(snap)
        host.down = False
        env.run()
        assert list(producer.subscriptions) == [rid]
        assert producer.dropped_subscribers == []

    def test_dropped_subscribers_resource_property(self, fabric):
        env, net, pm, wrapper, client = fabric
        broker, listener, sub_epr = self._broker_with_listener(
            env, net, client, self._policy(attempts=2)
        )
        # RPs are served in the context of a WS-Resource; the
        # subscription itself is the natural one to ask.
        assert run(env, client.get_resource_property(
            sub_epr, QName(NS.WSBN, "DroppedSubscribers")
        )) == 0
        net.host("watcher").down = True
        self._notify(env, client, broker, "x")
        env.run()
        # The subscription was destroyed with its consumer; ask a fresh
        # subscription's resource for the broker-wide count.
        net.add_host("watcher2")
        listener2 = NotificationListener(net, "watcher2")
        sub2 = run(env, client.subscribe(
            broker.service_epr(), listener2.epr, "t/**", dialect=FULL_DIALECT
        ))
        assert run(env, client.get_resource_property(
            sub2, QName(NS.WSBN, "DroppedSubscribers")
        )) == 1

    def test_without_policy_loss_is_silent_and_subscription_kept(self, fabric):
        """Seed semantics (§4.1 one-way loss) are untouched by default."""
        env, net, pm, wrapper, client = fabric
        broker_machine = Machine(net, "broker-node")
        broker = deploy(NotificationBrokerService, broker_machine, "NotificationBroker")
        net.add_host("watcher")
        listener = NotificationListener(net, "watcher")
        run(env, client.subscribe(broker.service_epr(), listener.epr, "t/**",
                                  dialect=FULL_DIALECT))
        net.host("watcher").down = True
        payload = Element(QName(UVA, "E"), text="gone")
        run(env, client.invoke(
            broker.service_epr(), build_notify_body("t/e", payload),
            category="producer-notify",
        ))
        env.run()
        producer = broker.notification_producer
        assert listener.received == []
        assert producer.dropped_subscribers == []
        assert len(producer.subscriptions) == 1


class TestPublishBodyIsolation:
    """Regression: publish() used to share one mutable Notify body."""

    def test_mutation_after_publish_does_not_alias_into_sends(self, fabric, monkeypatch):
        env, net, pm, wrapper, client = fabric
        listeners = []
        for i in range(2):
            net.add_host(f"iso{i}")
            listener = NotificationListener(net, f"iso{i}")
            listeners.append(listener)
            run(env, client.subscribe(wrapper.service_epr(), listener.epr, "t/x"))

        # Capture the internal Notify body publish() builds, so we can
        # mutate it after publish() returns (the detached one-way sends
        # serialize later — a shared tree would leak the mutation).
        import repro.wsn.base_notification as bn

        captured = []
        original = bn.build_notify_body

        def capturing(topic_path, payload, producer_epr=None):
            body = original(topic_path, payload, producer_epr)
            captured.append(body)
            return body

        monkeypatch.setattr(bn, "build_notify_body", capturing)
        producer = wrapper.notification_producer
        payload = Element(QName(UVA, "Event"), text="original")
        sent = producer.publish("t/x", payload)
        assert sent == 2 and len(captured) == 1

        # Corrupt the shared tree before the detached sends serialize.
        for el in captured[0].iter():
            el.text = "corrupted"
        env.run()
        texts = [listener.received[0].payload.full_text() for listener in listeners]
        assert texts == ["original", "original"]

    def test_mutation_does_not_alias_into_redeliveries(self, fabric, monkeypatch):
        from repro.net.retry import RetryPolicy

        env, net, pm, wrapper, client = fabric
        net.add_host("red0")
        listener = NotificationListener(net, "red0")
        run(env, client.subscribe(wrapper.service_epr(), listener.epr, "t/x"))
        wrapper.notification_producer.redelivery_policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.1, jitter=0.0
        )
        # First delivery attempt fails (host down) → redelivery path keeps
        # the body pending across simulated time.
        net.host("red0").down = True

        import repro.wsn.base_notification as bn

        captured = []
        original = bn.build_notify_body

        def capturing(topic_path, payload, producer_epr=None):
            body = original(topic_path, payload, producer_epr)
            captured.append(body)
            return body

        monkeypatch.setattr(bn, "build_notify_body", capturing)
        producer = wrapper.notification_producer
        producer.publish("t/x", Element(QName(UVA, "Event"), text="original"))
        for el in captured[0].iter():
            el.text = "corrupted"
        env.run(until=env.now + 0.05)
        net.host("red0").down = False  # recover before budget exhausts
        env.run()
        assert [n.payload.full_text() for n in listener.received] == ["original"]
        assert producer.redeliveries >= 1


class TestTopicsCapSignal:
    """Regression: the topics_seen cap used to truncate silently."""

    def test_truncation_is_flagged_and_counted(self, fabric):
        env, net, pm, wrapper, client = fabric
        producer = wrapper.notification_producer
        producer._topics_cap = 3
        for i in range(5):
            producer.publish(f"t/{i}", Element(QName(UVA, "E"), text="x"))
        assert len(producer.topics_seen) == 3
        assert producer.topics_truncated is True
        assert producer.topics_dropped == 2

    def test_republishing_known_topic_not_counted_as_dropped(self, fabric):
        env, net, pm, wrapper, client = fabric
        producer = wrapper.notification_producer
        producer._topics_cap = 1
        producer.publish("t/a", Element(QName(UVA, "E"), text="x"))
        producer.publish("t/a", Element(QName(UVA, "E"), text="y"))
        assert producer.topics_truncated is False
        assert producer.topics_dropped == 0
        producer.publish("t/b", Element(QName(UVA, "E"), text="z"))
        producer.publish("t/b", Element(QName(UVA, "E"), text="z"))
        assert producer.topics_truncated is True
        # the same unseen topic republished counts each time: the signal
        # tracks how often advertisement was wrong, not distinct names
        assert producer.topics_dropped == 2


class TestSubscriptionRows:
    """A dispatch onto a subscription keeps the row the producer stored:
    the broker declares no Resource fields, so nothing of the row is the
    dispatch's to write."""

    def _subscribed(self):
        from repro.gridapp import Testbed

        tb = Testbed(n_machines=1, seed=11)
        tb.network.add_host("watcher")
        listener = NotificationListener(tb.network, "watcher")
        client = WsrfClient(tb.network, "watcher")
        sub_epr = tb.run(client.subscribe(
            tb.broker.service_epr(), listener.epr, "t/**", dialect=FULL_DIALECT
        ))
        rid = sub_epr.get(QName(UVA, "ResourceID"))
        return tb, listener, client, sub_epr, rid

    def _notify(self, tb, client, text):
        payload = Element(QName(UVA, "E"), text=text)
        tb.run(client.invoke(tb.broker.service_epr(), build_notify_body("t/e", payload),
                             category="producer-notify"))
        tb.settle(5.0)

    def test_a_pause_keeps_the_row(self):
        from repro.wsn.base_notification import PAUSE_SUBSCRIPTION

        tb, listener, client, sub_epr, rid = self._subscribed()
        tb.run(client.invoke(sub_epr, Element(PAUSE_SUBSCRIPTION)))
        state = tb.broker.store.load("NotificationBroker", rid)
        assert state == {
            QName(NS.WSNT, "consumer"): listener.epr,
            QName(NS.WSNT, "expression"): "t/**",
            QName(NS.WSNT, "dialect"): FULL_DIALECT,
            QName(NS.WSNT, "paused"): True,
        }

    def test_a_paused_subscription_survives_a_restart_paused(self):
        from repro.wsn.base_notification import PAUSE_SUBSCRIPTION, RESUME_SUBSCRIPTION

        tb, listener, client, sub_epr, rid = self._subscribed()
        tb.run(client.invoke(sub_epr, Element(PAUSE_SUBSCRIPTION)))
        tb.env.run(until=tb.restart_host(tb.central.name, down_for=2.0))
        assert tb.broker.restarts == 1
        assert tb.broker.notification_producer.subscriptions[rid].paused
        self._notify(tb, client, "while paused")
        assert listener.received == []
        tb.run(client.invoke(sub_epr, Element(RESUME_SUBSCRIPTION)))
        self._notify(tb, client, "resumed")
        assert [note.payload.full_text() for note in listener.received] == ["resumed"]

    def test_a_property_read_leaves_the_row_bytes(self):
        tb, listener, client, sub_epr, rid = self._subscribed()
        before = tb.broker.store.snapshot()[f"NotificationBroker|{rid}"]
        count = tb.run(client.get_resource_property(
            sub_epr, QName(NS.WSBN, "SubscriptionCount")
        ))
        assert count == 1
        assert tb.broker.store.snapshot()[f"NotificationBroker|{rid}"] == before

    def test_a_field_set_on_a_subscription_carries_the_row(self):
        """On a producer that declares fields, a subscription row stores
        none of them: a dispatch that reads none writes nothing, and one
        that sets a field writes it beside the producer's keys."""
        from repro.wsn.base_notification import PAUSE_SUBSCRIPTION

        @WSRFPortType(NotificationProducerPortType, SubscriptionManagerPortType)
        class Labelled(ServiceSkeleton):
            label = Resource(default="none")

            @WebMethod
            def Label(self, text: str) -> None:
                self.label = text

        env = Environment()
        net = Network(env)
        wrapper = deploy(Labelled, Machine(net, "producer-node"), "Labelled")
        net.add_host("client")
        client = WsrfClient(net, "client")
        listener = NotificationListener(net, "client")
        sub_epr = run(env, client.subscribe(wrapper.service_epr(), listener.epr, "t/x"))
        rid = sub_epr.get(QName(UVA, "ResourceID"))
        run(env, client.invoke(sub_epr, Element(PAUSE_SUBSCRIPTION)))
        stored = wrapper.store.load("Labelled", rid)
        assert list(stored) == [QName(NS.WSNT, name)
                                for name in ("consumer", "expression", "dialect", "paused")]
        assert stored[QName(NS.WSNT, "paused")] is True
        run(env, client.call(sub_epr, UVA, "Label", {"text": "mine"}))
        assert wrapper.store.load("Labelled", rid) == {
            QName(UVA, "label"): "mine", **stored,
        }
