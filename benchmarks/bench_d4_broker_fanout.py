"""D-4: brokered notification vs producer-managed subscriber lists.

§4.3: "While the web service generating the event could maintain its own
list of parties interested in receiving that event, it is more
convenient to use the Notification Broker service as a multicast
mechanism."

Sweep subscriber count; compare:

- **direct** — the producer sends one Notify per subscriber itself;
- **brokered** — the producer sends ONE Notify to the broker, which
  fans out.

Measured: the producer's wall-clock busy time per event (its NIC and
CPU are tied up for the whole fan-out in direct mode), total messages,
and last-subscriber delivery latency.  Expected shape: producer cost is
O(N) direct vs O(1) brokered; total messages N vs N+1; delivery latency
pays one extra hop through the broker.
"""

from __future__ import annotations

import pytest

from conftest import print_table, run_coroutine

from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.wsn import NotificationListener
from repro.wsn.base_notification import build_notify_body, build_subscribe_body
from repro.wsn.broker import NotificationBrokerService
from repro.wsn.topics import FULL_DIALECT
from repro.wsrf import WsrfClient, deploy
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG


def _fanout_run(n_subscribers, brokered):
    env = Environment()
    net = Network(env)
    producer_machine = Machine(net, "producer")
    broker_machine = Machine(net, "broker-host")
    broker = deploy(NotificationBrokerService, broker_machine, "Broker")
    net.add_host("setup-client")
    setup = WsrfClient(net, "setup-client")
    producer_client = WsrfClient(net, "producer")

    listeners = []
    for i in range(n_subscribers):
        net.add_host(f"sub{i}")
        listener = NotificationListener(net, f"sub{i}")
        listeners.append(listener)
        if brokered:
            run_coroutine(
                env,
                setup.invoke(
                    broker.service_epr(),
                    build_subscribe_body(listener.epr, "evt/**", FULL_DIALECT),
                ),
            )

    payload = Element(QName(UVA, "Event"), text="observation-42")
    body = build_notify_body("evt/tick", payload)
    net.stats.reset()

    def produce():
        start = env.now
        if brokered:
            yield from producer_client.invoke(
                broker.service_epr(), body, category="notify", one_way=True
            )
        else:
            for listener in listeners:
                yield from producer_client.invoke(
                    listener.epr, body, category="notify", one_way=True
                )
        return env.now - start

    producer_busy = run_coroutine(env, produce())
    env.run()  # drain deliveries
    last_delivery = max(
        (note.at for listener in listeners for note in listener.received),
        default=float("nan"),
    )
    delivered = sum(len(listener.received) for listener in listeners)
    assert delivered == n_subscribers, "every subscriber must get the event"
    return producer_busy, net.stats.by_category["notify"], last_delivery


def bench_d4_fanout_scaling(benchmark):
    def scenario():
        rows = []
        results = {}
        for n in (1, 4, 16, 64):
            direct_busy, direct_msgs, direct_last = _fanout_run(n, brokered=False)
            broker_busy, broker_msgs, broker_last = _fanout_run(n, brokered=True)
            rows.append([n, "direct", direct_busy * 1000, direct_msgs, direct_last * 1000])
            rows.append([n, "brokered", broker_busy * 1000, broker_msgs, broker_last * 1000])
            results[n] = (direct_busy, broker_busy, direct_msgs, broker_msgs)
        return rows, results

    rows, results = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table(
        "D-4: one event to N subscribers",
        ["subscribers", "mode", "producer_busy_ms", "notify_msgs", "last_delivery_ms"],
        rows,
    )
    # Producer cost: O(N) direct, O(1) brokered.
    d1, b1 = results[1][0], results[1][1]
    d64, b64 = results[64][0], results[64][1]
    assert d64 / d1 > 16, "direct producer cost must grow with N"
    assert b64 == pytest.approx(b1, rel=0.2), "brokered producer cost is flat"
    # Messages: N vs N+1 (the producer's single Notify to the broker).
    assert results[64][2] == 64
    assert results[64][3] == 65
    benchmark.extra_info["direct_busy_64_ms"] = d64 * 1000
    benchmark.extra_info["brokered_busy_64_ms"] = b64 * 1000
