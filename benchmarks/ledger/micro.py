"""Layer microbenches: each layer alone, about a second each.

The message and blob corpus is captured from one ``fig3_cold`` job set
(every wire message a receiver decoded, every resource-state blob left
in a store), so the codec and store numbers are for the documents the
system really handles.  Run as a process of its own by ``__main__.py``;
prints one JSON object ``{metric: value}`` on its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from repro.db import (
    BlobResourceStore,
    CachedResourceStore,
    DecodeCache,
    SqlResourceStore,
    XmlResourceStore,
)
from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.soap import SoapEnvelope
from repro.wsn import NotificationListener, attach_notification_producer
from repro.wsn.base_notification import (
    NotificationProducerPortType,
    build_subscribe_body,
)
from repro.wsn.topics import FULL_DIALECT
from repro.wsrf import (
    Resource,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
    WsrfClient,
    deploy,
)
from repro.xmlx import NS, Element, QName, parse, to_string

import workloads

UVA = NS.UVACG


def capture_corpus(seed: int):
    """(wire texts, {"service|rid": blob}) of one Fig. 3 job set."""
    texts = []
    original = vars(SoapEnvelope)["deserialize"]

    def recording(cls, text, cache=None):
        texts.append(text)
        return original.__func__(cls, text, cache)

    SoapEnvelope.deserialize = classmethod(recording)
    try:
        run = workloads.Fig3Cold(seed, "smoke")
        del run.sites[1:]
        run.run()
    finally:
        SoapEnvelope.deserialize = original
    blobs = {}
    for wrapper in run.wrappers():
        for key, blob in wrapper.store.snapshot().items():
            blobs[f"{wrapper.machine.name}.{key}"] = blob
    return texts, blobs


def _rate(fn, seconds: float) -> float:
    """Calls of *fn* per second: whole passes until *seconds* are up.
    *fn* returns how many units one pass did."""
    gc.collect()
    done = 0
    start = time.perf_counter()
    while True:
        done += fn()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return done / elapsed


def _drive(env, coroutine):
    proc = env.process(coroutine)
    env.run(until=proc)
    return proc.value


# -- codec -------------------------------------------------------------------------


def bench_codec(texts, seconds):
    chars = sum(len(t) for t in texts)
    trees = [parse(t) for t in texts]

    def parse_pass():
        for text in texts:
            parse(text)
        return chars

    def serialize_pass():
        for tree in trees:
            to_string(tree)
        return chars

    def roundtrip_pass():
        for text in texts:
            SoapEnvelope.deserialize(SoapEnvelope.deserialize(text).serialize())
        return len(texts)

    return {
        "xmlx.micro.parse_mb_per_s": _rate(parse_pass, seconds) / 1e6,
        "xmlx.micro.serialize_mb_per_s": _rate(serialize_pass, seconds) / 1e6,
        "soap.micro.roundtrip_per_s": _rate(roundtrip_pass, seconds),
    }


# -- stores ------------------------------------------------------------------------


def _cached_store():
    """The store the perf layer deploys: blob cache + decode cache."""
    store = CachedResourceStore(BlobResourceStore())
    store.decode_cache = store.inner.decode_cache = DecodeCache()
    return store


def bench_stores(blobs, seconds):
    out = {}
    keys = [key.partition("|")[::2] for key in sorted(blobs)]
    for label, make in (("blob", BlobResourceStore), ("xml", XmlResourceStore),
                        ("sql", SqlResourceStore), ("cached", _cached_store)):
        store = make()
        store.restore(blobs)
        states = [store.load(service, rid) for service, rid in keys]

        def load_pass():
            for service, rid in keys:
                store.load(service, rid)
            return len(keys)

        def save_pass():
            for (service, rid), state in zip(keys, states):
                store.save(service, rid, state)
            return len(keys)

        out[f"db.micro.{label}_load_per_s"] = _rate(load_pass, seconds)
        out[f"db.micro.{label}_save_per_s"] = _rate(save_pass, seconds)
    return out


# -- kernel, transport, dispatch, fan-out --------------------------------------------------


def bench_kernel(seconds):
    """A no-op process storm: 100 processes x 100 timeouts per pass."""

    def storm_pass():
        env = Environment()

        def idle(env):
            for _ in range(100):
                yield env.timeout(1.0)

        for _ in range(100):
            env.process(idle(env))
        events = 0
        while env.peek() != float("inf"):
            env.step()
            events += 1
        return events

    return {"sim.micro.events_per_s": _rate(storm_pass, seconds)}


class _EchoApp:
    def __init__(self, env):
        self.env = env

    def handle_soap(self, payload, ctx):
        yield self.env.timeout(0)
        return payload


def bench_transport(seconds):
    env = Environment()
    net = Network(env)
    machine = Machine(net, "server")
    machine.iis.register_app("Echo", _EchoApp(env))
    net.add_host("client")
    payload = "x" * 400

    def loop():
        for _ in range(200):
            yield from net.request("client", "http://server:80/Echo", payload)

    def request_pass():
        _drive(env, loop())
        return 200

    return {"net.micro.requests_per_s": _rate(request_pass, seconds)}


class _NullService(ServiceSkeleton):
    marker = Resource(default=0)

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource(marker=0))

    @WebMethod
    def Null(self) -> None:
        return None


def bench_dispatch(seconds):
    env = Environment()
    net = Network(env)
    wrapper = deploy(_NullService, Machine(net, "server"), "Null")
    net.add_host("client")
    client = WsrfClient(net, "client")
    epr = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))

    def loop():
        for _ in range(100):
            yield from client.call(epr, UVA, "Null")

    def dispatch_pass():
        _drive(env, loop())
        return 100

    return {"wsrf.micro.null_dispatch_per_s": _rate(dispatch_pass, seconds)}


@WSRFPortType(NotificationProducerPortType)
class _Ticker(ServiceSkeleton):
    @WebMethod(requires_resource=False)
    def Tick(self) -> None:
        self.notify("evt/tick", Element(QName(UVA, "Event"), text="observation-42"))


def _seconds_per_event(n_subscribers, seconds):
    """Host seconds to publish one event and deliver it to everyone."""
    env = Environment()
    net = Network(env)
    wrapper = deploy(_Ticker, Machine(net, "producer"), "Ticker")
    attach_notification_producer(wrapper)
    net.add_host("client")
    client = WsrfClient(net, "client")
    listeners = []
    for i in range(n_subscribers):
        net.add_host(f"sub{i}")
        listeners.append(NotificationListener(net, f"sub{i}"))
        _drive(env, client.invoke(
            wrapper.service_epr(),
            build_subscribe_body(listeners[-1].epr, "evt/**", FULL_DIALECT),
        ))

    def tick_pass():
        for _ in range(10):
            _drive(env, client.call(wrapper.service_epr(), UVA, "Tick"))
            env.run(until=env.now + 1.0)  # let the one-way deliveries land
        return 10

    per_s = _rate(tick_pass, seconds)
    delivered = sum(len(listener.received) for listener in listeners)
    if delivered == 0 or delivered % n_subscribers:
        raise RuntimeError(f"fan-out lost notifications: {delivered}")
    return 1.0 / per_s


def bench_fanout(seconds):
    one = _seconds_per_event(1, seconds / 2)
    many = _seconds_per_event(64, seconds / 2)
    return {"wsn.micro.notify_us_per_subscriber": (many - one) / 63 * 1e6}


def run_all(seed: int, seconds: float) -> dict:
    texts, blobs = capture_corpus(seed)
    out = {}
    out.update(bench_codec(texts, seconds))
    out.update(bench_stores(blobs, seconds))
    out.update(bench_kernel(seconds))
    out.update(bench_transport(seconds))
    out.update(bench_dispatch(seconds))
    out.update(bench_fanout(seconds))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds-each", type=float, default=1.0)
    args = parser.parse_args(argv)
    print(json.dumps(run_all(args.seed, args.seconds_each)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
