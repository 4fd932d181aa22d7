"""FIG-1: the WSRF.NET wrapper dispatch pipeline (paper Fig. 1).

Measures what the WSRF layer costs per invocation by comparing three
deployments on identical simulated hardware:

- ``plain``     — a bare ASP.NET web method (IIS dispatch only);
- ``wsrf-ro``   — a WSRF-wrapped method that reads resource state
                  (EPR resolution + DB load);
- ``wsrf-rw``   — a WSRF-wrapped method that mutates resource state
                  (adds the DB save).

The paper's Fig. 1 narrative is exactly this pipeline: IIS dispatch →
wrapper → EPR resolution → state load → method → state save →
serialize.  Expected shape: a constant per-call overhead dominated by
the two database accesses, amortized and independent of resource count.
"""

from __future__ import annotations

import pytest

from conftest import print_table, run_coroutine

from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.wsrf import (
    GetResourcePropertyPortType,
    Resource,
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
    WsrfClient,
    deploy,
)
from repro.xmlx import NS

UVA = NS.UVACG
CALLS = 50


@WSRFPortType(GetResourcePropertyPortType)
class StatefulService(ServiceSkeleton):
    value = Resource(default=0)

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource(value=0))

    @WebMethod
    def ReadValue(self) -> int:
        return self.value

    @WebMethod
    def Increment(self) -> int:
        self.value = self.value + 1
        return self.value


class PlainApp:
    """A bare web method: what ASP.NET alone would cost."""

    def __init__(self, env):
        self.env = env

    def handle_soap(self, payload, ctx):
        yield self.env.timeout(0)
        return payload  # echo; the wire cost is symmetric with WSRF calls


def _fabric():
    env = Environment()
    net = Network(env)
    machine = Machine(net, "server")
    net.add_host("client")
    client = WsrfClient(net, "client")
    return env, net, machine, client


def _mean_simulated_latency(env, one_call, calls=CALLS) -> float:
    def driver():
        start = env.now
        for _ in range(calls):
            yield from one_call()
        return (env.now - start) / calls

    return run_coroutine(env, driver())


def _scenario(perf=False):
    """Returns (rows, latencies dict in simulated ms)."""
    env, net, machine, client = _fabric()
    wrapper = deploy(StatefulService, machine, "Stateful", perf=perf)
    machine.iis.register_app("Plain", PlainApp(env))
    epr = run_coroutine(env, client.call(wrapper.service_epr(), UVA, "Create"))

    def plain_call():
        yield from net.request("client", "http://server:80/Plain", "x" * 400)

    def ro_call():
        yield from client.call(epr, UVA, "ReadValue")

    def rw_call():
        yield from client.call(epr, UVA, "Increment")

    plain = _mean_simulated_latency(env, plain_call)
    ro = _mean_simulated_latency(env, ro_call)
    rw = _mean_simulated_latency(env, rw_call)
    return env, machine, {"plain": plain, "wsrf-ro": ro, "wsrf-rw": rw}


def bench_fig1_wrapper_overhead(benchmark):
    env, machine, lat = benchmark.pedantic(_scenario, rounds=1, iterations=1)
    db = machine.params.db_access_s
    rows = [
        ["plain web method", lat["plain"] * 1000, 0.0],
        ["WSRF read-only", lat["wsrf-ro"] * 1000, (lat["wsrf-ro"] - lat["plain"]) * 1000],
        ["WSRF read-write", lat["wsrf-rw"] * 1000, (lat["wsrf-rw"] - lat["plain"]) * 1000],
    ]
    print_table(
        "FIG-1: per-invocation dispatch cost (simulated ms)",
        ["deployment", "latency_ms", "wsrf_overhead_ms"],
        rows,
    )
    benchmark.extra_info.update({f"{k}_ms": v * 1000 for k, v in lat.items()})
    # Shape: WSRF adds a strictly positive, bounded overhead; the
    # read-write path pays more than read-only (the extra DB save).
    assert lat["plain"] < lat["wsrf-ro"] < lat["wsrf-rw"]
    # Overhead is on the order of the DB accesses, not a multiple of the
    # whole call (the §5 claim that standard plumbing is affordable).
    assert lat["wsrf-rw"] - lat["wsrf-ro"] == pytest.approx(db, rel=0.5)
    assert lat["wsrf-rw"] < 3 * lat["plain"]


def bench_fig1_perf_layer(benchmark):
    """The hot-path performance layer (docs/performance.md): with
    ``perf=True`` the read path sheds its DB load (state cache) while
    the write path keeps the full pipeline; with the layer off the
    numbers stay exactly at the EXPERIMENTS.md baseline."""
    def scenario():
        _, machine, lat_off = _scenario()
        _, _, lat_on = _scenario(perf=True)
        return machine, lat_off, lat_on

    machine, lat_off, lat_on = benchmark.pedantic(scenario, rounds=1, iterations=1)
    db = machine.params.db_access_s
    rows = [
        [name, lat_off[name] * 1000, lat_on[name] * 1000,
         (lat_off[name] - lat_on[name]) * 1000]
        for name in ("plain", "wsrf-ro", "wsrf-rw")
    ]
    print_table(
        "FIG-1: dispatch cost with the perf layer off/on (simulated ms)",
        ["deployment", "off_ms", "on_ms", "saved_ms"],
        rows,
    )
    benchmark.extra_info.update(
        {f"{k}_perf_ms": v * 1000 for k, v in lat_on.items()}
    )
    # Guard 1 — default off is the paper-shape baseline, to the
    # EXPERIMENTS.md figure (5.79 / 6.70 / 7.50 ms).
    assert lat_off["plain"] * 1000 == pytest.approx(5.79, abs=0.005)
    assert lat_off["wsrf-ro"] * 1000 == pytest.approx(6.70, abs=0.005)
    assert lat_off["wsrf-rw"] * 1000 == pytest.approx(7.50, abs=0.005)
    # Guard 2 — caching drops the read-only dispatch below the 6.70 ms
    # baseline by exactly the elided DB load.
    assert lat_on["wsrf-ro"] < lat_off["wsrf-ro"]
    assert lat_on["wsrf-ro"] * 1000 < 6.70
    assert lat_off["wsrf-ro"] - lat_on["wsrf-ro"] == pytest.approx(db, rel=1e-6)
    # Guard 3 — writes still pay the save; only the load is cached.
    assert lat_on["wsrf-rw"] < lat_off["wsrf-rw"]
    assert lat_off["wsrf-rw"] - lat_on["wsrf-rw"] == pytest.approx(db, rel=1e-6)
    # The plain path is untouched by a WSRF-layer optimization.
    assert lat_on["plain"] == lat_off["plain"]


def bench_fig1_observability_overhead(benchmark):
    """Observability is free in simulated time: attaching repro.obs must
    not change any measured latency (spans are recorded around the
    existing timeouts, never adding their own)."""

    def scenario():
        out = {}
        for observed in (False, True):
            env, net, machine, client = _fabric()
            if observed:
                from repro.obs import Observability

                Observability(env).attach(net)
            wrapper = deploy(StatefulService, machine, "Stateful")
            epr = run_coroutine(
                env, client.call(wrapper.service_epr(), UVA, "Create")
            )

            def call(epr=epr, client=client):
                yield from client.call(epr, UVA, "Increment")

            out[observed] = _mean_simulated_latency(env, call)
        return out

    latencies = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table(
        "FIG-1: dispatch latency with observability off/on (simulated ms)",
        ["observability", "latency_ms", "added_ms"],
        [
            ["disabled", latencies[False] * 1000, 0.0],
            ["enabled", latencies[True] * 1000,
             (latencies[True] - latencies[False]) * 1000],
        ],
    )
    benchmark.extra_info["obs_added_ms"] = (
        latencies[True] - latencies[False]
    ) * 1000
    # The acceptance bar is exact: 0% added simulated latency.
    assert latencies[True] == latencies[False]


def bench_fig1_overhead_constant_in_resource_count(benchmark):
    """EPR resolution is an indexed point lookup: latency must not grow
    with the number of WS-Resources in the database."""

    def scenario():
        env, net, machine, client = _fabric()
        wrapper = deploy(StatefulService, machine, "Stateful")
        out = {}
        for population in (1, 100, 1000):
            while len(wrapper.resource_ids()) < population:
                run_coroutine(env, client.call(wrapper.service_epr(), UVA, "Create"))
            epr = wrapper.epr_for(wrapper.resource_ids()[0])

            def call(epr=epr):
                yield from client.call(epr, UVA, "ReadValue")

            out[population] = _mean_simulated_latency(env, call, calls=20)
        return out

    latencies = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table(
        "FIG-1: dispatch latency vs resource population",
        ["resources", "latency_ms"],
        [[n, v * 1000] for n, v in latencies.items()],
    )
    benchmark.extra_info.update({f"pop{n}_ms": v * 1000 for n, v in latencies.items()})
    assert latencies[1000] == pytest.approx(latencies[1], rel=0.05)
