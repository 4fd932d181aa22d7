"""PROF: wall-clock profile of the Fig. 3 job set (docs/observability.md).

Unlike every other benchmark in this directory — which measure
*simulated* seconds — this one measures *host* seconds: where the
reproduction itself spends CPU while pushing the paper's workload
through the simulated grid. It emits ``BENCH_wallclock.json`` with
throughput meters (events/s, envelopes/s, store ops/s) and per-stage
self-time shares.  It is a report, not a gate: host performance is
gated by the ledger (``benchmarks/ledger``, the ``ledger`` CI job),
which runs seconds rather than a tenth of one.

Two invariants are asserted here rather than gated on timings:

- profiling must not perturb the simulation — the observability export
  of a profiled Fig. 3 run is byte-identical to an unprofiled one;
- with profiling disabled the hot path must not even see wrapper
  frames (callers receive the impl generators directly).
"""

from __future__ import annotations

import json
import pathlib

from conftest import print_table

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.osim.programs import make_compute_program


def _make_testbed(n_machines, seed=11, observability=False, profile=False):
    tb = Testbed(n_machines=n_machines, seed=seed,
                 machine_speeds=[1.0] * n_machines,
                 observability=observability, profile=profile)
    tb.programs.register(
        make_compute_program("work", 30.0, outputs={"out": b"x"})
    )
    return tb


def _independent_spec(client, tb, n_jobs):
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get("work"))
    for i in range(n_jobs):
        spec.add(JobSpec(name=f"job{i}", executable=FileRef(exe, "job.exe")))
    return spec


def _run_fig3(n_machines, n_jobs, observability=False, profile=False):
    tb = _make_testbed(n_machines, observability=observability,
                       profile=profile)
    client = tb.make_client()
    outcome, _, _ = tb.run_job_set(client, _independent_spec(client, tb, n_jobs))
    assert outcome == "completed"
    tb.settle()
    return tb


def bench_wallclock_fig3_profile(benchmark):
    """Profile the Fig. 3 run (8 jobs, 4 machines), prove profiling does
    not perturb simulated time, and emit ``BENCH_wallclock.json``."""

    def scenario():
        off = _run_fig3(4, 8, observability=True)
        on = _run_fig3(4, 8, observability=True, profile=True)
        return off, on

    off, on = benchmark.pedantic(scenario, rounds=1, iterations=1)

    # Profiling never perturbs simulated-time behaviour.
    assert on.obs.export_json() == off.obs.export_json()
    assert on.env.now == off.env.now
    assert [(e.at, e.step, e.actor) for e in on.trace.events] == \
        [(e.at, e.step, e.actor) for e in off.trace.events]

    snap = on.prof.snapshot()
    assert snap["meta"]["open_regions"] == 0
    assert all(entry["path"][0] == "sim.dispatch" for entry in snap["tree"])

    print_table(
        "PROF: throughput meters, Fig. 3 job set (host seconds)",
        ["meter", "per_s"],
        [[name, rate] for name, rate in sorted(snap["meters"].items())],
    )
    print_table(
        "PROF: per-stage self time, Fig. 3 job set",
        ["stage", "calls", "self_ms", "self_share"],
        [[s["stage"], s["calls"], s["self_s"] * 1000, s["self_share"]]
         for s in snap["stages"]],
    )

    # Scale sweep: meter stability as the grid grows (same job count).
    sweep = {}
    for n in (2, 4):
        tb = _run_fig3(n, 8, observability=True, profile=True)
        s = tb.prof.snapshot()
        sweep[n] = {
            "events": s["counters"]["events"],
            "events_per_s": s["meters"]["events_per_s"],
            "envelopes_per_s": s["meters"]["envelopes_per_s"],
            "busy_s": s["meta"]["busy_s"],
        }
    print_table(
        "PROF: sweep, 8 jobs across grid sizes",
        ["machines", "events", "events_per_s", "busy_s"],
        [[n, row["events"], row["events_per_s"], row["busy_s"]]
         for n, row in sorted(sweep.items())],
    )

    # Disabled-overhead differential: reported, never gated — host
    # timings are too noisy for a hard assert in a simulator this fast.
    import time

    def timed_plain_run():
        t0 = time.perf_counter()
        _run_fig3(4, 8)
        return time.perf_counter() - t0

    baseline_runs = sorted(timed_plain_run() for _ in range(3))
    plain_s = baseline_runs[len(baseline_runs) // 2]

    payload = {
        "figure": "wallclock",
        "wall_s": snap["meta"]["wall_s"],
        "busy_s": snap["meta"]["busy_s"],
        "counters": snap["counters"],
        "meters": snap["meters"],
        "stages": {
            s["stage"]: {"calls": s["calls"], "self_s": s["self_s"],
                         "self_share": s["self_share"]}
            for s in snap["stages"]
        },
        "sweep": {str(n): row for n, row in sweep.items()},
        "plain_run_s": plain_s,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=1),
                   encoding="utf-8")
    benchmark.extra_info.update(
        {"events_per_s": snap["meters"]["events_per_s"],
         "envelopes_per_s": snap["meters"]["envelopes_per_s"]}
    )


def bench_wallclock_disabled_is_unwrapped(benchmark):
    """With profiling off the dispatchers must hand back the impl
    generators themselves — no wrapper frame on the hot path."""
    from repro.net import Network
    from repro.obs import WallClockProfiler
    from repro.sim import Environment

    def scenario():
        env = Environment()
        net = Network(env)
        net.add_host("a")
        net.add_host("b")
        plain = net.request("a", "http://b/x", "payload")
        name_off = plain.gi_code.co_name
        plain.close()
        net.prof = WallClockProfiler()
        wrapped = net.request("a", "http://b/x", "payload")
        name_on = wrapped.gi_code.co_name
        wrapped.close()
        return name_off, name_on

    name_off, name_on = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert name_off == "_request_impl"
    assert name_on == "wrap"
