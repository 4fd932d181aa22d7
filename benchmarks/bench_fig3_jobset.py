"""FIG-3: end-to-end job set execution on the testbed (paper Fig. 3, §4.6).

Runs the full ten-step pipeline and reports:

- the numbered step trace (the figure's arrows, asserted in order);
- job set makespan as the grid grows (independent jobs: more machines →
  shorter makespan, until the job count binds);
- makespan of a dependency chain (serialization floor: machines can't
  help a chain).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from conftest import print_table

from repro.gridapp import FileRef, JobSpec, Testbed
from repro.osim.programs import make_compute_program


def _make_testbed(n_machines, seed=11, observability=False, perf=False):
    tb = Testbed(n_machines=n_machines, seed=seed,
                 machine_speeds=[1.0] * n_machines,
                 observability=observability, perf=perf)
    tb.programs.register(
        make_compute_program("work", 30.0, outputs={"out": b"x"})
    )
    tb.programs.register(
        make_compute_program("chain", 10.0, outputs={"out": b"x"})
    )
    return tb


def _independent_spec(client, tb, n_jobs):
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get("work"))
    for i in range(n_jobs):
        spec.add(JobSpec(name=f"job{i}", executable=FileRef(exe, "job.exe")))
    return spec


def _chain_spec(client, tb, n_jobs):
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get("chain"))
    for i in range(n_jobs):
        inputs = [] if i == 0 else [FileRef(f"job{i-1}://out", "prev.dat")]
        spec.add(
            JobSpec(name=f"job{i}", executable=FileRef(exe, "job.exe"),
                    inputs=inputs, outputs=["out"])
        )
    return spec


def bench_fig3_ten_step_trace(benchmark):
    """The §4.6 walkthrough: all ten steps occur, causally ordered."""

    def scenario():
        tb = _make_testbed(3)
        client = tb.make_client()
        outcome, _, _ = tb.run_job_set(client, _chain_spec(client, tb, 2))
        tb.settle()
        return tb, outcome

    tb, outcome = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert outcome == "completed"
    steps = tb.trace.first_occurrence_order()
    print_table(
        "FIG-3: first occurrence of each numbered step",
        ["order", "step", "actor", "at_s"],
        [
            [i + 1, s, tb.trace.events_for_step(s)[0].actor,
             tb.trace.events_for_step(s)[0].at]
            for i, s in enumerate(steps)
        ],
    )
    assert set(tb.trace.steps()) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
    backbone = [s for s in steps if s in (1, 2, 3, 4, 5, 7, 8, 10)]
    assert backbone == [1, 2, 3, 4, 5, 7, 8, 10]
    benchmark.extra_info["steps"] = steps


def bench_fig3_makespan_vs_machines(benchmark):
    """8 independent jobs across 1/2/4/8 machines: near-linear speedup."""

    def scenario():
        makespans = {}
        for n in (1, 2, 4, 8):
            tb = _make_testbed(n)
            client = tb.make_client()
            start = tb.env.now
            outcome, _, _ = tb.run_job_set(client, _independent_spec(client, tb, 8))
            assert outcome == "completed"
            makespans[n] = tb.env.now - start
        return makespans

    makespans = benchmark.pedantic(scenario, rounds=1, iterations=1)
    rows = [[n, m, makespans[1] / m] for n, m in makespans.items()]
    print_table(
        "FIG-3: makespan of 8 independent jobs (simulated s)",
        ["machines", "makespan_s", "speedup"],
        rows,
    )
    benchmark.extra_info.update({f"m{n}": v for n, v in makespans.items()})
    assert makespans[1] > makespans[2] > makespans[4] > makespans[8]
    # Near-linear until the job count binds: 8 jobs on 8 machines should
    # run ≥ 4x faster than on one.
    assert makespans[1] / makespans[8] > 4.0


def bench_fig3_observed_jobset(benchmark):
    """FIG-3 with observability on: emit ``BENCH_fig3.json`` (makespan,
    message counts, Fig. 1 dispatch-stage latencies) for the CI artifact
    trail, and hold the stage-sum acceptance bar on a real workload."""

    def scenario():
        tb = _make_testbed(4, observability=True)
        client = tb.make_client()
        start = tb.env.now
        outcome, _, _ = tb.run_job_set(client, _independent_spec(client, tb, 8))
        assert outcome == "completed"
        makespan = tb.env.now - start
        tb.settle()
        return tb, makespan

    tb, makespan = benchmark.pedantic(scenario, rounds=1, iterations=1)
    obs = tb.obs
    reg = obs.collect()
    rec = obs.spans
    assert rec.open_spans() == []

    dispatches = rec.named("wsrf.dispatch")
    worst_rel = 0.0
    for dispatch in dispatches:
        stages = sum(
            s.duration for s in rec.children(dispatch)
            if s.name.startswith("wsrf.dispatch.")
        )
        worst_rel = max(worst_rel, abs(stages - dispatch.duration) / dispatch.duration)
    # Acceptance: Fig. 1 stages sum to within 5% of each dispatch latency.
    assert worst_rel <= 0.05

    # Aggregate over the per-service label splits (worst quantiles seen).
    by_stage = {}
    for name, _labels, metric in reg.query("wsrf.dispatch*_s"):
        agg = by_stage.setdefault(name, {"count": 0, "p50": 0.0, "p95": 0.0,
                                         "max": 0.0})
        agg["count"] += metric.count
        agg["p50"] = max(agg["p50"], metric.p50)
        agg["p95"] = max(agg["p95"], metric.p95)
        agg["max"] = max(agg["max"], metric.max)
    stage_rows = [
        [name, agg["count"], agg["p50"] * 1000, agg["p95"] * 1000,
         agg["max"] * 1000]
        for name, agg in sorted(by_stage.items())
    ]
    assert stage_rows, "observed run must record dispatch-stage histograms"
    print_table(
        "FIG-3: dispatch-stage latencies, observed run (simulated ms)",
        ["stage", "count", "p50_ms", "p95_ms", "max_ms"],
        stage_rows,
    )

    payload = {
        "figure": "fig3",
        "makespan_s": makespan,
        "messages": int(reg.value("net.messages")),
        "bytes": int(reg.value("net.bytes")),
        "dispatches": len(dispatches),
        "stage_sum_worst_rel_err": worst_rel,
        "stages": {
            row[0]: {"count": row[1], "p50_ms": row[2],
                     "p95_ms": row[3], "max_ms": row[4]}
            for row in stage_rows
        },
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fig3.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
    benchmark.extra_info.update(
        {"makespan_s": makespan, "messages": payload["messages"]}
    )


def bench_fig3_perf_jobset(benchmark):
    """FIG-3 with the hot-path performance layer on vs. off: the
    default run must stay byte-identical to the pinned BENCH_fig3.json
    shape, the perf run must cut central messages by >= 20% and elide
    DB save stages; emits ``BENCH_fig3_perf.json`` for the CI artifact
    trail (docs/performance.md)."""
    def run_observed(perf):
        tb = _make_testbed(4, observability=True, perf=perf)
        client = tb.make_client()
        start = tb.env.now
        outcome, _, _ = tb.run_job_set(client, _independent_spec(client, tb, 8))
        assert outcome == "completed"
        makespan = tb.env.now - start
        tb.settle()
        reg = tb.obs.collect()
        stage_counts = {}
        for name, _labels, metric in reg.query("wsrf.dispatch*_s"):
            stage_counts[name] = stage_counts.get(name, 0) + metric.count
        return {
            "makespan_s": makespan,
            "messages": int(reg.value("net.messages")),
            "bytes": int(reg.value("net.bytes")),
            "dispatches": len(tb.obs.spans.named("wsrf.dispatch")),
            "stage_counts": stage_counts,
        }

    def scenario():
        return run_observed(False), run_observed(True)

    off, on = benchmark.pedantic(scenario, rounds=1, iterations=1)
    saving = 1.0 - on["messages"] / off["messages"]
    print_table(
        "FIG-3: 8-job set with the perf layer off/on",
        ["metric", "off", "on"],
        [
            ["makespan_s", off["makespan_s"], on["makespan_s"]],
            ["central messages", off["messages"], on["messages"]],
            ["bytes", off["bytes"], on["bytes"]],
            ["dispatches", off["dispatches"], on["dispatches"]],
            ["db_save stages",
             off["stage_counts"].get("wsrf.dispatch.db_save_s", 0),
             on["stage_counts"].get("wsrf.dispatch.db_save_s", 0)],
        ],
    )
    benchmark.extra_info.update(
        {"messages_off": off["messages"], "messages_on": on["messages"],
         "message_saving": saving}
    )

    # Guard 1 — default off is exactly the pinned BENCH_fig3.json shape.
    assert off["messages"] == 190
    assert off["dispatches"] == 114 + 8  # wire calls, one local dispatch per job exit
    assert off["makespan_s"] == pytest.approx(60.206302819999976, rel=1e-9)
    assert (
        off["stage_counts"]["wsrf.dispatch.db_save_s"] == off["dispatches"]
    ), "without elision every dispatch records a db_save stage"
    # Guard 2 — batching + NIS pass caching cut central messages >= 20%.
    assert on["messages"] <= 0.8 * off["messages"], saving
    # Guard 3 — write elision removes db_save stages outright.
    assert (
        on["stage_counts"]["wsrf.dispatch.db_save_s"]
        < off["stage_counts"]["wsrf.dispatch.db_save_s"]
    )
    # The job-set itself finishes in essentially the same simulated time
    # (the work dominates; the layer trims plumbing, not compute).
    assert on["makespan_s"] == pytest.approx(off["makespan_s"], rel=0.01)

    payload = {
        "figure": "fig3-perf",
        "off": off,
        "on": on,
        "message_saving": saving,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fig3_perf.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")


def bench_fig3_chain_not_parallelizable(benchmark):
    """A 4-job dependency chain gains nothing from extra machines."""

    def scenario():
        out = {}
        for n in (1, 4):
            tb = _make_testbed(n)
            client = tb.make_client()
            start = tb.env.now
            outcome, _, _ = tb.run_job_set(client, _chain_spec(client, tb, 4))
            assert outcome == "completed"
            out[n] = tb.env.now - start
        return out

    makespans = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print_table(
        "FIG-3: makespan of a 4-job chain (simulated s)",
        ["machines", "makespan_s"],
        [[n, v] for n, v in makespans.items()],
    )
    assert makespans[4] == pytest.approx(makespans[1], rel=0.10)
