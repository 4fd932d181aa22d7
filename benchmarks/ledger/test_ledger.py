"""Self-tests of the ledger (smoke sizes, a few seconds).

    python -m pytest benchmarks/ledger -q

They hold the harness to its own rules: the tracer's rows add up and it
leaves nothing behind, a seed fixes the simulated result and changes
the inputs, ``BENCHMARK.json`` is the metric table written out and fits
the driver's limits, and ``compare`` / ``run`` fail when they should.
"""

from __future__ import annotations

import importlib.util
import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (str(REPO / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from refclock import ReferenceClock  # noqa: E402
from spans import BOUNDARIES, Tracer  # noqa: E402


def _load_main():
    spec = importlib.util.spec_from_file_location("ledger_main", HERE / "__main__.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger = _load_main()


# -- tracer accounting ---------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_nested_spans_self_times_sum_to_the_root():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.tick(3.0)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.tick(1.0)
        leaf()
        leaf()
        clock.tick(0.5)

    middle = tracer.wrap("middle", middle)

    def root():
        clock.tick(2.0)
        middle()
        clock.tick(0.25)

    root = tracer.wrap("root", root)
    root()
    clock.tick(100.0)  # outside any span: nobody is charged
    root()

    rows = tracer.rows()
    assert rows["leaf"] == {"calls": 4, "self_s": 12.0, "bytes": 0}
    assert rows["middle"]["self_s"] == 3.0
    assert rows["root"]["self_s"] == 4.5
    assert sum(r["self_s"] for r in rows.values()) == tracer.root_s() == 19.5


def test_generator_spans_count_resumed_time_not_waiting():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.tick(1.0)
        yield "a"
        clock.tick(2.0)
        return "inner-done"

    inner = tracer.wrap("inner", inner, kind="gen")

    def outer():
        clock.tick(0.5)
        value = yield from inner()
        clock.tick(0.25)
        yield "b"
        return value

    outer = tracer.wrap("outer", outer, kind="gen")

    gen = outer()
    assert next(gen) == "a"
    clock.tick(50.0)  # simulated waiting: the coroutine is suspended
    assert gen.send(None) == "b"
    clock.tick(50.0)
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "inner-done"

    rows = tracer.rows()
    assert rows["inner"]["calls"] == rows["outer"]["calls"] == 1
    assert rows["inner"]["self_s"] == 3.0
    assert rows["outer"]["self_s"] == 0.75
    assert tracer.root_s() == 3.75


def test_generator_wrapper_forwards_close_and_throw():
    tracer = Tracer(clock=_Clock())
    seen = []

    def body():
        try:
            yield 1
        except KeyError:
            seen.append("thrown")
            yield 2
        finally:
            seen.append("closed")

    gen = tracer.wrap("g", body, kind="gen")()
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == 2
    gen.close()
    assert seen == ["thrown", "closed"]
    assert not tracer._stack


def test_boundary_entered_inside_itself_stays_one_span():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def inner_store():
        clock.tick(1.0)

    inner_load = tracer.wrap("db.load", inner_store)

    def cached_store():
        clock.tick(0.5)
        inner_load()

    tracer.wrap("db.load", cached_store)()
    assert tracer.rows()["db.load"] == {"calls": 1, "self_s": 1.5, "bytes": 0}


def _boundary_owners():
    import importlib

    for _, mod_name, cls_name, attr, _, _ in BOUNDARIES:
        owner = importlib.import_module(mod_name)
        yield (getattr(owner, cls_name) if cls_name else owner), attr


def test_install_patches_every_namespace_and_uninstall_removes_it():
    import repro.db.resource_store as resource_store
    import repro.soap.envelope as envelope
    import repro.xmlx as xmlx
    from repro.gridapp import SchedulerService
    from repro.xmlx.parser import parse

    holders = [xmlx, envelope, resource_store]
    submit = SchedulerService.SubmitJobSet
    before = [vars(owner)[attr] for owner, attr in _boundary_owners()]
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(_boundary_owners(), before):
            assert vars(owner)[attr] is not original, (owner, attr)
        assert SchedulerService.SubmitJobSet.__wrapped__ is submit
        assert SchedulerService.SubmitJobSet.__web_method__
        for module in holders:
            assert module.parse is not parse and module.parse.__wrapped__ is parse
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(_boundary_owners(), before):
        assert vars(owner)[attr] is original, (owner, attr)
    assert SchedulerService.SubmitJobSet is submit
    for module in holders:
        assert module.parse is parse


def test_reference_clock_excludes_its_probes_and_cleans_up():
    clock = ReferenceClock()
    clock.start()
    try:
        begin = clock.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        wall_s, cpu_s, speed = clock.between(begin, clock.mark())
    finally:
        clock.stop()
    raw = wall_s / speed
    # The timer's probes (eight of ~3 ms) fell inside the loop and are not in it.
    assert 0.2 < raw < 0.35 - 0.003
    assert 0.0 < cpu_s <= wall_s * 1.05 and 0.1 < speed < 10.0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- seeds, determinism, tracing leaves the simulation alone --------------------------


def _run(name, seed, traced=False):
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    try:
        workload = workloads.WORKLOADS[name](seed, "smoke")
        if tracer:
            tracer.reset()
        workload.run()
        rows, root_s = (tracer.rows(), tracer.root_s()) if tracer else (None, 0.0)
    finally:
        if tracer:
            tracer.uninstall()
    outcome = workload.check()
    sim = (outcome.sim_makespan_s, outcome.sim_messages, outcome.sim_bytes)
    return workload, outcome, sim, rows, root_s


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_simulation_and_changes_the_inputs(name):
    first, outcome, sim, _, _ = _run(name, 11)
    again, _, sim_again, _, _ = _run(name, 11)
    other, other_outcome, _, _, _ = _run(name, 12)
    assert outcome.failed == 0 and outcome.attempted > 0, outcome.problems
    assert other_outcome.failed == 0, other_outcome.problems
    assert sim == sim_again
    assert first.inputs_digest() == again.inputs_digest()
    assert first.inputs_digest() != other.inputs_digest()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_does_not_perturb_the_simulation(name):
    _, _, sim, _, _ = _run(name, 11)
    _, outcome, traced_sim, rows, root_s = _run(name, 11, traced=True)
    assert outcome.failed == 0
    assert traced_sim == sim
    assert rows["sim.step"]["calls"] > 0
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(root_s, rel=1e-9)
    assert all(r["self_s"] >= -1e-9 for r in rows.values())


def test_fig3_cold_reproduces_the_pinned_reference():
    _, outcome, _, _, _ = _run("fig3_cold", 11)
    assert outcome.sim_messages == metrics.FIG3_PIN["sim_messages"]
    assert outcome.sim_bytes == metrics.FIG3_PIN["sim_bytes"]
    assert outcome.sim_makespan_s == pytest.approx(
        metrics.FIG3_PIN["sim_makespan_s"], rel=1e-9
    )


def test_a_wrong_output_is_counted_as_failed():
    workload = workloads.WORKLOADS["grid_fan"](11, "smoke")
    workload.run()
    jobset = workload.sites[0][1][0]
    job = next(iter(jobset.expected))
    jobset.expected[job] = b"not what the job wrote"
    outcome = workload.check()
    assert outcome.failed == 1 and job in outcome.problems[0]


# -- the manifest ---------------------------------------------------------------------


def test_benchmark_json_is_the_metric_table_and_fits_the_contract():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest == metrics.manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = []
    for key in ("workloads", "end_to_end", "per_layer"):
        names += [entry["name"] for entry in manifest[key]]
    assert all(name_re.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert unit_re.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    setup = next(e for e in manifest["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in manifest["end_to_end"])
    assert 1 <= manifest["run_seconds"] <= 60
    assert len(json.dumps(manifest)) < 64 * 1024


# -- compare --------------------------------------------------------------------------


def _host(median, low=None, high=None):
    low = median if low is None else low
    high = median if high is None else high
    return {"unit": "s", "median": median, "min": low, "max": high, "n": 5,
            "spread": (high - low) / median, "bound": 0.10}


def _ledger(**overrides):
    end_to_end = {
        "run_s": _host(2.0, 1.98, 2.02), "run_cpu_s": _host(1.9, 1.88, 1.92),
        "work_per_s": _host(32.0, 31.7, 32.3), "setup_s": _host(0.3, 0.29, 0.31),
        "peak_rss_mb": _host(40.0),
        "sim_makespan_s": {"unit": "s", "value": 78.7},
        "sim_messages": {"unit": "count", "value": 1450},
        "sim_bytes": {"unit": "B", "value": 3248544},
        "fail_share": {"unit": "share", "value": 0.0},
    }
    end_to_end.update(overrides)
    return {"seed": 11, "size": "full", "workloads": {"grid_fan": {"end_to_end": end_to_end}}}


def _verdicts(base, new):
    return {row[1]: row[-1] for row in compare.compare(base, new)}


def test_compare_verdicts(tmp_path):
    same = _verdicts(_ledger(), _ledger())
    assert set(same.values()) == {"ok"} and len(same) == 9

    bound = 0.10  # the one recorded in the base ledger, see _host
    past = 2.0 * (1 + bound + 0.05)
    slow = _ledger(run_s=_host(past, past - 0.02, past + 0.02))
    assert _verdicts(_ledger(), slow)["run_s"] == "worse"
    within = _ledger(run_s=_host(2.0 * (1 + bound - 0.05)))
    assert _verdicts(_ledger(), within)["run_s"] == "ok"
    assert _verdicts(_ledger(), _ledger(run_s=_host(1.0)))["run_s"] == "ok"
    # work_per_s is higher-is-better: a drop beyond the bound is worse,
    # a rise is not.
    dropped = _ledger(work_per_s=_host(32.0 / (1 + bound + 0.05)))
    assert _verdicts(_ledger(), dropped)["work_per_s"] == "worse"
    assert _verdicts(_ledger(), _ledger(work_per_s=_host(64.0)))["work_per_s"] == "ok"

    # Wider than the bound and overlapping the base: cannot be settled.
    noisy = _ledger(run_s=_host(2.3, 1.9, 1.9 + 2.3 * (bound + 0.1)))
    assert _verdicts(_ledger(), noisy)["run_s"] == "unresolved"

    drift = _verdicts(_ledger(), _ledger(sim_messages={"unit": "count", "value": 1451}))
    assert drift["sim_messages"] == "exact-mismatch"
    failed = _verdicts(_ledger(), _ledger(fail_share={"unit": "share", "value": 0.5}))
    assert failed["fail_share"] == "exact-mismatch"

    # A workload in only one ledger is a finding, from either side.
    two = _ledger()
    two["workloads"]["rp_calls"] = two["workloads"]["grid_fan"]
    for a, b in ((_ledger(), two), (two, _ledger())):
        rows = compare.compare(a, b)
        assert [r[-1] for r in rows if r[0] == "rp_calls"] == ["missing"]

    base, new = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_ledger()))
    new.write_text(json.dumps(_ledger()))
    assert ledger.main(["compare", str(base), str(new)]) == 0
    new.write_text(json.dumps(slow))
    assert ledger.main(["compare", str(base), str(new)]) == 1
    assert ledger.main(["compare", str(new), str(base)]) == 0
    new.write_text(json.dumps(two))
    assert ledger.main(["compare", str(base), str(new)]) == 1


# -- run ------------------------------------------------------------------------------


def test_run_writes_every_metric_and_fails_on_a_failed_check(tmp_path, monkeypatch, capsys):
    out = tmp_path / "ledger.json"
    argv = ["run", "--size", "smoke", "--repeats", "2", "--workload", "rp_calls",
            "--out", str(out)]
    assert ledger.main(argv) == 0
    section = json.loads(out.read_text())["workloads"]["rp_calls"]
    assert list(section["end_to_end"]) == [
        "run_s", "run_cpu_s", "work_per_s", "setup_s", "peak_rss_mb",
        "sim_makespan_s", "sim_messages", "sim_bytes", "fail_share",
    ]
    assert list(section["per_layer"]) == [n for n, *_ in metrics.PER_LAYER]
    assert section["end_to_end"]["run_s"]["n"] == len(section["host_speed"]) == 2
    assert section["end_to_end"]["run_s"]["bound"] == metrics.BOUNDS["run_s"]
    assert section["end_to_end"]["fail_share"]["value"] == 0.0
    assert section["per_layer"]["wsrf.call.sim_p50_s"]["value"] > 0
    printed = capsys.readouterr().out
    for name in list(section["end_to_end"]) + list(section["per_layer"]):
        assert name in printed

    real = ledger.run_child

    def one_call_lost(*args, **kwargs):
        child = real(*args, **kwargs)
        child["failed"] = 1
        child["problems"] = ["resource 0: a lost update"]
        return child

    monkeypatch.setattr(ledger, "run_child", one_call_lost)
    assert ledger.main(argv) == 1
    assert "FAILED CHECK" in capsys.readouterr().err


def test_verify_catches_drift_between_repeats_and_from_the_pin():
    child = {"failed": 0, "attempted": 8, "unit": "jobs", "problems": [],
             "sim": dict(metrics.FIG3_PIN)}
    assert ledger.verify("fig3_cold", 11, [child, child], child) == []
    moved = dict(child, sim=dict(child["sim"], sim_messages=191))
    assert len(ledger.verify("fig3_cold", 12, [child, moved])) == 1
    assert len(ledger.verify("fig3_cold", 12, [child], moved)) == 1
    assert len(ledger.verify("fig3_cold", 11, [moved, moved])) == 1
