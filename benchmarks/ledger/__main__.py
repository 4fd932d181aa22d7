"""The ledger: one harness for every workload, layer and clock.

    python benchmarks/ledger run [--workload W] [--repeats N] [--seed S] [--out F]
    python benchmarks/ledger micro
    python benchmarks/ledger compare A.json B.json
    python benchmarks/ledger bench --workload W --seed N --seconds S --trace 0|1

``run`` measures every workload, checks its outputs, prints every metric
by name with its unit and exits non-zero on a failed check.  ``bench``
is the same measurement behind the driver's contract (BENCHMARK.json):
one workload, a time budget, one JSON object on the last line.

Every timed repeat is a fresh child process (``child.py``), started one
at a time from this single-threaded parent, so nothing runs beside the
child on a 2-core box.  See README.md for what each name means.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
HISTORY = HERE / "history.jsonl"

#: a child that has not answered by then is stuck (the contract gives a
#: whole driver run 180 s)
CHILD_TIMEOUT_S = 150


class LedgerError(RuntimeError):
    """A child failed or a correctness check did not hold."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Same string hashes in every child: dict collision patterns are a
    # measurable part of run-to-run noise.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(script: str, *args: str) -> dict:
    """Run one child to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        capture_output=True, text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise LedgerError(
            f"{script} {' '.join(args)} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(workload: str, seed: int, size: str, trace: bool = False,
              spans: str = "") -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--size", size]
    if trace:
        args.append("--trace")
    if spans:
        args += ["--spans", spans]
    return _spawn("child.py", *args)


def run_micro(seed: int = 11, seconds_each: float = 1.0) -> dict:
    return _spawn("micro.py", "--seed", str(seed), "--seconds-each", str(seconds_each))


# -- measuring ---------------------------------------------------------------------


def measure(workload: str, seed: int, size: str, repeats: int = 0,
            seconds: float = 0.0) -> list:
    """Timed (untraced) repeats: exactly *repeats* of them, or — given
    *seconds* — as many as fit the budget, and never fewer than 3."""
    children = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        children.append(run_child(workload, seed, size))
        longest = max(longest, time.perf_counter() - t0)
        if repeats:
            if len(children) >= repeats:
                return children
        elif len(children) >= 3 and (
            time.perf_counter() - started + longest > seconds
        ):
            return children


def host_samples(children: list) -> dict:
    return {name: [c["host"][name] for c in children] for name in metrics.HOST_METRICS}


def verify(workload: str, seed: int, children: list, traced: dict = None) -> list:
    """The checks that do not depend on timing; returns the problems."""
    problems = []
    for child in children + ([traced] if traced else []):
        if child["failed"]:
            problems.append(
                f"{workload}: {child['failed']} of {child['attempted']} "
                f"{child['unit']} failed: " + "; ".join(child["problems"])
            )
    sims = {json.dumps(c["sim"], sort_keys=True) for c in children}
    if len(sims) != 1:
        problems.append(f"{workload}: simulated metrics differ between repeats: {sorted(sims)}")
    if traced and json.dumps(traced["sim"], sort_keys=True) not in sims:
        problems.append(
            f"{workload}: tracing perturbed the simulation: traced {traced['sim']} "
            f"vs untraced {children[0]['sim']}"
        )
    if workload == "fig3_cold" and seed == 11:
        for name, pinned in metrics.FIG3_PIN.items():
            got = children[0]["sim"][name]
            if abs(got - pinned) > 1e-9 * max(1.0, abs(pinned)):
                problems.append(f"fig3_cold: {name} = {got!r}, pinned {pinned!r}")
    return problems


def layer_metrics(traced: dict, untraced_run_s: float) -> dict:
    """Per-layer numbers of one traced repeat, by metric name."""
    out = {}
    for layer, row in traced["rows"].items():
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
    for layer in ("xmlx.parse", "xmlx.serialize", "net.bulk"):
        out[f"{layer}.bytes"] = traced["rows"][layer]["bytes"]
    out.update(traced["counters"])
    out.setdefault("wsrf.call.sim_p50_s", 0.0)
    out.setdefault("wsrf.call.sim_p99_s", 0.0)
    out["trace.overhead"] = traced["host"]["run_s"] / untraced_run_s
    out["trace.coverage"] = traced["traced_root_s"] / traced["host"]["run_s"]
    return out


def summarize(children: list, traced: dict = None) -> dict:
    """One workload's section of the ledger JSON."""
    first = children[0]
    end_to_end = {}
    for name, values in host_samples(children).items():
        median = statistics.median(values)
        end_to_end[name] = {
            "unit": metrics.UNITS[name], "median": median, "min": min(values),
            "max": max(values), "n": len(values),
            "spread": (max(values) - min(values)) / median,
            "bound": metrics.BOUNDS[name],
        }
    for name, value in first["sim"].items():
        end_to_end[name] = {"unit": metrics.UNITS[name], "value": value}
    end_to_end["fail_share"] = {
        "unit": "share",
        "value": max(c["failed"] / c["attempted"] for c in children),
    }
    section = {
        "work_unit": first["unit"],
        "attempted": first["attempted"],
        "failed": max(c["failed"] for c in children),
        "inputs_digest": first["inputs_digest"],
        # reported host seconds / host_speed = raw wall seconds
        "host_speed": [c["host_speed"] for c in children],
        "end_to_end": end_to_end,
    }
    if traced:
        layers = layer_metrics(traced, end_to_end["run_s"]["median"])
        section["per_layer"] = {
            name: {"unit": metrics.UNITS[name], "value": layers[name]}
            for name, *_ in metrics.PER_LAYER
        }
    return section


# -- printing ------------------------------------------------------------------------


def print_section(name: str, section: dict) -> None:
    speeds = section["host_speed"]
    print(f"\n== {name} ({section['attempted']} {section['work_unit']}; host speed "
          f"{min(speeds):.2f}-{max(speeds):.2f} of the reference) ==")
    for metric, row in section["end_to_end"].items():
        if "median" in row:
            print(f"  {metric:<34} {row['median']:>14.6g} {row['unit']:<6} "
                  f"min {row['min']:.6g}  max {row['max']:.6g}  n {row['n']}  "
                  f"spread {100 * row['spread']:.1f}%")
        else:
            print(f"  {metric:<34} {row['value']:>14.10g} {row['unit']:<6} exact")
    layers = section.get("per_layer", {})
    total = sum(r["value"] for m, r in layers.items() if m.endswith(".self_s"))
    for metric, row in layers.items():
        share = ""
        if metric.endswith(".self_s") and total:
            share = f"{100 * row['value'] / total:5.1f}% of traced run"
        print(f"  {metric:<34} {row['value']:>14.6g} {row['unit']:<9} {share}")


def print_micro(micro: dict) -> None:
    print("\n== micro ==")
    for metric, value in micro.items():
        print(f"  {metric:<34} {value:>14.6g} {metrics.UNITS[metric]}")


# -- subcommands ---------------------------------------------------------------------


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_run(args) -> int:
    names = args.workload or [n for n, _ in metrics.WORKLOADS]
    ledger = {
        "format": "ledger/1",
        "git_sha": _git_sha(),
        "date": datetime.date.today().isoformat(),
        "seed": args.seed,
        "repeats": args.repeats,
        "size": args.size,
        "workloads": {},
    }
    problems = []
    for name in names:
        children = measure(name, args.seed, args.size, repeats=args.repeats)
        spans = str(Path(args.spans) / f"{name}.spans.jsonl") if args.spans else ""
        traced = run_child(name, args.seed, args.size, trace=True, spans=spans)
        problems += verify(name, args.seed, children, traced)
        section = summarize(children, traced)
        # Smoke runs last milliseconds; the 5 % rule is for real sizes.
        if args.size == "full" and section["per_layer"]["trace.coverage"]["value"] < 0.95:
            problems.append(
                f"{name}: trace.coverage "
                f"{section['per_layer']['trace.coverage']['value']:.3f} < 0.95"
            )
        ledger["workloads"][name] = section
        print_section(name, section)
    if not args.workload:
        ledger["micro"] = run_micro(args.seed)
        print_micro(ledger["micro"])
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    if problems:
        return 1
    if args.record:
        line = {
            "git_sha": ledger["git_sha"], "date": ledger["date"],
            "seed": args.seed, "repeats": args.repeats, "size": args.size,
            "medians": {
                name: {
                    metric: row.get("median", row.get("value"))
                    for metric, row in section["end_to_end"].items()
                }
                for name, section in ledger["workloads"].items()
            },
        }
        with HISTORY.open("a", encoding="utf-8") as out:
            out.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


def cmd_micro(args) -> int:
    print_micro(run_micro())
    return 0


def cmd_compare(args) -> int:
    from compare import compare_files

    return compare_files(args.base, args.new)


def cmd_bench(args) -> int:
    """The driver's contract: one workload, one JSON line."""
    if args.trace:
        # One untraced repeat (the reference for trace.overhead), one
        # traced repeat, then the microbenches on a third of the budget.
        untraced = run_child(args.workload, args.seed, "full")
        traced = run_child(args.workload, args.seed, "full", trace=True)
        children = [untraced]
        values = dict(untraced["sim"])
        values["fail_share"] = traced["failed"] / traced["attempted"]
        values.update(layer_metrics(traced, untraced["host"]["run_s"]))
        n_micro = len(metrics.MICRO)
        values.update(run_micro(args.seed, max(0.1, args.seconds / 3 / n_micro)))
        names = [name for name, *_ in metrics.CONTRACT_PER_LAYER]
        problems = verify(args.workload, args.seed, children, traced)
        if values["trace.coverage"] < 0.95:
            problems.append(f"trace.coverage {values['trace.coverage']:.3f} < 0.95")
        counted = [traced]
    else:
        children = measure(args.workload, args.seed, "full", seconds=args.seconds)
        values = {
            name: statistics.median(samples)
            for name, samples in host_samples(children).items()
        }
        names = metrics.HOST_METRICS
        problems = verify(args.workload, args.seed, children)
        counted = children
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in counted),
        "failed": sum(c["failed"] for c in counted),
        "metrics": {
            name: {"value": values[name], "unit": metrics.UNITS[name]} for name in names
        },
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    names = [n for n, _ in metrics.WORKLOADS]

    run = sub.add_parser("run", help="measure every workload (and the microbenches)")
    run.add_argument("--workload", action="append", choices=names,
                     help="only this workload (repeatable); skips the microbenches")
    run.add_argument("--repeats", type=int, default=5)
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--size", choices=["full", "smoke"], default="full")
    run.add_argument("--out", help="write the ledger JSON here")
    run.add_argument("--spans", help="directory for the traced repeats' raw spans")
    run.add_argument("--record", action="store_true",
                     help="append the medians to history.jsonl")
    run.set_defaults(fn=cmd_run)

    micro = sub.add_parser("micro", help="layer microbenches only")
    micro.set_defaults(fn=cmd_micro)

    compare = sub.add_parser("compare", help="diff two ledger JSON files")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(fn=cmd_compare)

    bench = sub.add_parser("bench", help="the driver's entry point (BENCHMARK.json)")
    bench.add_argument("--workload", required=True, choices=names)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=float, required=True)
    bench.add_argument("--trace", type=int, choices=[0, 1], required=True)
    bench.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LedgerError, subprocess.TimeoutExpired) as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
