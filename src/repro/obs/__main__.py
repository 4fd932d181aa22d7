"""``python -m repro.obs`` — the observability dashboard CLI.

Three modes:

- default: run the seeded demo workload (a small FIG-3-style job set on
  the testbed with observability attached) and render its dashboard;
  ``--json PATH`` additionally writes the deterministic JSON export
  and ``--events PATH`` the JSONL event log, a view of the run's spans.
- ``render FILE``: render a previously exported ``.json`` snapshot
  (e.g. the ``BENCH_fig3.json`` CI artifact).
- ``tail FILE``: print the last records of a JSONL event log export.

File-reading subcommands exit 2 with a one-line error on a missing or
corrupt file (never a raw traceback).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.obs.dashboard import load_snapshot, render_dashboard, render_event_tail
from repro.obs.eventlog import parse_jsonl

_COMMANDS = ("demo", "render", "tail")


def run_demo(
    n_machines: int = 3,
    n_jobs: int = 4,
    seed: int = 11,
    events_path: Optional[str] = None,
) -> Dict[str, Any]:
    """One seeded job-set run with observability on; returns the snapshot."""
    # Imported lazily: the obs package itself must not depend on gridapp.
    from repro.gridapp import FileRef, JobSpec, Testbed
    from repro.osim.programs import make_compute_program

    testbed = Testbed(
        n_machines=n_machines,
        seed=seed,
        machine_speeds=[1.0] * n_machines,
        observability=True,
    )
    assert testbed.obs is not None
    testbed.programs.register(
        make_compute_program("work", 5.0, outputs={"out": b"x"})
    )
    client = testbed.make_client()
    spec = client.new_job_set()
    exe = client.add_program_binary(testbed.programs.get("work"))
    for i in range(n_jobs):
        spec.add(JobSpec(name=f"job{i}", executable=FileRef(exe, "job.exe")))
    outcome, _, _ = testbed.run_job_set(client, spec)
    if outcome != "completed":  # pragma: no cover - demo workload is fixed
        raise SystemExit(f"demo job set did not complete: {outcome!r}")
    testbed.settle()
    if events_path is not None:
        pathlib.Path(events_path).write_text(testbed.obs.event_log(), encoding="utf-8")
    return testbed.obs.snapshot()


def _load(path: str, parse: Callable[[str], Any], what: str) -> Any:
    """*parse* of the file at *path*, or None after a one-line error."""
    try:
        return parse(pathlib.Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read {path!r}: {exc.strerror or exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {path!r} is not {what}: {exc}", file=sys.stderr)
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render the observability dashboard for a seeded demo "
        "run, an exported snapshot (`render FILE`), or the tail of a "
        "JSONL event log (`tail FILE`).",
    )
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", help="run the seeded demo workload (default)")
    demo.add_argument("--machines", type=int, default=3)
    demo.add_argument("--jobs", type=int, default=4)
    demo.add_argument("--seed", type=int, default=11)
    demo.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the deterministic JSON export to PATH",
    )
    demo.add_argument(
        "--events", metavar="PATH", default=None,
        help="also write the structured JSONL event log to PATH",
    )
    demo.add_argument("--top", type=int, default=10, help="slowest-span rows")

    render = sub.add_parser("render", help="render an exported snapshot file")
    render.add_argument("file", help="path to a JSON export")
    render.add_argument("--top", type=int, default=10, help="slowest-span rows")

    tail = sub.add_parser("tail", help="show the tail of a JSONL event log")
    tail.add_argument("file", help="path to a JSONL event-log export")
    tail.add_argument("-n", type=int, default=20, help="events to show")

    raw = list(argv if argv is not None else sys.argv[1:])
    if not raw or raw[0] not in _COMMANDS + ("-h", "--help"):
        raw = ["demo"] + raw  # demo is the default subcommand
    args = parser.parse_args(raw)

    if args.command == "render":
        snapshot = _load(args.file, load_snapshot, "an observability export")
        if snapshot is None:
            return 2
        print(render_dashboard(snapshot, top=args.top))
        return 0

    if args.command == "tail":
        events = _load(args.file, parse_jsonl, "a JSONL event log")
        if events is None:
            return 2
        print(render_event_tail(events, n=args.n))
        return 0

    snapshot = run_demo(
        n_machines=args.machines,
        n_jobs=args.jobs,
        seed=args.seed,
        events_path=args.events,
    )
    print(render_dashboard(snapshot, top=args.top))
    if args.events is not None:
        print(f"\nwrote JSONL event log: {args.events}")
    if args.json is not None:
        import json

        text = json.dumps(snapshot, sort_keys=True, indent=1)
        pathlib.Path(args.json).write_text(text, encoding="utf-8")
        print(f"\nwrote JSON export: {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    raise SystemExit(main())
