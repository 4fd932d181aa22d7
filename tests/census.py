"""The seeded-defect census of the correctness tooling.

Each :class:`Seed` is the smallest defect one checker targets — a wsrfcheck
rule (``repro.analysis``) or a detector of the runtime sanitizer
(``repro.analysis.sanitizer``) — written as one text patch of a file under
``src/repro``, at a site the tier-1 suite executes.  For every seed the
census copies ``src/`` to a temporary directory, applies the patch, and
runs three checks on the copy:

- ``python -m repro.analysis`` over the copy: which rules flag it;
- ``pytest -x``: the first tier-1 test that fails;
- ``pytest -x --sanitize-all``: the first test that fails with every
  ``Testbed`` sanitized, and which sanitizer reports it carried.

The suites run from this checkout's ``tests/`` against the patched copy
(``PYTHONPATH``), under ``PYTHONHASHSEED=0`` so that a set-order seed
reads the same every time.  A test that starts a subprocess with the
checkout's own ``src`` (the wsrfcheck CLI gate, the examples) sees the
unpatched tree, so the tier-1 column never counts wsrfcheck's own gate.
A seed can hang a test (a job that never starts), so a suite that
prints nothing for :data:`STALL_S` is killed: it has caught the seed,
and the row names the test it was running as a timeout.

Rewrite the table in ``docs/static_analysis.md`` (about 24 minutes on
two cores, :data:`JOBS` seeds at a time)::

    PYTHONPATH=src python -m tests.census --write

``tests/test_census.py`` checks, without running anything, that every
seed still applies once and that the table lists exactly these seeds.
"""

from __future__ import annotations

import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC = REPO_ROOT / "docs" / "static_analysis.md"
BEGIN = "<!-- census:begin -->"
END = "<!-- census:end -->"

#: a suite that prints nothing for this long has hung: the slowest test
#: takes about 20 s, and pytest -v prints a line per test
STALL_S = 120

#: seeds run at a time; each check is one single-threaded process
JOBS = 2

_REPORT_KINDS = ("data-race",)


@dataclass(frozen=True)
class Seed:
    """Replace the one occurrence of *anchor* in ``src/repro/<file>``
    with *replacement*; *target* names the checker the defect is for."""

    name: str
    file: str
    anchor: str
    replacement: str
    target: str


def _drop_lock(block: str) -> str:
    """*block* without its resource lock: the ``lock =`` / ``acquire`` /
    ``try:`` head and the ``finally:`` release tail go, the body dedents."""
    lines = block.splitlines(keepends=True)
    return "".join(line[4:] if line.strip() else line for line in lines[3:-2])


#: NIS ReportUtilization's locked load-modify-save (a dispatch)
_REPORT_LOCKED = (
    "        lock = wrapper.resource_lock(entry_id)\n"
    "        yield lock.acquire()\n"
    "        try:\n"
    "            entry = wrapper.load_resource(entry_id)\n"
    "            if entry.content is None:\n"
    "                return 0\n"
    "            info = parse_processor_content(entry.content)\n"
    "            entry.content = processor_content(\n"
    '                info["name"], info["cpu_speed"], info["ram_mb"],\n'
    "                utilization, self.env.now,\n"
    "            )\n"
    "            wrapper.save_resource(entry_id, entry)\n"
    "        finally:\n"
    "            wrapper.release_resource_lock(entry_id, lock)\n"
)


SEEDS: Tuple[Seed, ...] = (
    Seed(
        "misspelled-operation", "gridapp/scheduler.py",
        'wrapper.nis_epr, SG, "GetProcessors", category="nis"',
        'wrapper.nis_epr, SG, "GetProcesors", category="nis"',
        "WSRF001",
    ),
    Seed(
        "undeclared-state-write", "gridapp/execution_service.py",
        '        self.status = "Running"\n',
        '        self.state = "Running"\n',
        "WSRF002",
    ),
    Seed(
        "undeclared-rp-read", "gridapp/execution_service.py",
        'self.workdir_epr, _PATH_RP, category="fss"',
        'self.workdir_epr, QName(UVA, "Pth"), category="fss"',
        "WSRF002",
    ),
    Seed(
        "untyped-fault", "gridapp/scheduler.py",
        '            raise SchedulingFault(description=f"job {job_name!r} needs {missing}")\n',
        '            raise ValueError(f"job {job_name!r} needs {missing}")\n',
        "WSRF003",
    ),
    Seed(
        "load-resource-after-destroy", "wsrf/lifetime.py",
        "        self.wrapper.destroy_resource(self.wrapper_current_id())\n",
        "        rid = self.wrapper_current_id()\n"
        "        self.wrapper.destroy_resource(rid)\n"
        "        self.wrapper.load_resource(rid)\n",
        "WSRF004",
    ),
    Seed(
        "store-load-after-destroy", "wsrf/lifetime.py",
        "        self.wrapper.destroy_resource(self.wrapper_current_id())\n",
        "        rid = self.wrapper_current_id()\n"
        "        self.wrapper.destroy_resource(rid)\n"
        "        self.wrapper.store.load(self.wrapper.service_name, rid)\n",
        "WSRF004",
    ),
    Seed(
        "store-load-kept-after-destroy", "wsrf/lifetime.py",
        "        self.wrapper.destroy_resource(self.wrapper_current_id())\n",
        "        rid = self.wrapper_current_id()\n"
        "        self.wrapper.destroy_resource(rid)\n"
        "        self.wrapper.store.load_kept(self.wrapper.service_name, rid)\n",
        "WSRF004",
    ),
    Seed(
        "epr-in-module-global", "gridapp/execution_service.py",
        "        job_epr = self.epr_for(rid)\n",
        "        global LAST_JOB_EPR\n"
        "        LAST_JOB_EPR = job_epr = self.epr_for(rid)\n",
        "WSRF005",
    ),
    Seed(
        "wall-clock-read", "gridapp/node_info.py",
        "            entry.content = processor_content(\n"
        '                info["name"], info["cpu_speed"], info["ram_mb"],\n'
        "                utilization, self.env.now,\n",
        "            import time\n"
        "            entry.content = processor_content(\n"
        '                info["name"], info["cpu_speed"], info["ram_mb"],\n'
        "                utilization, time.time(),\n",
        "DET001",
    ),
    Seed(
        "global-rng-draw", "gridapp/scheduler.py",
        "        return ordered[int(rng.integers(0, len(ordered)))]\n",
        "        import random\n"
        "        return ordered[int(random.random() * len(ordered))]\n",
        "DET001",
    ),
    Seed(
        "set-iteration", "gridapp/report.py",
        "    for name in sorted(report.jobs):\n",
        "    for name in set(report.jobs):\n",
        "DET001",
    ),
    Seed(
        "wall-clock-through-helper", "gridapp/execution_service.py",
        '    event.subelement(QName(UVA, "JobName"), text=job_name)\n',
        "    import time\n"
        '    event.subelement(QName(UVA, "JobName"), text=job_name)\n'
        '    event.subelement(QName(UVA, "Stamp"), text=repr(time.time()))\n',
        "DET001",
    ),
    Seed(
        "raw-send-in-service", "gridapp/scheduler.py",
        "        self.wsrf.send_after_persist(wrapper.broker_epr, body)\n",
        "        from repro.wsn.base_notification import fire_and_forget\n"
        "        fire_and_forget(self.env, self.client, wrapper.broker_epr, body)\n",
        "WAL001",
    ),
    Seed(
        "raw-send-through-helper", "wsn/broker.py",
        '            send.send_after_persist(epr, body, category="demand-control")\n',
        "            from repro.wsn.base_notification import fire_and_forget\n"
        "            fire_and_forget(self.wrapper.env, self.wrapper.client, epr, body,\n"
        '                            category="demand-control")\n',
        "WAL001",
    ),
    Seed(
        "real-sleep", "wsrf/tooling.py",
        "        for _ in range(call.ctx.db_ops):\n"
        "            yield self.machine.db_delay()\n",
        "        for _ in range(call.ctx.db_ops):\n"
        "            import time\n"
        "            time.sleep(self.machine.params.db_access_s)\n"
        "            yield self.machine.db_delay()\n",
        "SIM001",
    ),
    Seed(
        "real-file-read", "osim/procspawn.py",
        "            binary = machine.fs.read_file(binary_path)\n",
        '            binary = open(binary_path, "rb").read()\n',
        "SIM001",
    ),
    Seed(
        "unlocked-detached-save", "gridapp/execution_service.py",
        "            job = yield from wrapper.run_local(rid, RecordExit, epoch)\n",
        "            job = wrapper.load_resource(rid)\n"
        "            RecordExit(job)\n"
        "            wrapper.save_resource(rid, job)\n",
        "LOCK001",
    ),
    Seed(
        "dropped-acquire", "gridapp/node_info.py",
        _REPORT_LOCKED, _drop_lock(_REPORT_LOCKED), "race",
    ),
    Seed(
        "opposite-lock-orders", "gridapp/node_info.py",
        "        yield lock.acquire()\n"
        "        try:\n"
        "            entry = wrapper.load_resource(entry_id)\n",
        "        yield lock.acquire()\n"
        "        try:\n"
        "            # the lowest other entry too: e1 then e2 here, e2 then e1 there\n"
        "            others = sorted(set(wrapper._processor_index.index.values()) - {entry_id})\n"
        "            if others:\n"
        "                peer = wrapper.resource_lock(others[0])\n"
        "                yield peer.acquire()\n"
        "                wrapper.release_resource_lock(others[0], peer)\n"
        "            entry = wrapper.load_resource(entry_id)\n",
        "lock-order",
    ),
)


def seed_names() -> List[str]:
    return [seed.name for seed in SEEDS]


def seed_path(seed: Seed, src: Path) -> Path:
    return src / "repro" / seed.file


def apply_seed(seed: Seed, src: Path) -> None:
    """Patch the tree under *src* (a copy of ``src/``) with *seed*."""
    path = seed_path(seed, src)
    text = path.read_text()
    count = text.count(seed.anchor)
    if count != 1:
        raise ValueError(f"seed {seed.name}: anchor occurs {count} times in {seed.file}")
    path.write_text(text.replace(seed.anchor, seed.replacement))


# -- running a seed ---------------------------------------------------------------


def _run(argv: Sequence[str], src: Path) -> Tuple[Optional[int], str]:
    """Run *argv* in the checkout with *src* first on the path; the exit
    code, or None if it printed nothing for :data:`STALL_S` (it is then
    killed with everything it started), and everything it printed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        argv, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, start_new_session=True,
    )
    out = bytearray()
    with proc.stdout:
        fd = proc.stdout.fileno()
        while True:
            ready, _, _ = select.select([fd], [], [], STALL_S)
            if not ready:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return None, out.decode(errors="replace")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            out += chunk
    return proc.wait(), out.decode(errors="replace")


def flagging_rules(src: Path) -> str:
    """``RULE ×n`` for every rule with a finding on the patched tree (the
    unpatched tree has none), or ``—``."""
    _, out = _run(
        [sys.executable, "-m", "repro.analysis", str(src / "repro"), "--format", "json"],
        src,
    )
    report = json.loads(out)
    counts = Counter(finding["rule"] for finding in report["findings"])
    cells = [f"{rule} ×{n}" for rule, n in sorted(counts.items())]
    if report["parse_errors"]:
        cells.append("parse error")
    return ", ".join(cells) or "—"


_RESULT = re.compile(r"^(FAILED|ERROR) (\S+)", re.M)
_STARTED = re.compile(r"^(tests/\S+::\S+) ?$")


def first_failure(src: Path, *extra: str) -> str:
    """The first test ``pytest -x`` fails on the patched tree, ``timeout
    in <test>`` if the suite hung, or ``passed``; under ``--sanitize-all``
    with the kinds of sanitizer report the failure carried."""
    code, out = _run(
        [sys.executable, "-m", "pytest", "-x", "-v", "-p", "no:cacheprovider", *extra],
        src,
    )
    if code is None:
        lines = out.rstrip("\n").splitlines()
        running = _STARTED.match(lines[-1]) if lines else None
        cell = f"timeout in `{running.group(1)}`" if running else "timeout"
    elif code == 0:
        return "passed"
    else:
        match = _RESULT.search(out)
        cell = f"`{match.group(2)}`" if match else f"exit {code}"
    kinds = [kind for kind in _REPORT_KINDS if f"[{kind}]" in out]
    if kinds:
        cell += f" ({', '.join(kinds)})"
    return cell


def census_row(seed: Seed) -> str:
    with tempfile.TemporaryDirectory(prefix=f"census-{seed.name}-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO_ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply_seed(seed, src)
        rules = flagging_rules(src)
        tier1 = first_failure(src)
        sanitized = first_failure(src, "--sanitize-all")
    return (f"| {seed.name} | {seed.target} | `{seed.file}` | {rules} "
            f"| {tier1} | {sanitized} |")


def render_table(rows: Sequence[str]) -> str:
    head = ("| seed | target | site (`src/repro/`) | wsrfcheck | first tier-1 failure "
            "| first `--sanitize-all` failure |\n"
            "|------|--------|------|-----------|------|------|\n")
    return head + "".join(row + "\n" for row in rows)


def table_seed_names(doc: str) -> List[str]:
    """The seed column of the census table in *doc*."""
    body = doc[doc.index(BEGIN) + len(BEGIN):doc.index(END)]
    rows = [line for line in body.splitlines() if line.startswith("| ")]
    return [row.split("|")[1].strip() for row in rows[1:]]


def main(argv: Sequence[str]) -> int:
    if list(argv) != ["--write"]:
        print(__doc__)
        return 2
    rows = []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for row in pool.map(census_row, SEEDS):
            print(row, flush=True)
            rows.append(row)
    doc = DOC.read_text()
    start, end = doc.index(BEGIN) + len(BEGIN), doc.index(END)
    DOC.write_text(doc[:start] + "\n" + render_table(rows) + doc[end:])
    print(f"wrote {len(rows)} seeds to {DOC}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
