"""The cross-commit equivalence harness (ROADMAP item 1, first slice).

A refactor that claims "same bytes" proves it here: every scenario in
:data:`SCENARIOS` is run to its end and :func:`fingerprint` reduces what
the run left behind to one sha256 per component — the result, the
simulated clock, the timed Fig. 3 step trace, every ``NetworkStats``
field, every wrapper's stored blobs, the per-wrapper counters, the obs
JSON export and the JSONL event log (both views of the run's spans).  ``tests/golden_fingerprints.json``
holds the hashes of the commit that last *meant* to change one;
``tests/test_equivalence.py`` compares, and names the first component
that differs.

Regenerate the goldens (only in a PR that intends the change, and say
which component moved and why)::

    PYTHONPATH=src python -m tests.equivalence --write

Nothing hashed depends on the process: OS pids and the key material of
a delegated credential (both drawn from process-global counters) are
dropped from the stored rows, and ``PYTHONHASHSEED`` does not reach any
component.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.db.resource_store import decode_state, encode_state
from repro.gridapp import FaultToleranceConfig
from repro.gridapp.federation import FederationConfig
from repro.net import RetryPolicy
from repro.xmlx import NS, QName

from tests.helpers import fan_spec, fig3_testbed, timed_trace

UVA = NS.UVACG
GOLDEN = Path(__file__).with_name("golden_fingerprints.json")
PAYLOAD = b"equivalence payload"

#: stored fields whose bytes depend on what else the process ran before:
#: OS pids, and the client's signed X.509 header (wssec/x509.py seeds key
#: pairs from a process-global serial)
_PROCESS_RELATIVE = (QName(UVA, "pid"), QName(UVA, "delegated_cred"))
_RESOURCE_ID = QName(UVA, "ResourceID")

#: wrapper counters that exist on every wrapper, and the ones a service
#: only grows on the path that bumps them (absent reads as 0)
_COUNTERS = ("invocations", "faults_returned", "loads_elided", "writes_elided")
_PATH_COUNTERS = (
    "restarts", "nis_polls_elided", "recoveries_announced", "jobsets_readopted",
    "jobsets_stolen", "cross_zone_dispatches", "catalog_refreshes",
    "catalog_stale_served",
)

#: the fault-tolerance trio of tests/test_restart.py: budgets that outlast
#: a 5 s bounce but give a zone head up for dead after ~16 s
_RETRY = RetryPolicy(
    max_attempts=8, base_delay_s=0.5, backoff_factor=2.0,
    max_delay_s=3.0, timeout_s=30.0,
)
FT = dict(
    retry_policy=_RETRY, broker_redelivery=_RETRY,
    fault_tolerance=FaultToleranceConfig(watchdog_period=5.0, stuck_after=20.0),
)


@dataclass(frozen=True)
class Scenario:
    """One seeded run: a Fig-3 testbed, one job set, optional faults."""

    #: ``Testbed`` keyword arguments beyond :func:`fig3_testbed`'s defaults
    testbed: Dict[str, Any] = field(default_factory=dict)
    n_jobs: int = 6
    #: job *i* stages job *i-1*'s ``out.dat``
    chain: bool = False
    #: link drop probability (fault seed 3)
    drop: float = 0.0
    #: ``(host, at, down_for)`` crash-restarts scheduled before the run
    bounces: Tuple[Tuple[str, float, float], ...] = ()
    #: poll the Status RP instead of waiting on the listener (runs whose
    #: notifications may be lost; a federated run always polls)
    polled: bool = False
    #: enroll the scientist with the campus CA (GT4 machines need it)
    grid_identity: bool = False


SCENARIOS: Dict[str, Scenario] = {
    "fig3_fan": Scenario(),
    "fig3_chain": Scenario(chain=True),
    "perf_fan": Scenario(testbed=dict(perf=True)),
    "perf_chain": Scenario(testbed=dict(perf=True), chain=True),
    "sanitize": Scenario(testbed=dict(sanitize=True)),
    "drop20_ft": Scenario(testbed=FT, n_jobs=8, drop=0.20, polled=True),
    "drop20_ft_perf": Scenario(
        testbed=dict(FT, perf=True), n_jobs=8, drop=0.20, polled=True
    ),
    "node_bounce": Scenario(
        testbed=FT, bounces=(("node01", 8.0, 3.0),), polled=True
    ),
    "central_bounce": Scenario(
        testbed=FT, bounces=(("uvacg-central", 6.0, 3.0),), polled=True
    ),
    "central_bounce_perf": Scenario(
        testbed=dict(FT, perf=True),
        bounces=(("uvacg-central", 6.0, 3.0),), polled=True,
    ),
    "zones_1": Scenario(testbed=dict(federation=FederationConfig(n_zones=1)), n_jobs=8),
    "zones_2_spill": Scenario(
        testbed=dict(
            federation=FederationConfig(n_zones=2, max_queued_per_machine=1)
        ),
        n_jobs=8,
    ),
    # client01's first job set hashes to z01: its head stays down past the
    # client's retry budget (the set is stolen by z02, next on the ring),
    # z02's head then blinks (re-adoption) and a grid machine reboots.
    "zones_4_bounces": Scenario(
        testbed=dict(FT, n_machines=8, federation=FederationConfig(n_zones=4)),
        n_jobs=8,
        bounces=(
            ("node01", 4.0, 5.0), ("uvacg-z01", 6.0, 40.0),
            ("uvacg-z02", 30.0, 3.0),
        ),
    ),
    "roundrobin": Scenario(testbed=dict(scheduling_policy="roundrobin")),
    "random": Scenario(testbed=dict(scheduling_policy="random")),
    "mixed_gt4": Scenario(
        testbed=dict(n_machines=2, n_linux_machines=2), n_jobs=8,
        grid_identity=True,
    ),
}


def run_scenario(scenario: Scenario):
    """Assemble, run to completion, settle; returns ``(tb, result)``."""
    tb = fig3_testbed(
        10.0, {"out.dat": PAYLOAD}, **{"observability": True, **scenario.testbed}
    )
    if scenario.drop:
        tb.network.inject_faults(drop_probability=scenario.drop, seed=3)
    for host, at, down_for in scenario.bounces:
        tb.restart_host(host, at=at, down_for=down_for)
    schedulers = [tb.scheduler]
    if tb.zones:
        runner = tb.make_federated_client(grid_identity=scenario.grid_identity)
        client = runner.client
        schedulers = [zone.scheduler for zone in tb.zones]
    else:
        runner = client = tb.make_client(grid_identity=scenario.grid_identity)
    spec = fan_spec(client, tb, scenario.n_jobs, name="job{:02d}", chain=scenario.chain)
    if scenario.polled or tb.zones:
        run = runner.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
    else:
        run = runner.run_job_set(spec)
    outcome, jobset_epr, topic = tb.run(run)
    tb.settle()
    # The job set lives at whichever Scheduler finished it (a stolen set
    # moved zones); what it placed where and what the jobs wrote is part
    # of the result.
    owner = next(s for s in schedulers if s.address == jobset_epr.address)
    state = owner.store.load(owner.service_name, jobset_epr.get(_RESOURCE_ID))
    outputs = {
        name: tb.run(client.fetch_output(dir_epr, "out.dat")).to_bytes()
        for name, dir_epr in sorted(state[QName(UVA, "job_dirs")].items())
    }
    result = {
        "outcome": outcome,
        "topic": topic,
        "jobset": (jobset_epr.address, jobset_epr.get(_RESOURCE_ID)),
        "placements": state[QName(UVA, "job_machine")],
        "exit_codes": state[QName(UVA, "job_exit_codes")],
        "phases": state[QName(UVA, "job_phase")],
        "outputs": outputs,
        "client_events": [
            (note.topic, note.payload.tag.local) for note in client.listener.received
        ],
    }
    return tb, result


def _stored_blobs(wrapper) -> Dict[str, bytes]:
    """The wrapper's rows as stored; a row with a process-relative field
    is re-encoded without it."""
    out = {}
    for key, blob in sorted(wrapper.store.snapshot().items()):
        state = decode_state(blob)
        dropped = [state.pop(qname, None) for qname in _PROCESS_RELATIVE]
        if any(value is not None for value in dropped):
            blob = encode_state(state)
        out[key] = blob
    return out


def fingerprint(tb, result) -> Dict[str, str]:
    """``{component: sha256}`` of a finished ``observability=True`` run."""
    wrappers = tb.obs._wrappers
    stats = {f.name: getattr(tb.network.stats, f.name) for f in fields(tb.network.stats)}
    components = {
        "result": result,
        "clock": tb.env.now,
        "trace": timed_trace(tb),
        "network_stats": {
            name: sorted(value.items()) if isinstance(value, dict) else value
            for name, value in stats.items()
        },
        "stores": [
            (w.machine.name, w.path, _stored_blobs(w)) for w in wrappers
        ],
        "counters": [
            (
                w.machine.name, w.path,
                [getattr(w, name) for name in _COUNTERS],
                [getattr(w, name, 0) for name in _PATH_COUNTERS],
                (w.store.loads, w.store.saves, w.store.scans),
            )
            for w in wrappers
        ],
        "obs_export": tb.obs.export_json(),
        "event_log": tb.obs.event_log(),
    }
    return {
        name: hashlib.sha256(repr(value).encode("utf-8")).hexdigest()
        for name, value in components.items()
    }


def fingerprint_of(name: str) -> Dict[str, str]:
    return fingerprint(*run_scenario(SCENARIOS[name]))


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    goldens = {name: fingerprint_of(name) for name in SCENARIOS}
    GOLDEN.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {len(goldens)} scenarios to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
