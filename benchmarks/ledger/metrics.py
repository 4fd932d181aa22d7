"""Names, units, directions and bounds of everything the ledger reports.

One table, used four ways: ``run`` prints from it, ``compare`` takes
its bounds, ``bench`` (the driver's entry point) emits exactly its
names, and ``BENCHMARK.json`` at the repo root is :func:`manifest`
written out (the self-tests hold the two equal).

Two clocks, never mixed.  **Simulated** quantities are exact: a
host-side optimisation must leave them identical, so their bound is 0
and ``compare`` reports any difference as ``exact-mismatch``.  **Host**
quantities are what it costs to run the simulation, in reference-speed
seconds (``refclock.py``); they carry the regression bounds ISSUE 11
fixed, which the spreads measured on the 2-core box this was written on
leave room for (README.md, "Measured spreads").
"""

from __future__ import annotations

from spans import LAYER_NAMES

#: the Fig. 3 job set at seed 11, as pinned in BENCH_fig3_perf.json
#: ("off"): a regression anchor, not a validation against hardware
FIG3_PIN = {"sim_messages": 190, "sim_bytes": 295948,
            "sim_makespan_s": 60.206302819999976}

#: how long one driver run measures (BENCHMARK.json ``run_seconds``)
RUN_SECONDS = 16

WORKLOADS = [
    ("fig3_cold",
     "The paper's Fig. 3 job set on 20 fresh 4-machine testbeds: small working "
     "set, caches cold, assembly paid every time; the shape of every test in the suite."),
    ("grid_fan",
     "32 machines, one 64-job fan, default pipeline: few large NIS catalog "
     "messages, so xmlx.parse and db.load do the work; bypasses every cache."),
    ("grid_fan_perf",
     "128 machines, one 160-job fan, PerfConfig() on: caches absorb parse, so "
     "state encode (soap.typed, xmlx.serialize, db.save) dominates; bypasses the parser."),
    ("rp_calls",
     "Fig. 1 at volume: 4 clients x 3000 small calls on 32 resources, 3 reads per "
     "write: most kernel events per byte, loads wsrf.dispatch, sim.step, net.request."),
    ("staging_chain",
     "32-job chain on 4 machines, each job staging its predecessor's 2 MB output: "
     "bytes-dominated, few dispatches, the codec on a few huge text nodes."),
    ("fed_bounce",
     "16 machines in 4 zones, 4 polling clients x 2 job sets, a node and a zone "
     "head bounced mid-run: retries, snapshot/restore, readoption; fail_share can move."),
]

#: (name, unit, better, clock, bound).  ``bound`` is the share of the
#: base median a host metric may worsen by; exact metrics have bound 0.
END_TO_END = [
    ("run_s", "s", "lower", "host", 0.10),
    ("run_cpu_s", "s", "lower", "host", 0.10),
    ("work_per_s", "1/s", "higher", "host", 0.10),
    ("setup_s", "s", "lower", "host", 0.20),
    ("peak_rss_mb", "MB", "lower", "host", 0.10),
    ("sim_makespan_s", "s", "lower", "sim", 0.0),
    ("sim_messages", "count", "lower", "sim", 0.0),
    ("sim_bytes", "B", "lower", "sim", 0.0),
    ("fail_share", "share", "lower", "sim", 0.0),
]
HOST_METRICS = [m[0] for m in END_TO_END if m[3] == "host"]
EXACT_METRICS = [m[0] for m in END_TO_END if m[3] == "sim"]
BOUNDS = {m[0]: m[4] for m in END_TO_END}


def _layers():
    out = []
    for layer in LAYER_NAMES:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    return out


#: (name, unit, better) for every per-layer metric of a traced run;
#: which end-to-end metric each should move is README.md's
#: "How the metrics interact"
PER_LAYER = _layers() + [
    ("xmlx.parse.bytes", "B", "lower"),
    ("xmlx.serialize.bytes", "B", "lower"),
    ("net.bulk.bytes", "B", "lower"),
    ("net.retries", "count", "lower"),
    ("net.drops", "count", "lower"),
    ("net.retry_ratio", "share", "lower"),
    ("wsn.fanout_ratio", "1/publish", "lower"),
    ("wsrf.call.sim_p50_s", "s", "lower"),
    ("wsrf.call.sim_p99_s", "s", "lower"),
    ("db.decode_cache.hit_ratio", "share", "higher"),
    ("db.state_cache.hit_ratio", "share", "higher"),
    ("soap.envelope_cache.hit_ratio", "share", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "share", "higher"),
]

MICRO = [
    ("xmlx.micro.parse_mb_per_s", "MB/s", "higher"),
    ("xmlx.micro.serialize_mb_per_s", "MB/s", "higher"),
    ("soap.micro.roundtrip_per_s", "1/s", "higher"),
] + [
    (f"db.micro.{store}_{op}_per_s", "1/s", "higher")
    for store in ("blob", "xml", "sql", "cached")
    for op in ("load", "save")
] + [
    ("sim.micro.events_per_s", "1/s", "higher"),
    ("net.micro.requests_per_s", "1/s", "higher"),
    ("wsrf.micro.null_dispatch_per_s", "1/s", "higher"),
    ("wsn.micro.notify_us_per_subscriber", "us", "lower"),
]

#: the driver varies --seed per run, so the seed-dependent exact
#: metrics cannot carry their 0 bound in BENCHMARK.json's end_to_end;
#: they ride with the per-layer numbers there (no bound), and ``compare``
#: gates them exactly on the ledger's own fixed-seed runs
_EXACT_AS_LAYER = [
    (name, unit, better)
    for name, unit, better, clock, _ in END_TO_END if clock == "sim"
]

CONTRACT_PER_LAYER = _EXACT_AS_LAYER + PER_LAYER + MICRO
UNITS = {name: unit for name, unit, *_ in END_TO_END + CONTRACT_PER_LAYER}


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger", "bench"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, unit, better, clock, bound in END_TO_END if clock == "host"
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, unit, better in CONTRACT_PER_LAYER
        ],
    }
