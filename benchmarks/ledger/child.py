"""One repeat of one workload, in a process of its own.

The parent (``__main__.py``) starts this file once per repeat so that
every measurement begins from a clean heap, QName intern table and id
counters.  It prints one JSON object on the last line of its output.

Order of events: import ``repro`` (timed), one untimed Fig-3 warm-up,
optionally install the tracer, assemble the workload (timed; with the
import it makes ``setup_s``), ``gc.collect()``, run (timed), read the
peak RSS, then check the outputs (untimed).

Host times are in reference-speed seconds (``refclock.py``): raw wall
seconds are ``run_s / host_speed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys

from refclock import ReferenceClock


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_counters(workload, rows) -> dict:
    """The per-layer numbers that come from the program's own public
    counters rather than from spans."""
    stats = [net.stats for net in workload.networks()]
    messages = sum(s.messages for s in stats)
    retries = sum(s.retries for s in stats)
    stores = [w.store for w in workload.wrappers()]
    decode = [s.decode_cache for s in stores
              if getattr(s, "decode_cache", None) is not None]
    cached = [s for s in stores if hasattr(s, "is_cached")]
    codecs = [net.codec for net in workload.networks() if net.codec is not None]
    publishes = rows["wsn.publish"]["calls"] if rows else 0
    notifies = sum(s.by_category.get("notify", 0) for s in stats)
    return {
        "net.retries": retries,
        "net.drops": sum(s.drops for s in stats),
        "net.retry_ratio": retries / messages if messages else 0.0,
        "wsn.fanout_ratio": notifies / publishes if publishes else 0.0,
        "db.decode_cache.hit_ratio": _ratio(
            sum(c.hits for c in decode), sum(c.misses for c in decode)),
        "db.state_cache.hit_ratio": _ratio(
            sum(s.hits for s in cached), sum(s.misses for s in cached)),
        "soap.envelope_cache.hit_ratio": _ratio(
            sum(c.parse_hits + c.encode_hits for c in codecs),
            sum(c.parse_misses + c.encode_misses for c in codecs)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="with --trace: write the raw spans here")
    args = parser.parse_args(argv)

    clock = ReferenceClock()
    clock.start()
    started = clock.mark()
    import workloads  # pulls in repro: this is the import the user pays

    imported = clock.mark()

    warm = workloads.Fig3Cold(args.seed, "smoke")
    warm.run()
    del warm

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(clock=clock.work_s)
        tracer.install()

    warmed = clock.mark()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    assembled = clock.mark()

    gc.collect()
    if tracer is not None:
        tracer.reset()
    ready = clock.mark()
    workload.run()
    done = clock.mark()
    clock.stop()
    run_s, run_cpu_s, host_speed = clock.between(ready, done)
    setup_s = clock.between(started, imported)[0] + clock.between(warmed, assembled)[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = None
    traced_s = 0.0
    if tracer is not None:
        rows = tracer.rows()
        for row in rows.values():
            row["self_s"] *= host_speed
        traced_s = tracer.root_s() * host_speed
        if args.spans:
            tracer.dump(args.spans)
        tracer.uninstall()
    counters = layer_counters(workload, rows)

    outcome = workload.check()
    counters.update(outcome.extra)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "unit": workload.unit,
        "inputs_digest": workload.inputs_digest(),
        "host_speed": host_speed,
        "host": {
            "run_s": run_s,
            "run_cpu_s": run_cpu_s,
            "work_per_s": (outcome.attempted - outcome.failed) / run_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "sim": {
            "sim_makespan_s": outcome.sim_makespan_s,
            "sim_messages": outcome.sim_messages,
            "sim_bytes": outcome.sim_bytes,
        },
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "rows": rows,
        "traced_root_s": traced_s,
        "counters": counters,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
