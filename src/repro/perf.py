"""The opt-in hot-path performance layer: one switch.

The paper's §5/Fig. 1 cost analysis shows WSRF dispatch is dominated by
the two 0.8 ms database accesses per call, and the Fig. 3 walkthrough's
centralized Scheduler/Broker path sends one Notify per subscriber per
event.  Passing a :class:`PerfConfig` turns on the four mechanisms that
attack exactly those costs — state caching, write elision, batched
broker fan-out and per-pass NIS catalog reuse — together, without
changing any observable outcome.  docs/performance.md ("The
mechanisms") describes each one.

Like ``Testbed(faults=...)`` and ``Testbed(observability=...)`` the
layer is **off by default**: a plain ``Testbed()`` reproduces the
paper-shape numbers byte-for-byte.  ``tests/test_perf_equivalence.py``
is the differential harness proving the enabled layer changes only
simulated latencies — never job outcomes, traces, or final resource
state.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerfConfig:
    """The performance layer's switch: it has no fields.

    Passing a ``PerfConfig()`` to ``Testbed(perf=...)`` or
    ``deploy(..., perf=...)`` enables the layer; ``perf=None`` (the
    default everywhere) keeps the unoptimized paper-shape pipeline.
    """
