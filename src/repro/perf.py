"""Opt-in hot-path performance layer configuration.

The paper's §5/Fig. 1 cost analysis shows WSRF dispatch is dominated by
the two 0.8 ms database accesses per call, and the Fig. 3 walkthrough's
centralized Scheduler/Broker path sends one Notify per subscriber per
event.  :class:`PerfConfig` switches on four mechanisms that attack
exactly those costs, without changing any observable outcome:

- **state_cache** — a write-through :class:`repro.db.CachedResourceStore`
  in front of each service's :class:`~repro.db.BlobResourceStore`; the
  wrapper elides the ``db_load`` delay when the resource's state is
  already cached;
- **write_elision** — the wrapper skips the ``db_save`` stage entirely
  when the method did not mutate resource state (the default pipeline
  still *opens* the stage on every dispatch, matching WSRF.NET's
  unconditional save);
- **notification_batch_window_s** — the NotificationProducer coalesces
  all Notifies bound for one subscriber within the window into a single
  multi-message ``wsnt:Notify`` (``0.0`` disables batching);
- **nis_pass_cache** — the Scheduler reuses one Node Information Service
  ``GetProcessors`` catalog across all jobs of a scheduling pass instead
  of polling once per job.

Like ``Testbed(faults=...)`` and ``Testbed(observability=...)`` the
layer is **off by default**: a plain ``Testbed()`` reproduces the
paper-shape numbers byte-for-byte.  ``tests/test_perf_equivalence.py``
is the differential harness proving the enabled layer changes only
simulated latencies — never job outcomes, traces, or final resource
state.  See docs/performance.md (which also covers the codec fast
path: not a knob, it moves no simulated quantity).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerfConfig:
    """Knobs for the hot-path performance layer (all mechanisms default on).

    Constructing a ``PerfConfig()`` and passing it to ``Testbed(perf=...)``
    or ``deploy(..., perf=...)`` enables the layer; ``perf=None`` (the
    default everywhere) keeps the unoptimized paper-shape pipeline.
    """

    #: wrap each service's store in a write-through CachedResourceStore
    state_cache: bool = True
    #: skip the db_save stage when the method did not mutate state
    write_elision: bool = True
    #: coalesce per-subscriber Notifies within this window (0 disables)
    notification_batch_window_s: float = 0.05
    #: reuse one NIS GetProcessors catalog per scheduling pass
    nis_pass_cache: bool = True

    def __post_init__(self) -> None:
        if self.notification_batch_window_s < 0:
            raise ValueError(
                "notification_batch_window_s must be >= 0, got "
                f"{self.notification_batch_window_s!r}"
            )
