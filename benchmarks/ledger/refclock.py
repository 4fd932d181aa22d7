"""Host time in reference-speed seconds.

The box the ledger runs on changes speed by up to 30 % every few
seconds (a pure-Python loop of fixed work takes 83 to 115 ms, in
stretches of one to thirty seconds, with jitter of 10-20 % from one
millisecond to the next on top), and everything in the process slows
down together.  No estimator inside a run averages that away: medians,
means and minima of 3 to 5 children all spread 10 to 17 %.  What does
cancel it is timing a fixed probe *beside* the work.

:class:`ReferenceClock` does that from an interval timer: every
``PERIOD_S`` the signal handler runs one probe pass (about 3 ms), keeps
how long it took, and excludes it from the time the clock reports.  An
interval between two marks is then scaled by the mean of
``REFERENCE_PROBE_S / probe`` over the probes that ran inside it: one
reported second is one second of work on a box that runs the probe in
``REFERENCE_PROBE_S``.  No thread, no process; the simulation is
deterministic, so being interrupted changes nothing it computes (the
ledger checks that on every run).
"""

from __future__ import annotations

import signal
import time

#: what one probe pass takes in the usual state of the box the ledger
#: was first recorded on
REFERENCE_PROBE_S = 0.0032
PERIOD_S = 0.04

#: the probe's fixed data, about a megabyte: the probe reads it and
#: keeps nothing, so it moves neither the program's heap nor its
#: garbage collections
_TABLE = {"key%d" % i: "value-%d" % (i * 7) for i in range(8000)}
_PIECES = [key + "=" + value for key, value in _TABLE.items()]


def _probe_pass() -> int:
    """Fixed work of the two kinds the program does: arithmetic in the
    interpreter loop, and string / dict work over more memory than the
    inner caches hold.  Contention for memory slows the second kind
    (and the program) more than the first, so a pure integer loop
    under-reports a busy neighbour."""
    total = 0
    for i in range(40_000):
        total += i * i % 7
    table = _TABLE
    for piece in _PIECES:
        key, _, value = piece.partition("=")
        total += len(table[key]) + len(value)
    return total


class ReferenceClock:
    """Marks in time; the work between two of them, raw and scaled."""

    def __init__(self) -> None:
        self._probes: list = []  # seconds each pass took
        self._probe_wall = 0.0
        self._probe_cpu = 0.0

    def _probe(self, signum=None, frame=None) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        _probe_pass()
        self._probes.append(time.perf_counter() - start)
        self._probe_wall += time.perf_counter() - start
        self._probe_cpu += time.process_time() - cpu

    def work_s(self) -> float:
        """Wall seconds so far, probes excluded (the tracer's clock)."""
        while True:
            excluded = self._probe_wall
            now = time.perf_counter()
            if excluded == self._probe_wall:  # no probe ran in between
                return now - excluded

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        """A point in time, for :meth:`between`; takes a probe of its own."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._probe()
            return (len(self._probes) - 1, self.work_s(),
                    time.process_time() - self._probe_cpu)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def between(self, begin: tuple, end: tuple) -> tuple:
        """``(wall_s, cpu_s, speed)`` of the work between two marks: both
        times already scaled by ``speed``, the host's speed over the
        interval with 1.0 the reference."""
        probes = self._probes[begin[0]:end[0] + 1]
        speed = sum(REFERENCE_PROBE_S / took for took in probes) / len(probes)
        return (end[1] - begin[1]) * speed, (end[2] - begin[2]) * speed, speed
