"""The Processor Utilization Windows service (§4.4).

"Each machine in the system runs the Processor Utilization Windows
service.  This service asynchronously notifies the NIS whenever the
utilization of the machine's processors changes by more than a
configurable amount."  Here: a sampler that pushes one-way
ReportUtilization messages when the delta since the last report exceeds
``threshold`` (the D-7 benchmark sweeps this knob against a periodic-
push baseline).  While no sample could report, the sampler parks with
no timer until the run queue changes, then samples where it would have
ticked (docs/performance.md, "Idle samplers park").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net import DeliveryError
from repro.osim.winservice import WindowsService
from repro.sim import Event
from repro.wsa import EndpointReference
from repro.wsrf.client import WsrfClient
from repro.xmlx import NS

SG = NS.WSRF_SG


class _SamplerTimers:
    """One timer per instant a grid's samplers sample at; it resumes them in
    its step in the order their own timers would have popped (chain rank)."""

    def __init__(self) -> None:
        self.chains = 0
        self._due: Dict[float, List[Tuple[int, Event]]] = {}

    def at(self, env, when: float, delay: float, chain: int, park: Event) -> None:
        """Resume the sampler waiting on *park* at *when*, *delay* from now."""
        if when not in self._due:
            self._due[when] = []
            env.timeout(delay).callbacks.append(self._fire)
        self._due[when].append((chain, park))

    def _fire(self, timer: Event) -> None:
        for _chain, park in sorted(self._due.pop(timer.env.now)):
            resumes, park.callbacks = park.callbacks, []  # none if stopped
            for resume in resumes:
                resume(timer)


class ProcessorUtilizationService(WindowsService):
    service_name = "Processor Utilization"

    def __init__(
        self,
        machine,
        nis_epr: EndpointReference,
        threshold: float = 0.10,
        period: float = 1.0,
        always_report: bool = False,
    ) -> None:
        # NaN-safe: a zero period spins the sampler at one instant, and a
        # NaN threshold silences every report after the first.
        if not period > 0:
            raise ValueError(f"utilization period must be positive, got {period!r}")
        if not threshold >= 0:
            raise ValueError(f"utilization threshold must be >= 0, got {threshold!r}")
        super().__init__(machine)
        self.nis_epr = nis_epr
        self.threshold = threshold
        self.period = period
        #: baseline mode for D-7: report every sample regardless of delta
        self.always_report = always_report
        self.reports_sent = 0
        self._last_reported: Optional[float] = None
        self._client = WsrfClient(machine.network, machine.name)
        if machine.network.sampler_timers is None:
            machine.network.sampler_timers = _SamplerTimers()
        self._timers = machine.network.sampler_timers
        self._process = None
        self._chain: Optional[int] = None
        #: what the sampler waits on after a sample, a new event each time
        self._park: Optional[Event] = None
        self._grid: Optional[float] = None  # while parked: its grid's next instant
        machine.cpu.on_run_queue_changed.append(self._run_queue_changed)

    def on_start(self) -> None:
        self._chain = None  # a new chain, whatever the stopped sampler's was
        self._process = self.machine.env.process(self._sampler(self.machine.env))

    def on_stop(self) -> None:
        # parked or ticking, the sampler ends here (a report in flight is
        # abandoned), so a start() right after runs one sampler
        self._grid = None
        self._process.kill("service stopped")

    def _run_queue_changed(self) -> None:
        when, self._grid = self._grid, None
        if when is None:
            return  # ticking or stopped: its next sample sees the change
        env = self.machine.env
        while when <= env.now:
            when += self.period
        self._timers.at(env, when, when - env.now, self._chain, self._park)

    def _sampler(self, env):
        while True:
            sampled_at, utilization = env.now, self.machine.utilization()
            last = self._last_reported
            if self.always_report or last is None or abs(utilization - last) >= self.threshold:
                self._last_reported = utilization
                self.reports_sent += 1
                try:
                    yield from self._client.call(
                        self.nis_epr, SG, "ReportUtilization",
                        {"machine_name": self.machine.name, "utilization": utilization},
                        category="utilization", one_way=True,
                    )
                except DeliveryError:
                    # NIS unreachable (partition, central down): drop
                    # the report and retry next period; the catalog
                    # simply goes stale, which is the D-7 trade-off.
                    self._last_reported = None
            # Samplers due at one instant re-arm in the order they ticked
            # there, and keep it; one whose send took time re-arms after
            # them all (the send's last event is younger than a period).
            if self._chain is None or env.now != sampled_at:
                self._chain = self._timers.chains
                self._timers.chains += 1
            self._park = env.event()
            # Park while no sample could report; now >= period keeps the
            # wake's when - now exact (Sterbenz), so it lands on the grid.
            if (self.threshold > 0 and not self.always_report
                    and self._last_reported is not None and env.now >= self.period
                    and self.machine.utilization() == utilization):
                self._grid = env.now + self.period
            else:
                self._timers.at(env, env.now + self.period, self.period, self._chain, self._park)
            yield self._park
