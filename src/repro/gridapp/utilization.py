"""The Processor Utilization Windows service (§4.4).

"Each machine in the system runs the Processor Utilization Windows
service.  This service asynchronously notifies the NIS whenever the
utilization of the machine's processors changes by more than a
configurable amount."  Here: a sampling loop that pushes one-way
ReportUtilization messages when the delta since the last report exceeds
``threshold`` (the D-7 benchmark sweeps this knob against a periodic-
push baseline).
"""

from __future__ import annotations

from typing import Optional

from repro.net import DeliveryError
from repro.osim.winservice import WindowsService
from repro.wsa import EndpointReference
from repro.wsrf.client import WsrfClient
from repro.xmlx import NS

SG = NS.WSRF_SG


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
        self._proc = None

    def on_start(self) -> None:
        env = self.machine.env

        def sampler(env):
            while self.running:
                utilization = self.machine.utilization()
                delta = (
                    None
                    if self._last_reported is None
                    else abs(utilization - self._last_reported)
                )
                if (
                    self.always_report
                    or delta is None
                    or delta >= self.threshold
                ):
                    self._last_reported = utilization
                    self.reports_sent += 1
                    try:
                        yield from self._client.call(
                            self.nis_epr,
                            SG,
                            "ReportUtilization",
                            {
                                "machine_name": self.machine.name,
                                "utilization": utilization,
                            },
                            category="utilization",
                            one_way=True,
                        )
                    except DeliveryError:
                        # NIS unreachable (partition, central down): drop
                        # the report and retry next period; the catalog
                        # simply goes stale, which is the D-7 trade-off.
                        self._last_reported = None
                yield env.timeout(self.period)

        self._proc = env.process(sampler(env))

    def on_stop(self) -> None:
        # The loop checks self.running each period and winds down.
        self._proc = None
