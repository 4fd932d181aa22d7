"""The Processor Utilization sampler's always-ticking loop, kept as the
reference of tests/test_utilization_sampler.py.

Before samplers parked between run-queue changes, each woke every
``period`` for as long as its service ran and sampled whether or not
the run queue could have changed.  This subclass runs that loop, as it
was written, in place of the parking one.  Nothing under ``src/``
imports it: it exists so that generated load programs can compare the
reports of the two.
"""

from repro.gridapp.utilization import SG, ProcessorUtilizationService
from repro.net import DeliveryError


class ReferenceSampler(ProcessorUtilizationService):
    def on_start(self) -> None:
        env = self.machine.env

        def sampler(env):
            # stop() needs nothing of its own: the loop checks
            # self.running each period and winds down
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

        env.process(sampler(env))

    def on_stop(self) -> None:
        pass
