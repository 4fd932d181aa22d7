"""The Observability object: glue between the stack and the registry.

Attach one per simulation::

    obs = Observability(env)
    obs.attach(network)          # before services deploy

From then on every :class:`~repro.wsrf.tooling.WrapperService` deployed
on that network self-registers, instrumentation sites record spans, and
:meth:`collect` mirrors the stack's ad-hoc counters (``NetworkStats``,
resource-store op counters, notification producers, IIS, Scheduler
recoveries) into the metrics registry under the documented namespaces
(see ``docs/observability.md`` for the catalog).

With no Observability attached (``network.obs is None``) every
instrumentation site is a single ``None`` check: no span objects are
allocated, no metrics are touched, and — in either mode — no simulated
time is consumed, so enabling observability never changes a benchmark's
simulated results.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Set

from repro.obs.eventlog import ObsEventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network, NetworkStats
    from repro.sim import Environment

EXPORT_FORMAT = 1

#: (metric, wrapper attribute) of the counters of paths most runs never
#: take — the Scheduler's recovery and per-pass NIS reuse, a host restart
#: (docs/durability.md), the cross-zone paths and the aggregator catalog
#: (docs/federation.md).  A service declares the ones it keeps
#: (``ServiceSkeleton.DEPLOYMENT``) and they start at 0; one is exported
#: once it is non-zero, so a run that never took the path exports
#: byte-identically to one from before the path was written.
_LAZY_COUNTERS = (
    ("perf.nis_polls_elided", "nis_polls_elided"),
    ("scheduler.recoveries", "recoveries_announced"),
    ("host.restarts", "restarts"),
    ("scheduler.jobsets_readopted", "jobsets_readopted"),
    ("scheduler.jobsets_stolen", "jobsets_stolen"),
    ("scheduler.cross_zone_dispatches", "cross_zone_dispatches"),
    ("federation.catalog_refreshes", "catalog_refreshes"),
    ("federation.catalog_stale_served", "catalog_stale_served"),
)


def obs_of(machine_or_network: Any) -> Optional["Observability"]:
    """The Observability attached to the fabric, if any (else None)."""
    network = getattr(machine_or_network, "network", machine_or_network)
    return network.obs


class Observability:
    """Metrics registry + span recorder + collector wiring for one sim."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(env, self.registry)
        #: structured JSONL event log, None until enable_event_log()
        self.events: Optional[ObsEventLog] = None
        self._networks: List["Network"] = []
        self._wrappers: List[Any] = []

    # -- wiring ----------------------------------------------------------------

    def enable_event_log(self) -> ObsEventLog:
        """Mirror span lifecycle into a structured JSONL event log.

        Idempotent; returns the log.  Driven by simulated time only, so
        enabling it never changes a run's results or its JSON export
        (the log is a separate artifact, not part of snapshot()).
        """
        if self.events is None:
            self.events = ObsEventLog(self.env)
            self.spans.event_log = self.events
        return self.events

    def attach(self, network: "Network") -> "Observability":
        """Make *network* observed: sets ``network.obs`` to self."""
        network.obs = self
        if network not in self._networks:
            self._networks.append(network)
        return self

    def register_wrapper(self, wrapper: Any) -> None:
        """Adopt a deployed WrapperService as a collection source.

        Called automatically from ``WrapperService.__init__`` when the
        machine's network carries an Observability.
        """
        if wrapper not in self._wrappers:
            self._wrappers.append(wrapper)

    # -- span facade -----------------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        message_id: Optional[str] = None,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> Span:
        return self.spans.start(name, parent=parent, message_id=message_id, attrs=attrs)

    def finish(self, span: Span) -> None:
        self.spans.finish(span)

    # -- collection ------------------------------------------------------------

    def collect(self) -> MetricsRegistry:
        """Mirror every ad-hoc counter into the registry; returns it."""
        # The codec hand-off counters are exported under the perf layer
        # only: default exports stay byte-identical to the paper-shape run.
        perf_on = any(w.perf for w in self._wrappers)
        for network in self._networks:
            self._collect_network(network, perf_on)
        seen_stores: Set[int] = set()
        seen_machines: Set[str] = set()
        for wrapper in self._wrappers:
            self._collect_wrapper(wrapper, seen_stores, seen_machines)
        return self.registry

    def _collect_network(self, network: "Network", perf_on: bool) -> None:
        stats: "NetworkStats" = network.stats
        reg = self.registry
        reg.counter("net.messages").set_total(stats.messages)
        reg.counter("net.bytes").set_total(stats.bytes)
        for scheme in sorted(stats.by_scheme):
            reg.counter("net.messages", scheme=scheme).set_total(stats.by_scheme[scheme])
        for category in sorted(stats.by_category):
            reg.counter("net.messages", category=category).set_total(
                stats.by_category[category]
            )
        for category in sorted(stats.bytes_by_category):
            reg.counter("net.bytes", category=category).set_total(
                stats.bytes_by_category[category]
            )
        reg.counter("net.drops").set_total(stats.drops)
        for (src, dst) in sorted(stats.drops_by_link):
            reg.counter("net.drops", link=f"{src}->{dst}").set_total(
                stats.drops_by_link[(src, dst)]
            )
        for kind in sorted(stats.faults):
            reg.counter("net.faults", kind=kind).set_total(stats.faults[kind])
        reg.counter("net.retries").set_total(stats.retries)
        reg.counter("net.redeliveries").set_total(stats.redeliveries)
        if perf_on:
            codec = network.codec
            reg.counter("perf.envelope_parse_hits").set_total(codec.parse_hits)
            reg.counter("perf.envelope_parse_misses").set_total(codec.parse_misses)
            reg.counter("perf.envelope_encode_hits").set_total(codec.encode_hits)
            reg.counter("perf.envelope_encode_misses").set_total(codec.encode_misses)

    def _collect_wrapper(
        self, wrapper: Any, seen_stores: Set[int], seen_machines: Set[str]
    ) -> None:
        reg = self.registry
        machine = wrapper.machine
        # The host label disambiguates same-named services deployed on
        # several machines (every node runs an ExecService): set_total
        # would otherwise let the last wrapper win.
        ids = {"service": wrapper.path, "host": machine.name}
        # Federation: zone-labelled metrics.  Only wrappers a federated
        # Testbed assembled carry a zone, so default (single-site)
        # exports stay byte-identical.
        if wrapper.zone is not None:
            ids["zone"] = wrapper.zone
        reg.counter("wsrf.invocations", **ids).set_total(wrapper.invocations)
        reg.counter("wsrf.faults_returned", **ids).set_total(wrapper.faults_returned)
        store = wrapper.store
        if id(store) not in seen_stores:
            seen_stores.add(id(store))
            reg.counter("db.loads", **ids).set_total(store.loads)
            reg.counter("db.saves", **ids).set_total(store.saves)
            reg.counter("db.scans", **ids).set_total(store.scans)
            # Performance-layer cache effectiveness (the state cache
            # only — with perf off these metrics don't exist at all, so
            # default exports stay byte-identical).
            if wrapper.perf:
                reg.counter("perf.cache_hits", **ids).set_total(store.hits)
                reg.counter("perf.cache_misses", **ids).set_total(store.misses)
            # Codec fast path: decode-cache effectiveness (blob-backed
            # stores; exported with the perf layer only, as above).
            decode_cache = getattr(store, "decode_cache", None)
            if decode_cache is not None and wrapper.perf:
                reg.counter("perf.decode_cache_hits", **ids).set_total(
                    decode_cache.hits
                )
                reg.counter("perf.decode_cache_misses", **ids).set_total(
                    decode_cache.misses
                )
        if wrapper.perf:
            reg.counter("perf.loads_elided", **ids).set_total(wrapper.loads_elided)
            reg.counter("perf.writes_elided", **ids).set_total(wrapper.writes_elided)
        producer = wrapper.notification_producer
        if producer is not None:
            reg.counter("wsn.notifications_sent", **ids).set_total(
                producer.notifications_sent
            )
            reg.counter("wsn.redeliveries", **ids).set_total(producer.redeliveries)
            reg.counter("wsn.dropped_subscribers", **ids).set_total(
                len(producer.dropped_subscribers)
            )
            reg.gauge("wsn.subscriptions", **ids).set(len(producer.subscriptions))
            reg.gauge("wsn.topics_seen", **ids).set(len(producer.topics_seen))
            reg.gauge("wsn.topics_truncated", **ids).set(
                1 if producer.topics_truncated else 0
            )
            reg.counter("wsn.topics_dropped", **ids).set_total(producer.topics_dropped)
            batcher = producer.batcher
            if batcher is not None:
                reg.counter("wsn.batches_sent", **ids).set_total(batcher.batches_sent)
                reg.counter("wsn.notifications_batched", **ids).set_total(
                    batcher.notifications_batched
                )
                reg.gauge("wsn.batch_max_size", **ids).set(batcher.max_batch_size)
        for metric, attribute in _LAZY_COUNTERS:
            total = getattr(wrapper, attribute, 0)
            if total:
                reg.counter(metric, **ids).set_total(total)
        if machine.name not in seen_machines:
            seen_machines.add(machine.name)
            reg.counter("iis.requests_served", host=machine.name).set_total(
                machine.iis.requests_served
            )
            reg.gauge("iis.queued_requests", host=machine.name).set(
                machine.iis.queued_requests
            )

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Collect, then return the full JSON-ready state."""
        self.collect()
        return {
            "meta": {
                "format": EXPORT_FORMAT,
                "now": self.env.now,
                "spans": len(self.spans.spans),
                "open_spans": len(self.spans.open_spans()),
            },
            "metrics": self.registry.snapshot(),
            "spans": self.spans.snapshot(),
        }

    def export_json(self) -> str:
        """Deterministic JSON: identical seeded runs export identical bytes."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=1)
