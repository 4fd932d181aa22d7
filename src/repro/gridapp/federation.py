"""The federation layer: zones, consistent-hash sharding, and the
federation-aware submission proxy (docs/federation.md).

The paper's Fig. 3 topology is one site: a single Scheduler, NIS and
broker.  A federated testbed (``Testbed(federation=FederationConfig())``)
stands up several *zones* — each a full central machine with its own
Scheduler, NIS ServiceGroup and Notification Broker — plus one root
machine carrying the cross-zone aggregator catalog and the root broker.
Job sets are sharded across zones by consistent hash on a deterministic
job-set id; the :class:`FederatedGridClient` routes ``SubmitJobSet`` to
the owning zone, fails over to ring successors when the owner is
unreachable at submission, and steals work: it re-submits a job set to
the next live zone when the owning Scheduler stops answering Status
polls mid-run.

Everything here is deterministic: the ring hashes with SHA-256 (never
Python's salted ``hash()``), so a mapping computed today is the mapping
every run and every process computes.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net import DeliveryError
from repro.wsa import EndpointReference
from repro.xmlx import NS, QName

UVA = NS.UVACG

_STATUS_RP = QName(UVA, "Status")


@dataclass(frozen=True)
class FederationConfig:
    """Opt-in federation topology knobs (``Testbed(federation=...)``).

    ``None`` (the Testbed default) keeps the paper's single-site
    topology and every existing trace/export byte-identical.
    """

    #: number of scheduler zones (each gets a central machine)
    n_zones: int = 2
    #: virtual nodes per zone on the consistent-hash ring
    vnodes: int = 64
    #: aggregator catalog entries older than this are re-fetched from
    #: the zone NIS on read; unreachable zones are served stale instead
    staleness_s: float = 5.0
    #: a zone counts as *full* when every local machine already has
    #: this many of the scheduler's jobs in flight; further dispatches
    #: consult the cross-zone aggregator catalog
    max_queued_per_machine: int = 4

    def __post_init__(self) -> None:
        if self.n_zones < 1:
            raise ValueError("a federation needs at least one zone")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.staleness_s < 0:
            raise ValueError("staleness_s must be >= 0")
        if self.max_queued_per_machine < 1:
            raise ValueError("max_queued_per_machine must be >= 1")


class HashRing:
    """Consistent hashing with virtual nodes, SHA-256 based.

    Deterministic and seed-free: the same zone names always produce the
    same ring, in any process (DET001 — no salted ``hash()``, no RNG).
    Adding or removing a zone remaps only the keys that land on that
    zone's arcs (~``1/n`` of the key space), the classic consistent-
    hashing guarantee the property tests in ``tests/test_federation.py``
    pin down.
    """

    def __init__(self, zones: Sequence[str], vnodes: int = 64) -> None:
        if not zones:
            raise ValueError("a hash ring needs at least one zone")
        if len(set(zones)) != len(zones):
            raise ValueError(f"duplicate zone names: {sorted(zones)}")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.zones: Tuple[str, ...] = tuple(sorted(zones))
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for zone in self.zones:
            for v in range(vnodes):
                points.append((self._point(f"{zone}#{v}"), zone))
        points.sort()
        self._points = points
        self._hashes = [p[0] for p in points]

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def owner(self, key: str) -> str:
        """The zone owning *key*: first ring point at or after its hash."""
        index = bisect.bisect_left(self._hashes, self._point(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def preference(self, key: str) -> List[str]:
        """Every zone, ordered by ring walk from *key* (owner first).

        The failover order: when the owner is unreachable the submission
        proxy tries successors in this order, so two clients (or one
        client twice) derive the same order without coordination.
        """
        start = bisect.bisect_left(self._hashes, self._point(key))
        order: List[str] = []
        for i in range(len(self._points)):
            zone = self._points[(start + i) % len(self._points)][1]
            if zone not in order:
                order.append(zone)
                if len(order) == len(self.zones):
                    break
        return order

    def with_zone(self, zone: str) -> "HashRing":
        return HashRing(self.zones + (zone,), vnodes=self.vnodes)

    def without_zone(self, zone: str) -> "HashRing":
        remaining = [z for z in self.zones if z != zone]
        return HashRing(remaining, vnodes=self.vnodes)


@dataclass
class Zone:
    """One site as assembled by the Testbed: a federation zone, or the
    paper's single site (``name`` None, never listed in ``tb.zones``)."""

    name: Optional[str]
    central: object  # the zone's central Machine
    broker: object  # zone NotificationBroker wrapper
    node_info: object  # zone NIS wrapper
    scheduler: object  # zone Scheduler wrapper
    machines: List[object] = field(default_factory=list)


@dataclass(frozen=True)
class ZoneRoute:
    """What a client needs to submit to one zone's Scheduler."""

    name: str
    scheduler_epr: EndpointReference
    scheduler_cert: object


@dataclass
class Submission:
    """A routed job set: where it lives now and where it may fail over."""

    spec: object
    jobset_epr: EndpointReference
    topic: str
    zone: str
    order: Tuple[str, ...]  # the ring's preference order at submit time


class FederatedGridClient:
    """The federation-aware submission proxy (client side).

    Wraps a plain :class:`~repro.gridapp.client.GridClient` (one host,
    one listener, one file server) with zone routing: job sets shard to
    ``ring.owner(jobset_id)``, submission fails over along the ring's
    preference order, and polling steals a job set to the next live zone
    when the owning Scheduler becomes unreachable.  Stealing re-submits
    the whole set (at-least-once at job-set granularity, like every
    other redelivery in the stack); the adopting Scheduler records the
    origin zone (``jobsets_stolen``) and runs it on its own machines.
    """

    def __init__(
        self,
        client,
        routes: Sequence[ZoneRoute],
        config: Optional[FederationConfig] = None,
    ) -> None:
        self.client = client
        self.env = client.env
        self.config = config or FederationConfig(n_zones=len(routes))
        self.routes: Dict[str, ZoneRoute] = {r.name: r for r in routes}
        if len(self.routes) != len(routes):
            raise ValueError("duplicate zone names in routes")
        self.ring = HashRing(list(self.routes), vnodes=self.config.vnodes)
        #: submissions re-routed because the owning zone was unreachable
        self.submit_failovers = 0
        #: job sets re-submitted to another zone mid-run
        self.steals = 0
        self._seq = 0

    # -- delegation to the underlying client ---------------------------------------

    def new_job_set(self):
        return self.client.new_job_set()

    def add_local_file(self, path, content):
        return self.client.add_local_file(path, content)

    def add_program_binary(self, program, path=None):
        return self.client.add_program_binary(program, path)

    def fetch_output(self, dir_epr, filename):
        return self.client.fetch_output(dir_epr, filename)

    @property
    def listener(self):
        return self.client.listener

    # -- routing -----------------------------------------------------------------------

    def next_jobset_id(self) -> str:
        """Deterministic client-side job-set id (the sharding key)."""
        self._seq += 1
        return f"{self.client.host_name}/jobset-{self._seq:04d}"

    def zone_for(self, jobset_id: str) -> str:
        return self.ring.owner(jobset_id)

    def submit(self, spec) -> "Submission":
        """Coroutine: route the job set to its owning zone.

        Tries the ring's preference order; a zone whose Scheduler never
        answers (``DeliveryError`` after client retries) is skipped and
        counted in ``submit_failovers``.  Raises the last transport
        fault when every zone is unreachable.
        """
        spec.validate()
        order = tuple(self.ring.preference(self.next_jobset_id()))
        return (yield from self._submit_along(spec, order))

    def _submit_along(self, spec, order: Tuple[str, ...], origin: str = ""):
        last_fault = None
        for zone_name in order:
            route = self.routes[zone_name]
            try:
                jobset_epr, topic = yield from self.client.submit(
                    spec,
                    scheduler_epr=route.scheduler_epr,
                    scheduler_cert=route.scheduler_cert,
                    origin=origin,
                )
            except DeliveryError as fault:
                last_fault = fault
                self.submit_failovers += 1
                continue
            return Submission(
                spec=spec, jobset_epr=jobset_epr, topic=topic,
                zone=zone_name, order=order,
            )
        raise last_fault if last_fault is not None else DeliveryError(
            "no zones to submit to"
        )

    # -- monitoring with work stealing ----------------------------------------------

    def poll_until_complete(
        self,
        submission: "Submission",
        period: float = 2.0,
        give_up_after: Optional[float] = None,
    ):
        """Coroutine: poll the owning zone; steal on owner loss.

        Returns ``(outcome, submission)`` — the submission may differ
        from the input when the job set was stolen to another zone.
        """
        deadline = (
            None if give_up_after is None else self.env.now + give_up_after
        )
        while True:
            try:
                status = yield from self.client.soap.get_resource_property(
                    submission.jobset_epr, _STATUS_RP, category="poll"
                )
            except DeliveryError:
                submission = yield from self._steal(submission)
                continue
            if status in ("Completed", "Failed"):
                return status.lower(), submission
            if deadline is not None and self.env.now >= deadline:
                return "timeout", submission
            yield self.env.timeout(period)

    def _steal(self, submission: "Submission"):
        """Re-submit to the next live zone after the owner went dark.

        The dead zone's partial work is orphaned; the adopting zone runs
        the whole set on its own machines (duplicate execution of jobs
        the dead zone finished is possible and safe — job outputs are
        deterministic and fetched from the adopting zone's directories).
        """
        order = tuple(z for z in submission.order if z != submission.zone)
        if not order:
            raise DeliveryError(
                f"zone {submission.zone!r} unreachable and no zones remain"
            )
        self.steals += 1
        return (
            yield from self._submit_along(
                submission.spec, order, origin=submission.zone
            )
        )

    def run_job_set_polled(
        self,
        spec,
        period: float = 2.0,
        give_up_after: Optional[float] = None,
    ):
        """Coroutine: submit, then poll with stealing until terminal.

        Same return shape as ``GridClient.run_job_set_polled``:
        ``(outcome, jobset_epr, topic)`` — of wherever the job set
        finished.
        """
        submission = yield from self.submit(spec)
        outcome, submission = yield from self.poll_until_complete(
            submission, period=period, give_up_after=give_up_after
        )
        return outcome, submission.jobset_epr, submission.topic
