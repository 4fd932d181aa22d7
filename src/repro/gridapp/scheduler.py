"""The Scheduler Service (§4.5) — "the heart of the remote job execution
testbed because it coordinates the activities of the other grid
components".

WS-Resources are *job sets*.  On submission the Scheduler generates a
unique topic for the job set, subscribes both itself and the client's
notification listener at the broker, and dispatches every job whose
dependencies are satisfied.  Each dispatch polls the Node Info service
for "the latest information about the grid's processors" and picks "the
fastest, most available machine" (the paper's straightforward
algorithm; random and round-robin baselines are provided for the D-6
benchmark).  As jobs complete, the Scheduler "fills in" the locations
of their output files — the EPRs of the working directories the ESs
created — so dependent jobs can fetch them, and schedules the next job
with no uncompleted dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.db import NoSuchResource
from repro.gridapp import tracing
from repro.gridapp.execution_service import parse_job_event
from repro.gridapp.jobset import FileRef, JobSetSpec
from repro.net import DeliveryError, Uri
from repro.wsa import EndpointReference
from repro.wsn.base_notification import (
    NotificationConsumerPortType,
    build_notify_body,
    build_subscribe_body,
)
from repro.wsn.topics import FULL_DIALECT
from repro.wsrf.attributes import (
    Resource,
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
)
from repro.soap import SoapFault
from repro.wsrf.basefaults import BaseFault, EndpointUnreachableFault
from repro.wsrf.lifetime import ImmediateResourceTerminationPortType
from repro.wsrf.porttypes import (
    GetMultipleResourcePropertiesPortType,
    GetResourcePropertyPortType,
    QueryResourcePropertiesPortType,
)
from repro.wssec import UsernameToken, build_security_header, has_x509_token
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG
SG = NS.WSRF_SG


class SchedulingFault(BaseFault):
    FAULT_QNAME = QName(UVA, "SchedulingFault")


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Opt-in re-dispatch behaviour for the Scheduler.

    Attach an instance as ``wrapper.fault_tolerance`` (or pass
    ``fault_tolerance=`` to the Testbed) to make the Scheduler survive
    Execution Services that become unreachable mid-run: dispatches fail
    over to alternate NIS-cataloged machines, and a per-job-set watchdog
    probes dispatched jobs, re-dispatching any whose ES stops answering
    and synthesizing completions whose JobExited notification was lost.
    Without it the Scheduler keeps the paper's original fail-fast
    behaviour (one transport fault marks the set Failed).
    """

    #: seconds between watchdog sweeps over a running job set
    watchdog_period: float = 5.0
    #: re-dispatch a job stuck in Created/StagingFiles this long
    stuck_after: float = 30.0

    def __post_init__(self) -> None:
        # ``not x > 0`` rejects NaN too, which ``x <= 0`` lets through
        if not self.watchdog_period > 0:
            raise ValueError("watchdog_period must be positive")
        if not self.stuck_after > 0:
            raise ValueError("stuck_after must be positive")


#: under fault tolerance: machines tried per scheduling pass before the
#: dispatch fails, and watchdog-driven recoveries per job before giving up
_MAX_DISPATCH_ATTEMPTS = 3
_MAX_REDISPATCHES = 3

#: the policies :func:`choose_machine` knows; the Testbed checks against it
SCHEDULING_POLICIES = ("best", "random", "roundrobin")


def choose_machine(processors: List[Dict], policy: str, rng=None, rr_state=None) -> Dict:
    """Pick a machine from the NIS catalog.

    ``best`` — the paper's algorithm: fastest, most available (highest
    ``speed × (1 - utilization)``; name breaks ties deterministically).
    ``random`` / ``roundrobin`` — the D-6 baselines.
    """
    if not processors:
        raise SchedulingFault(description="no processors available in the VO")
    ordered = sorted(processors, key=lambda p: p["name"])
    if policy == "best":
        def score(p):
            # "fastest, most available": nominal speed discounted by the
            # reported utilization, split across jobs already queued there
            # by this scheduler.  The availability floor keeps queue depth
            # meaningful on machines reporting 100% busy.
            availability = max(0.1, 1.0 - p["utilization"])
            return p["cpu_speed"] * availability / (1.0 + p.get("queued", 0))

        return max(ordered, key=lambda p: (score(p), p["name"]))
    if policy == "random":
        if rng is None:
            raise SchedulingFault(description="random policy needs an RNG")
        return ordered[int(rng.integers(0, len(ordered)))]
    if policy == "roundrobin":
        index = rr_state["next"] % len(ordered)
        rr_state["next"] += 1
        return ordered[index]
    raise SchedulingFault(
        description=f"unknown scheduling policy {policy!r}, not one of {SCHEDULING_POLICIES}"
    )


@WSRFPortType(
    GetResourcePropertyPortType,
    GetMultipleResourcePropertiesPortType,
    QueryResourcePropertiesPortType,
    ImmediateResourceTerminationPortType,
    NotificationConsumerPortType,
)
class SchedulerService(ServiceSkeleton):
    """WS-Resources are job sets."""

    SERVICE_NS = UVA

    DEPLOYMENT = {
        # -- wiring: assigned when the grid is assembled (Testbed._deploy) --
        "nis_epr": None,  # the Node Info service polled in step 2
        "broker_epr": None,  # where job-set events are published
        "subscribe_broker_epr": None,  # federation: the root broker
        "aggregator_epr": None,  # federation: the cross-zone catalog ...
        "federation": None,  # ... and the FederationConfig with its spill cap
        "fault_tolerance": None,  # a FaultToleranceConfig turns re-dispatch on
        "machine_certs": dict,  # {machine: certificate}
        "gt4_machines": set,  # machines that take a delegated credential
        "scheduling_policy": "best",
        "rng": None,  # the random policy's generator
        # -- per-boot working state --
        "_jobset_seq": 0,  # topic sequence (wsrf_recover re-derives it)
        "_rr_state": lambda: {"next": 0},  # the round-robin cursor
        # -- counters: obs/core.py exports the non-zero ones --
        "nis_polls_elided": 0,
        "recoveries_announced": 0,
        "jobsets_readopted": 0,
        "jobsets_stolen": 0,
        "cross_zone_dispatches": 0,
    }

    jobs = Resource(default=None)  # wire-form job specs
    status = Resource(default="Running")  # Running|Completed|Failed
    topic = Resource(default="")
    client_listener_epr = Resource(default=None)
    client_fs_epr = Resource(default=None)
    username = Resource(default="")
    password = Resource(default="")
    job_phase = Resource(default=None)  # {job: pending|dispatched|done|failed}
    job_machine = Resource(default=None)  # {job: machine name}
    job_dirs = Resource(default=None)  # {job: dir EPR} — the "filled in" outputs
    job_eprs = Resource(default=None)  # {job: job EPR}
    job_exit_codes = Resource(default=None)  # {job: int}
    delegated_cred = Resource(default=None)  # the client's signed X.509 header
    # -- fault-tolerance bookkeeping (unused unless FT is configured) --
    job_attempts = Resource(default=None)  # {job: dispatch count}
    job_excluded = Resource(default=None)  # {job: [machines not to reuse]}
    job_dispatched_at = Resource(default=None)  # {job: sim time of dispatch}

    # -- resource properties -----------------------------------------------------------

    @ResourceProperty
    @property
    def Status(self) -> str:
        return self.status

    @ResourceProperty
    @property
    def Topic(self) -> str:
        return self.topic

    @ResourceProperty
    @property
    def Progress(self) -> Dict:
        phases = self.job_phase or {}
        return {
            "total": len(phases),
            "done": sum(1 for p in phases.values() if p == "done"),
            "failed": sum(1 for p in phases.values() if p == "failed"),
            "dispatched": sum(1 for p in phases.values() if p == "dispatched"),
        }

    # -- operations -----------------------------------------------------------------------

    @WebMethod(requires_resource=False)
    def SubmitJobSet(
        self,
        jobs: List[Dict],
        listener_epr: Optional[EndpointReference] = None,
        fileserver_epr: Optional[EndpointReference] = None,
        origin: str = "",
    ) -> Dict:
        """Step 1: accept a job set; returns {"jobset": EPR, "topic": str}.

        *origin* (federation only) names the zone a stolen job set was
        first submitted to; this Scheduler adopts it as its own.
        """
        machine = self.machine
        wrapper = self.wsrf.wrapper
        spec = JobSetSpec.from_wire(jobs)
        spec.validate()
        credentials = self.wsrf.credentials()
        # GSI delegation: if the client's security header also carries a
        # signed X.509 token, keep it to authenticate dispatches to GT4
        # machines on the client's behalf (a proxy-credential stand-in).
        sec_header = self.wsrf.envelope.find_header(QName(NS.WSSE, "Security"))
        delegated = (
            sec_header.copy()
            if sec_header is not None and has_x509_token(sec_header)
            else None
        )
        tracing.record(machine, 1, "Scheduler", f"job set of {len(spec.jobs)} jobs")
        if origin:
            # Work stealing: a federated client re-routed this job set
            # here after zone *origin* stopped answering.
            wrapper.jobsets_stolen += 1
            tracing.record(
                machine, 12, "Scheduler",
                f"adopting job set of {len(spec.jobs)} jobs from zone {origin}",
            )

        wrapper._jobset_seq += 1
        topic = f"jobset-{wrapper._jobset_seq:04d}"

        rid = self.create_resource(
            jobs=jobs,
            status="Running",
            topic=topic,
            client_listener_epr=listener_epr,
            client_fs_epr=fileserver_epr,
            username=credentials.username,
            password=credentials.password,
            job_phase={job.name: "pending" for job in spec.jobs},
            job_machine={},
            job_dirs={},
            job_eprs={},
            job_exit_codes={},
            delegated_cred=delegated,
            job_attempts={},
            job_excluded={},
            job_dispatched_at={},
        )
        jobset_epr = self.epr_for(rid)

        if wrapper.fault_tolerance is not None:
            _start_watchdog(wrapper, rid, jobset_epr, wrapper.fault_tolerance)

        # "The SS then invokes the Subscribe() method on the Notification
        # Broker to subscribe both itself and the client's notification
        # listener to receive notifications about the new topic."
        # Federated zones subscribe at the *root* broker — zone brokers
        # uplink every publish there, so subscribers see events from any
        # zone a job may run in.
        broker_epr = wrapper.subscribe_broker_epr or wrapper.broker_epr
        if broker_epr is not None:
            yield from self.client.invoke(
                broker_epr,
                build_subscribe_body(jobset_epr, f"{topic}/**", FULL_DIALECT),
                category="subscribe",
            )
            if listener_epr is not None:
                yield from self.client.invoke(
                    broker_epr,
                    build_subscribe_body(listener_epr, f"{topic}/**", FULL_DIALECT),
                    category="subscribe",
                )

        # Kick the first scheduling pass via a one-way self-message so it
        # runs under the job set resource's lock with state loaded.
        yield from self.client.call(
            jobset_epr, UVA, "Activate", category="scheduler", one_way=True
        )
        return {"jobset": jobset_epr, "topic": topic}

    @WebMethod(one_way=True)
    def Activate(self):
        yield from self._schedule_ready_jobs()

    @WebMethod
    def CancelJobSet(self) -> str:
        """Kill all dispatched jobs and mark the set failed."""
        phases = self.job_phase or {}
        eprs = self.job_eprs or {}
        for name, phase in phases.items():
            if phase == "dispatched" and name in eprs:
                try:
                    yield from self.client.call(eprs[name], UVA, "Kill")
                except BaseFault:
                    pass
        self.job_phase = {
            name: "failed" if phase in ("pending", "dispatched") else phase
            for name, phase in phases.items()
        }
        self.status = "Failed"
        self._announce("cancelled")
        return "cancelled"

    # -- notification handling ----------------------------------------------------------------

    def on_notification(self, topic, payload, producer):
        """Job events from the broker (delivered to the job set's EPR)."""
        event = parse_job_event(payload)
        kind = event.get("kind")
        job_name = event.get("job_name")
        if not job_name or self.status != "Running":
            return
        if kind == "JobCreated":
            if self._is_stale(job_name, event):
                return
            if "job_epr" in event:
                self._record("job_eprs", job_name, event["job_epr"])
            if "dir_epr" in event:
                # "The Scheduler then makes sure that any further jobs that
                # reference the output of this job will use this EPR."
                self._record("job_dirs", job_name, event["dir_epr"])
            return
        if kind != "JobExited":
            return
        if self._is_stale(job_name, event):
            return
        if (self.job_phase or {}).get(job_name) in ("done", "failed"):
            # Duplicate terminal event (the watchdog may have synthesized
            # this completion already from a Status probe).
            return
        yield from self._job_exited(job_name, event.get("exit_code", -1))

    def _is_stale(self, job_name: str, event: Dict) -> bool:
        """True if *event* came from a superseded dispatch of *job_name*."""
        current = (self.job_eprs or {}).get(job_name)
        return (
            "job_epr" in event
            and current is not None
            and event["job_epr"] != current
        )

    def _record(self, table: str, job_name: str, value) -> None:
        """``self.<table>[job_name] = value`` for the ``{job: value}``
        Resource fields, whose default is None.  A new key goes last, a
        known one keeps its place (entries are encoded in insertion
        order).  The dict is replaced only so that one expression covers
        the None default: the wrapper's dirty check compares each field
        with the stored value, so a change made in place is saved too."""
        setattr(self, table, {**(getattr(self, table) or {}), job_name: value})

    def _fail(self, job_name: str, detail: str) -> None:
        """Mark the job failed, the set Failed, and announce it."""
        self._record("job_phase", job_name, "failed")
        self.status = "Failed"
        self._announce("failed", detail=detail)

    def _job_exited(self, job_name: str, code: int):
        self._record("job_exit_codes", job_name, code)
        if code == 0:
            self._record("job_phase", job_name, "done")
            if all(phase == "done" for phase in self.job_phase.values()):
                self.status = "Completed"
                self._announce("completed")
            else:
                # "When the Scheduler gets the message that a job has
                # completed, it schedules the next job that no longer has
                # any uncompleted dependencies."
                yield from self._schedule_ready_jobs()
        else:
            self._fail(job_name, f"{job_name} exited {code}")

    # -- internals ---------------------------------------------------------------------------

    def _schedule_ready_jobs(self):
        if "pending" not in (self.job_phase or {}).values():
            return  # nothing to place: leave the spec unread and unparsed
        spec = JobSetSpec.from_wire(self.jobs or [])
        name_map = spec.name_map()
        # With the performance layer on, one NIS GetProcessors catalog is
        # shared by every dispatch of this scheduling pass (the catalog
        # lags reality anyway; in-flight placements are folded in per
        # dispatch below, so placement decisions are unchanged).
        pass_cache: Dict[str, List[Dict]] = {}
        for job in spec.jobs:
            phases = self.job_phase or {}  # each dispatch replaces it
            if phases.get(job.name) != "pending":
                continue
            if any(
                phases.get(dep) != "done" for dep in job.dependencies(name_map)
            ):
                continue
            try:
                yield from self._dispatch_with_failover(job, name_map, pass_cache)
            except (SoapFault, DeliveryError) as fault:
                # A dispatch failure must not unwind the whole pass (the
                # already-recorded placements would be lost): mark the job
                # and the set failed, announce, and stop scheduling.
                self._fail(job.name, getattr(fault, "description", str(fault)))
                return

    def _dispatch_with_failover(self, job, name_map, pass_cache):
        """Dispatch *job*, failing over to other machines under FT.

        Transport failures (the target never answered Run, even after
        client-level retries) exclude the machine and try the next best
        one, up to ``_MAX_DISPATCH_ATTEMPTS``; without fault tolerance
        the budget is the one attempt, whose failure propagates.
        SchedulingFaults — no machines, missing credentials — are
        configuration problems and stay terminal.
        """
        budget = 1 if self.wsrf.wrapper.fault_tolerance is None else _MAX_DISPATCH_ATTEMPTS
        excluded = set((self.job_excluded or {}).get(job.name, ()))
        for attempt in range(1, budget + 1):
            self._last_target = None
            try:
                yield from self._dispatch(job, name_map, pass_cache, exclude=excluded)
                return
            except DeliveryError as fault:
                if attempt >= budget:
                    raise
                dead = self._last_target
                if dead is not None:
                    excluded.add(dead)
                    self._record("job_excluded", job.name, sorted(excluded))
                tracing.record(
                    self.machine, 11, "Scheduler",
                    f"dispatch of {job.name} to {dead or '?'} failed; failing over",
                )
                self._announce_recovery(job.name, dead or "?", str(fault))

    def _dispatch(self, job, name_map, pass_cache, exclude=()):
        wrapper = self.wsrf.wrapper
        machine = self.machine
        # Step 2: poll the NIS.
        tracing.record(machine, 2, "Scheduler", f"poll NIS for {job.name}")
        nis_epr = wrapper.nis_epr
        if nis_epr is None:
            raise SchedulingFault(description="scheduler has no Node Info service")
        batch_nis = wrapper.perf
        if batch_nis and "processors" in pass_cache:
            # Performance layer: reuse this pass's catalog instead of
            # polling once per job.  Each dispatch still gets private
            # dict copies (the queued-folding below mutates them).
            processors = [dict(p) for p in pass_cache["processors"]]
            wrapper.nis_polls_elided += 1
        else:
            processors = yield from self.client.call(
                nis_epr, SG, "GetProcessors", category="nis"
            )
            if batch_nis:
                pass_cache["processors"] = [dict(p) for p in processors]
        # The NIS catalog lags (utilization reports are periodic and
        # threshold-gated), but the Scheduler knows exactly which of this
        # job set's jobs are already in flight — fold those into
        # "most available" so back-to-back dispatches spread.
        in_flight: Dict[str, int] = {}
        phases = self.job_phase or {}
        for name, where in (self.job_machine or {}).items():
            if phases.get(name) == "dispatched":
                in_flight[where] = in_flight.get(where, 0) + 1
        if exclude:
            processors = [p for p in processors if p["name"] not in exclude]
        processors = [
            dict(p, queued=in_flight.get(p["name"], 0)) for p in processors
        ]
        aggregator_epr = wrapper.aggregator_epr
        if aggregator_epr is not None:
            cap = wrapper.federation.max_queued_per_machine
            if not processors or all(p["queued"] >= cap for p in processors):
                # The local zone is full (or exclusions emptied it):
                # consult the cross-zone aggregator catalog for capacity
                # anywhere in the federation.
                tracing.record(
                    machine, 12, "Scheduler",
                    f"zone {wrapper.zone} full; consulting "
                    f"aggregator for {job.name}",
                )
                catalog = yield from self.client.call(
                    aggregator_epr, SG, "GetAllProcessors", category="nis"
                )
                remote = [
                    dict(p, queued=in_flight.get(p["name"], 0))
                    for p in catalog
                    if p["name"] not in exclude
                ]
                if remote:
                    processors = remote
        if exclude and not processors:
            raise SchedulingFault(
                description=(
                    f"no processors left for {job.name!r} after excluding "
                    f"{sorted(exclude)}"
                )
            )
        chosen = choose_machine(
            processors, wrapper.scheduling_policy, rng=wrapper.rng,
            rr_state=wrapper._rr_state,
        )
        target = chosen["name"]
        zone = wrapper.zone
        if zone is not None and chosen.get("zone", zone) != zone:
            wrapper.cross_zone_dispatches += 1
            tracing.record(
                machine, 12, "Scheduler",
                f"{job.name} dispatched cross-zone to "
                f"{chosen['zone']}:{target}",
            )

        files = [self._resolve(job.executable, job.name, name_map)]
        for ref in job.inputs:
            files.append(self._resolve(ref, job.name, name_map))

        if target in wrapper.gt4_machines:
            # GT4 node: forward the client's delegated X.509 credential.
            if self.delegated_cred is None:
                raise SchedulingFault(
                    description=(
                        f"machine {target!r} requires a grid credential but the "
                        "client delegated none at submission"
                    )
                )
            header = self.delegated_cred.copy()
        else:
            certs = wrapper.machine_certs
            if target not in certs:
                raise SchedulingFault(
                    description=f"no certificate known for machine {target!r}"
                )
            header = build_security_header(
                UsernameToken(self.username, self.password), certs[target]
            )
        es_epr = EndpointReference(f"http://{target}:80/ExecService")
        tracing.record(machine, 3, "Scheduler", f"{job.name} -> {target}")
        self._last_target = target
        result = yield from self.client.call(
            es_epr,
            UVA,
            "Run",
            {
                "job_name": job.name,
                "executable": job.executable.jobname,
                "files": files,
                "topic": self.topic,
                "args": job.args,
            },
            extra_headers=[header],
            category="dispatch",
        )
        self._record("job_phase", job.name, "dispatched")
        self._record("job_machine", job.name, target)
        self._record("job_eprs", job.name, result["job"])
        self._record("job_dirs", job.name, result["dir"])
        self._record(
            "job_attempts", job.name, (self.job_attempts or {}).get(job.name, 0) + 1
        )
        self._record("job_dispatched_at", job.name, self.env.now)

    # -- fault tolerance (watchdog-driven re-dispatch) --------------------------------

    @WebMethod(one_way=True)
    def Watchdog(self):
        """One periodic FT sweep over this job set (self-sent one-way).

        For every dispatched job, probe its Status resource property at
        the Execution Service:

        * unreachable (transport fault after client retries) or resource
          unknown → re-dispatch elsewhere;
        * terminal status whose JobExited notification never arrived →
          fetch GetExitCode and synthesize the completion;
        * stuck in Created/StagingFiles past ``stuck_after`` (a lost
          one-way Upload/UploadComplete) → re-dispatch.

        Ends with a scheduling pass, which also self-heals a lost
        Activate self-message.
        """
        ft = self.wsrf.wrapper.fault_tolerance
        if ft is None or self.status != "Running":
            return
        # The tables as the sweep found them: recoveries and completions
        # below replace the fields, never these dicts.
        eprs = self.job_eprs or {}
        stamped = self.job_dispatched_at or {}
        for name, phase in (self.job_phase or {}).items():
            if self.status != "Running":
                return  # a recovery exhausted its budget mid-sweep
            if phase != "dispatched" or name not in eprs:
                continue
            try:
                status = yield from self.client.get_resource_property(
                    eprs[name], QName(UVA, "Status"), category="watchdog"
                )
            except DeliveryError as fault:
                self._recover(name, f"Execution Service unreachable: {fault}")
                continue
            except SoapFault:
                # e.g. ResourceUnknownFault: the ES restarted and forgot
                # the job; treat like an unreachable endpoint.
                self._recover(name, "job resource lost at the Execution Service")
                continue
            if status in ("Exited", "Killed", "Failed"):
                try:
                    code = yield from self.client.call(
                        eprs[name], UVA, "GetExitCode", category="watchdog"
                    )
                except (SoapFault, DeliveryError):
                    continue  # try again next sweep
                yield from self._job_exited(
                    name, code if code is not None else -1
                )
            elif status in ("Created", "StagingFiles"):
                since = stamped.get(name)
                if since is not None and self.env.now - since >= ft.stuck_after:
                    self._recover(
                        name,
                        f"staging stalled for {self.env.now - since:.1f}s",
                        exclude_machine=False,
                    )
        if self.status == "Running":
            yield from self._schedule_ready_jobs()

    def _recover(self, job_name: str, reason: str, exclude_machine: bool = True):
        """Re-queue *job_name* after its dispatch was lost (§watchdog)."""
        done = (self.job_attempts or {}).get(job_name, 1)
        from_machine = (self.job_machine or {}).get(job_name, "?")
        if done - 1 >= _MAX_REDISPATCHES:
            self._fail(job_name, f"{job_name}: recovery budget exhausted ({reason})")
            return
        if exclude_machine and from_machine != "?":
            names = (self.job_excluded or {}).get(job_name, [])
            if from_machine not in names:
                self._record("job_excluded", job_name, [*names, from_machine])
        self._record("job_phase", job_name, "pending")
        tracing.record(
            self.machine, 11, "Scheduler",
            f"recover {job_name} from {from_machine}: {reason}",
        )
        self._announce_recovery(job_name, from_machine, reason)

    def _announce_recovery(self, job_name: str, from_machine: str, reason: str):
        """Broadcast a JobRecovery event carrying a typed WS-BaseFault."""
        self.wsrf.wrapper.recoveries_announced += 1
        payload = Element(QName(UVA, "JobRecovery"))
        payload.set("job", job_name)
        payload.set("from", from_machine)
        fault = EndpointUnreachableFault(
            description=reason, timestamp=self.env.now
        )
        payload.append(fault.to_detail_element())
        self._broadcast("recovery", payload)

    def _resolve(self, ref: FileRef, job_name: str, name_map) -> Dict:
        """Turn a FileRef into the paper's {EPR, filename, jobname} tuple."""
        uri = Uri.parse(ref.source_url)
        if uri.scheme == "local":
            if self.client_fs_epr is None:
                raise SchedulingFault(
                    description=(
                        f"job {job_name!r} needs {ref.source_url!r} but the "
                        "client provided no file server"
                    )
                )
            return {
                "source_epr": self.client_fs_epr,
                "filename": uri.path,
                "jobname": ref.jobname,
            }
        dep = ref.depends_on(name_map)
        if dep is not None:
            dirs = self.job_dirs or {}
            if dep not in dirs:
                raise SchedulingFault(
                    description=(
                        f"job {job_name!r} needs output of {dep!r} but its "
                        "location is not known yet"
                    )
                )
            return {
                "source_epr": dirs[dep],
                "filename": uri.path,
                "jobname": ref.jobname,
            }
        raise SchedulingFault(
            description=f"unsupported input URI scheme {uri.scheme!r}"
        )

    def _announce(self, outcome: str, detail: str = "") -> None:
        """Broadcast the job set's terminal status on its topic."""
        payload = Element(QName(UVA, "JobSetStatus"), text=outcome)
        if detail:
            payload.set("detail", detail)
        self._broadcast(outcome, payload)

    def _broadcast(self, subtopic: str, payload: Element) -> None:
        """One Notify to the broker on ``<job set topic>/<subtopic>``."""
        wrapper = self.wsrf.wrapper
        if wrapper.broker_epr is None:
            return
        body = build_notify_body(
            f"{self.topic}/{subtopic}", payload, wrapper.service_epr()
        )
        # Write-ahead contract (WAL001): the status or the recovery
        # bookkeeping the event describes must be on disk before the
        # fabric hears about it.
        self.wsrf.send_after_persist(wrapper.broker_epr, body)

    # -- crash recovery ------------------------------------------------------------------

    @classmethod
    def wsrf_recover(cls, wrapper) -> None:
        """Re-adopt in-flight job sets after the scheduler host bounced.

        Everything needed to resume is in the store: for each job set
        still ``Running`` at the checkpoint, restart its watchdog (the
        old boot's detached processes are gone) and nudge a scheduling
        pass via the usual one-way Activate self-message, which runs
        under the resource lock and re-dispatches anything pending.
        Jobs the dead boot had dispatched stay dispatched — the watchdog
        probes them and synthesizes or re-dispatches as usual, so no
        completed work is redone just because the coordinator blinked.
        """
        seq = wrapper._jobset_seq
        ft = wrapper.fault_tolerance
        for rid in wrapper.resource_ids():
            jobset = wrapper.load_resource(rid)
            # The topic sequence is derived state: recover the high-water
            # mark so post-restart submissions get fresh topics.
            if jobset.topic.startswith("jobset-"):
                try:
                    seq = max(seq, int(jobset.topic[len("jobset-"):]))
                except ValueError:
                    pass
            if jobset.status != "Running":
                continue
            wrapper.jobsets_readopted += 1
            jobset_epr = wrapper.epr_for(rid)
            if ft is not None:
                _start_watchdog(wrapper, rid, jobset_epr, ft)
            _nudge_scheduling_pass(wrapper, jobset_epr)
        wrapper._jobset_seq = seq


def _nudge_scheduling_pass(wrapper, jobset_epr):
    """Detached one-way Activate: kick a re-adopted job set's scheduling."""

    def nudge(env):
        try:
            yield from wrapper.client.call(
                jobset_epr, UVA, "Activate", category="scheduler", one_way=True
            )
        except DeliveryError:
            pass  # the watchdog self-heals a lost nudge

    return wrapper.env.process(nudge(wrapper.env))


def _start_watchdog(wrapper, rid: str, jobset_epr, ft: FaultToleranceConfig):
    """Detached per-job-set process driving periodic Watchdog sweeps.

    It peeks the stored job set state between sleeps and stops once the
    set leaves Running (or is destroyed); each tick is a one-way
    self-message so the sweep itself runs through the normal dispatch
    pipeline, under the resource lock with state loaded (the Activate
    pattern).  The loopback link is exempt from fault injection, so the
    watchdog keeps ticking no matter how lossy the wide network is.
    """
    env = wrapper.env
    host = wrapper.machine.host
    epoch = host.boot_epoch

    def loop(env):
        while True:
            yield env.timeout(ft.watchdog_period)
            if host.boot_epoch != epoch:
                # This watchdog belongs to a dead boot; wsrf_recover
                # started a replacement, so exit instead of double-probing.
                return
            try:
                status = wrapper.load_resource(rid).status
            except NoSuchResource:
                return  # job set destroyed
            if status != "Running":
                return
            try:
                yield from wrapper.client.call(
                    jobset_epr, UVA, "Watchdog",
                    category="watchdog", one_way=True,
                )
            except DeliveryError:
                return  # scheduler host itself went down

    # Every failure path inside loop() is absorbed, so the detached
    # process can never re-raise at the end of the run.
    return env.process(loop(env))
