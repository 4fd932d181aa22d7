"""The six ledger workloads (README.md says why each exists).

Every workload is a closed loop built from its seed alone: constructing
one assembles the simulated grid, the clients and the job specs (timed
as set-up), :meth:`Workload.run` goes from the first submission to
``settle()`` (timed as the run), and :meth:`Workload.check` — untimed —
fetches every result back through the client and counts what is wrong.
The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.gridapp import (
    FaultToleranceConfig,
    FederationConfig,
    FileRef,
    JobSpec,
    PerfConfig,
    Testbed,
)
from repro.net import DeliveryError, Network, RetryPolicy
from repro.osim import Machine
from repro.osim.filesystem import FileContent
from repro.osim.programs import make_compute_program
from repro.sim import Environment
from repro.soap import SoapFault
from repro.wsrf import (
    GetResourcePropertyPortType,
    Resource,
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
    WsrfClient,
    deploy,
)
from repro.xmlx import NS, QName

UVA = NS.UVACG

#: ``smoke`` sizes keep the self-tests and a quick local look under a
#: few seconds; ``full`` is what the ledger records.  The shapes are
#: ISSUE 11's, but for ``grid_fan_perf``: a 160-job fan, cut from 256
#: jobs (10.9 s) to stay under the 10 s a single run may take.
SIZES = {
    "full": {
        "fig3_cold": {"testbeds": 20},
        "grid_fan": {"machines": 32, "jobs": 64},
        "grid_fan_perf": {"machines": 128, "jobs": 160},
        "rp_calls": {"resources": 32, "clients": 4, "calls_per_client": 3000},
        "staging_chain": {"machines": 4, "jobs": 32, "payload_bytes": 2_000_000},
        "fed_bounce": {"machines": 16, "zones": 4, "clients": 4,
                       "jobsets_per_client": 2, "jobs": 8},
    },
    "smoke": {
        "fig3_cold": {"testbeds": 2},
        "grid_fan": {"machines": 8, "jobs": 8},
        "grid_fan_perf": {"machines": 8, "jobs": 16},
        "rp_calls": {"resources": 4, "clients": 2, "calls_per_client": 40},
        "staging_chain": {"machines": 2, "jobs": 3, "payload_bytes": 20_000},
        "fed_bounce": {"machines": 8, "zones": 4, "clients": 2,
                       "jobsets_per_client": 1, "jobs": 4},
    },
}

#: the bench_restart.py policies: a retry budget that outlasts a bounce
_RESTART_RETRY = RetryPolicy(
    max_attempts=8, base_delay_s=0.5, backoff_factor=2.0,
    max_delay_s=3.0, timeout_s=30.0,
)
_BOUNCES = (("node01", 8.0), ("uvacg-z01", 40.0))
_DOWN_FOR = 5.0

_RID = QName(UVA, "ResourceID")
_JOB_DIRS = QName(UVA, "job_dirs")
_JOB_EXIT_CODES = QName(UVA, "job_exit_codes")


@dataclass
class Outcome:
    """What one run produced, as checked from outside."""

    attempted: int
    failed: int
    sim_makespan_s: float
    sim_messages: int
    sim_bytes: int
    #: workload-specific exact quantities (simulated call latencies)
    extra: Dict[str, float] = field(default_factory=dict)
    #: one line per failed check, for the operator
    problems: List[str] = field(default_factory=list)


class Workload:
    """Base: subclasses assemble in ``__init__``, then run, then check."""

    name = ""
    #: what ``work_per_s`` counts
    unit = "jobs"

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.params = SIZES[size][self.name]
        self.rng = np.random.default_rng(seed)

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> Outcome:
        raise NotImplementedError

    def networks(self) -> List[Network]:
        """Every simulated fabric of this run (for the net counters)."""
        raise NotImplementedError

    def wrappers(self) -> list:
        """Every deployed WSRF wrapper (for the cache counters)."""
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """Fingerprint of the generated inputs (seed → inputs tests)."""
        raise NotImplementedError


# -- job-set workloads -------------------------------------------------------------


def _testbed_wrappers(tb: Testbed) -> list:
    out = [tb.scheduler, tb.broker, tb.node_info]
    for zone in tb.zones[1:]:
        out += [zone.scheduler, zone.broker, zone.node_info]
    if tb.zones:
        out += [tb.root_broker, tb.aggregator]
    return out + list(tb.fss.values()) + list(tb.es.values())


@dataclass
class _JobSet:
    """One job set to submit, and what its outputs must be."""

    client: object
    spec: object
    expected: Dict[str, bytes]
    outcome: str = "not-run"
    jobset_epr: object = None


def _fan(tb, client, prefix, times, payloads, chain=False, companion=None) -> _JobSet:
    """A job set of one program per job, so every job has its own
    compute time and output; ``chain`` makes job *i* stage job *i-1*'s
    outputs, ``companion`` adds a synthetic bulk file to each output."""
    spec = client.new_job_set()
    expected = {}
    staged = ["out.dat"] + (["bulk.dat"] if companion else [])
    for i, (seconds, payload) in enumerate(zip(times, payloads)):
        name = f"{prefix}{i:03d}"
        outputs = {"out.dat": payload}
        if companion:
            outputs["bulk.dat"] = FileContent.synthetic(companion)
        program = tb.programs.register(
            make_compute_program(name, float(seconds), outputs=outputs)
        )
        exe = client.add_program_binary(program)
        inputs = []
        if chain and i:
            inputs = [FileRef(f"{prefix}{i-1:03d}://{f}", f"prev-{f}") for f in staged]
        spec.add(JobSpec(name=name, executable=FileRef(exe, "job.exe"),
                         inputs=inputs, outputs=staged if chain else []))
        expected[name] = payload
    return _JobSet(client, spec, expected)


def _scheduler_of(tb: Testbed, jobset_epr):
    for zone in tb.zones:
        if zone.scheduler.address == jobset_epr.address:
            return zone.scheduler
    return tb.scheduler


def _check_jobset(tb: Testbed, js: _JobSet, problems: List[str]) -> int:
    """Failed jobs of one set: not completed, exit != 0, wrong bytes."""
    if js.outcome != "completed":
        problems.append(f"job set ended {js.outcome!r}")
        return len(js.expected)
    scheduler = _scheduler_of(tb, js.jobset_epr)
    state = scheduler.store.load("Scheduler", js.jobset_epr.get(_RID))
    dirs = state[_JOB_DIRS] or {}
    codes = state[_JOB_EXIT_CODES] or {}
    failed = 0
    for name, payload in js.expected.items():
        if codes.get(name) != 0 or name not in dirs:
            problems.append(f"{name}: exit code {codes.get(name)!r}")
            failed += 1
            continue
        try:
            got = tb.run(js.client.fetch_output(dirs[name], "out.dat")).to_bytes()
        except (SoapFault, DeliveryError) as exc:
            problems.append(f"{name}: fetch failed: {exc}")
            failed += 1
            continue
        if got != payload:
            problems.append(f"{name}: output differs from what the job wrote")
            failed += 1
    return failed


class _JobSetWorkload(Workload):
    """One testbed, one or more job sets, listener-monitored."""

    perf = None

    def _testbed(self, n_machines: int, **kwargs) -> Testbed:
        return Testbed(n_machines=n_machines, seed=self.seed,
                       machine_speeds=[1.0] * n_machines, perf=self.perf, **kwargs)

    def _inputs(self, n_jobs: int, payload_bytes: int = 256):
        """Seeded per-job compute times (uniform 20-40 simulated s) and
        output bytes."""
        times = self.rng.uniform(20.0, 40.0, n_jobs)
        payloads = [self.rng.bytes(payload_bytes) for _ in range(n_jobs)]
        self._digest_parts = [times.tobytes(), *payloads]
        return times, payloads

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for part in self._digest_parts:
            h.update(part)
        return h.hexdigest()

    #: subclasses fill this: [(testbed, [job sets, in submission order])]
    sites: list

    def _submit(self, tb: Testbed, jobsets: List[_JobSet]) -> None:
        """Simulate one testbed's job sets to completion."""
        for js in jobsets:
            js.outcome, js.jobset_epr, _ = tb.run_job_set(js.client, js.spec)

    def run(self) -> None:
        self.sim = []
        for tb, jobsets in self.sites:
            start = tb.env.now
            self._submit(tb, jobsets)
            makespan = tb.env.now - start
            tb.settle()
            self.sim.append(
                (makespan, tb.network.stats.messages, tb.network.stats.bytes)
            )

    def check(self) -> Outcome:
        problems: List[str] = []
        failed = sum(
            _check_jobset(tb, js, problems)
            for tb, jobsets in self.sites for js in jobsets
        )
        attempted = sum(len(js.expected) for _, jobsets in self.sites for js in jobsets)
        # Testbeds of one run are built from the same inputs: they must
        # agree on the simulated result, which is then reported once.
        if len(set(self.sim)) != 1:
            problems.append(f"testbeds of one run disagree: {sorted(set(self.sim))}")
            failed = max(failed, 1)
        makespan, messages, nbytes = self.sim[0]
        return Outcome(attempted, failed, makespan, messages, nbytes, problems=problems)

    def networks(self):
        return [tb.network for tb, _ in self.sites]

    def wrappers(self):
        return [w for tb, _ in self.sites for w in _testbed_wrappers(tb)]


class Fig3Cold(_JobSetWorkload):
    """The paper's Fig. 3 job set on fresh testbeds, caches cold."""

    name = "fig3_cold"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        payload = self.rng.bytes(256)
        self._digest_parts = [payload]
        self.sites = []
        for _ in range(self.params["testbeds"]):
            tb = self._testbed(4)
            program = tb.programs.register(
                make_compute_program("work", 30.0, outputs={"out.dat": payload})
            )
            client = tb.make_client()
            spec = client.new_job_set()
            exe = client.add_program_binary(program)
            for i in range(8):
                spec.add(JobSpec(name=f"job{i}", executable=FileRef(exe, "job.exe")))
            expected = {f"job{i}": payload for i in range(8)}
            self.sites.append((tb, [_JobSet(client, spec, expected)]))


class GridFan(_JobSetWorkload):
    """One wide fan of independent jobs; default pipeline, parse-bound."""

    name = "grid_fan"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        tb = self._testbed(self.params["machines"])
        times, payloads = self._inputs(self.params["jobs"])
        self.sites = [(tb, [_fan(tb, tb.make_client(), "fan", times, payloads)])]


class GridFanPerf(GridFan):
    """A wider fan (128 machines, 160 jobs) with the perf layer on."""

    name = "grid_fan_perf"
    perf = PerfConfig()


class StagingChain(_JobSetWorkload):
    """A dependency chain moving megabytes from job to job."""

    name = "staging_chain"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        tb = self._testbed(self.params["machines"])
        n, nbytes = self.params["jobs"], self.params["payload_bytes"]
        # One seeded block, rotated per job: distinct outputs without
        # holding jobs x payload_bytes of random data.
        times, heads = self._inputs(n, payload_bytes=64)
        block = self.rng.bytes(nbytes - 64)
        self._digest_parts.append(block)
        payloads = [head + block for head in heads]
        self.sites = [(tb, [_fan(tb, tb.make_client(), "link", times, payloads,
                                 chain=True, companion=4 * nbytes)])]


class FedBounce(_JobSetWorkload):
    """Federated polling clients while a node and a zone head bounce."""

    name = "fed_bounce"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        p = self.params
        tb = self._testbed(
            p["machines"],
            federation=FederationConfig(n_zones=p["zones"]),
            retry_policy=_RESTART_RETRY,
            fault_tolerance=FaultToleranceConfig(watchdog_period=5.0, stuck_after=20.0),
            broker_redelivery=_RESTART_RETRY,
        )
        per_client = p["jobsets_per_client"] * p["jobs"]
        times, payloads = self._inputs(p["clients"] * per_client)
        #: each client's own job sets, which it runs one after the other
        self.by_client = []
        for c in range(p["clients"]):
            fed = tb.make_federated_client()
            mine = []
            for s in range(p["jobsets_per_client"]):
                k = c * per_client + s * p["jobs"]
                mine.append(_fan(tb, fed, f"c{c}s{s}j", times[k:k + p["jobs"]],
                                 payloads[k:k + p["jobs"]]))
            self.by_client.append((fed, mine))
        self.sites = [(tb, [js for _, mine in self.by_client for js in mine])]
        for host, at in _BOUNCES:
            tb.restart_host(host, at=at, down_for=_DOWN_FOR)

    def _submit(self, tb, jobsets) -> None:
        env = tb.env

        def loop(fed, mine):
            for js in mine:
                js.outcome, js.jobset_epr, _ = yield from fed.run_job_set_polled(
                    js.spec, period=3.0, give_up_after=2000.0
                )

        procs = [env.process(loop(fed, mine)) for fed, mine in self.by_client]
        env.run(until=env.all_of(procs))


# -- Fig. 1 at volume -----------------------------------------------------------------


@WSRFPortType(GetResourcePropertyPortType)
class CounterService(ServiceSkeleton):
    """The smallest stateful service: one integer per WS-Resource."""

    value = Resource(default=0)

    @ResourceProperty
    @property
    def Value(self) -> int:
        return self.value

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource(value=0))

    @WebMethod
    def Increment(self) -> int:
        self.value = self.value + 1
        return self.value


_VALUE = QName(UVA, "Value")


class RpCalls(Workload):
    """Many small calls on one service: 3 GetResourceProperty : 1 Increment."""

    name = "rp_calls"
    unit = "calls"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        p = self.params
        self.env = Environment()
        self.net = Network(self.env)
        machine = Machine(self.net, "server")
        self.wrapper = deploy(CounterService, machine, "Counter")
        self.clients = []
        for c in range(p["clients"]):
            self.net.add_host(f"client{c:02d}")
            self.clients.append(WsrfClient(self.net, f"client{c:02d}"))
        self.eprs = [
            self._drive(self.clients[0].call(self.wrapper.service_epr(), UVA, "Create"))
            for _ in range(p["resources"])
        ]
        # Exactly 3 reads per write per client, in seeded order on
        # seeded resources: the same work at every seed.
        n = p["calls_per_client"]
        writes = np.arange(n) % 4 == 0
        self.plans = []
        for _ in self.clients:
            order = self.rng.permutation(n)
            resources = self.rng.integers(0, p["resources"], n)
            self.plans.append(list(zip(resources.tolist(), writes[order].tolist())))

    def _drive(self, coroutine):
        proc = self.env.process(coroutine)
        self.env.run(until=proc)
        return proc.value

    def inputs_digest(self) -> str:
        return hashlib.sha256(repr(self.plans).encode()).hexdigest()

    def run(self) -> None:
        env = self.env
        n_res = len(self.eprs)
        self.issued = [0] * n_res
        acked = [0] * n_res
        self.increments = [[] for _ in range(n_res)]
        self.latencies: List[float] = []
        self.bad_calls = 0
        eprs, issued, increments, latencies = (
            self.eprs, self.issued, self.increments, self.latencies
        )

        def loop(client, plan):
            for r, write in plan:
                sent = env.now
                try:
                    if write:
                        issued[r] += 1
                        got = yield from client.call(eprs[r], UVA, "Increment")
                        acked[r] += 1
                        increments[r].append(got)
                    else:
                        floor = acked[r]
                        got = yield from client.get_resource_property(eprs[r], _VALUE)
                        if not floor <= got <= issued[r]:
                            self.bad_calls += 1
                except (SoapFault, DeliveryError):
                    self.bad_calls += 1
                latencies.append(env.now - sent)

        start = env.now
        procs = [env.process(loop(c, plan)) for c, plan in zip(self.clients, self.plans)]
        env.run(until=env.all_of(procs))
        self.makespan = env.now - start
        self.messages = self.net.stats.messages
        self.bytes = self.net.stats.bytes

    def check(self) -> Outcome:
        problems: List[str] = []
        failed = self.bad_calls
        if failed:
            problems.append(f"{failed} calls faulted or read an impossible value")
        for r, epr in enumerate(self.eprs):
            # Per-resource serialization: the increments returned 1..n
            # once each, and the counter ends where they left it.
            wrong = len(set(range(1, self.issued[r] + 1)) ^ set(self.increments[r]))
            final = self._drive(self.clients[0].get_resource_property(epr, _VALUE))
            if wrong or final != self.issued[r]:
                problems.append(
                    f"resource {r}: {self.issued[r]} increments issued, "
                    f"counter reads {final}, {wrong} return values off"
                )
                failed += max(wrong, 1)
        attempted = sum(len(plan) for plan in self.plans)
        ordered = sorted(self.latencies)
        extra = {
            "wsrf.call.sim_p50_s": ordered[len(ordered) // 2],
            "wsrf.call.sim_p99_s": ordered[(len(ordered) * 99) // 100],
        }
        return Outcome(attempted, min(failed, attempted), self.makespan,
                       self.messages, self.bytes, extra=extra, problems=problems)

    def networks(self):
        return [self.net]

    def wrappers(self):
        return [self.wrapper]


WORKLOADS = {
    cls.name: cls
    for cls in (Fig3Cold, GridFan, GridFanPerf, RpCalls, StagingChain, FedBounce)
}
