"""What a deployment carries is declared, not probed (ISSUE 19).

``ServiceSkeleton.DEPLOYMENT`` names the wrapper attributes a service's
deployment holds beside its WS-Resources; the wrapper sets them at
deploy time, so every reader — the Scheduler above all — reads
``wrapper.<name>`` without a default of its own.  Also here: the one
dispatch loop under both of its budgets, the counters the obs export
leaves out while they are 0, and the hostile one-way messages that used
to stop the simulation.
"""

import json

import pytest

from repro.gridapp import FaultToleranceConfig, FileRef, JobSpec
from repro.gridapp import scheduler as scheduler_module
from repro.gridapp.aggregator import AggregatorCatalogService
from repro.gridapp.client import GridClient
from repro.gridapp.execution_service import ExecutionService
from repro.gridapp.node_info import NodeInfoService
from repro.gridapp.scheduler import SchedulerService
from repro.gt4 import Gt4ExecutionService, LinuxMachine
from repro.net import Network
from repro.obs.core import _LAZY_COUNTERS
from repro.osim import Machine, MachineParams
from repro.osim.programs import make_compute_program
from repro.sim import Environment
from repro.soap import SoapEnvelope, SoapFault
from repro.wsn import DemandPublisherPortType, NotificationBrokerService
from repro.wsn.base_notification import NotificationProducer
from repro.wsrf import ServiceSkeleton, WSRFPortType, deploy
from repro.wssec import CertificateAuthority
from repro.wssec.x509 import enroll
from repro.xmlx import NS, QName

from tests.equivalence import SCENARIOS, run_scenario
from tests.helpers import fan_spec, fig3_testbed

UVA = NS.UVACG

DECLARING = [
    SchedulerService, NodeInfoService, AggregatorCatalogService,
    ExecutionService, Gt4ExecutionService,
]


def _initial(value):
    return value() if callable(value) else value


def _deploy_alone(service_cls, name="host-a"):
    machine_cls = LinuxMachine if service_cls is Gt4ExecutionService else Machine
    machine = machine_cls(Network(Environment()), name)
    return deploy(service_cls, machine, "Svc")


# -- (a) the declaration is what a fresh wrapper holds ------------------------------


class TestDeclaredState:
    def test_how_much_each_service_declares(self):
        assert [len(cls.DEPLOYMENT) for cls in DECLARING] == [17, 2, 4, 1, 1]
        assert Gt4ExecutionService.DEPLOYMENT is ExecutionService.DEPLOYMENT

    @pytest.mark.parametrize("service_cls", DECLARING, ids=lambda c: c.__name__)
    def test_fresh_wrapper_holds_every_declared_initial_value(self, service_cls):
        wrapper = _deploy_alone(service_cls)
        for name, value in service_cls.DEPLOYMENT.items():
            assert getattr(wrapper, name) == _initial(value), name
        # ... beside the three every wrapper has
        assert wrapper.notification_producer is None
        assert wrapper.zone is None and wrapper.restarts == 0

    @pytest.mark.parametrize("service_cls", DECLARING, ids=lambda c: c.__name__)
    def test_two_deployments_share_no_mutable_value(self, service_cls):
        one, other = _deploy_alone(service_cls), _deploy_alone(service_cls, "host-b")
        for name, value in service_cls.DEPLOYMENT.items():
            if isinstance(_initial(value), (dict, set, list)):
                assert getattr(one, name) is not getattr(other, name), name

    def test_every_lazy_counter_is_declared_by_someone(self):
        declared = {"restarts"}.union(*(cls.DEPLOYMENT for cls in DECLARING))
        assert {attribute for _, attribute in _LAZY_COUNTERS} <= declared


    def test_what_imported_port_types_bring_is_there_at_deploy(self):
        """``SpecPortType.deployment``: a broker holds its producer, its
        publisher list and no demand manager yet; a demand publisher its
        paused roots; two port types that name the producer share one."""
        broker = _deploy_alone(NotificationBrokerService)
        producer = broker.notification_producer
        assert isinstance(producer, NotificationProducer)
        assert broker.on_resource_destroyed == [producer._forget]
        assert broker.registered_publishers == [] and broker.demand_manager is None

        @WSRFPortType(DemandPublisherPortType)
        class Sensor(ServiceSkeleton):
            pass

        sensor = _deploy_alone(Sensor)
        assert sensor.publishing_paused == set() and sensor.notification_producer is None
        assert _deploy_alone(Sensor, "host-b").publishing_paused is not sensor.publishing_paused


# -- (b) a Scheduler nobody wired fails the job set, typed ---------------------------


def test_unwired_scheduler_fails_the_job_set_with_a_scheduling_fault(monkeypatch):
    env = Environment()
    network = Network(env)
    machine = Machine(network, "lonely", params=MachineParams())
    machine.keys, machine.cert = enroll(CertificateAuthority(), machine.name)
    wrapper = deploy(SchedulerService, machine, "Scheduler")
    announced = []
    monkeypatch.setattr(
        SchedulerService, "_announce",
        lambda self, outcome, detail="": announced.append((outcome, detail)),
    )
    client = GridClient(
        network, "client01", "griduser", "pw",
        scheduler_epr=wrapper.service_epr(), scheduler_cert=machine.cert,
    )
    spec = client.new_job_set()
    exe = client.add_program_binary(make_compute_program("work", 1.0))
    spec.add(JobSpec(name="j1", executable=FileRef(exe, "job.exe")))
    submit = env.process(client.submit(spec))
    env.run(until=submit)
    jobset_epr, _ = submit.value
    env.run(until=env.now + 5.0)  # the one-way Activate lands and runs
    state = wrapper.store.load("Scheduler", jobset_epr.get(QName(UVA, "ResourceID")))
    assert state[QName(UVA, "status")] == "Failed"
    assert state[QName(UVA, "job_phase")] == {"j1": "failed"}
    assert announced == [("failed", "scheduler has no Node Info service")]
    # handled inside the method: not even a fault left the service
    assert wrapper.faults_returned == 0 and wrapper._jobset_seq == 1


# -- (c) one dispatch loop, two budgets ----------------------------------------------


class _InsertionOrderedSet(dict):
    """``set`` as far as the failover loop uses it, iterating in insertion
    order: Python's own set order of two names is right half the time by
    luck, this one is wrong whenever the machines died out of name order."""

    def __init__(self, items=()):
        super().__init__(dict.fromkeys(items))

    def add(self, item):
        self[item] = None


class TestOneDispatchLoop:
    def _run_with_every_node_down(self, monkeypatch, fault_tolerance):
        monkeypatch.setattr(scheduler_module, "set", _InsertionOrderedSet, raising=False)
        # best-first order of attempts: node03, node01, node02, node00
        tb = fig3_testbed(
            1.0, {}, machine_speeds=[1.0, 3.0, 2.0, 4.0],
            start_utilization_services=False, fault_tolerance=fault_tolerance,
        )
        for machine in tb.machines:
            machine.host.down = True
        client = tb.make_client()
        outcome, jobset_epr, _ = tb.run_job_set(client, fan_spec(client, tb, 1))
        tb.settle(1.0)
        state = tb.scheduler.store.load(
            "Scheduler", jobset_epr.get(QName(UVA, "ResourceID"))
        )
        assert outcome == "failed"
        assert state[QName(UVA, "status")] == "Failed"
        assert state[QName(UVA, "job_phase")] == {"job0": "failed"}
        # nothing was placed: the tables _dispatch writes last stay empty
        assert state[QName(UVA, "job_machine")] == {}
        assert state[QName(UVA, "job_attempts")] == {}
        attempts = [e.detail for e in tb.trace.events_for_step(3)]
        return tb, state, attempts

    def test_ft_off_is_a_budget_of_one(self, monkeypatch):
        tb, state, attempts = self._run_with_every_node_down(monkeypatch, None)
        assert attempts == ["job0 -> node03"]
        assert state[QName(UVA, "job_excluded")] == {}
        assert tb.scheduler.recoveries_announced == 0
        assert tb.trace.events_for_step(11) == []

    def test_ft_on_tries_three_machines_and_excludes_two(self, monkeypatch):
        ft = FaultToleranceConfig(watchdog_period=5.0, stuck_after=20.0)
        tb, state, attempts = self._run_with_every_node_down(monkeypatch, ft)
        assert attempts == ["job0 -> node03", "job0 -> node01", "job0 -> node02"]
        # sorted, not in the order they died; the third is not recorded
        # (the budget is spent, the job failed instead)
        assert state[QName(UVA, "job_excluded")] == {"job0": ["node01", "node03"]}
        assert tb.scheduler.recoveries_announced == 2
        assert len(tb.trace.events_for_step(11)) == 2


def test_bookkeeping_replaces_the_loaded_tables_and_keeps_key_order():
    """``_record`` must hand the field a new dict: the one it read is the
    object the wrapper compares against to see whether anything changed."""
    instance = SchedulerService()
    loaded = {"a": "pending", "b": "pending"}
    instance.job_phase = loaded
    instance._record("job_phase", "a", "dispatched")
    instance._record("job_phase", "c", "pending")
    assert loaded == {"a": "pending", "b": "pending"}
    assert list(instance.job_phase.items()) == [
        ("a", "dispatched"), ("b", "pending"), ("c", "pending"),
    ]
    instance._record("job_dirs", "a", "dir")  # a table still at its None default
    assert instance.job_dirs == {"a": "dir"}


# -- (d) a counter is exported once it is non-zero -----------------------------------


def _counters(tb):
    lazy = {metric for metric, _ in _LAZY_COUNTERS}
    return {
        (m["name"], m["labels"]["host"], m["labels"]["service"]): m["value"]
        for m in json.loads(tb.obs.export_json())["metrics"]
        if m["name"] in lazy
    }


class TestLazyCounterExport:
    def test_a_plain_fig3_run_exports_none_of_them(self):
        tb, result = run_scenario(SCENARIOS["fig3_fan"])
        assert result["outcome"] == "completed"
        assert _counters(tb) == {}

    def test_a_restart_and_steal_run_exports_exactly_the_bumped_ones(self):
        tb, result = run_scenario(SCENARIOS["zones_4_bounces"])
        assert result["outcome"] == "completed"
        exported = _counters(tb)
        assert all(value > 0 for value in exported.values())
        # every bumped counter of every wrapper is there, and nothing else
        expected = {
            (metric, w.machine.name, w.path): getattr(w, attribute)
            for w in tb.obs._wrappers
            for metric, attribute in _LAZY_COUNTERS
            if getattr(w, attribute, 0)
        }
        assert exported == expected
        z01, z02, z03 = (tb.zones[i].scheduler for i in (1, 2, 3))
        assert exported["scheduler.jobsets_stolen", "uvacg-z02", "Scheduler"] == 1
        assert exported["host.restarts", "uvacg-z01", "Scheduler"] == 1
        assert exported["scheduler.jobsets_readopted", "uvacg-z02", "Scheduler"] == 1
        # declared, never bumped, not exported: z03 neither restarted nor stole
        assert z03.restarts == z03.jobsets_stolen == z01.jobsets_stolen == 0
        assert not any(host == "uvacg-z03" and service == "Scheduler"
                       for _, host, service in exported)
        assert z02.nis_polls_elided == 0  # perf is off
        assert not any(name == "perf.nis_polls_elided" for name, _, _ in exported)


# -- (f) hostile one-way messages ----------------------------------------------------


_NO_TO = (
    '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
    "<soap:Header/><soap:Body><x/></soap:Body></soap:Envelope>"
)
SCHEDULER_URL = "http://uvacg-central:80/Scheduler"


class TestHostileOneWay:
    def test_the_simulation_survives_and_then_runs_fig3(self):
        tb = fig3_testbed(2.0, {"out.dat": b"ok"})
        net = tb.network
        net.add_host("evil")
        for url, text in [
            (SCHEDULER_URL, "not xml at all"),
            (SCHEDULER_URL, _NO_TO),
            ("http://uvacg-central:80/Nope", "<a/>"),
        ]:
            tb.run(net.send_one_way("evil", url, text))
            tb.settle(5.0)  # used to re-raise the handler's exception here
        assert tb.scheduler.invocations == tb.scheduler.faults_returned == 2
        assert net.stats.faults["refused"] == 1
        client = tb.make_client()
        outcome, _, _ = tb.run_job_set(client, fan_spec(client, tb, 4))
        assert outcome == "completed"
        assert tb.scheduler.faults_returned == 2

    @pytest.mark.parametrize("url, text, reason", [
        (SCHEDULER_URL, "not xml at all", "XmlParseError"),
        (SCHEDULER_URL, _NO_TO, "lacks a wsa:To"),
        ("http://uvacg-central:80/Nope", "<a/>", "no service at '/Nope'"),
    ])
    def test_request_response_callers_still_get_the_exception_as_a_client_fault(
            self, url, text, reason):
        # Until the wire contract (docs/fault_tolerance.md) this pinned a
        # ValueError / LookupError raised in the caller's own process.
        tb = fig3_testbed(2.0, {})
        tb.network.add_host("evil")
        reply = SoapEnvelope.deserialize(tb.run(tb.network.request("evil", url, text)))
        fault = SoapFault.from_element(reply.body)
        assert fault.code == "soap:Client" and reason in fault.reason
        served = url == SCHEDULER_URL
        assert tb.scheduler.faults_returned == (1 if served else 0)
        assert tb.network.stats.faults == ({} if served else {"refused": 1})
