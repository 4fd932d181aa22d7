"""Regression tests for the contract bugs wsrfcheck surfaced.

``python -m repro.analysis`` (the wsrfcheck linter) flagged four real
defects on its first run over ``src/repro``; each test here pins the
fix so the bug stays fixed even if the rule is later tuned:

- WSRF001: ``ReportUtilization`` was invoked one-way by the Processor
  Utilization service but not declared ``one_way=True``, so the WSDL
  advertised a request/response operation whose response every caller
  silently discarded.
- WSRF003: the GT4 Execution Service raised plain ``SecurityError``
  (not a ``BaseFault``), turning authentication failures into untyped
  ``soap:Server`` strings clients could not reconstruct.
- SIM002 (x2): the lifetime sweeper and the notification producer's
  redelivery process both destroyed WS-Resources without taking the
  per-resource lock, racing in-flight load-modify-save handlers.  The
  sweeper is gone (an expiry is now a Destroy through the wrapper's
  dispatch, which takes the lock like any call); its test stays.
"""

import pytest

from repro.gridapp.node_info import NodeInfoService
from repro.gt4 import LinuxMachine
from repro.net import Network, RetryPolicy
from repro.osim import Machine, MachineParams
from repro.sim import Environment
from repro.wsn import (
    NotificationListener,
    NotificationProducerPortType,
    SubscriptionManagerPortType,
    attach_notification_producer,
)
from repro.wsrf import (
    AuthenticationFault,
    ImmediateResourceTerminationPortType,
    Resource,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
    WsrfClient,
    deploy,
    generate_wsdl,
)
from repro.xmlx import NS, QName

UVA = NS.UVACG
RESOURCE_ID = QName(UVA, "ResourceID")


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


# -- WSRF001: ReportUtilization one-way drift ---------------------------------------


class TestReportUtilizationOneWay:
    def test_declared_one_way(self):
        meta = NodeInfoService.ReportUtilization.__web_method__
        assert meta["one_way"] is True

    def test_wsdl_has_no_output_message(self):
        env = Environment()
        net = Network(env)
        machine = Machine(net, "central", params=MachineParams())
        wrapper = deploy(NodeInfoService, machine, "NodeInfo")
        doc = generate_wsdl(wrapper)
        ops = {
            op.get("name"): op
            for pt in doc.findall(QName(NS.WSDL, "portType"))
            for op in pt.findall(QName(NS.WSDL, "operation"))
        }
        assert "ReportUtilization" in ops
        assert ops["ReportUtilization"].find(QName(NS.WSDL, "output")) is None
        # Sibling request/response op keeps its output message.
        assert ops["GetProcessors"].find(QName(NS.WSDL, "output")) is not None


# -- WSRF003: GT4 authentication failures must be typed faults ----------------------


class TestGt4AuthenticationFault:
    def _grid(self):
        env = Environment()
        net = Network(env)
        machine = LinuxMachine(net, "linux-a")
        from repro.gt4.execution import Gt4ExecutionService

        wrapper = deploy(Gt4ExecutionService, machine, "Execution")
        net.add_host("client")
        client = WsrfClient(net, "client")
        return env, machine, wrapper, client

    def test_missing_security_header_is_reconstructible_fault(self):
        env, machine, wrapper, client = self._grid()
        run_args = {
            "job_name": "j1",
            "executable": "job.exe",
            "files": [],
            "topic": "js/j1",
        }
        with pytest.raises(AuthenticationFault, match="wsse:Security"):
            run(env, client.call(wrapper.service_epr(), UVA, "Run", run_args))

    def test_fault_carries_timestamp_and_description(self):
        env, machine, wrapper, client = self._grid()
        try:
            run(
                env,
                client.call(
                    wrapper.service_epr(),
                    UVA,
                    "Run",
                    {"job_name": "j", "executable": "e", "files": [], "topic": "t"},
                ),
            )
        except AuthenticationFault as fault:
            assert "wsse:Security" in fault.description
        else:
            pytest.fail("expected AuthenticationFault")


# -- SIM002: destroys must hold the per-resource lock -------------------------------


@WSRFPortType(
    NotificationProducerPortType,
    SubscriptionManagerPortType,
    ImmediateResourceTerminationPortType,  # an expiry is its Destroy
)
class TinyServ(ServiceSkeleton):
    data = Resource(default=0)

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource(data=1))


class TestSweeperHoldsResourceLock:
    def test_expiry_waits_for_lock_holder(self):
        env = Environment()
        net = Network(env)
        machine = Machine(net, "node1", params=MachineParams())
        wrapper = deploy(TinyServ, machine, "Tiny")
        net.add_host("client")
        client = WsrfClient(net, "client")

        epr = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        rid = epr.get(RESOURCE_ID)
        wrapper.set_termination_time(rid, env.now + 1.0)

        lock = wrapper.resource_lock(rid)
        lock.acquire()  # an in-flight handler owns the resource
        env.run(until=env.now + 3.0)  # well past the termination time
        assert wrapper.store.exists(wrapper.service_name, rid), (
            "expiry destroyed the resource out from under the lock holder"
        )

        lock.release()
        env.run(until=env.now + 2.0)
        assert not wrapper.store.exists(wrapper.service_name, rid)


class TestRedeliveryDropHoldsResourceLock:
    def test_subscription_destroy_waits_for_lock_holder(self):
        env = Environment()
        net = Network(env)
        machine = Machine(net, "producer-node", params=MachineParams())
        wrapper = deploy(TinyServ, machine, "Tiny")
        producer = attach_notification_producer(wrapper)
        producer.redelivery_policy = RetryPolicy(
            max_attempts=2, base_delay_s=0.2, backoff_factor=1.0,
            max_delay_s=0.2, jitter=0.0,
        )
        net.add_host("watcher")
        listener = NotificationListener(net, "watcher")
        net.add_host("client")
        client = WsrfClient(net, "client")

        sub_epr = run(
            env, client.subscribe(wrapper.service_epr(), listener.epr, "t/e")
        )
        sub_rid = sub_epr.get(RESOURCE_ID)
        net.host("watcher").down = True

        lock = wrapper.resource_lock(sub_rid)
        lock.acquire()  # e.g. an Unsubscribe handler mid load-modify-save
        from repro.xmlx import Element

        wrapper.publish("t/e", Element(QName(UVA, "E"), text="x"))
        env.run()  # drain: redelivery exhausts, drop path blocks on the lock
        assert sub_rid in producer.subscriptions
        assert wrapper.store.exists(wrapper.service_name, sub_rid), (
            "redelivery drop destroyed the subscription under the lock holder"
        )

        lock.release()
        env.run()
        assert not wrapper.store.exists(wrapper.service_name, sub_rid)
