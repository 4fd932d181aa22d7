"""Tests for the WSRF core: programming model, wrapper pipeline, port types.

The fixture service is the paper's Fig. 2 example (MyServ) translated to
the Python attribute model, deployed on a simulated machine and driven
through real SOAP envelopes over the simulated network.
"""

import pytest

from repro.analysis.sanitizer import RaceSanitizer
from repro.net import Network
from repro.obs import Observability
from repro.osim import Machine, MachineParams
from repro.sim import Environment
from repro.soap import SoapFault
from repro.wsrf import (
    GetMultipleResourcePropertiesPortType,
    GetResourcePropertyPortType,
    ImmediateResourceTerminationPortType,
    InvalidResourcePropertyQNameFault,
    InvalidQueryExpressionFault,
    QueryResourcePropertiesPortType,
    Resource,
    ResourceProperty,
    ResourceUnknownFault,
    ScheduledResourceTerminationPortType,
    ServiceSkeleton,
    SetResourcePropertiesPortType,
    UnableToSetTerminationTimeFault,
    WebMethod,
    WSRFPortType,
    WsrfClient,
    deploy,
    generate_wsdl,
)
from repro.wsrf.basefaults import BaseFault, UnableToModifyResourcePropertyFault
from repro.wsrf.lifetime import CURRENT_TIME_RP, TERMINATION_TIME_RP
from repro.wsrf.wsdl import wsdl_operations, wsdl_resource_properties
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG


@WSRFPortType(
    GetResourcePropertyPortType,
    GetMultipleResourcePropertiesPortType,
    QueryResourcePropertiesPortType,
    SetResourcePropertiesPortType,
    ImmediateResourceTerminationPortType,
    ScheduledResourceTerminationPortType,
)
class MyServ(ServiceSkeleton):
    """The Fig. 2 example service, with a settable property added."""

    some_data = Resource(default="")
    counter = Resource(default=0)

    @ResourceProperty
    @property
    def MyData(self):
        return f"At {self.env.now} the string is {self.some_data}"

    def _get_mutable(self):
        return self.some_data

    def _set_mutable(self, value):
        self.some_data = value

    Mutable = ResourceProperty(property(_get_mutable, _set_mutable))

    @WebMethod(requires_resource=False)
    def CreateExample(self, initial: str = "") -> object:
        rid = self.create_resource(some_data=initial)
        return self.epr_for(rid)

    @WebMethod
    def MyMethod(self) -> int:
        self.counter = self.counter + 1
        return self.counter

    @WebMethod
    def Append(self, suffix: str) -> str:
        self.some_data = self.some_data + suffix
        return self.some_data

    @WebMethod
    def Boom(self):
        raise ValueError("author-code exploded")

    @WebMethod
    def SlowEcho(self, text: str) -> str:
        yield self.env.timeout(0.5)
        return text

    destroyed_log = []

    def wsrf_on_destroy(self):
        MyServ.destroyed_log.append(self.resource_id)


@WSRFPortType(ImmediateResourceTerminationPortType, ScheduledResourceTerminationPortType)
class Stubborn(ServiceSkeleton):
    """A destroy hook that refuses while the resource is *stubborn*."""

    stubborn = Resource(default=True)

    def wsrf_on_destroy(self):
        if self.stubborn:
            raise ValueError("not while stubborn")


class Churn(ServiceSkeleton):
    """Creates and destroys sibling resources, then keeps the dispatch
    open for *hold* seconds."""

    tag = Resource(default="")

    @WebMethod(requires_resource=False)
    def Churn(self, creates: int, destroys: list, hold: float) -> int:
        for _ in range(creates):
            self.create_resource()
        for rid in destroys:
            self.destroy_resource(rid)
        yield self.env.timeout(hold)
        return creates + len(destroys)


@pytest.fixture()
def grid():
    env = Environment()
    net = Network(env)
    machine = Machine(net, "node1", params=MachineParams())
    wrapper = deploy(MyServ, machine, "MyServ")
    client_host = net.add_host("client")
    client = WsrfClient(net, "client")
    MyServ.destroyed_log = []
    return env, net, machine, wrapper, client


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def _wait(event):
    return (yield event)


def make_resource(env, wrapper, client, initial="hello"):
    return run(
        env,
        client.call(wrapper.service_epr(), UVA, "CreateExample", {"initial": initial}),
    )


class TestProgrammingModel:
    def test_factory_method_returns_epr(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        assert epr.address == wrapper.address
        assert epr.get(QName(UVA, "ResourceID")) is not None

    def test_state_persists_across_invocations(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        assert run(env, client.call(epr, UVA, "MyMethod")) == 1
        assert run(env, client.call(epr, UVA, "MyMethod")) == 2
        assert run(env, client.call(epr, UVA, "MyMethod")) == 3

    def test_resources_isolated(self, grid):
        env, net, machine, wrapper, client = grid
        epr_a = make_resource(env, wrapper, client, "a")
        epr_b = make_resource(env, wrapper, client, "b")
        run(env, client.call(epr_a, UVA, "Append", {"suffix": "-x"}))
        assert run(env, client.call(epr_a, UVA, "Append", {"suffix": ""})) == "a-x"
        assert run(env, client.call(epr_b, UVA, "Append", {"suffix": ""})) == "b"

    def test_method_with_args_and_defaults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = run(env, client.call(wrapper.service_epr(), UVA, "CreateExample"))
        assert run(env, client.call(epr, UVA, "Append", {"suffix": "zz"})) == "zz"

    def test_missing_argument_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        with pytest.raises(SoapFault, match="missing argument"):
            run(env, client.call(epr, UVA, "Append"))

    def test_unknown_operation_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        with pytest.raises(SoapFault, match="no operation"):
            run(env, client.call(epr, UVA, "Nonexistent"))

    def test_author_exception_becomes_fault(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        with pytest.raises(SoapFault, match="author-code exploded"):
            run(env, client.call(epr, UVA, "Boom"))
        assert wrapper.faults_returned == 1

    def test_coroutine_method_consumes_time(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        before = env.now
        assert run(env, client.call(epr, UVA, "SlowEcho", {"text": "hi"})) == "hi"
        assert env.now - before > 0.5

    def test_resource_required_fault_without_rid(self, grid):
        env, net, machine, wrapper, client = grid
        with pytest.raises(ResourceUnknownFault):
            run(env, client.call(wrapper.service_epr(), UVA, "MyMethod"))

    def test_unknown_resource_fault(self, grid):
        env, net, machine, wrapper, client = grid
        bogus = wrapper.epr_for("no-such-id")
        with pytest.raises(ResourceUnknownFault):
            run(env, client.call(bogus, UVA, "MyMethod"))

    def test_direct_construction_has_no_context(self):
        serv = MyServ()
        with pytest.raises(RuntimeError, match="no invocation context"):
            _ = serv.resource_id

    def test_deploy_requires_skeleton_subclass(self, grid):
        env, net, machine, wrapper, client = grid

        class NotAService:
            pass

        with pytest.raises(TypeError):
            deploy(NotAService, machine, "Bad")


class TestResourceProperties:
    def test_get_resource_property(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client, "fig2")
        value = run(env, client.get_resource_property(epr, QName(UVA, "MyData")))
        assert "the string is fig2" in value
        assert "At " in value  # the Fig. 2 getter embeds the time

    def test_get_unknown_rp_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        with pytest.raises(InvalidResourcePropertyQNameFault):
            run(env, client.get_resource_property(epr, QName(UVA, "Nope")))

    def test_get_multiple(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client, "m")
        values = run(
            env,
            client.get_multiple_resource_properties(
                epr, [QName(UVA, "MyData"), QName(UVA, "Mutable")]
            ),
        )
        assert values[QName(UVA, "Mutable")] == "m"
        assert "the string is m" in values[QName(UVA, "MyData")]

    def test_query_resource_properties(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client, "queryme")
        hits = run(env, client.query_resource_properties(epr, "//Mutable/text()"))
        assert hits == ["queryme"]

    def test_query_bad_xpath_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        with pytest.raises(InvalidQueryExpressionFault):
            run(env, client.query_resource_properties(epr, "///"))

    def test_set_resource_properties_update(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client, "old")
        run(
            env,
            client.set_resource_properties(epr, update={QName(UVA, "Mutable"): "new"}),
        )
        assert run(env, client.get_resource_property(epr, QName(UVA, "Mutable"))) == "new"

    def test_set_readonly_rp_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        with pytest.raises(UnableToModifyResourcePropertyFault):
            run(
                env,
                client.set_resource_properties(epr, update={QName(UVA, "MyData"): "x"}),
            )

    def test_set_delete_assigns_none(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client, "will-vanish")
        run(env, client.set_resource_properties(epr, delete=[QName(UVA, "Mutable")]))
        assert run(env, client.get_resource_property(epr, QName(UVA, "Mutable"))) is None


class TestLifetime:
    def test_destroy_then_unknown(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        run(env, client.destroy(epr))
        assert MyServ.destroyed_log  # author hook ran
        with pytest.raises(ResourceUnknownFault):
            run(env, client.call(epr, UVA, "MyMethod"))

    def test_scheduled_termination(self, grid):
        """A resource goes at its termination time plus the Destroy's
        db_load.  A later SetTerminationTime moves the destroy and the
        earlier timer does nothing; nil cancels it."""
        env, net, machine, wrapper, client = grid
        epr, later, cancelled = [make_resource(env, wrapper, client) for _ in range(3)]
        rid_of = {e.get(QName(UVA, "ResourceID")): e for e in (epr, later, cancelled)}
        destroyed = []
        wrapper.on_resource_destroyed.append(
            lambda rid: destroyed.append((rid_of[rid], env.now)))
        new_time = run(env, client.set_termination_time(epr, env.now + 3.0))
        assert new_time == pytest.approx(env.now + 3.0, abs=0.2)
        for other in (later, cancelled):
            run(env, client.set_termination_time(other, new_time))
        assert run(env, client.set_termination_time(later, new_time + 4.0)) == new_time + 4.0
        assert run(env, client.set_termination_time(cancelled, None)) is None
        # Still alive now...
        assert run(env, client.call(epr, UVA, "MyMethod")) == 1
        env.run(until=env.now + 5.0)
        with pytest.raises(ResourceUnknownFault):
            run(env, client.call(epr, UVA, "MyMethod"))
        assert MyServ.destroyed_log
        db = machine.params.db_access_s
        assert destroyed == [(epr, pytest.approx(new_time + db))]
        # The earlier timers of the other two did nothing.
        assert run(env, client.call(later, UVA, "MyMethod")) == 1
        env.run(until=new_time + 60.0)
        assert destroyed[1:] == [(later, pytest.approx(new_time + 4.0 + db))]
        assert run(env, client.call(cancelled, UVA, "MyMethod")) == 1

    def test_a_raising_destroy_hook_faults_the_expiry_not_the_run(self):
        """An expiry is a Destroy: a hook raising ValueError is the
        service's fault, counted and survived as on the wire."""
        env = Environment()
        net = Network(env)
        wrapper = deploy(Stubborn, Machine(net, "node1", params=MachineParams()), "Stubborn")
        net.add_host("client")
        client = WsrfClient(net, "client")
        stubborn = wrapper.create_resource_from_fields({})
        with pytest.raises(SoapFault):
            run(env, client.destroy(wrapper.epr_for(stubborn)))
        assert wrapper.faults_returned == 1
        assert wrapper.store.exists(wrapper.service_name, stubborn)

        wrapper.set_termination_time(stubborn, env.now + 1.0)
        env.run(until=env.now + 2.0)  # returns: the ValueError is a fault
        assert wrapper.store.exists(wrapper.service_name, stubborn)
        assert wrapper.faults_returned == 2

        meek = wrapper.create_resource_from_fields({"stubborn": False})
        wrapper.set_termination_time(meek, env.now + 1.0)
        env.run(until=env.now + 2.0)
        assert not wrapper.store.exists(wrapper.service_name, meek)
        assert wrapper.faults_returned == 2

    def test_an_expiry_queued_behind_a_destroy_ends_quietly(self, grid):
        """The Destroy holds the lock when the time comes due: the
        expiry queues, then finds no resource, and the run goes on."""
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        rid = epr.get(QName(UVA, "ResourceID"))
        lock = wrapper.resource_lock(rid)
        lock.acquire()  # a handler owns the resource until 1.5 s from now
        wrapper.set_termination_time(rid, env.now + 1.0)
        destroy = env.process(client.destroy(epr))
        env.run(until=env.now + 1.5)
        wrapper.release_resource_lock(rid, lock)
        run(env, _wait(destroy))
        env.run(until=env.now + 1.0)
        assert MyServ.destroyed_log == [rid]
        assert wrapper.resource_ids() == []
        assert wrapper._resource_locks == {}
        assert wrapper.faults_returned == 1  # its ResourceUnknownFault

    def test_an_expiry_is_a_local_dispatch(self):
        """One wsrf.dispatch span with no message id and the Fig. 1
        stages under it; no message on the network; sanitizer-clean."""
        env = Environment()
        san = RaceSanitizer(env)
        net = Network(env)
        obs = Observability(env).attach(net)
        wrapper = deploy(MyServ, Machine(net, "node1", params=MachineParams()), "MyServ")
        rid = wrapper.create_resource_from_fields({"some_data": "x"})
        wrapper.set_termination_time(rid, 2.0)
        env.run(until=3.0)
        assert not wrapper.store.exists(wrapper.service_name, rid)
        assert MyServ.destroyed_log[-1] == rid
        [dispatch] = obs.spans.named("wsrf.dispatch")
        assert dispatch.attrs["operation"] == "Destroy"
        assert dispatch.message_id is None and "fault" not in dispatch.attrs
        assert (dispatch.start, dispatch.end) == (2.0, 2.0 + 2 * MachineParams().db_access_s)
        assert [s.name for s in obs.spans.children(dispatch)] == [
            f"wsrf.dispatch.{stage}"
            for stage in ("epr_resolve", "queue", "db_load", "method", "db_save")
        ]
        assert net.stats.messages == 0
        assert wrapper.invocations == wrapper.faults_returned == 0
        san.assert_clean()

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_resource_locks_return_to_baseline(self, sanitize):
        """Soak: a resource that is gone leaves no mutex behind, however
        it went — Destroy, an expiry, or a late call on a dead EPR."""
        env = Environment()
        san = RaceSanitizer(env) if sanitize else None
        net = Network(env)
        wrapper = deploy(MyServ, Machine(net, "node1", params=MachineParams()), "MyServ")
        net.add_host("client")
        client = WsrfClient(net, "client")
        keep = make_resource(env, wrapper, client)
        assert run(env, client.call(keep, UVA, "MyMethod")) == 1
        baseline = dict(wrapper._resource_locks)
        assert len(baseline) == 1  # a live resource keeps its mutex

        def cycles():
            for i in range(300):
                epr = yield from client.call(
                    wrapper.service_epr(), UVA, "CreateExample", {"initial": "x"})
                assert (yield from client.call(epr, UVA, "MyMethod")) == 1
                if i % 3 == 2:
                    yield from client.set_termination_time(epr, env.now + 1.0)
                    continue
                yield from client.destroy(epr)
                if i % 30 == 0:
                    with pytest.raises(ResourceUnknownFault):
                        yield from client.call(epr, UVA, "MyMethod")

        run(env, cycles())
        env.run(until=env.now + 3.0)  # the expiries reap the scheduled third
        assert wrapper.resource_ids() == [keep.get(QName(UVA, "ResourceID"))]
        assert wrapper._resource_locks == baseline
        assert run(env, client.call(keep, UVA, "MyMethod")) == 2
        if san is not None:
            san.assert_clean()
            assert san.accesses_checked > 600

    def test_waiter_on_a_destroyed_resource_is_still_served(self, grid):
        """The entry goes only once the lock is free: a call queued
        behind the Destroy gets the mutex handed to it, faults on the
        missing row, and only then is the mutex forgotten."""
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        slow = env.process(client.call(epr, UVA, "SlowEcho", {"text": "x"}))

        def after(delay, call):  # both queue up inside SlowEcho's 0.5 s
            yield env.timeout(delay)
            return (yield from call)

        doomed = env.process(after(0.1, client.destroy(epr)))
        late = env.process(after(0.2, client.call(epr, UVA, "MyMethod")))
        assert run(env, _wait(slow)) == "x"
        assert len(wrapper._resource_locks) == 1  # Destroy holds it, MyMethod queues
        run(env, _wait(doomed))
        assert len(wrapper._resource_locks) == 1  # handed to MyMethod, not dropped
        with pytest.raises(ResourceUnknownFault):
            run(env, _wait(late))
        assert wrapper._resource_locks == {}

    def test_termination_time_rp(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        assert run(env, client.get_resource_property(epr, TERMINATION_TIME_RP)) is None
        run(env, client.set_termination_time(epr, 99.0))
        assert run(env, client.get_resource_property(epr, TERMINATION_TIME_RP)) == 99.0
        current = run(env, client.get_resource_property(epr, CURRENT_TIME_RP))
        assert current == pytest.approx(env.now, abs=0.5)

    def test_unset_termination_time(self, grid):
        env, net, machine, wrapper, client = grid
        for never in (None, float("inf")):
            epr = make_resource(env, wrapper, client)
            run(env, client.set_termination_time(epr, env.now + 99.0))
            assert run(env, client.set_termination_time(epr, never)) == never
            assert run(env, client.get_resource_property(epr, TERMINATION_TIME_RP)) == never
            env.run(until=env.now + 120.0)  # the 99 s timer finds its time replaced
            assert run(env, client.call(epr, UVA, "MyMethod")) == 1
            # A time that never comes due arms no kernel event.
            env.run(until=env.now + 1.0)
            pending = env.peek()
            wrapper.set_termination_time(epr.get(QName(UVA, "ResourceID")), never)
            assert env.peek() == pending

    def test_past_termination_time_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        env.run(until=10.0)
        with pytest.raises(UnableToSetTerminationTimeFault):
            run(env, client.set_termination_time(epr, 1.0))

    def test_nan_termination_time_faults(self, grid):
        # NaN compares false with every time: stored, it never comes due.
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        with pytest.raises(UnableToSetTerminationTimeFault):
            run(env, client.set_termination_time(epr, float("nan")))
        assert run(env, client.get_resource_property(epr, TERMINATION_TIME_RP)) is None

    def test_destroy_unknown_resource_faults(self, grid):
        env, net, machine, wrapper, client = grid
        with pytest.raises(ResourceUnknownFault):
            run(env, client.destroy(wrapper.epr_for("ghost")))


def Bump(instance):
    """An internal operation: a callable run_local runs on a row."""
    instance.counter = instance.counter + 1
    return instance.counter


class TestLocalDispatch:
    """``WrapperService.run_local``: an internal operation through the
    Fig. 1 stages, with no message and no worker thread."""

    def test_runs_the_stages_and_returns_the_result(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        rid = epr.get(QName(UVA, "ResourceID"))
        messages, start = net.stats.messages, env.now
        assert run(env, wrapper.run_local(rid, Bump, machine.host.boot_epoch)) == 1
        # db_load and db_save; no queue time without a worker pool
        assert env.now == pytest.approx(start + 2 * MachineParams().db_access_s)
        assert net.stats.messages == messages
        assert run(env, client.call(epr, UVA, "MyMethod")) == 2

    def test_no_soap_message_reaches_an_internal_operation(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        with pytest.raises(SoapFault, match="no operation"):
            run(env, client.invoke(epr, Element(QName(UVA, "Bump"))))
        assert run(env, client.call(epr, UVA, "MyMethod")) == 1

    @pytest.mark.parametrize("case", ["gone", "down", "rebooted", "crash_at_the_lock"])
    def test_returns_none_and_saves_nothing(self, grid, case):
        """The row is gone, or the host went down or rebooted since the
        caller's boot epoch, before the dispatch or while it queued."""
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        rid = epr.get(QName(UVA, "ResourceID"))
        host = machine.host
        epoch = host.boot_epoch
        if case == "crash_at_the_lock":
            lock = wrapper.resource_lock(rid)
            lock.acquire()
            local = env.process(wrapper.run_local(rid, Bump, epoch))
            env.run(until=env.now + 1.0)
            host.down = True
            wrapper.release_resource_lock(rid, lock)
            assert run(env, _wait(local)) is None
        else:
            if case == "gone":
                run(env, client.destroy(epr))
            elif case == "down":
                host.down = True
            else:
                host.boot_epoch += 1
            assert run(env, wrapper.run_local(rid, Bump, epoch)) is None
        assert wrapper.faults_returned == (case == "gone")
        host.down = False
        if case != "gone":
            assert wrapper.store.load(wrapper.service_name, rid)[QName(UVA, "counter")] == 0


class TestFaultTransport:
    def test_typed_fault_reconstructed_with_metadata(self, grid):
        env, net, machine, wrapper, client = grid
        bogus = wrapper.epr_for("missing")
        try:
            run(env, client.call(bogus, UVA, "MyMethod"))
            raise AssertionError("expected a fault")
        except ResourceUnknownFault as fault:
            assert "missing" in fault.description
            assert fault.timestamp >= 0.0

    def test_fault_chain_roundtrip(self):
        inner = BaseFault(description="root cause", timestamp=1.0)
        outer = ResourceUnknownFault(
            description="wrapper", timestamp=2.0, error_code="E42", cause=inner
        )
        again = BaseFault.from_detail_element(outer.to_detail_element())
        assert isinstance(again, ResourceUnknownFault)
        chain = again.chain()
        assert len(chain) == 2
        assert chain[1].description == "root cause"
        assert again.error_code == "E42"


class TestStateStoreIntegration:
    def test_no_save_when_unchanged(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client, "same")
        saves_before = wrapper.store.saves
        run(env, client.get_resource_property(epr, QName(UVA, "Mutable")))
        assert wrapper.store.saves == saves_before  # read-only op: no save

    def test_save_when_changed(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        saves_before = wrapper.store.saves
        run(env, client.call(epr, UVA, "MyMethod"))
        assert wrapper.store.saves == saves_before + 1

    def test_db_time_charged_on_load(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        t0 = env.now
        run(env, client.get_resource_property(epr, QName(UVA, "Mutable")))
        assert env.now - t0 >= machine.params.db_access_s

    @pytest.mark.parametrize("perf", [False, True], ids=["default", "perf"])
    def test_create_and_destroy_are_charged_to_their_own_dispatch(self, perf):
        """Two overlapping dispatches on one wrapper: each db_save stage
        lasts its own invocation's creates and destroys times the db
        delay, whichever of the two reaches the stage first."""
        env = Environment()
        net = Network(env)
        obs = Observability(env).attach(net)
        machine = Machine(net, "node1", params=MachineParams())
        wrapper = deploy(Churn, machine, "Churn", perf=perf)
        net.add_host("client")
        client = WsrfClient(net, "client")
        doomed = wrapper.create_resource_from_fields({})

        def churn(delay, creates, destroys, hold):
            yield env.timeout(delay)
            yield from client.call(
                wrapper.service_epr(), UVA, "Churn",
                {"creates": creates, "destroys": destroys, "hold": hold},
            )

        first = env.process(churn(0.0, 2, [], 1.0))  # holds across the second
        second = env.process(churn(0.5, 0, [doomed], 0.0))
        env.run(until=env.all_of([first, second]))
        dispatch_start = {s.span_id: s.start for s in obs.spans.named("wsrf.dispatch")}
        saves = sorted(
            obs.spans.named("wsrf.dispatch.db_save"),
            key=lambda s: dispatch_start[s.parent_id],
        )
        db = machine.params.db_access_s
        assert [s.duration for s in saves] == [pytest.approx(2 * db), pytest.approx(db)]


class TestWsdl:
    def test_wsdl_lists_operations_and_rps(self, grid):
        env, net, machine, wrapper, client = grid
        doc = generate_wsdl(wrapper)
        ops = wsdl_operations(doc)
        assert "MyMethod" in ops["MyServPortType"]
        assert "CreateExample" in ops["MyServPortType"]
        assert "GetResourceProperty" in ops["GetResourcePropertyPortType"]
        assert "Destroy" in ops["ImmediateResourceTerminationPortType"]
        rps = wsdl_resource_properties(doc)
        assert QName(UVA, "MyData") in rps
        assert TERMINATION_TIME_RP in rps

    def test_wsdl_address_matches_deployment(self, grid):
        env, net, machine, wrapper, client = grid
        doc = generate_wsdl(wrapper)
        locations = [
            el.get("location")
            for el in doc.iter(QName(NS.WSDL, "address"))
        ]
        assert locations == [wrapper.address]


class TestSpecConformanceDetails:
    def test_get_multiple_with_no_properties_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        from repro.wsrf.porttypes import GET_MULTIPLE_RP

        with pytest.raises(InvalidResourcePropertyQNameFault, match="named no"):
            run(env, client.invoke(epr, Element(GET_MULTIPLE_RP)))

    def test_set_insert_behaves_like_update_on_fixed_schema(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client, "old")
        from repro.soap import to_typed_element
        from repro.wsrf.porttypes import SET_RP

        body = Element(SET_RP)
        insert = body.subelement(QName(NS.WSRF_RP, "Insert"))
        insert.append(to_typed_element(QName(UVA, "Mutable"), "inserted"))
        run(env, client.invoke(epr, body))
        value = run(env, client.get_resource_property(epr, QName(UVA, "Mutable")))
        assert value == "inserted"

    def test_set_with_unknown_change_element_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        from repro.wsrf.porttypes import SET_RP
        from repro.wsrf.basefaults import UnableToModifyResourcePropertyFault

        body = Element(SET_RP)
        body.subelement(QName(NS.WSRF_RP, "Replace"))  # not a spec verb here
        with pytest.raises(UnableToModifyResourcePropertyFault):
            run(env, client.invoke(epr, body))

    def test_malformed_qname_in_get_rp_faults(self, grid):
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        from repro.wsrf.porttypes import GET_RP

        with pytest.raises(InvalidResourcePropertyQNameFault):
            run(env, client.invoke(epr, Element(GET_RP, text="   ")))

    def test_response_relates_to_request(self, grid):
        """WS-Addressing: the response's RelatesTo must echo the request
        MessageID (checked at the raw envelope level)."""
        env, net, machine, wrapper, client = grid
        epr = make_resource(env, wrapper, client)
        from repro.soap import SoapEnvelope
        from repro.wsa import AddressingHeaders

        headers = AddressingHeaders(to_epr=epr, action=f"{UVA}/MyMethod")
        request = SoapEnvelope(headers, Element(QName(UVA, "MyMethod")))

        def call(env):
            raw = yield from net.request("client", epr.address, request.serialize())
            return SoapEnvelope.deserialize(raw)

        response = run(env, call(env))
        assert response.addressing.relates_to == headers.message_id
        assert response.addressing.action == f"{UVA}/MyMethodResponse"
