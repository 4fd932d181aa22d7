"""Crash-restart durability: the testbed survives host bounces.

The checkpoint/restore model (docs/durability.md): a crash freezes the
host's *disk* — every resource-store row written so far — and loses all
process memory (caches, locks, watchers, OS processes, un-flushed
notification batches).  ``Testbed.restart_host`` kills a host mid-run
and boots it from that checkpoint; services re-adopt in-flight work via
``wsrf_recover``.  The write-ahead ordering contract (WAL001) makes the
recovery sound: state is persisted before any reply or notification
acknowledging it leaves the host, so nothing a peer observed can be
rolled back by the crash.

Proof layers in this file:

- **Crash-point sweep** (the headline): Hypothesis picks which host to
  bounce and when; 6-job sets must still complete with byte-identical
  outputs and zero exit codes.
- **Differential restart-then-idle**: a run that bounces an idle host
  between two job-set phases must end in the *same* normalized store
  state and job outcomes as an undisturbed run — the checkpoint is the
  state, exactly.
- **WAL unit tests**: a notification queued via ``send_after_persist``
  never leaves before its state is durable; a crash inside the dispatch
  window discards both the unpersisted state and the queued send.
- **Observed-run determinism**: two identical seeded restart runs with
  observability and profiling on export byte-identical JSON.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridapp import FaultToleranceConfig
from repro.net import DeliveryError, Network, RetryPolicy
from repro.osim import Machine, MachineParams
from repro.sim import Environment
from repro.wsn.base_notification import build_notify_body
from repro.wsrf import (
    Resource,
    ServiceSkeleton,
    WebMethod,
    WsrfClient,
    deploy,
)
from repro.xmlx import NS, Element, QName

from tests.helpers import fan_spec, fig3_testbed, final_grid_state

UVA = NS.UVACG

PAYLOAD = b"restart-proof payload"

#: restart survival needs retry budgets that outlast the down window
RESTART_RETRY = RetryPolicy(
    max_attempts=8, base_delay_s=0.5, backoff_factor=2.0,
    max_delay_s=3.0, timeout_s=30.0,
)

FT = FaultToleranceConfig(watchdog_period=5.0, stuck_after=20.0)

def _make_testbed(duration=10.0, **kwargs):
    kwargs.setdefault("retry_policy", RESTART_RETRY)
    kwargs.setdefault("fault_tolerance", FT)
    kwargs.setdefault("broker_redelivery", RESTART_RETRY)
    return fig3_testbed(duration, {"out.dat": PAYLOAD}, **kwargs)


def _spec(client, tb, n_jobs):
    return fan_spec(client, tb, n_jobs, name="job{:02d}")


def _run_polled(tb, client, spec):
    outcome, jobset_epr, topic = tb.run(
        client.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
    )
    rid = jobset_epr.get(QName(UVA, "ResourceID"))
    state = tb.scheduler.store.load("Scheduler", rid)
    outputs = {
        name: tb.run(client.fetch_output(dir_epr, "out.dat")).to_bytes()
        for name, dir_epr in sorted(state[QName(UVA, "job_dirs")].items())
    }
    return outcome, outputs, state


class TestCrashPointSweep:
    """The headline: any host, any time — job sets still complete."""

    @settings(max_examples=12, deadline=None)
    @given(
        host=st.sampled_from(
            ["node00", "node01", "node02", "node03", "uvacg-central"]
        ),
        at=st.floats(min_value=1.0, max_value=45.0),
    )
    def test_jobs_survive_any_crash_point(self, host, at):
        tb = _make_testbed()
        client = tb.make_client()
        tb.restart_host(host, at=at, down_for=3.0)
        outcome, outputs, state = _run_polled(tb, client, _spec(client, tb, 6))
        assert outcome == "completed"
        assert set(outputs) == {f"job{i:02d}" for i in range(6)}
        assert all(content == PAYLOAD for content in outputs.values())
        exit_codes = state[QName(UVA, "job_exit_codes")]
        assert set(exit_codes) == set(outputs)
        assert all(code == 0 for code in exit_codes.values())
        tb.settle()

    def test_scheduler_restart_readopts_inflight_jobsets(self):
        """Bouncing the central host mid-run exercises Scheduler
        re-adoption and broker subscription rebuild specifically."""
        tb = _make_testbed()
        client = tb.make_client()
        tb.restart_host("uvacg-central", at=6.0, down_for=3.0)
        outcome, outputs, _ = _run_polled(tb, client, _spec(client, tb, 6))
        assert outcome == "completed"
        assert all(content == PAYLOAD for content in outputs.values())
        assert tb.scheduler.restarts == 1
        assert tb.broker.restarts == 1
        assert getattr(tb.scheduler, "jobsets_readopted", 0) >= 1
        # The broker's in-memory mirror agrees with its store after the
        # bounce: every live subscription is persisted and vice versa.
        producer = tb.broker.notification_producer
        persisted = set(tb.broker.store.list_ids("NotificationBroker"))
        assert set(producer.subscriptions) <= persisted

    def test_node_restart_redispatches_lost_jobs(self):
        """A node bounced while executing loses its running jobs; the
        watchdog re-dispatches them and the set still completes."""
        tb = _make_testbed()
        client = tb.make_client()
        tb.restart_host("node01", at=8.0, down_for=3.0)
        outcome, outputs, _ = _run_polled(tb, client, _spec(client, tb, 6))
        assert outcome == "completed"
        assert all(content == PAYLOAD for content in outputs.values())
        assert tb.es["node01"].restarts == 1


class TestDifferentialRestartIdle:
    """Bouncing an idle host must be invisible in the final state."""

    def _two_phase(self, restart, perf=False, observability=False):
        tb = _make_testbed(duration=5.0, perf=perf,
                           observability=observability)
        client = tb.make_client()
        out1 = _run_polled(tb, client, _spec(client, tb, 4))
        tb.settle()
        mark = tb.env.now
        if restart:
            proc = tb.restart_host("node01", at=mark + 2.0, down_for=5.0)
            tb.env.run(until=proc)
            if perf:
                # Satellite: the blob caches must be coherent right after
                # every restart, before any post-restart traffic.
                tb.es["node01"].store.assert_coherent()
                tb.fss["node01"].store.assert_coherent()
        # Both runs resume phase 2 at the same simulated instant.
        tb.env.run(until=mark + 20.0)
        out2 = _run_polled(tb, client, _spec(client, tb, 4))
        tb.settle()
        return tb, out1, out2

    def _assert_equivalent(self, plain, bounced):
        tb_a, a1, a2 = plain
        tb_b, b1, b2 = bounced
        for (oa, outa, _), (ob, outb, _) in ((a1, b1), (a2, b2)):
            assert oa == ob == "completed"
            assert outa == outb
        assert final_grid_state(tb_a) == final_grid_state(tb_b)

    def test_restart_then_idle_matches_undisturbed(self):
        self._assert_equivalent(
            self._two_phase(restart=False), self._two_phase(restart=True)
        )

    def test_restart_then_idle_matches_with_perf_layer(self):
        """Same equivalence with caching/elision on — restore must
        invalidate the blob cache, not serve pre-restart state."""
        self._assert_equivalent(
            self._two_phase(restart=False, perf=True),
            self._two_phase(restart=True, perf=True),
        )

    def test_observed_restart_run_exports_deterministically(self):
        """Two identical seeded restart runs with observability on
        export byte-identical obs JSON."""
        tb1, _, _ = self._two_phase(restart=True, observability=True)
        tb2, _, _ = self._two_phase(restart=True, observability=True)
        assert tb1.obs.export_json() == tb2.obs.export_json()
        named = tb1.obs.spans.named("host.restart")
        assert len(named) == 1
        assert tb1.obs.spans.named("wsrf.recover"), "recovery spans missing"
        reg = tb1.obs.collect()
        restarts = {
            labels.get("service"): metric.value
            for _name, labels, metric in reg.query("host.restarts")
        }
        assert restarts.get("ExecService") == 1


# -- write-ahead ordering unit tests ------------------------------------------------


class Announcer(ServiceSkeleton):
    """Minimal service exercising send_after_persist semantics."""

    done = Resource(default=False)

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource())

    @WebMethod
    def Finish(self) -> str:
        self.done = True
        body = build_notify_body(
            "t/done", Element(QName(UVA, "Done")), self.wsrf.my_epr()
        )
        self.wsrf.send_after_persist(self.wsrf.my_epr(), body)
        return "ok"

    @WebMethod
    def AnnounceOnly(self) -> str:
        """Sends without mutating state (write-elision path)."""
        body = build_notify_body(
            "t/ping", Element(QName(UVA, "Ping")), self.wsrf.my_epr()
        )
        self.wsrf.send_after_persist(self.wsrf.my_epr(), body)
        return "ok"


def _wal_fabric(db_access_s=0.0008, perf=False):
    env = Environment()
    net = Network(env)
    machine = Machine(
        net, "server", params=MachineParams(db_access_s=db_access_s)
    )
    wrapper = deploy(Announcer, machine, "Announcer", perf=perf)
    net.add_host("client")
    client = WsrfClient(net, "client")
    return env, net, machine, wrapper, client


def _drive(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def _notify_count(net):
    return net.stats.by_category.get("notify", 0)


class TestWriteAheadContract:
    def test_notification_waits_for_db_save(self):
        """At the instant the queued Notify first hits the wire, the
        state it announces is already in the store."""
        env, net, machine, wrapper, client = _wal_fabric(db_access_s=0.5)
        epr = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        rid = epr.get(QName(UVA, "ResourceID"))
        env.process(client.call(epr, UVA, "Finish"))
        while _notify_count(net) == 0:
            env.step()
        state = wrapper.store.load("Announcer", rid)
        assert state[QName(UVA, "done")] is True

    def test_crash_inside_dispatch_discards_state_and_send(self):
        """A bounce during the db_save window: the caller sees a reset,
        nothing was persisted, and the queued Notify never left."""
        env, net, machine, wrapper, client = _wal_fabric(db_access_s=2.0)
        host = machine.host
        epr = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        rid = epr.get(QName(UVA, "ResourceID"))
        start = env.now

        def bounce(env):
            # db_load ends ~start+2; the method is instant; the crash
            # lands inside the db_save delay (~start+2 .. start+4).
            yield env.timeout(3.0)
            snap = host.snapshot()
            host.down = True
            yield env.timeout(1.0)
            host.restore(snap)
            host.down = False

        env.process(bounce(env))
        with pytest.raises(DeliveryError):
            _drive(env, client.call(epr, UVA, "Finish"))
        assert env.now >= start + 3.0
        assert _notify_count(net) == 0
        state = wrapper.store.load("Announcer", rid)
        assert state[QName(UVA, "done")] is False
        assert host.boot_epoch == 1
        # The client's retry succeeds against the restored host and the
        # deferred send finally goes out — at-least-once end to end.
        assert _drive(env, client.call(epr, UVA, "Finish")) == "ok"
        env.run(until=env.now + 5.0)
        assert _notify_count(net) == 1
        assert wrapper.store.load("Announcer", rid)[QName(UVA, "done")] is True

    def test_elided_write_still_flushes_outbox(self):
        """PR 5's write elision skips the db_save stage when nothing
        changed; the WAL flush must still run (the state the send
        describes was already durable)."""
        env, net, machine, wrapper, client = _wal_fabric(perf=True)
        epr = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        _drive(env, client.call(epr, UVA, "AnnounceOnly"))
        _drive(env, client.call(epr, UVA, "AnnounceOnly"))
        env.run(until=env.now + 5.0)
        assert wrapper.writes_elided >= 1
        assert _notify_count(net) == 2


class TestRestartPrimitives:
    """Wrapper/host snapshot-restore mechanics outside a full grid."""

    def test_restore_rolls_back_to_checkpoint(self):
        env, net, machine, wrapper, client = _wal_fabric()
        host = machine.host
        epr = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        rid = epr.get(QName(UVA, "ResourceID"))
        snap = host.snapshot()
        _drive(env, client.call(epr, UVA, "Finish"))
        env.run(until=env.now + 1.0)
        assert wrapper.store.load("Announcer", rid)[QName(UVA, "done")] is True
        host.restore(snap)
        assert wrapper.store.load("Announcer", rid)[QName(UVA, "done")] is False
        assert wrapper.restarts == 1
        assert host.boot_epoch == 1

    def test_rid_allocator_restored_with_checkpoint(self):
        """Resources created after the checkpoint vanish on restore and
        their ids are reused — no collisions, no gaps."""
        env, net, machine, wrapper, client = _wal_fabric()
        host = machine.host
        epr1 = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        snap = host.snapshot()
        epr2 = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        host.restore(snap)
        epr3 = _drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        rid2 = epr2.get(QName(UVA, "ResourceID"))
        rid3 = epr3.get(QName(UVA, "ResourceID"))
        assert rid2 == rid3  # the id the dead boot burned is reissued
        assert wrapper.store.exists("Announcer", rid3)
        assert epr1.get(QName(UVA, "ResourceID")) != rid3

    def test_restart_host_unknown_name_raises(self):
        tb = _make_testbed()
        with pytest.raises(KeyError):
            tb.restart_host("no-such-machine")
