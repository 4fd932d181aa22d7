"""Tier-2 wsrfcheck: the runtime happens-before + lockset sanitizer.

Proof layers:

- **Clean suites**: the Fig. 3 listener run, a 20%-drop chaos run and a
  host-bounce restart run all execute sanitized with zero reports — and
  byte-identical traces/obs exports to the unsanitized control, so the
  hooks observe without perturbing (the ``network.obs`` contract).
- **Both tiers catch the same bug**: the deliberately-racy LOCK001
  fixture (``tests/analysis_fixtures/races.py``) is flagged statically
  by LOCK001 *and*, when driven live against a deployed wrapper, by the
  dynamic lockset; its lock-taking twin is clean both ways.
- **Happens-before mechanics**: spawn edges order a parent's writes
  before its child's; unrelated processes racing on a bare store row
  are reported.
"""

import sys
from dataclasses import replace

import pytest

from repro.analysis import analyze_paths
from repro.analysis.sanitizer import RaceSanitizer
from repro.db import BlobResourceStore
from repro.gridapp import Testbed
from repro.net import Network
from repro.osim import Machine, MachineParams
from repro.sim import Environment
from repro.sim.sync import Lock
from repro.wsrf import Resource, ServiceSkeleton, WebMethod, WsrfClient, deploy
from repro.xmlx import NS

from tests.equivalence import FT, SCENARIOS, Scenario, run_scenario
from tests.helpers import timed_trace
from tests.test_analysis import FIXTURES, REPO_ROOT

sys.path.insert(0, str(FIXTURES.parent))
from analysis_fixtures.races import (  # noqa: E402
    start_safe_sweeper,
    start_unsafe_sweeper,
)

UVA = NS.UVACG


def _with_and_without(scenario):
    """*scenario* unsanitized and sanitized: ``(tb_off, tb_on)``, both
    completed (tests/equivalence.py ``run_scenario`` does the driving)."""
    runs = [
        run_scenario(replace(scenario, testbed=dict(scenario.testbed, sanitize=sanitize)))
        for sanitize in (False, True)
    ]
    assert [result["outcome"] for _, result in runs] == ["completed", "completed"]
    return runs[0][0], runs[1][0]


class TestCleanSuites:
    """The shipped grid races nowhere the sanitizer can see."""

    @pytest.mark.sanitize_off_vs_on
    def test_fig3_clean_with_identical_trace_and_obs(self):
        # machine_speeds=None: the testbed's own heterogeneous default
        tb_off, tb_on = _with_and_without(
            Scenario(testbed=dict(machine_speeds=None), n_jobs=4))
        assert tb_off.san is None
        assert tb_on.san.accesses_checked > 0
        tb_on.san.assert_clean()
        # Observation only: the sanitized run is indistinguishable.
        assert timed_trace(tb_off) == timed_trace(tb_on)
        assert tb_off.obs.export_json() == tb_on.obs.export_json()

    def test_chaos_run_clean(self):
        tb_off, tb_on = _with_and_without(Scenario(testbed=FT, drop=0.2, polled=True))
        assert tb_on.network.stats.drops > 0
        tb_on.san.assert_clean()
        assert timed_trace(tb_off) == timed_trace(tb_on)

    def test_restart_run_clean(self):
        """Bouncing the central host exercises the recovery barrier:
        wsrf_recover's writes and post-restart dispatches must not be
        reported against the dead boot's accesses."""
        tb_off, tb_on = _with_and_without(SCENARIOS["central_bounce"])
        assert tb_on.scheduler.restarts == 1
        tb_on.san.assert_clean()
        assert timed_trace(tb_off) == timed_trace(tb_on)

    def test_federated_fig3_clean(self):
        """A federated Fig. 3 run — aggregator refreshes, cross-zone
        dispatch and the broker uplink included — is sanitizer-clean,
        and the hooks stay observation-only (identical trace/export).
        The aggregator's read-refresh-serve cycle is the path at risk:
        it rewrites entry rows outside a requires_resource dispatch,
        which is exactly the shape the lockset checker flags unless the
        entry's own resource lock is held (as NIS ReportUtilization
        does)."""
        from repro.gridapp import FederationConfig

        tb_off, tb_on = _with_and_without(Scenario(
            testbed=dict(
                n_machines=2, machine_speeds=None,
                federation=FederationConfig(
                    n_zones=2, max_queued_per_machine=1, staleness_s=0.0,
                ),
            ),
            n_jobs=4,
        ))
        # staleness_s=0 forces a NIS re-fetch + entry rewrite on every
        # aggregator read; the tight queue cap forces aggregator reads.
        assert tb_on.aggregator.catalog_refreshes > 0
        crossed = sum(
            getattr(z.scheduler, "cross_zone_dispatches", 0)
            for z in tb_on.zones
        )
        assert crossed > 0
        assert tb_on.san.accesses_checked > 0
        tb_on.san.assert_clean()
        assert timed_trace(tb_off) == timed_trace(tb_on)
        assert tb_off.obs.export_json() == tb_on.obs.export_json()


# -- the racy fixture, caught by both tiers ----------------------------------------


class CounterService(ServiceSkeleton):
    count = Resource(default=0)

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource())

    @WebMethod
    def Bump(self) -> int:
        self.count = self.count + 1
        return self.count


def _counter_fabric():
    env = Environment()
    san = RaceSanitizer(env)
    net = Network(env)
    machine = Machine(net, "server", params=MachineParams(db_access_s=0.01))
    wrapper = deploy(CounterService, machine, "Counter")
    net.add_host("client")
    client = WsrfClient(net, "client")
    return env, san, wrapper, client


def _drive_sweeper(start):
    """One resource, locked Bump dispatches every 0.7 s, plus the
    fixture's background sweeper rewriting every row each second."""
    env, san, wrapper, client = _counter_fabric()
    proc = env.process(client.call(wrapper.service_epr(), UVA, "Create"))
    env.run(until=proc)
    epr = proc.value
    start(env, wrapper)

    def traffic(env):
        for _ in range(5):
            yield env.timeout(0.7)
            yield from client.call(epr, UVA, "Bump")

    tproc = env.process(traffic(env))
    env.run(until=tproc)
    env.run(until=env.now + 1.0)
    return san


class TestRacyFixtureBothTiers:
    def test_static_tier_flags_unsafe_sweeper(self):
        report = analyze_paths(
            [str(FIXTURES / "races.py")], rules=["LOCK001"], root=REPO_ROOT
        )
        symbols = {f.symbol for f in report.findings}
        assert any(s.startswith("start_unsafe_sweeper") for s in symbols)
        assert not any(s.startswith("start_safe_sweeper") for s in symbols)

    def test_dynamic_tier_flags_unsafe_sweeper_live(self):
        san = _drive_sweeper(start_unsafe_sweeper)
        races = [r for r in san.reports if r.kind == "data-race"]
        assert races, "the unlocked sweeper must race the locked dispatch"
        assert "sweeper" in races[0].detail
        assert "Counter" in races[0].key
        with pytest.raises(AssertionError, match="data-race"):
            san.assert_clean()

    def test_dynamic_tier_clean_on_safe_sweeper(self):
        san = _drive_sweeper(start_safe_sweeper)
        assert san.accesses_checked > 0
        san.assert_clean()
        assert san.summary() == {}


# -- happens-before mechanics -------------------------------------------------------


class TestHappensBefore:
    def _bare(self):
        env = Environment()
        san = RaceSanitizer(env)
        store = BlobResourceStore()
        san.instrument_store(store, owner="m")
        store.create("S", "row", {})
        return env, san, store

    def test_spawn_edge_orders_parent_before_child(self):
        env, san, store = self._bare()

        def child(env):
            yield env.timeout(0.5)
            store.save("S", "row", {"by": "child"})

        def parent(env):
            yield env.timeout(1.0)
            store.save("S", "row", {"by": "parent"})
            env.process(child(env))

        env.process(parent(env))
        env.run()
        san.assert_clean()

    def test_unrelated_writers_race(self):
        env, san, store = self._bare()

        def writer(env, who, delay):
            yield env.timeout(delay)
            store.save("S", "row", {"by": who})

        env.process(writer(env, "one", 1.0))
        env.process(writer(env, "two", 2.0))
        env.run()
        assert san.summary() == {"data-race": 1}
        assert san.reports[0].key == "m:S/row"

    def test_common_lock_serializes_writers(self):
        env, san, store = self._bare()
        lock = Lock(env)

        def writer(env, who, delay):
            yield env.timeout(delay)
            yield lock.acquire()
            try:
                store.save("S", "row", {"by": who})
            finally:
                lock.release()

        env.process(writer(env, "one", 1.0))
        env.process(writer(env, "two", 2.0))
        env.run()
        san.assert_clean()

    def test_setup_writes_precede_the_run(self):
        """Top-level writes between runs are a barrier: every process
        in the next run is ordered after them (no false positives from
        testbed assembly)."""
        env, san, store = self._bare()
        store.save("S", "row", {"by": "setup"})

        def writer(env):
            yield env.timeout(1.0)
            store.save("S", "row", {"by": "proc"})

        env.process(writer(env))
        env.run()
        san.assert_clean()

    def test_a_condition_fired_by_a_callback_orders_only_what_it_waited_on(self):
        """AnyOf fires in its member's step, outside any process: the
        waiter it resumes is not ordered after an unrelated earlier write
        (the kernel clock, which has joined every processed event, would
        order it so)."""
        env, san, store = self._bare()

        def writer(env):
            yield env.timeout(1.0)
            store.save("S", "row", {"by": "writer"})

        def waiter(env):
            yield env.any_of([env.timeout(2.0)])
            store.save("S", "row", {"by": "waiter"})

        env.process(writer(env))
        env.process(waiter(env))
        env.run()
        assert san.summary() == {"data-race": 1}

    def test_a_condition_joins_every_member_that_fired(self):
        env, san, store = self._bare()

        def writer(env):
            yield env.timeout(1.0)
            store.save("S", "row", {"by": "writer"})

        def waiter(env, p1):
            yield env.all_of([p1, env.timeout(2.0)])
            store.save("S", "row", {"by": "waiter"})

        p1 = env.process(writer(env))
        env.process(waiter(env, p1))
        env.run()
        san.assert_clean()

    @pytest.mark.sanitize_off_vs_on
    def test_sanitize_off_is_absent(self):
        env = Environment()
        assert env.san is None
        tb = Testbed(n_machines=1, seed=11)
        assert tb.san is None and tb.env.san is None

    def test_assert_clean_lists_every_report(self):
        env, san, store = self._bare()

        def writer(env, who, delay):
            yield env.timeout(delay)
            store.save("S", "row", {"by": who})

        for i, delay in enumerate([1.0, 2.0, 3.0]):
            env.process(writer(env, f"w{i}", delay))
        env.run()
        with pytest.raises(AssertionError) as err:
            san.assert_clean()
        assert str(len(san.reports)) in str(err.value)
