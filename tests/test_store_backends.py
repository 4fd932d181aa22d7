"""Pluggable WS-Resource state backends (paper §3's future work).

"the next version (2.0) will expose this interface to programmers,
thereby allowing a larger set of abstractions (e.g., modeling legacy
systems as WS-Resources)."  The wrapper accepts any object with the
resource-store protocol: the default blob-relational store, the XML
store of §5's Yukon experiment, and (here) a custom provider that
models a legacy system's records as WS-Resources.
"""

import pytest

from repro.db import (
    BlobResourceStore,
    CachedResourceStore,
    NoSuchResource,
    ResourceStore,
    SqlResourceStore,
    XmlResourceStore,
)
from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.wsrf import (
    GetResourcePropertyPortType,
    QueryResourcePropertiesPortType,
    Resource,
    ResourceProperty,
    ResourceUnknownFault,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
    WsrfClient,
    deploy,
)
from repro.xmlx import NS, QName

UVA = NS.UVACG


@WSRFPortType(GetResourcePropertyPortType, QueryResourcePropertiesPortType)
class CounterService(ServiceSkeleton):
    count = Resource(default=0)

    @ResourceProperty
    @property
    def Count(self) -> int:
        return self.count

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource())

    @WebMethod
    def Bump(self) -> int:
        self.count = self.count + 1
        return self.count


def _fabric(store):
    env = Environment()
    net = Network(env)
    machine = Machine(net, "server")
    wrapper = deploy(CounterService, machine, "Counter", store=store)
    net.add_host("client")
    client = WsrfClient(net, "client")
    return env, wrapper, client


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


#: every backend, for the conformance suites below; a bare
#: CachedResourceStore() is CachedResourceStore(BlobResourceStore()).
#: All must also speak the uniform checkpoint dialect of
#: docs/durability.md: snapshot() -> {"Service|rid": encoded bytes}
BACKENDS = [
    BlobResourceStore,
    XmlResourceStore,
    SqlResourceStore,
    CachedResourceStore,
]

COUNT = QName(UVA, "count")


@pytest.mark.parametrize("store_cls", BACKENDS)
class TestInterchangeableBackends:
    def test_store_surface(self, store_cls):
        store = store_cls()
        assert isinstance(store, ResourceStore)
        store.create("Counter", "r2", {COUNT: 2})
        store.create("Counter", "r1", {COUNT: 1})
        assert store.exists("Counter", "r1") and not store.exists("Counter", "ghost")
        assert not store.exists("Other", "r1")
        assert list(store.list_ids("Counter")) == ["r1", "r2"]
        store.save("Counter", "r1", {COUNT: 5})
        loads = store.loads
        assert store.load("Counter", "r1") == {COUNT: 5}
        assert store.load("Counter", "r2") == {COUNT: 2}
        # Only the write-through cache ever serves a load without the
        # database (its D-3 load count does not move on a hit);
        # everyone answers the question.
        cached = store_cls is CachedResourceStore
        assert store.is_cached("Counter", "r1") is cached
        assert (store.hits, store.loads - loads) == ((2, 0) if cached else (0, 2))
        store.destroy("Counter", "r1")
        assert not store.exists("Counter", "r1")
        assert not store.is_cached("Counter", "r1")
        assert list(store.list_ids("Counter")) == ["r2"]
        for op in (store.load, store.destroy):
            with pytest.raises(NoSuchResource):
                op("Counter", "r1")
        with pytest.raises(NoSuchResource):
            store.save("Counter", "r1", {COUNT: 9})

    def test_full_lifecycle_identical(self, store_cls):
        env, wrapper, client = _fabric(store_cls())
        epr = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        assert run(env, client.call(epr, UVA, "Bump")) == 1
        assert run(env, client.call(epr, UVA, "Bump")) == 2
        assert run(env, client.get_resource_property(epr, QName(UVA, "Count"))) == 2

    def test_unknown_resource_faults(self, store_cls):
        env, wrapper, client = _fabric(store_cls())
        with pytest.raises(ResourceUnknownFault):
            run(env, client.call(wrapper.epr_for("ghost"), UVA, "Bump"))

    def test_query_works_on_both(self, store_cls):
        env, wrapper, client = _fabric(store_cls())
        epr = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        run(env, client.call(epr, UVA, "Bump"))
        hits = run(env, client.query_resource_properties(epr, "//Count/text()"))
        assert hits == ["1"]


class LegacyInventorySystem:
    """The 'legacy system' — a plain dict of part records, oblivious to WSRF."""

    def __init__(self):
        self.parts = {
            "part-100": {"stock": 12},
            "part-200": {"stock": 3},
        }


class LegacyStoreAdapter(ResourceStore):
    """Models the legacy system's records as WS-Resource state.

    Implements the store protocol (create/exists/load/save/destroy/
    list_ids; ``is_cached`` comes from the base) over the legacy structure; the WSRF wrapper neither knows
    nor cares that there is no database behind it.
    """

    def __init__(self, legacy: LegacyInventorySystem):
        self.legacy = legacy
        self.loads = self.saves = 0

    def _key(self):
        return QName(UVA, "count")  # CounterService's single field

    def create(self, service, rid, state):
        if rid in self.legacy.parts:
            raise ValueError(f"duplicate {rid}")
        self.legacy.parts[rid] = {"stock": int(state.get(self._key()) or 0)}
        self.saves += 1

    def exists(self, service, rid):
        return rid in self.legacy.parts

    def load(self, service, rid):
        try:
            record = self.legacy.parts[rid]
        except KeyError:
            raise NoSuchResource(rid) from None
        self.loads += 1
        return {self._key(): record["stock"]}

    def save(self, service, rid, state):
        if rid not in self.legacy.parts:
            raise NoSuchResource(rid)
        self.legacy.parts[rid]["stock"] = int(state.get(self._key()) or 0)
        self.saves += 1

    def destroy(self, service, rid):
        if rid not in self.legacy.parts:
            raise NoSuchResource(rid)
        del self.legacy.parts[rid]

    def list_ids(self, service):
        return sorted(self.legacy.parts)


@pytest.mark.parametrize("store_cls", BACKENDS)
class TestSnapshotRestore:
    def test_round_trip_is_byte_identical(self, store_cls):
        env, wrapper, client = _fabric(store_cls())
        epr1 = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        epr2 = run(env, client.call(wrapper.service_epr(), UVA, "Create"))
        run(env, client.call(epr1, UVA, "Bump"))
        snap = wrapper.store.snapshot()
        assert len(snap) == 2
        assert all(
            isinstance(k, str) and "|" in k and isinstance(v, bytes)
            for k, v in snap.items()
        )
        # Diverge past the checkpoint, then roll back.
        run(env, client.call(epr1, UVA, "Bump"))
        run(env, client.call(epr2, UVA, "Bump"))
        wrapper.store.restore(snap)
        assert wrapper.store.snapshot() == snap
        # The restored state is live: epr1 was at 1 in the checkpoint.
        assert run(env, client.call(epr1, UVA, "Bump")) == 2

    def test_restore_evicts_post_checkpoint_resources(self, store_cls):
        store = store_cls()
        store.create("Counter", "keep", {COUNT: 1})
        snap = store.snapshot()
        store.create("Counter", "doomed", {COUNT: 2})
        store.destroy("Counter", "keep")
        store.restore(snap)
        assert store.exists("Counter", "keep")
        assert not store.exists("Counter", "doomed")
        # Nothing is cached after a restart, whatever the backend: the
        # first load of a restored row is a database access again.
        assert not store.is_cached("Counter", "keep")
        loads = store.loads
        assert store.load("Counter", "keep") == {COUNT: 1}
        assert store.loads == loads + 1

    def test_empty_store_round_trip(self, store_cls):
        store = store_cls()
        assert store.snapshot() == {}
        store.create("Counter", "r1", {COUNT: 1})
        store.restore({})
        assert not store.exists("Counter", "r1")
        assert list(store.list_ids("Counter")) == []


class TestCheckpointPortability:
    def test_checkpoint_restores_into_any_backend(self):
        src = BlobResourceStore()
        src.create("Counter", "a", {COUNT: 7})
        src.create("Counter", "b", {COUNT: "text"})
        snap = src.snapshot()
        for dest_cls in (XmlResourceStore, SqlResourceStore, CachedResourceStore):
            dest = dest_cls()
            dest.restore(snap)
            assert dest.snapshot() == snap, dest_cls.__name__
            assert dest.load("Counter", "a") == src.load("Counter", "a")


class TestCachedStoreRestoreInvalidation:
    def test_a_hit_decodes_the_rows_current_bytes(self):
        """The cache holds no bytes of its own to go stale: a hit reads
        the row, so even a write that reached the row alone (never how
        the wrapper writes — the cache is write-through) is what the
        next hit returns, and the database load count does not move."""
        store = CachedResourceStore()
        store.create("Counter", "r1", {COUNT: 1})
        loads = store.inner.loads
        assert store.load("Counter", "r1") == {COUNT: 1}
        store.inner.save("Counter", "r1", {COUNT: 7})
        assert store.load("Counter", "r1") == {COUNT: 7}
        assert (store.hits, store.misses, store.inner.loads) == (2, 0, loads)

    def test_cache_cannot_resurrect_pre_restart_state(self):
        """Regression: restore() must empty the cache.

        A row cached before the checkpoint and rolled back (or removed)
        by it must be read from the database again: the key set is
        process memory, which the crash took.
        """
        store = CachedResourceStore()
        store.create("Counter", "r1", {COUNT: 1})
        before = store.load("Counter", "r1")  # primes the cache
        snap = store.snapshot()
        store.save("Counter", "r1", {COUNT: 99})
        store.create("Counter", "late", {COUNT: 3})  # cached, then rolled away
        store.restore(snap)
        assert store._cached == set()
        store.assert_coherent()
        assert store.load("Counter", "r1") == before
        assert (store.hits, store.misses) == (1, 1)
        assert store.is_cached("Counter", "r1") and not store.exists("Counter", "late")


class TestLegacySystemAsResources:
    def test_existing_records_are_ws_resources(self):
        legacy = LegacyInventorySystem()
        env, wrapper, client = _fabric(LegacyStoreAdapter(legacy))
        # The pre-existing legacy records answer WSRF calls immediately.
        epr = wrapper.epr_for("part-100")
        assert run(env, client.get_resource_property(epr, QName(UVA, "Count"))) == 12

    def test_wsrf_writes_hit_the_legacy_system(self):
        legacy = LegacyInventorySystem()
        env, wrapper, client = _fabric(LegacyStoreAdapter(legacy))
        run(env, client.call(wrapper.epr_for("part-200"), UVA, "Bump"))
        assert legacy.parts["part-200"]["stock"] == 4  # mutated in place

    def test_destroy_removes_legacy_record(self):
        legacy = LegacyInventorySystem()
        env, wrapper, client = _fabric(LegacyStoreAdapter(legacy))
        wrapper.destroy_resource("part-100")
        assert "part-100" not in legacy.parts
