"""Differential harness: the performance layer changes latencies only.

``Testbed(perf=True)`` turns on state caching, write elision,
batched notification fan-out and NIS pass caching.  The layer's whole
contract is *outcome equivalence*: the same job sets must produce
byte-identical results, trace content and final resource state as the
unoptimized pipeline — only simulated latencies (and the message count)
may differ.  This file is the proof:

- full Fig. 3 job sets (independent and dependency-chained) run with
  the layer on vs. off, comparing outcomes, output bytes, trace
  multisets and normalized final store state;
- chaos scenarios (20% link drop + retries + watchdog) with caching on
  must still complete with byte-identical outputs, never serving stale
  state or resurrecting destroyed resources;
- Hypothesis coherence properties drive random create/load/save/
  destroy/scan_query interleavings against a plain
  :class:`BlobResourceStore` oracle, including destroy-then-recreate
  of the same resource id.

Trace *times* and message counts are excluded from the comparisons by
design: elided DB delays shift every later timestamp, and batching
collapses fan-out messages — that is the point of the layer.  What must
never change is which events happen, in which causal order, with which
values.  docs/performance.md documents this contract.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    BlobResourceStore,
    CachedResourceStore,
    DbError,
    NoSuchResource,
)
from repro.wsn import build_notify_batch_body, parse_notify_body
from repro.xmlx import NS, Element, QName

from tests.equivalence import PAYLOAD, SCENARIOS, Scenario, run_scenario
from tests.helpers import final_grid_state, timed_trace

UVA = NS.UVACG

def _trace_content(tb):
    """Trace events without their timestamps (order preserved per actor)."""
    return sorted((e.step, e.actor, e.detail) for e in tb.trace.events)


def _run(perf, chain=False):
    """The Fig-3 fan (or, *chain*, the staging chain) as
    tests/equivalence.py drives it, with what this differential compares
    beside the result: the untimed trace and the final grid state."""
    tb, result = run_scenario(
        Scenario(testbed=dict(perf=perf), n_jobs=4 if chain else 8, chain=chain))
    return dict(result, tb=tb, trace=_trace_content(tb), state=final_grid_state(tb))


class TestDifferentialFig3:
    """The tentpole: full Fig. 3 job sets, layer on vs. off."""

    def _assert_equivalent(self, off, on):
        assert on["outcome"] == off["outcome"] == "completed"
        assert on["outputs"] == off["outputs"]
        assert on["exit_codes"] == off["exit_codes"]
        assert on["placements"] == off["placements"]
        assert on["trace"] == off["trace"]
        assert on["state"] == off["state"]
        # The client hears the same events; batching may interleave
        # deliveries across topics differently but never reorders or
        # drops within the run (fault-free fabric here).
        assert sorted(on["client_events"]) == sorted(off["client_events"])

    def test_independent_jobset_equivalent(self):
        off = _run(False)
        on = _run(True)
        self._assert_equivalent(off, on)
        # ...and the optimizations actually engaged:
        tb = on["tb"]
        assert tb.scheduler.store.hits > 0
        assert tb.scheduler.writes_elided > 0
        assert tb.scheduler.loads_elided > 0
        assert getattr(tb.scheduler, "nis_polls_elided", 0) > 0
        batcher = tb.broker.notification_producer.batcher
        assert batcher.batches_sent > 0
        assert batcher.notifications_batched > batcher.batches_sent
        # The headline effect: strictly fewer central messages.
        assert (
            tb.network.stats.messages
            < off["tb"].network.stats.messages
        )

    def test_chain_jobset_equivalent(self):
        """Dependencies exercise job_dirs fill-in and inter-FSS staging."""
        off = _run(False, chain=True)
        on = _run(True, chain=True)
        self._assert_equivalent(off, on)

    def test_caches_remain_coherent_after_run(self):
        on = _run(True)
        tb = on["tb"]
        wrappers = [tb.scheduler, tb.broker, tb.node_info]
        wrappers += list(tb.es.values()) + list(tb.fss.values())
        for wrapper in wrappers:
            assert isinstance(wrapper.store, CachedResourceStore), wrapper.path
            wrapper.store.assert_coherent()

    def test_codec_handoff_matches_the_reference_codec(self, reference_codec):
        """The codec hand-off is no part of the switch; its row compares
        each pipeline with itself on the reference codec, and is stricter
        than the layer's — no simulated quantity may move, timestamps
        included."""
        for perf in (False, True):
            run = _run(perf)
            with reference_codec():
                reference = _run(perf)
            assert reference["tb"].network.codec.parse_hits == 0
            self._assert_equivalent(reference, run)
            assert timed_trace(run["tb"]) == timed_trace(reference["tb"])
            assert run["tb"].env.now == reference["tb"].env.now
            assert run["tb"].network.stats.bytes == reference["tb"].network.stats.bytes


class TestDifferentialChaos:
    """Chaos scenarios with the layer on: outcomes still correct.

    Fault injection draws one RNG value per lossy-link message, so the
    perf layer's different message sequence yields a *different* drop
    pattern — run-to-run state equality is not defined here.  What must
    hold: completion, byte-identical outputs, and cache coherence (no
    stale reads, no resurrected resources).
    """

    def test_chaos_with_perf_layer_completes_identically(self):
        tb_off, off = run_scenario(SCENARIOS["drop20_ft"])
        tb_on, on = run_scenario(SCENARIOS["drop20_ft_perf"])
        assert off["outcome"] == on["outcome"] == "completed"
        assert tb_on.network.stats.drops > 0, "chaos must actually have bitten"
        assert on["outputs"] == off["outputs"]
        assert set(on["outputs"]) == {f"job{i:02d}" for i in range(8)}
        assert all(content == PAYLOAD for content in on["outputs"].values())

    def test_chaos_caches_stay_coherent(self):
        """Retried dispatches and watchdog re-dispatches never leave a
        cache stale or holding a destroyed resource."""
        tb, result = run_scenario(SCENARIOS["drop20_ft_perf"])
        assert result["outcome"] == "completed"
        wrappers = [tb.scheduler, tb.broker, tb.node_info]
        wrappers += list(tb.es.values()) + list(tb.fss.values())
        for wrapper in wrappers:
            wrapper.store.assert_coherent()


# -- property-based cache coherence (satellite 1) -----------------------------------

_SERVICES = ("SvcA", "SvcB")
_RIDS = ("r1", "r2", "r3")

_value = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["", "x", "Exited", "Running"]),
)
_state = st.dictionaries(
    st.sampled_from([QName(UVA, "Status"), QName(UVA, "count")]),
    _value,
    max_size=2,
)
_service = st.sampled_from(_SERVICES)
_rid = st.sampled_from(_RIDS)

_op = st.one_of(
    st.tuples(st.just("create"), _service, _rid, _state),
    st.tuples(st.just("load"), _service, _rid),
    st.tuples(st.just("save"), _service, _rid, _state),
    st.tuples(st.just("destroy"), _service, _rid),
    st.tuples(st.just("exists"), _service, _rid),
    st.tuples(st.just("list_ids"), _service),
    st.tuples(st.just("scan_query"), _service),
)


def _apply(store, op):
    """Run one op; returns a comparable (tag, result) pair."""
    kind = op[0]
    try:
        if kind == "create":
            store.create(op[1], op[2], dict(op[3]))
            return ("ok", None)
        if kind == "load":
            return ("ok", store.load(op[1], op[2]))
        if kind == "save":
            store.save(op[1], op[2], dict(op[3]))
            return ("ok", None)
        if kind == "destroy":
            store.destroy(op[1], op[2])
            return ("ok", None)
        if kind == "exists":
            return ("ok", store.exists(op[1], op[2]))
        if kind == "list_ids":
            return ("ok", store.list_ids(op[1]))
        return ("ok", store.scan_query(op[1], "Status[.='Exited']"))
    except (NoSuchResource, DbError) as exc:
        return ("err", type(exc).__name__)


class TestCacheCoherenceProperty:
    @settings(max_examples=120, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=40))
    def test_random_op_sequences_match_oracle(self, ops):
        """Any interleaving of ops across services: the cached store and
        the plain BlobResourceStore oracle return identical results
        (including faults) and end in identical database state."""
        oracle = BlobResourceStore()
        cached = CachedResourceStore()
        for op in ops:
            assert _apply(cached, op) == _apply(oracle, op), op
        cached.assert_coherent()
        for service in _SERVICES:
            assert cached.list_ids(service) == oracle.list_ids(service)
            for rid in oracle.list_ids(service):
                assert cached.load(service, rid) == oracle.load(service, rid)

    @settings(max_examples=60, deadline=None)
    @given(
        first=_state, second=_state,
        rid=_rid, service=_service,
    )
    def test_destroy_then_recreate_same_rid(self, first, second, rid, service):
        """The classic invalidation bug: recreating a destroyed rid must
        serve the *new* state, never the cached old one."""
        oracle = BlobResourceStore()
        cached = CachedResourceStore()
        for store in (oracle, cached):
            store.create(service, rid, dict(first))
            store.load(service, rid)
            store.destroy(service, rid)
            store.create(service, rid, dict(second))
        assert cached.load(service, rid) == oracle.load(service, rid) == second
        assert not cached.is_cached(service, "never-created")
        cached.assert_coherent()

    def test_hits_and_misses_are_counted(self):
        cached = CachedResourceStore()
        cached.create("S", "r", {QName(UVA, "v"): 1})
        assert cached.is_cached("S", "r")
        assert cached.load("S", "r") == {QName(UVA, "v"): 1}
        assert (cached.hits, cached.misses) == (1, 0)
        # A cold cache over a pre-populated inner store misses once,
        # then hits.
        inner = BlobResourceStore()
        inner.create("S", "r", {QName(UVA, "v"): 2})
        cold = CachedResourceStore(inner)
        cold.load("S", "r")
        cold.load("S", "r")
        assert (cold.hits, cold.misses) == (1, 1)
        # D-3 counters keep reporting database operations only.
        assert cold.loads == 1

    def test_loaded_state_is_value_isolated(self):
        """Mutating a loaded dict (or nested Element) must not corrupt
        the cache — blobs, not object references, are cached."""
        cached = CachedResourceStore()
        key = QName(UVA, "payload")
        cached.create("S", "r", {key: Element(QName(UVA, "Doc"), text="a")})
        state = cached.load("S", "r")
        state[key].text = "MUTATED"
        state[QName(UVA, "extra")] = 1
        fresh = cached.load("S", "r")
        assert fresh[key].text == "a"
        assert QName(UVA, "extra") not in fresh
        cached.assert_coherent()


# -- batching semantics -------------------------------------------------------------

class TestBatchedNotifications:
    def test_batch_body_round_trip(self):
        events = [
            (f"t/{i}", Element(QName(UVA, "Ev"), text=str(i))) for i in range(3)
        ]
        body = build_notify_batch_body(events)
        parsed = parse_notify_body(body)
        assert [(t, p.full_text()) for t, p, _ in parsed] == [
            ("t/0", "0"), ("t/1", "1"), ("t/2", "2")
        ]

    def test_enqueued_payloads_are_isolated(self):
        """The publisher may mutate its payload after publish returns;
        the batch must carry the value at publish time."""
        from repro.wsn.batching import NotificationBatcher

        class _Sub:
            resource_id = "sub-1"

        class _Env:
            def process(self, gen):
                return gen  # never driven: we only inspect the queue

        class _Wrapper:
            env = _Env()

        class _Producer:
            wrapper = _Wrapper()

        batcher = NotificationBatcher(_Producer())
        payload = Element(QName(UVA, "Ev"), text="before")
        batcher.enqueue(_Sub(), "t", payload)
        payload.text = "after"
        queued = batcher._pending["sub-1"]
        assert queued[0][1].full_text() == "before"

    def test_per_job_event_order_preserved_end_to_end(self):
        """Across a whole batched Fig. 3 run, every job's lifecycle
        events reach the client in causal order."""
        on = _run(True)
        per_job = {}
        for topic, _local in on["client_events"]:
            parts = topic.split("/")
            if len(parts) == 3:  # jobset-xxxx/<job>/<event>
                per_job.setdefault(parts[1], []).append(parts[2])
        assert per_job, "client heard no job events"
        for job, events in per_job.items():
            assert events == ["created", "started", "exited"], job


# -- write elision and the default-off contract -------------------------------------

class TestWriteElision:
    def _fabric(self, perf, observability=False, store=None):
        from repro.net import Network
        from repro.osim import Machine
        from repro.sim import Environment
        from repro.wsrf import WsrfClient, deploy

        env = Environment()
        net = Network(env)
        if observability:
            from repro.obs import Observability

            Observability(env).attach(net)
        machine = Machine(net, "server")
        net.add_host("client")
        client = WsrfClient(net, "client")

        from repro.wsrf import (
            GetResourcePropertyPortType,
            Resource,
            ServiceSkeleton,
            WebMethod,
            WSRFPortType,
        )

        @WSRFPortType(GetResourcePropertyPortType)
        class Counter(ServiceSkeleton):
            value = Resource(default=0)

            @WebMethod(requires_resource=False)
            def Create(self):
                return self.epr_for(self.create_resource(value=0))

            @WebMethod
            def ReadValue(self) -> int:
                return self.value

            @WebMethod
            def Increment(self) -> int:
                self.value = self.value + 1
                return self.value

        wrapper = deploy(Counter, machine, "Counter", store=store, perf=perf)
        return env, net, machine, client, wrapper

    def _drive(self, env, gen):
        proc = env.process(gen)
        env.run(until=proc)
        return proc.value

    def test_read_only_dispatch_sheds_db_load_delay(self):
        results = {}
        for perf in (False, True):
            env, net, machine, client, wrapper = self._fabric(perf)
            epr = self._drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
            start = env.now

            def reads():
                for _ in range(10):
                    yield from client.call(epr, UVA, "ReadValue")

            self._drive(env, reads())
            results[perf] = (env.now - start) / 10
        db = 0.0008  # machine.params.db_access_s
        assert results[True] < results[False]
        # Read path sheds the full db_load delay (db_save is already
        # skipped by the dirty check; elision removes the stage, not a
        # delay, on reads).
        assert abs((results[False] - results[True]) - db) < 1e-9

    def test_elision_drops_the_db_save_stage(self):
        env, net, machine, client, wrapper = self._fabric(
            True, observability=True
        )
        obs = net.obs
        epr = self._drive(env, client.call(wrapper.service_epr(), UVA, "Create"))

        def calls():
            for _ in range(5):
                yield from client.call(epr, UVA, "ReadValue")
            yield from client.call(epr, UVA, "Increment")

        self._drive(env, calls())
        saves = obs.spans.named("wsrf.dispatch.db_save")
        loads = obs.spans.named("wsrf.dispatch.db_load")
        # Only the Increment (and the Create's db charge) open a
        # db_save stage; the five reads elide it entirely.
        assert wrapper.writes_elided == 5
        assert len(saves) == 2
        assert len(loads) == 6
        hit_attrs = [s.attrs.get("cache") for s in loads]
        assert hit_attrs.count("hit") == 6  # create primed the cache

    def test_mutations_are_never_elided(self):
        env, net, machine, client, wrapper = self._fabric(True)
        epr = self._drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        for expected in (1, 2, 3):
            got = self._drive(env, client.call(epr, UVA, "Increment"))
            assert got == expected
        assert self._drive(env, client.call(epr, UVA, "ReadValue")) == 3
        wrapper.store.assert_coherent()
        assert wrapper.store.inner.saves >= 4  # create + three increments

    def test_switch_builds_the_cache_unless_a_store_is_given(self):
        *_, wrapper = self._fabric(True)
        assert isinstance(wrapper.store, CachedResourceStore)
        given = BlobResourceStore()
        env, net, machine, client, wrapper = self._fabric(True, store=given)
        assert wrapper.store is given
        # The rest of the layer runs over the store as given: nothing
        # is served from a cache, clean saves are still elided.
        epr = self._drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        assert self._drive(env, client.call(epr, UVA, "Increment")) == 1
        assert self._drive(env, client.call(epr, UVA, "ReadValue")) == 1
        assert (wrapper.loads_elided, wrapper.writes_elided) == (0, 1)

    def test_default_off_keeps_plain_store_and_pipeline(self):
        env, net, machine, client, wrapper = self._fabric(False)
        assert isinstance(wrapper.store, BlobResourceStore)
        assert wrapper.perf is False
        epr = self._drive(env, client.call(wrapper.service_epr(), UVA, "Create"))
        self._drive(env, client.call(epr, UVA, "ReadValue"))
        assert wrapper.writes_elided == 0
        assert wrapper.loads_elided == 0
