"""Tests for the unified observability layer (repro.obs)."""

import json
import math

import pytest

from repro.net import CallTimeout, Network, RetryPolicy
from repro.obs import (
    MetricsRegistry,
    Observability,
    SpanRecorder,
    format_metric_name,
    load_snapshot,
    obs_of,
    parse_jsonl,
    render_dashboard,
    render_event_tail,
    render_pipeline_breakdown,
    render_trace,
)
from repro.gridapp import FaultToleranceConfig
from repro.gridapp.scheduler import SchedulerService
from repro.osim import Machine
from repro.sim import Environment
from repro.wsrf import (
    InvalidResourcePropertyQNameFault,
    ResourceUnknownFault,
    ServiceSkeleton,
    WebMethod,
    WsrfClient,
    deploy,
)
from repro.wsrf.tooling import WrapperService
from repro.xmlx import NS, QName

from tests.equivalence import SCENARIOS, Scenario, run_scenario
from tests.helpers import fan_spec, fig3_testbed


class TestMetricsRegistry:
    def test_counter_identity_is_name_plus_labels(self):
        reg = MetricsRegistry()
        reg.inc("net.messages", scheme="soap.tcp")
        reg.inc("net.messages", scheme="soap.tcp", amount=2)
        reg.inc("net.messages", scheme="http")
        assert reg.value("net.messages", scheme="soap.tcp") == 3
        assert reg.value("net.messages", scheme="http") == 1
        assert reg.value("net.messages") == 0  # unlabeled is distinct

    def test_counter_rejects_negative_and_kind_mismatch(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)
        reg.counter("x").inc()
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        reg.gauge("pool.free").set(25)
        reg.gauge("pool.free").inc(-3)
        assert reg.value("pool.free") == 22

    def test_histogram_quantiles_nearest_rank(self):
        reg = MetricsRegistry()
        for v in [5.0, 1.0, 2.0, 4.0, 3.0]:
            reg.observe("lat_s", v)
        hist = reg.histogram("lat_s")
        assert hist.count == 5
        assert hist.sum == 15.0
        assert hist.max == 5.0
        assert hist.p50 == 3.0
        assert hist.p95 == 5.0
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(1.0) == 5.0
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_empty_histogram(self):
        hist = MetricsRegistry().histogram("h")
        assert (hist.count, hist.sum, hist.max, hist.p50) == (0, 0.0, 0.0, 0.0)

    def test_value_on_histogram_raises(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        with pytest.raises(TypeError):
            reg.value("h")

    def test_query_pattern_and_order(self):
        reg = MetricsRegistry()
        reg.inc("net.messages", scheme="soap.tcp")
        reg.inc("net.messages")
        reg.inc("net.drops")
        reg.inc("wsrf.invocations")
        names = [format_metric_name(n, labels) for n, labels, _ in reg.query("net.*")]
        assert names == ["net.drops", "net.messages", "net.messages{scheme=soap.tcp}"]

    def test_snapshot_is_json_ready_and_sorted(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a")
        reg.observe("c_s", 0.5)
        snap = reg.snapshot()
        assert [entry["name"] for entry in snap] == ["a", "b", "c_s"]
        json.dumps(snap)  # must not raise
        assert snap[2]["kind"] == "histogram" and snap[2]["p95"] == 0.5


class TestSpanRecorder:
    def _recorder(self):
        env = Environment()
        return env, SpanRecorder(env)

    def test_message_id_stack_chains_layers(self):
        env, rec = self._recorder()
        outer = rec.start("client.invoke", message_id="m1")
        mid = rec.start("net.request", message_id="m1")
        inner = rec.start("wsrf.dispatch", message_id="m1")
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id
        rec.finish(inner)
        sibling = rec.start("iis.handle", message_id="m1")
        assert sibling.parent_id == mid.span_id  # innermost OPEN span wins

    def test_explicit_parent_wins_over_message_id(self):
        env, rec = self._recorder()
        a = rec.start("a", message_id="m1")
        b = rec.start("b", parent=a, message_id="m2")
        assert b.parent_id == a.span_id
        c = rec.start("c", message_id="m2")
        assert c.parent_id == b.span_id  # b registered under m2 despite parent

    def test_finish_is_idempotent_and_feeds_histogram(self):
        env = Environment()
        obs = Observability(env)
        span = obs.start_span("net.request", attrs={"scheme": "http", "epr": "uuid:x"})
        env.run(until=0.25)
        obs.finish(span)
        env.run(until=0.75)
        obs.finish(span)  # no-op
        assert span.duration == 0.25
        reg = obs.collect()
        hist = reg.histogram("net.request_s", scheme="http")
        assert hist.count == 1 and hist.p50 == 0.25
        # high-cardinality attrs (epr) must NOT become labels
        assert reg.query("net.request_s") == [
            ("net.request_s", {"scheme": "http"}, hist)
        ]

    def test_slowest_and_queries(self):
        env, rec = self._recorder()
        fast = rec.start("a")
        slow = rec.start("b")
        rec.finish(fast)
        env.run(until=1.0)
        rec.finish(slow)
        assert rec.slowest(1) == [slow]
        assert rec.get(fast.span_id) is fast
        assert rec.roots() == [fast, slow]
        assert rec.named("b") == [slow]
        assert rec.children(slow) == []

    def test_snapshot_shape(self):
        env, rec = self._recorder()
        span = rec.start("s", attrs={"b": 1, "a": 2})
        snap = rec.snapshot()
        assert snap == [
            {"id": span.span_id, "parent": None, "name": "s", "start": 0.0,
             "end": None, "attrs": {"a": 2, "b": 1}}
        ]


def _every_machine_down():
    """A fault-tolerant Fig-3 grid whose four machines are all down: the
    job set's only job fails after three dispatch attempts.  Returns the
    testbed and the job set's stored state."""
    tb = fig3_testbed(
        1.0, {}, machine_speeds=[1.0, 3.0, 2.0, 4.0],
        start_utilization_services=False, observability=True,
        fault_tolerance=FaultToleranceConfig(watchdog_period=5.0, stuck_after=20.0),
    )
    for machine in tb.machines:
        machine.host.down = True
    client = tb.make_client()
    outcome, jobset_epr, _ = tb.run_job_set(client, fan_spec(client, tb, 1))
    tb.settle(1.0)
    assert outcome == "failed"
    return tb, tb.scheduler.store.load(
        "Scheduler", jobset_epr.get(QName(NS.UVACG, "ResourceID"))
    )


def _completed(n_jobs=3, **testbed):
    """The testbed of a finished Fig-3 run on two machines, as
    tests/equivalence.py drives it (observed, unless *testbed* says
    ``observability=False``)."""
    tb, result = run_scenario(
        Scenario(testbed=dict(n_machines=2, **testbed), n_jobs=n_jobs))
    assert result["outcome"] == "completed"
    return tb


@pytest.fixture(scope="module")
def observed_run():
    return _completed()


class TestEndToEnd:
    def test_span_tree_covers_every_layer(self, observed_run):
        obs = observed_run.obs
        rec = obs.spans
        assert rec.open_spans() == []
        by_id = {span.span_id: span for span in rec.spans}

        submits = [
            s for s in rec.named("client.invoke")
            if s.attrs.get("operation") == "SubmitJobSet"
        ]
        assert len(submits) == 1
        (submit,) = submits
        assert submit.parent_id is None

        # client send → net.request → iis.handle → wsrf.dispatch → stages
        net = [s for s in rec.children(submit) if s.name == "net.request"]
        assert len(net) == 1
        iis = [s for s in rec.children(net[0]) if s.name == "iis.handle"]
        assert len(iis) == 1
        dispatch = [s for s in rec.children(iis[0]) if s.name == "wsrf.dispatch"]
        assert len(dispatch) == 1
        assert dispatch[0].attrs["service"] == "Scheduler"
        stage_names = {s.name for s in rec.children(dispatch[0])}
        assert {
            "wsrf.dispatch.queue", "wsrf.dispatch.epr_resolve",
            "wsrf.dispatch.method", "wsrf.dispatch.db_save",
        } <= stage_names
        # link transit legs under the network span
        legs = {s.attrs["leg"] for s in rec.children(net[0]) if s.name == "net.transit"}
        assert legs == {"request", "response"}

        # broker fan-out: every wsn.publish parented to a dispatch span
        publishes = rec.named("wsn.publish")
        assert publishes, "job events must fan out through wsn.publish"
        for pub in publishes:
            assert pub.parent_id is not None
            assert by_id[pub.parent_id].name == "wsrf.dispatch"
        broker_pubs = [
            p for p in publishes if p.attrs["service"] == "NotificationBroker"
        ]
        assert broker_pubs, "broker republish must be part of the span tree"

    def test_every_iis_handle_rides_a_transport_span(self, observed_run):
        # One-way sends outlive the dispatch that spawned them; the
        # net.oneway span, closed by the delivery, stays open until then
        # so the receiver's iis.handle parents to it instead of orphaning.
        rec = observed_run.obs.spans
        by_id = {span.span_id: span for span in rec.spans}
        handles = rec.named("iis.handle")
        assert handles
        for handle in handles:
            assert handle.parent_id is not None, handle.attrs
            parent = by_id[handle.parent_id]
            assert parent.name in ("net.request", "net.oneway")
            # the transport span covers the whole delivery
            assert parent.start <= handle.start
            assert parent.end >= handle.end

    def test_every_send_lasts_until_it_is_handed_off(self, observed_run):
        # A one-way send ends when its sender hands the message off, not
        # when the dispatch that started it ends.
        invokes = observed_run.obs.spans.named("client.invoke")
        assert any(s.attrs["category"] == "notify" for s in invokes)
        assert [s for s in invokes if s.duration == 0] == []

    def test_fig1_stages_partition_dispatch_latency(self, observed_run):
        """A clean Fig-3 run, the perf layer (elided db_save, cache-hit
        db_load) and a dispatch faulting in db_load and one in method:
        the stage spans come in table order, never overlap, all close
        and add up to the dispatch span."""
        table = [s[0] for s in WrapperService._STAGES]
        perf_run = _completed(perf=True)
        soap = perf_run.make_client().soap
        jobset = perf_run.scheduler.epr_for(perf_run.scheduler.resource_ids()[0])
        with pytest.raises(ResourceUnknownFault):
            perf_run.run(soap.get_resource_property(
                perf_run.scheduler.epr_for("ghost"), QName(NS.UVACG, "Status")))
        with pytest.raises(InvalidResourcePropertyQNameFault):
            perf_run.run(soap.get_resource_property(jobset, QName(NS.UVACG, "NoSuchRP")))

        clean, perf = set(), set()
        for rec, seen in ((observed_run.obs.spans, clean), (perf_run.obs.spans, perf)):
            assert rec.open_spans() == []
            dispatches = rec.named("wsrf.dispatch")
            assert len(dispatches) >= 10
            for dispatch in dispatches:
                stages = [
                    s for s in rec.children(dispatch)
                    if s.name.startswith("wsrf.dispatch.")
                ]
                names = [s.name for s in stages]
                assert names == [n for n in table if n in names], names
                assert names[:2] == table[:2]
                for before, after in zip(stages, stages[1:]):
                    assert before.end <= after.start
                stage_sum = sum(s.duration for s in stages)
                assert dispatch.duration > 0
                # acceptance criterion: stage sum within 5% of dispatch latency
                assert math.isclose(stage_sum, dispatch.duration, rel_tol=0.05), (
                    dispatch.attrs, stage_sum, dispatch.duration,
                )
                cache = [s.attrs["cache"] for s in stages if "cache" in s.attrs]
                seen.add(("fault" in dispatch.attrs, names[-1].rsplit(".", 1)[1], *cache))
        # the clean run: no cache attr, db_save never skipped, no fault
        assert clean == {(False, "db_save")}
        # the perf layer: cache-hit loads, and dispatches ending at method
        assert {(False, "method", "hit"), (False, "db_save", "hit")} <= perf
        # the two faults stop the pipeline in the stage that raised
        assert {(True, "db_load", "miss"), (True, "method", "hit")} <= perf

    def test_scheduler_stages_partition_each_dispatch(self, observed_run):
        """The Fig-3 run, a 20 %-drop fault-tolerant run, a two-zone run
        that spills to the aggregator, and a run whose every machine is
        down (FT fails over twice, then gives up): each
        ``scheduler.dispatch`` span is partitioned by its stage spans,
        in table order, and nothing is left open."""
        table = [name for name, _ in SchedulerService._STAGES]
        drop_run, _ = run_scenario(SCENARIOS["drop20_ft"])
        spill_run, _ = run_scenario(SCENARIOS["zones_2_spill"])
        down_run, state = _every_machine_down()
        for tb in (observed_run, drop_run, spill_run, down_run):
            rec = tb.obs.spans
            assert rec.open_spans() == []
            dispatches = rec.named("scheduler.dispatch")
            assert dispatches
            for dispatch in dispatches:
                assert rec.get(dispatch.parent_id).name == "wsrf.dispatch"
                stages = rec.children(dispatch)
                names = [s.name for s in stages]
                assert names and names == table[:len(names)], names
                for before, after in zip(stages, stages[1:]):
                    assert before.end <= after.start
                assert stages[0].start == dispatch.start
                assert stages[-1].end == dispatch.end
                assert math.isclose(
                    sum(s.duration for s in stages), dispatch.duration, rel_tol=0.05
                )
                # a stage that raised carries the fault, and ends the attempt
                faulted = [s for s in stages if "fault" in s.attrs]
                assert faulted in ([], stages[-1:])
                assert dispatch.attrs.get("fault") == (
                    faulted[0].attrs["fault"] if faulted else None
                )
        # the run with every machine down: three attempts, each ending in
        # a Run that never answered; the two that failed over excluded
        # exactly the machines they had been sent to
        attempts = rec.named("scheduler.dispatch")
        assert [d.attrs["attempt"] for d in attempts] == [1, 2, 3]
        for dispatch in attempts:
            run = rec.children(dispatch)[-1]
            assert run.name == "scheduler.dispatch.run"
            assert run.attrs["fault"] == "DeliveryError"
        failed_over = sorted(d.attrs["machine"] for d in attempts[:2])
        assert state[QName(NS.UVACG, "job_excluded")] == {"job0": failed_over}

    def test_registry_mirrors_adhoc_counters(self, observed_run):
        obs = observed_run.obs
        reg = obs.collect()
        stats = observed_run.network.stats
        assert reg.value("net.messages") == stats.messages
        assert reg.value("net.bytes") == stats.bytes
        for scheme, count in stats.by_scheme.items():
            assert reg.value("net.messages", scheme=scheme) == count
        total_invocations = sum(
            m.value for _, _, m in reg.query("wsrf.invocations")
        )
        wrappers = [observed_run.scheduler, observed_run.broker,
                    observed_run.node_info]
        wrappers += list(observed_run.fss.values())
        wrappers += list(observed_run.es.values())
        assert total_invocations == sum(w.invocations for w in wrappers)
        assert reg.value(
            "iis.requests_served", host="uvacg-central"
        ) == observed_run.central.iis.requests_served
        assert reg.value(
            "wsn.notifications_sent", service="NotificationBroker",
            host="uvacg-central",
        ) == observed_run.broker.notification_producer.notifications_sent

    def test_dispatch_histograms_fed_from_spans(self, observed_run):
        reg = observed_run.obs.collect()
        entries = reg.query("wsrf.dispatch_s")
        assert entries
        rec = observed_run.obs.spans
        assert sum(m.count for _, _, m in entries) == len(rec.named("wsrf.dispatch"))
        for _name, labels, _metric in entries:
            assert set(labels) <= {"service", "host", "operation"}

    def test_observability_adds_zero_simulated_latency(self):
        with_obs = _completed(2, seed=7)
        without = _completed(2, seed=7, observability=False)
        assert with_obs.env.now == without.env.now
        assert with_obs.network.stats.messages == without.network.stats.messages

    def test_disabled_mode_allocates_nothing(self):
        testbed = _completed(1, seed=5, observability=False)
        assert testbed.obs is None
        assert testbed.network.obs is None
        assert obs_of(testbed.network) is None
        assert obs_of(testbed.central) is None

    def test_seeded_runs_export_identical_json(self):
        a = _completed(2, seed=3).obs.export_json()
        b = _completed(2, seed=3).obs.export_json()
        assert a == b  # byte-identical

    def test_obs_of_resolves_through_machines(self, observed_run):
        assert obs_of(observed_run.network) is observed_run.obs
        assert obs_of(observed_run.central) is observed_run.obs
        assert obs_of(observed_run.machines[0]) is observed_run.obs



class _Slow(ServiceSkeleton):
    @WebMethod(requires_resource=False)
    def Wait(self):
        yield self.env.timeout(5.0)
        return 1

    @WebMethod(requires_resource=False)
    def Take(self, data: str) -> int:
        return len(data)


class TestAbandonedAttempt:
    """A call abandoned by its client's timeout leaves the server to run
    on: each span ends when its own work ends."""

    def _call(self, method, args=None, max_attempts=1, timeout_s=1.0):
        env = Environment()
        net = Network(env)
        obs = Observability(env).attach(net)
        wrapper = deploy(_Slow, Machine(net, "server"), "Slow")
        net.add_host("client")
        policy = RetryPolicy(max_attempts=max_attempts, timeout_s=timeout_s, jitter=0.0)
        client = WsrfClient(net, "client", retry_policy=policy)
        proc = env.process(client.call(wrapper.service_epr(), NS.UVACG, method, args))
        with pytest.raises(CallTimeout):
            env.run(until=proc)
        env.run(until=env.now + 30.0)
        assert obs.spans.open_spans() == []
        return obs.spans

    def test_each_span_ends_with_its_own_work(self):
        rec = self._call("Wait")
        (invoke,) = rec.named("client.invoke")
        (request,) = rec.named("net.request")
        assert invoke.end == request.end == 1.0
        (method,) = rec.named("wsrf.dispatch.method")
        assert method.duration == pytest.approx(5.0)
        (dispatch,) = rec.named("wsrf.dispatch")
        (handle,) = rec.named("iis.handle")
        assert handle.end == dispatch.end == method.end
        (save,) = rec.named("wsrf.dispatch.db_save")
        assert save.start == method.end
        # abandoned in transit: the request leg ends with its attempt
        rec = self._call("Take", {"data": "x" * 200_000}, timeout_s=0.03)
        (leg,) = rec.named("net.transit")
        assert leg.end == 0.03
        assert rec.named("iis.handle") == []

    def test_a_retry_parents_to_the_sender(self):
        rec = self._call("Wait", max_attempts=2)
        (invoke,) = rec.named("client.invoke")
        requests = rec.named("net.request")
        assert len(requests) == 2
        assert [r.parent_id for r in requests] == [invoke.span_id] * 2
        assert [len(rec.named(n)) for n in ("iis.handle", "wsrf.dispatch")] == [2, 2]


class TestDashboard:
    def test_render_dashboard_sections(self, observed_run):
        snapshot = observed_run.obs.snapshot()
        text = render_dashboard(snapshot, top=5)
        assert "Fig. 1 pipeline-stage breakdown" in text
        assert "wsrf.dispatch.db_load" in text
        assert "top 5 slowest spans" in text
        assert "net metrics" in text
        assert "slowest trace" in text

    def test_pipeline_breakdown_follows_the_stage_table(self, observed_run):
        text = render_pipeline_breakdown(observed_run.obs.snapshot())
        rows = [line.split()[0] for line in text.splitlines()[3:]]
        assert rows == [s[0] for s in WrapperService._STAGES] + ["wsrf.dispatch"]

    def test_render_trace_unknown_root(self, observed_run):
        assert "no span #999999" in render_trace(observed_run.obs.snapshot(), 999999)

    def test_load_snapshot_roundtrip_and_validation(self, observed_run):
        text = observed_run.obs.export_json()
        snapshot = load_snapshot(text)
        assert snapshot["meta"]["format"] == 1
        with pytest.raises(ValueError):
            load_snapshot("[1, 2, 3]")

    def test_snapshot_meta_counts(self, observed_run):
        snapshot = observed_run.obs.snapshot()
        assert snapshot["meta"]["spans"] == len(snapshot["spans"])
        assert snapshot["meta"]["open_spans"] == 0
        assert snapshot["meta"]["now"] == observed_run.env.now


class TestCli:
    def test_demo_renders_and_exports(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out_file = tmp_path / "obs.json"
        code = main(["--machines", "1", "--jobs", "1", "--json", str(out_file)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Fig. 1 pipeline-stage breakdown" in printed
        snapshot = load_snapshot(out_file.read_text(encoding="utf-8"))
        assert snapshot["spans"]

    def test_render_subcommand(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        env = Environment()
        net = Network(env)
        obs = Observability(env).attach(net)
        span = obs.start_span("wsrf.dispatch", attrs={"service": "S"})
        obs.finish(span)
        path = tmp_path / "snap.json"
        path.write_text(obs.export_json(), encoding="utf-8")
        assert main(["render", str(path)]) == 0
        assert "wsrf.dispatch" in capsys.readouterr().out


# -- structured event log -----------------------------------------------------------


class TestEventLog:
    """The JSONL event log is a view of the span list."""

    def test_field_ordering_is_deterministic(self):
        env = Environment()
        obs = Observability(env)
        obs.finish(obs.start_span("wsrf.dispatch", attrs={"service": "S"}))
        start, finish = [json.loads(line) for line in obs.event_log().splitlines()]
        assert list(start) == ["seq", "t", "kind", "name", "parent", "span"]
        assert list(finish) == ["seq", "t", "kind", "dur", "name", "span"]
        assert (start["seq"], start["kind"]) == (1, "span.start")

    def test_span_lifecycle_mirrored(self):
        env = Environment()
        obs = Observability(env)
        outer = obs.start_span("wsrf.dispatch", attrs={"service": "S"})
        inner = obs.start_span("wsrf.dispatch.method", parent=outer)
        obs.finish(outer)  # out of order, all at t = 0: seq alone orders them
        obs.finish(inner)
        events = parse_jsonl(obs.event_log())
        assert [(e["seq"], e["kind"], e["span"]) for e in events] == [
            (1, "span.start", outer.span_id), (2, "span.start", inner.span_id),
            (3, "span.finish", outer.span_id), (4, "span.finish", inner.span_id),
        ]
        assert events[1]["parent"] == outer.span_id
        assert events[2]["dur"] == 0.0
        assert obs.event_log() == obs.event_log()  # a view: reading changes nothing

    def test_identical_runs_emit_identical_bytes(self):
        text = _completed(2).obs.event_log()
        assert text == _completed(2).obs.event_log()
        assert text

    def test_parse_jsonl_roundtrip_and_errors(self):
        env = Environment()
        obs = Observability(env)
        obs.start_span("one")
        obs.finish(obs.start_span("two"))
        events = parse_jsonl(obs.event_log())
        assert [(e["kind"], e["name"]) for e in events] == [
            ("span.start", "one"), ("span.start", "two"), ("span.finish", "two"),
        ]
        with pytest.raises(ValueError, match="line 1"):
            parse_jsonl("not json\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_jsonl('{"seq": 1, "t": 0, "kind": "ok"}\n[1, 2]\n')

    def test_render_event_tail(self):
        env = Environment()
        obs = Observability(env)
        for i in range(15):
            obs.finish(obs.start_span(f"s{i}"))
        report = render_event_tail(parse_jsonl(obs.event_log()), n=5)
        assert "5 of 30" in report
        assert "name=s14" in report and "name=s11" not in report
        assert render_event_tail([], n=5).endswith("(none)")


# -- span correlation edges (satellite) ---------------------------------------------


class TestSpanCorrelationEdges:
    def test_orphan_span_gets_no_parent(self):
        rec = SpanRecorder(Environment())
        orphan = rec.start("iis.handle", message_id="mid-without-sender")
        assert orphan.parent_id is None
        rec.finish(orphan)
        assert rec.open_spans() == []

    def test_closed_parent_does_not_adopt_late_spans(self):
        rec = SpanRecorder(Environment())
        sender = rec.start("client.invoke", message_id="m1")
        rec.finish(sender)
        # the sender's stack entry is gone: a late hop must not
        # mis-parent to the finished span
        late = rec.start("net.request", message_id="m1")
        assert late.parent_id is None
        rec.finish(late)

    def test_out_of_order_close_degrades_gracefully(self):
        env = Environment()
        rec = SpanRecorder(env)
        outer = rec.start("client.invoke", message_id="m1")
        inner = rec.start("net.request", message_id="m1")
        assert inner.parent_id == outer.span_id
        # close the OUTER first (out of order)
        rec.finish(outer)
        # the inner span is still open, still closable, and new spans on
        # the same message id still parent to it (the innermost OPEN one)
        sibling = rec.start("iis.handle", message_id="m1")
        assert sibling.parent_id == inner.span_id
        rec.finish(sibling)
        rec.finish(inner)
        assert rec.open_spans() == []
        assert all(s.duration is not None for s in rec.spans)

    def test_an_abandoned_hop_takes_its_work_off_the_stack(self):
        rec = SpanRecorder(Environment())
        sender = rec.start("client.invoke", message_id="m1")
        first = rec.start("net.request", message_id="m1")
        handle = rec.start("iis.handle", message_id="m1")
        rec.finish(first)  # abandoned: the server's work runs on
        retry = rec.start("net.request", message_id="m1")
        assert retry.parent_id == sender.span_id
        rec.finish(handle)
        assert rec.start("iis.handle", message_id="m1").parent_id == retry.span_id


# -- CLI (satellite: robust errors + tail) ------------------------------------------


class TestCliRobustness:
    def test_render_missing_file_exits_2(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["render", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "error: cannot read" in err
        assert "Traceback" not in err

    def test_render_corrupt_file_exits_2(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["render", str(bad)]) == 2
        assert "not an observability export" in capsys.readouterr().err
        bad.write_text('{"spans": []}', encoding="utf-8")  # valid JSON, wrong shape
        assert main(["render", str(bad)]) == 2
        assert "no 'metrics' key" in capsys.readouterr().err

    def test_tail_missing_and_corrupt_exit_2(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["tail", str(tmp_path / "missing.jsonl")]) == 2
        assert "error: cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text("... not jsonl ...", encoding="utf-8")
        assert main(["tail", str(bad)]) == 2
        assert "not a JSONL event log" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, message", [
        ("render", '{"metrics": []}', "no 'spans' list"),
        ("render", '{"metrics": [{"name": "n", "labels": {}, "value": 1}], "spans": []}',
         "metrics[0] has no valid 'kind'"),
        ("render", '{"metrics": [], "spans": [{"id": 1, "parent": null, "name": "s", '
                   '"start": 0.0, "attrs": {}}]}', "spans[0] has no valid 'end'"),
        ("tail", '{"seq": 1, "t": "abc", "kind": "span.start"}', "line 1: no number 't'"),
        ("tail", '{"seq": 1, "t": null, "kind": "span.start"}', "line 1: no number 't'"),
    ], ids=["no-spans", "metric-without-kind", "span-without-end", "t-string", "t-null"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, command, text, message):
        from repro.obs.__main__ import main

        bad = tmp_path / "bad"
        bad.write_text(text + "\n", encoding="utf-8")
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_demo_events_and_tail(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        events = tmp_path / "events.jsonl"
        code = main(["--machines", "1", "--jobs", "1", "--events", str(events)])
        assert code == 0
        assert "wrote JSONL event log" in capsys.readouterr().out
        assert main(["tail", str(events), "-n", "3"]) == 0
        assert "span.finish" in capsys.readouterr().out
