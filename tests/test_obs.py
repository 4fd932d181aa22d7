"""Tests for the unified observability layer (repro.obs)."""

import json
import math

import pytest

from repro.net import Network
from repro.obs import (
    MetricsRegistry,
    Observability,
    ObsEventLog,
    SpanRecorder,
    format_metric_name,
    load_snapshot,
    obs_of,
    parse_jsonl,
    render_dashboard,
    render_event_tail,
    render_trace,
)
from repro.sim import Environment
from repro.wsrf import InvalidResourcePropertyQNameFault, ResourceUnknownFault
from repro.wsrf.tooling import WrapperService
from repro.xmlx import NS, QName

from tests.equivalence import Scenario, run_scenario


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
        return env, SpanRecorder(env, MetricsRegistry())

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
        env, rec = self._recorder()
        span = rec.start("net.request", attrs={"scheme": "http", "epr": "uuid:x"})
        env.run(until=0.25)
        rec.finish(span)
        env.run(until=0.75)
        rec.finish(span)  # no-op
        assert span.duration == 0.25
        hist = rec.registry.histogram("net.request_s", scheme="http")
        assert hist.count == 1 and hist.p50 == 0.25
        # high-cardinality attrs (epr) must NOT become labels
        assert rec.registry.query("net.request_s") == [
            ("net.request_s", {"scheme": "http"}, hist)
        ]

    def test_finish_subtree_closes_descendants(self):
        env, rec = self._recorder()
        root = rec.start("root")
        child = rec.start("child", parent=root)
        grandchild = rec.start("grand", parent=child)
        other = rec.start("other")
        rec.finish_subtree(root)
        assert root.finished and child.finished and grandchild.finished
        assert not other.finished
        assert rec.open_spans() == [other]

    def test_finish_subtree_skips_detached_live_sends(self):
        env, rec = self._recorder()
        dispatch = rec.start("wsrf.dispatch")
        oneway = rec.start("net.oneway", parent=dispatch, message_id="m9")
        oneway.detached = True  # ownership moved to the delivery process
        rec.finish_subtree(dispatch)  # the dispatch ends first
        assert dispatch.finished
        assert not oneway.finished
        # delivery-side spans can still parent to the in-flight send
        env.run(until=0.5)
        handle = rec.start("iis.handle", message_id="m9")
        assert handle.parent_id == oneway.span_id
        rec.finish(handle)
        rec.finish_subtree(oneway)  # the owner's close always lands
        assert oneway.finished and oneway.duration == 0.5

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


def _completed(n_jobs=3, **testbed):
    """The testbed of a finished Fig-3 run on two machines, as
    tests/equivalence.py drives it (observed, event log on, unless
    *testbed* says ``observability=False``)."""
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
        # detached net.oneway span must stay open until delivery so the
        # receiver's iis.handle parents to it instead of orphaning.
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

    def test_fig1_stages_partition_dispatch_latency(self, observed_run):
        """A clean Fig-3 run, the perf layer (elided db_save, cache-hit
        db_load) and a dispatch faulting in db_load and one in method:
        the stage spans come in table order, never overlap, all close
        and add up to the dispatch span."""
        table = ["wsrf.dispatch.epr_resolve"] + [s[0] for s in WrapperService._STAGES]
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
        reg = observed_run.obs.registry
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


class TestDashboard:
    def test_render_dashboard_sections(self, observed_run):
        snapshot = observed_run.obs.snapshot()
        text = render_dashboard(snapshot, top=5)
        assert "Fig. 1 pipeline-stage breakdown" in text
        assert "wsrf.dispatch.db_load" in text
        assert "top 5 slowest spans" in text
        assert "net metrics" in text
        assert "slowest trace" in text

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
    def test_field_ordering_is_deterministic(self):
        env = Environment()
        log = ObsEventLog(env)
        log.emit("custom", zebra=1, alpha=2, mid=3)
        line = log.to_jsonl().splitlines()[0]
        event = json.loads(line)
        assert list(event) == ["seq", "t", "kind", "alpha", "mid", "zebra"]
        assert event["seq"] == 1 and event["kind"] == "custom"

    def test_reserved_fields_rejected(self):
        log = ObsEventLog(Environment())
        with pytest.raises(ValueError):
            log.emit("custom", seq=9)

    def test_span_lifecycle_mirrored(self):
        env = Environment()
        obs = Observability(env)
        log = obs.enable_event_log()
        assert obs.enable_event_log() is log  # idempotent
        span = obs.start_span("wsrf.dispatch", attrs={"service": "S"})
        obs.finish(span)
        kinds = [event["kind"] for event in log.events]
        assert kinds == ["span.start", "span.finish"]
        assert log.events[0]["span"] == span.span_id
        assert log.events[1]["dur"] == 0.0

    def test_identical_runs_emit_identical_bytes(self):
        a = _completed(2)
        b = _completed(2)
        text = a.obs.events.to_jsonl()
        assert text == b.obs.events.to_jsonl()
        assert len(a.obs.events) > 0

    def test_parse_jsonl_roundtrip_and_errors(self):
        env = Environment()
        log = ObsEventLog(env)
        log.emit("one", x=1)
        log.emit("two", y="z")
        events = parse_jsonl(log.to_jsonl())
        assert [event["kind"] for event in events] == ["one", "two"]
        with pytest.raises(ValueError, match="line 1"):
            parse_jsonl("not json\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_jsonl('{"kind": "ok"}\n[1, 2]\n')

    def test_render_event_tail(self):
        log = ObsEventLog(Environment())
        for i in range(30):
            log.emit("tick", i=i)
        report = render_event_tail(log.events, n=5)
        assert "5 of 30" in report
        assert "i=29" in report and "i=24" not in report
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

    def test_finish_subtree_after_out_of_order_close_is_idempotent(self):
        rec = SpanRecorder(Environment())
        root = rec.start("wsrf.dispatch", message_id="m1")
        child = rec.start("wsrf.dispatch.method", parent=root)
        rec.finish(root)
        rec.finish_subtree(root)  # must not raise, must close the child
        assert child.finished
        assert rec.open_spans() == []


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

    def test_demo_events_and_tail(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        events = tmp_path / "events.jsonl"
        code = main(["--machines", "1", "--jobs", "1", "--events", str(events)])
        assert code == 0
        assert "wrote JSONL event log" in capsys.readouterr().out
        assert main(["tail", str(events), "-n", "3"]) == 0
        assert "span.finish" in capsys.readouterr().out
