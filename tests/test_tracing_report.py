"""Direct coverage for gridapp.tracing helpers and gridapp.report rendering."""

from collections import namedtuple

from repro.gridapp.report import (
    JobSetReport,
    JobTimeline,
    RecoveryEvent,
    build_report,
    render_gantt,
    render_summary,
)
from repro.gridapp.tracing import EventTrace, record, trace_of
from repro.net import Network
from repro.sim import Environment
from repro.xmlx import NS, Element, QName

Note = namedtuple("Note", "topic at payload")


def _fabric_with_trace():
    env = Environment()
    net = Network(env)
    net.trace = EventTrace(env)
    return env, net


class TestTraceOf:
    def test_finds_trace_on_network(self):
        env, net = _fabric_with_trace()
        assert trace_of(net) is net.trace

    def test_unwraps_machine_like_objects(self):
        env, net = _fabric_with_trace()

        class FakeMachine:
            network = net

        assert trace_of(FakeMachine()) is net.trace

    def test_none_when_no_trace_attached(self):
        env = Environment()
        net = Network(env)
        assert trace_of(net) is None


class TestRecord:
    def test_record_appends_event(self):
        env, net = _fabric_with_trace()
        record(net, 3, "Scheduler", "run single job")
        assert net.trace.steps() == [3]
        event = net.trace.events[0]
        assert (event.step, event.actor, event.detail) == (3, "Scheduler", "run single job")
        assert event.at == env.now

    def test_record_is_a_noop_without_trace(self):
        env = Environment()
        net = Network(env)
        record(net, 1, "Client")  # must not raise or create a trace
        assert trace_of(net) is None


class TestEventTrace:
    def _populated(self):
        env, net = _fabric_with_trace()
        trace = net.trace
        trace.record(1, "Client", "submit")
        env.run(until=1.5)
        trace.record(2, "Scheduler", "query NIS")
        trace.record(1, "Client", "submit again")
        return trace

    def test_events_for_step_filters(self):
        trace = self._populated()
        assert [e.detail for e in trace.events_for_step(1)] == ["submit", "submit again"]
        assert trace.events_for_step(9) == []

    def test_first_occurrence_order_dedupes(self):
        trace = self._populated()
        assert trace.first_occurrence_order() == [1, 2]
        assert trace.steps() == [1, 2, 1]

    def test_format_lines_carry_time_step_actor(self):
        trace = self._populated()
        lines = trace.format().splitlines()
        assert len(lines) == 3
        assert "step  1" in lines[0] and "Client" in lines[0]
        assert "1.5000s" in lines[1] and "step  2" in lines[1]

    def test_clear(self):
        trace = self._populated()
        trace.clear()
        assert trace.events == [] and trace.format() == ""


class TestBuildReport:
    def test_recovery_and_terminal_events(self):
        payload = Element(QName(NS.UVACG, "JobRecovery"))
        payload.set("job", "job0")
        payload.set("from", "node01")
        done = Element(QName(NS.UVACG, "JobSetDone"))
        report = build_report(
            [
                Note("js-1/recovery", 4.0, payload),
                Note("js-2/other", 4.5, done),  # other topic: ignored
                Note("js-1/completed", 9.0, done),
            ],
            "js-1",
        )
        assert report.outcome == "completed"
        assert report.submitted_at == 4.0 and report.finished_at == 9.0
        assert report.makespan_s == 5.0
        assert report.total_recoveries == 1
        assert report.jobs["job0"].recoveries == [RecoveryEvent(4.0, "node01")]


class TestRenderGantt:
    def _report(self):
        report = JobSetReport(topic="js-1", submitted_at=0.0, finished_at=10.0,
                              outcome="completed")
        report.jobs["ok"] = JobTimeline(
            "ok", created_at=0.0, started_at=2.0, exited_at=8.0, exit_code=0,
            machine_hint="node00",
        )
        report.jobs["bad"] = JobTimeline(
            "bad", created_at=1.0, started_at=3.0, exited_at=10.0, exit_code=2,
            machine_hint="node01",
        )
        report.jobs["bad"].recoveries.append(RecoveryEvent(5.0, "node00"))
        return report

    def test_bars_have_fixed_width_and_markers(self):
        text = render_gantt(self._report(), width=20)
        lines = text.splitlines()
        bars = [line for line in lines if "|" in line and "-" not in line]
        assert all(line.count("|") == 2 for line in bars)
        assert all(len(line.split("|")[1]) == 20 for line in bars)
        ok_line = next(line for line in bars if " ok" in line)
        bad_line = next(line for line in bars if "bad" in line)
        assert "." in ok_line and "#" in ok_line
        assert "X" in bad_line  # non-zero exit marker
        assert "R" in bad_line  # recovery marker

    def test_columns_clamp_at_edges(self):
        # exited exactly at the window end must land on the last column,
        # never index out of the bar (the classic off-by-one).
        report = JobSetReport(topic="js", submitted_at=0.0, finished_at=1.0)
        report.jobs["j"] = JobTimeline(
            "j", created_at=0.0, started_at=0.0, exited_at=1.0, exit_code=1
        )
        text = render_gantt(report, width=5)
        bar = text.splitlines()[1].split("|")[1]
        assert len(bar) == 5
        assert bar[-1] == "X"

    def test_unfinished_job_renders_open_ended(self):
        report = JobSetReport(topic="js", submitted_at=0.0)
        report.jobs["j"] = JobTimeline("j", created_at=0.0)  # still staging
        text = render_gantt(report, width=10)
        assert "staging" in text

    def test_empty_report(self):
        assert "no job events" in render_gantt(JobSetReport(topic="js"))


class TestRenderSummary:
    def test_lists_jobs_and_recovery_totals(self):
        report = JobSetReport(topic="js-1", submitted_at=0.0, finished_at=4.0,
                              outcome="completed")
        report.jobs["a"] = JobTimeline(
            "a", created_at=0.0, started_at=1.0, exited_at=2.0, exit_code=0
        )
        report.jobs["a"].recoveries.append(RecoveryEvent(1.5, "node00"))
        text = render_summary(report)
        assert "recovered x1" in text
        assert "recoveries: 1" in text
        assert "makespan: 4.00s" in text
