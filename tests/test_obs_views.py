"""The event log and the duration histograms, derived from the span list,
equal what the old recorder emitted as the spans ran.

Hypothesis draws span programs: starts with or without a message id or
an explicit parent, finishes (repeated ones included, and out of
order), label attributes written while a span is open, and clock
advances that are often zero, so that many spans start and finish at
the same ``t``.  Each program runs
once on ``tests/reference_recorder.py``, which keeps the old emission;
the views are then computed from the same spans and compared with it.

A failure prints the program; ``_run(program)`` replays it.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Observability, spans_to_jsonl
from repro.sim import Environment
from tests.reference_recorder import ReferenceRecorder

NAMES = ("net.request", "iis.handle", "wsrf.dispatch")
MESSAGES = ("m0", "m1", "m2")
#: label attributes (METRIC_LABELS) and one that is not a label
_attr_key = st.sampled_from(("service", "host", "operation", "epr"))
_attr_value = st.sampled_from(("A", "B", 7))
#: a span, taken modulo the number started by the time the op runs
_span = st.integers(0, 15)

_start = st.tuples(
    st.just("start"),
    st.sampled_from(NAMES),
    st.none() | _span,
    st.none() | st.sampled_from(MESSAGES),
    st.dictionaries(_attr_key, _attr_value, max_size=3),
)
_finish = st.tuples(st.just("finish"), _span)
_ops = st.one_of(
    _start, _start, _start, _finish, _finish,  # most spans open and close
    st.tuples(st.just("label"), _span, _attr_key, _attr_value),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.0, 0.25, 1.0))),
)
programs = st.lists(_ops, min_size=4, max_size=40)


def _run(program):
    env = Environment()
    obs = Observability(env)
    rec = obs.spans = ReferenceRecorder(env)
    for op, *args in program:
        spans = rec.spans
        if op == "advance":
            env.run(until=env.now + args[0])
        elif op == "start":
            name, parent, message_id, attrs = args
            if parent is not None:
                parent = spans[parent % len(spans)] if spans else None
            rec.start(name, parent=parent, message_id=message_id, attrs=attrs)
        elif spans:
            span = spans[args[0] % len(spans)]
            if op == "finish":
                rec.finish(span)
            elif span.end is None:  # label: never written after the finish
                span.attrs[args[1]] = args[2]
    return obs, rec


def _histograms(registry):
    return [entry for entry in registry.snapshot() if entry["kind"] == "histogram"]


@given(programs)
def test_event_log_is_the_recorded_log(program):
    obs, rec = _run(program)
    assert spans_to_jsonl(rec.spans) == rec.to_jsonl()
    assert obs.event_log() == rec.to_jsonl()


@given(programs)
def test_histograms_are_the_recorded_histograms(program):
    obs, rec = _run(program)
    assert _histograms(obs.collect()) == _histograms(rec.registry)


@given(programs)
def test_collect_twice_exports_the_same(program):
    obs, _ = _run(program)
    first = obs.export_json()
    assert obs.export_json() == first
    assert json.loads(first)["meta"]["spans"] == len(obs.spans.spans)
