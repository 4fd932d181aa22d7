"""The span recorder's old emission, kept as the reference of
tests/test_obs_views.py.

Before the event log and the duration histograms became views of the
span list, ``SpanRecorder`` recorded each span three times: the span,
a JSONL dict at each start and finish (``ObsEventLog.emit``) and, at
finish, a histogram observation labelled with the ``METRIC_LABELS``
attributes the span held then.  This subclass adds those two emissions
back, as they were written, on top of today's recorder.  Nothing under
``src/`` imports it: it exists so that generated span programs can
compare the derived views with what was recorded at the time.
"""

import json

from repro.obs import METRIC_LABELS, MetricsRegistry, SpanRecorder


class ReferenceRecorder(SpanRecorder):
    def __init__(self, env):
        super().__init__(env)
        self.registry = MetricsRegistry()
        self.events = []

    def emit(self, kind, **fields):
        event = {"seq": len(self.events) + 1, "t": self.env.now, "kind": kind}
        for key in sorted(fields):
            event[key] = fields[key]
        self.events.append(event)

    def start(self, name, parent=None, message_id=None, attrs=None):
        span = super().start(name, parent=parent, message_id=message_id, attrs=attrs)
        self.emit("span.start", span=span.span_id, name=name, parent=span.parent_id)
        return span

    def finish(self, span):
        if span.end is not None:
            return
        super().finish(span)
        labels = {key: str(span.attrs[key]) for key in METRIC_LABELS if key in span.attrs}
        self.registry.observe(f"{span.name}_s", span.end - span.start, **labels)
        self.emit("span.finish", span=span.span_id, name=span.name, dur=span.end - span.start)

    def to_jsonl(self):
        return "".join(json.dumps(event) + "\n" for event in self.events)
