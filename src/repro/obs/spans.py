"""Correlated message spans over the simulated clock.

One logical invocation crosses many hops — client serialize, link
transit, IIS dispatch, the wrapper's Fig. 1 pipeline, broker fan-out —
and each hop records a :class:`Span`.  Correlation rides the
WS-Addressing ``MessageID`` the stack already emits: the sender opens a
span registered under the message id, and every layer that later sees
the same id (the network fabric, IIS, the WSRF wrapper) parents its own
span to the innermost still-open span for that id.  Responses need no
registration — ``RelatesTo`` correlation is implicit because the reply
is handled inside the requester's still-open span.  Each span is closed
by the code that opened it, so work that outlives its parent (a one-way
delivery, the server side of an abandoned request) ends after it.

Spans are allocated only when an :class:`~repro.obs.core.Observability`
is attached to the network (instrumentation sites guard on ``obs is
None``), cost zero simulated time, and take all timestamps from
``env.now`` — never the wall clock — so recording is invisible to the
simulation and byte-reproducible across seeded runs.

The span list is the only record: the JSONL event log and the ``<span>_s``
histograms are computed from it.  A recorder-wide counter stamps each start
and finish, since many spans start and finish at the same simulated ``t``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Environment

#: span attributes that label the span's duration histogram; everything
#: else (message ids, EPRs) is too high-cardinality to index.  They are
#: read when the histograms are collected, so none is written after the
#: span finishes.
METRIC_LABELS = ("service", "host", "scheme", "category", "operation", "leg", "kind")


class Span:
    """One timed hop of a logical invocation."""

    __slots__ = (
        "span_id", "parent_id", "name", "start", "end", "attrs", "message_id",
        "start_seq", "finish_seq",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        message_id: Optional[str],
        attrs: Dict[str, object],
        start_seq: int,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.message_id = message_id
        #: the recorder's counter at this span's start and finish
        self.start_seq = start_seq
        self.finish_seq: Optional[int] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return f"<Span #{self.span_id} {self.name} {state}>"


class SpanRecorder:
    """Append-only store of spans plus the message-id correlation table."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.spans: List[Span] = []  # a span's id is its position + 1
        #: innermost-last stacks of OPEN spans, keyed by message id
        self._open_by_message: Dict[str, List[Span]] = {}
        #: starts plus finishes so far: orders every span event
        self._seq = 0

    # -- recording -------------------------------------------------------------

    def start(
        self,
        name: str,
        parent: Optional[Span] = None,
        message_id: Optional[str] = None,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> Span:
        """Open a span.

        Parentage: an explicit *parent* wins; otherwise, if *message_id*
        names a registered open span, the innermost one is the parent.
        When *message_id* is given the new span is itself registered
        under it (and deregistered on finish), which is what chains
        client → net → IIS → wrapper spans without any layer passing
        span objects to the next.
        """
        if parent is None and message_id is not None:
            stack = self._open_by_message.get(message_id)
            if stack:
                parent = stack[-1]
        self._seq += 1
        span = Span(
            span_id=len(self.spans) + 1,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            start=self.env.now,
            message_id=message_id,
            attrs=dict(attrs) if attrs else {},
            start_seq=self._seq,
        )
        self.spans.append(span)
        if message_id is not None:
            self._open_by_message.setdefault(message_id, []).append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close *span* (idempotent)."""
        if span.end is not None:
            return
        span.end = self.env.now
        self._seq += 1
        span.finish_seq = self._seq
        if span.message_id is not None:
            stack = self._open_by_message.get(span.message_id)
            if stack and span in stack:
                if stack[0] is span:
                    del stack[0]
                else:
                    # A hop closing above its sender's span (an abandoned
                    # attempt) takes the work it carried off the stack
                    # too: that runs on, but a retry parents to the sender.
                    del stack[stack.index(span):]
                if not stack:
                    del self._open_by_message[span.message_id]

    # -- queries ---------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        return self.spans[span_id - 1] if 0 < span_id <= len(self.spans) else None

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def slowest(self, n: int = 10) -> List[Span]:
        """The *n* longest finished spans (ties broken by span id)."""
        finished = [s for s in self.spans if s.end is not None]
        finished.sort(key=lambda s: (-(s.end - s.start), s.span_id))  # type: ignore[operator]
        return finished[:n]

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready list of every span, in span-id order."""
        out: List[Dict[str, object]] = []
        for span in self.spans:
            out.append(
                {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "attrs": {k: span.attrs[k] for k in sorted(span.attrs)},
                }
            )
        return out
