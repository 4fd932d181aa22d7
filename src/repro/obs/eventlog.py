"""The JSONL event log: a view of the span list over the simulated clock.

Spans answer "how long did this hop take"; the event log answers "what
happened, in order".  :func:`spans_to_jsonl` writes one ``span.start``
record per span and one ``span.finish`` record per finished span, in the
order the recorder stamped them (``seq``).  Every record is one JSON
object on one line with a *deterministic field ordering* — the fixed
prefix ``seq``, ``t`` (simulated seconds), ``kind``, followed by the
payload fields in sorted key order — so identical seeded runs write
byte-identical logs and CI can diff them.  Read one back with
``python -m repro.obs tail FILE``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import Span

#: the type each fixed field must have in a record read back
_FIELD_TYPES = (("seq", int, "int"), ("t", (int, float), "number"), ("kind", str, "string"))


def spans_to_jsonl(spans: Iterable["Span"]) -> str:
    """The event log of *spans*: one JSON object per line, in ``seq``
    order, each written ``seq, t, kind`` then its sorted payload."""
    events: List[Dict[str, Any]] = []
    for span in spans:
        events.append({
            "seq": span.start_seq, "t": span.start, "kind": "span.start",
            "name": span.name, "parent": span.parent_id, "span": span.span_id,
        })
        if span.end is not None:
            events.append({
                "seq": span.finish_seq, "t": span.end, "kind": "span.finish",
                "dur": span.end - span.start, "name": span.name, "span": span.span_id,
            })
    events.sort(key=lambda event: event["seq"])
    return "".join(json.dumps(event) + "\n" for event in events)


def parse_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse a JSONL export back into event dicts.

    Raises ValueError naming the first offending line on corrupt input
    or on a record without an int ``seq``, a number ``t`` and a string
    ``kind``.
    """
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON ({exc.msg})") from None
        if not isinstance(event, dict):
            raise ValueError(f"line {lineno}: not an event record")
        for key, types, what in _FIELD_TYPES:
            if not isinstance(event.get(key), types):
                raise ValueError(f"line {lineno}: no {what} {key!r}")
        events.append(event)
    return events
