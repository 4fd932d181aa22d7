"""Text dashboard over an observability snapshot.

All renderers operate on the JSON-ready snapshot dict (the output of
:meth:`Observability.snapshot` or a parsed export file), so the CLI can
render either a live run or a ``.json`` artifact from CI.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.wsrf.tooling import WrapperService

Snapshot = Dict[str, Any]

_NUMBER = (int, float)
#: the keys the renderers read of each entry, with the types they accept
_METRIC = {"name": str, "labels": dict, "kind": str}
_HISTOGRAM = dict.fromkeys(("count", "sum", "p50", "p95", "max"), _NUMBER)
_SPAN = {"id": int, "parent": (int, type(None)), "name": str, "start": _NUMBER,
         "end": (int, float, type(None)), "attrs": dict}


def load_snapshot(text: str) -> Snapshot:
    """Parse an export; ValueError names the first part no renderer can read."""
    snapshot = json.loads(text)
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        raise ValueError("not an observability export (no 'metrics' key)")
    meta = snapshot.get("meta", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("now", 0.0), _NUMBER):
        raise ValueError("'meta' has no valid 'now'")
    for section, shape in (("metrics", _METRIC), ("spans", _SPAN)):
        entries = snapshot.get(section)
        if not isinstance(entries, list):
            raise ValueError(f"no {section!r} list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"{section}[{i}] is not an object")
            if section == "metrics":
                kind = _HISTOGRAM if entry.get("kind") == "histogram" else {"value": _NUMBER}
                shape = {**_METRIC, **kind}
            for key, types in shape.items():
                if key not in entry or not isinstance(entry[key], types):
                    raise ValueError(f"{section}[{i}] has no valid {key!r}")
    return snapshot


def _table(headers: Sequence[str], rows: List[Sequence[object]]) -> List[str]:
    cells = [[str(h) for h in headers]] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(cells[0], widths))]
    lines.append("-" * len(lines[0]))
    for row in cells[1:]:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return lines


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.3f}" if abs(value) >= 0.001 or value == 0 else f"{value:.6f}"
    return str(value)


def _metric_rows(snapshot: Snapshot, prefix: str) -> List[Sequence[object]]:
    rows: List[Sequence[object]] = []
    for entry in snapshot["metrics"]:
        name = entry["name"]
        if not name.startswith(prefix):
            continue
        labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
        if entry["kind"] == "histogram":
            rows.append(
                [name, labels, entry["count"],
                 f"p50={entry['p50'] * 1000:.3f}ms p95={entry['p95'] * 1000:.3f}ms "
                 f"max={entry['max'] * 1000:.3f}ms"]
            )
        else:
            rows.append([name, labels, entry["value"], entry["kind"]])
    return rows


def render_pipeline_breakdown(snapshot: Snapshot) -> str:
    """The Fig. 1 dispatch-stage table, aggregated over all services,
    in the wrapper's stage order."""
    stages = [name for name, _, _ in WrapperService._STAGES]
    by_stage: Dict[str, Dict[str, float]] = {}
    for entry in snapshot["metrics"]:
        if entry["kind"] != "histogram":
            continue
        stage = entry["name"].removesuffix("_s")
        if stage not in stages and stage != "wsrf.dispatch":
            continue
        agg = by_stage.setdefault(
            stage, {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        )
        agg["count"] += entry["count"]
        agg["sum"] += entry["sum"]
        # label-split histograms: keep the worst quantiles seen
        agg["p50"] = max(agg["p50"], entry["p50"])
        agg["p95"] = max(agg["p95"], entry["p95"])
        agg["max"] = max(agg["max"], entry["max"])
    if not by_stage:
        return "(no wsrf.dispatch spans recorded)"
    rows: List[Sequence[object]] = []
    ordered = [s for s in stages if s in by_stage]
    for stage in ordered + (["wsrf.dispatch"] if "wsrf.dispatch" in by_stage else []):
        agg = by_stage[stage]
        rows.append(
            [stage, int(agg["count"]), agg["sum"], agg["p50"] * 1000,
             agg["p95"] * 1000, agg["max"] * 1000]
        )
    lines = ["== Fig. 1 pipeline-stage breakdown (simulated time) =="]
    lines += _table(
        ["stage", "count", "total_s", "p50_ms", "p95_ms", "max_ms"], rows
    )
    return "\n".join(lines)


def render_slowest_spans(snapshot: Snapshot, top: int = 10) -> str:
    """The top-N spans by simulated duration, with key attributes."""
    finished = [s for s in snapshot["spans"] if s["end"] is not None]
    finished.sort(key=lambda s: (-(s["end"] - s["start"]), s["id"]))
    shown = finished[:top]
    lines = [f"== top {len(shown)} slowest spans (of {len(finished)} finished) =="]
    if not shown:
        return lines[0] + "\n(none)"
    rows: List[Sequence[object]] = []
    for span in shown:
        attrs = span["attrs"]
        what = attrs.get("action") or attrs.get("operation") or attrs.get("topic") or ""
        where = attrs.get("service") or attrs.get("host") or attrs.get("source") or ""
        rows.append(
            [span["id"], span["name"], (span["end"] - span["start"]) * 1000,
             span["start"], where, what]
        )
    lines += _table(["id", "span", "dur_ms", "at_s", "where", "what"], rows)
    return "\n".join(lines)


def render_metric_tables(snapshot: Snapshot) -> str:
    """Per-namespace metric tables (net, wsrf, db, wsn, iis, scheduler)."""
    sections = []
    prefixes = sorted({str(e["name"]).split(".")[0] for e in snapshot["metrics"]})
    for prefix in prefixes:
        rows = [
            row for row in _metric_rows(snapshot, prefix + ".")
            if not str(row[0]).endswith("_s")  # histograms live in the breakdown
        ]
        if not rows:
            continue
        lines = [f"== {prefix} metrics =="]
        lines += _table(["metric", "labels", "value", "kind"], rows)
        sections.append("\n".join(lines))
    return "\n\n".join(sections) if sections else "(no metrics collected)"


def render_trace(snapshot: Snapshot, root_id: int, max_children: int = 12) -> str:
    """One span tree, indented; over-wide fan-outs are elided *loudly*."""
    by_parent: Dict[Optional[int], List[Dict[str, Any]]] = {}
    by_id: Dict[int, Dict[str, Any]] = {}
    for span in snapshot["spans"]:
        by_parent.setdefault(span["parent"], []).append(span)
        by_id[span["id"]] = span
    root = by_id.get(root_id)
    if root is None:
        return f"(no span #{root_id})"
    lines: List[str] = []

    def walk(span: Dict[str, Any], depth: int) -> None:
        dur = "open" if span["end"] is None else f"{(span['end'] - span['start']) * 1000:.3f}ms"
        attrs = span["attrs"]
        hint = attrs.get("action") or attrs.get("operation") or attrs.get("topic") or ""
        where = attrs.get("service") or attrs.get("source") or ""
        detail = " ".join(str(part) for part in (where, hint) if part)
        lines.append(
            f"{'  ' * depth}#{span['id']} {span['name']}  [{span['start']:.6f}s +{dur}]"
            + (f"  {detail}" if detail else "")
        )
        children = sorted(by_parent.get(span["id"], []), key=lambda s: (s["start"], s["id"]))
        for child in children[:max_children]:
            walk(child, depth + 1)
        if len(children) > max_children:
            lines.append(
                f"{'  ' * (depth + 1)}... {len(children) - max_children} more children elided"
            )

    walk(root, 0)
    return "\n".join(lines)


def render_event_tail(events: List[Dict[str, Any]], n: int = 20) -> str:
    """The last *n* records of a structured event log, one per line."""
    shown = events[-n:] if n > 0 else []
    lines = [f"== event log tail ({len(shown)} of {len(events)} events) =="]
    if not shown:
        return lines[0] + "\n(none)"
    for event in shown:  # parse_jsonl checked seq, t and kind
        extras = " ".join(
            f"{k}={_fmt(v)}" for k, v in event.items() if k not in ("seq", "t", "kind"))
        head = f"#{event['seq']} [{event['t']:.6f}s] {event['kind']}"
        lines.append(f"{head}  {extras}" if extras else head)
    return "\n".join(lines)


def render_dashboard(snapshot: Snapshot, top: int = 10, trace: bool = True) -> str:
    """The full text dashboard: breakdown, slow spans, metric tables."""
    meta = snapshot.get("meta", {})
    parts = [
        f"observability dashboard — simulated t={meta.get('now', 0.0):.3f}s, "
        f"{meta.get('spans', len(snapshot['spans']))} spans "
        f"({meta.get('open_spans', 0)} still open)",
        render_pipeline_breakdown(snapshot),
        render_slowest_spans(snapshot, top=top),
        render_metric_tables(snapshot),
    ]
    if trace:
        finished_roots = [
            s for s in snapshot["spans"] if s["parent"] is None and s["end"] is not None
        ]
        if finished_roots:
            slowest = min(
                finished_roots, key=lambda s: (-(s["end"] - s["start"]), s["id"])
            )
            parts.append(
                "== slowest trace ==\n" + render_trace(snapshot, slowest["id"])
            )
    return "\n\n".join(parts)
