"""``compare A.json B.json``: did B get worse than A, and can we tell?

One row per workload x end-to-end metric.  Verdicts:

- ``ok`` — host metric whose median moved by no more than its bound
  (in the bad direction), or exact metric that is identical;
- ``worse`` — host metric whose median worsened beyond the bound;
- ``unresolved`` — the min-max spread of either side is wider than the
  bound and the two ranges overlap: the runs cannot settle it, so it is
  reported as neither unchanged nor worse;
- ``exact-mismatch`` — a simulated metric (or ``fail_share``) differs
  at all.  Simulated quantities are exact; a host-side change must not
  move them;
- ``missing`` — the workload is in only one of the two ledgers.

The bound of a host metric is the one recorded in the base ledger.
Exit status is non-zero on any ``worse``, ``exact-mismatch`` or
``missing``.
"""

from __future__ import annotations

import json
from pathlib import Path

import metrics

_BETTER = {name: better for name, _, better, _, _ in metrics.END_TO_END}


def verdict(name: str, base: dict, new: dict) -> tuple:
    """(ratio new/base, verdict) for one metric of one workload."""
    if name in metrics.EXACT_METRICS:
        same = base["value"] == new["value"]
        if base["value"]:
            ratio = new["value"] / base["value"]
        else:
            ratio = 1.0 if same else float("inf")
        return ratio, "ok" if same else "exact-mismatch"
    bound = base["bound"]
    ratio = new["median"] / base["median"]
    overlap = base["min"] <= new["max"] and new["min"] <= base["max"]
    if overlap and max(base["spread"], new["spread"]) > bound:
        return ratio, "unresolved"
    worsening = ratio - 1.0 if _BETTER[name] == "lower" else 1.0 / ratio - 1.0
    return ratio, "worse" if worsening > bound else "ok"


def compare(base: dict, new: dict) -> list:
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)``."""
    rows = []
    nan = float("nan")
    for workload in dict.fromkeys([*base["workloads"], *new["workloads"]]):
        section = base["workloads"].get(workload)
        other = new["workloads"].get(workload)
        if section is None or other is None:
            rows.append((workload, "-", nan, nan, nan, 0.0, "missing"))
            continue
        for name, *_ in metrics.END_TO_END:
            a, b = section["end_to_end"][name], other["end_to_end"][name]
            ratio, result = verdict(name, a, b)
            rows.append((
                workload, name, a.get("median", a.get("value")),
                b.get("median", b.get("value")), ratio, a.get("bound", 0.0), result,
            ))
    return rows


def compare_files(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    for key in ("seed", "size"):
        if base.get(key) != new.get(key):
            print(f"ledger compare: {key} differs ({base.get(key)!r} vs "
                  f"{new.get(key)!r}); the runs measured different inputs")
            return 2
    rows = compare(base, new)
    print(f"{'workload':<14} {'metric':<15} {'base':>13} {'new':>13} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for workload, name, a, b, ratio, bound, result in rows:
        limit = f"{100 * bound:.0f}%" if name in metrics.HOST_METRICS else "exact"
        print(f"{workload:<14} {name:<15} {a:>13.6g} {b:>13.6g} "
              f"{ratio:>9.4f} {limit:>6}  {result}")
    bad = [r for r in rows if r[-1] in ("worse", "exact-mismatch", "missing")]
    unresolved = sum(1 for r in rows if r[-1] == "unresolved")
    print(f"\n{len(rows)} rows: {len(bad)} worse, mismatched or missing, "
          f"{unresolved} unresolved")
    return 1 if bad else 0
