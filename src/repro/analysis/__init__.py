"""wsrfcheck — static whole-program analysis plus a runtime sanitizer.

WSRF.NET's central lesson is that the attribute-annotated programming
model only pays off when *tooling* checks and transforms it: the code
generator catches contract errors before they ship.  Our reproduction
declares the same contracts via ``@ResourceProperty`` / ``@WebMethod`` /
``@WSRFPortType`` — this package is the checking half of that tooling,
in two tiers.

**Tier 1 — static.**  ``python -m repro.analysis src/repro`` walks the
source tree, extracts the contract model from the decorators (no
imports — pure AST), builds a whole-program call graph, and runs the
rule catalog:

- **WSRF001** proxy drift: every ``client.call(epr, ns, "Name", {...})``
  site must match a decorated ``@WebMethod`` signature in that namespace;
- **WSRF003** faults raised by service code must be typed
  ``BaseFault`` subclasses so clients can reconstruct them;
- **WSRF005** EPR escape: endpoint references parked in process-global
  state that a host restart silently invalidates;
- **DET001** nondeterminism: wall-clock time, global RNGs, unseeded
  generators and unordered ``set`` iteration where they are, plus the
  service methods and detached processes that reach one through helpers;
- **SIM001** real blocking calls (``time.sleep``, sockets, file I/O)
  inside the simulated world;
- **WAL001** write-ahead ordering: a raw ``fire_and_forget`` on the
  dispatch pipeline, in place or through the call graph, instead of
  the post-persist outbox;
- **LOCK001** static lockset: shared WS-Resource state mutated on a
  call path from an ``env.process(...)`` root with no resource Lock
  acquired anywhere along the chain.

**Tier 2 — dynamic.**  :class:`RaceSanitizer` (``Testbed(sanitize=True)``)
checks the same properties on the paths a simulation actually takes:
vector-clock happens-before plus Eraser-style dynamic lockset per
WS-Resource row.  Off by default; a single
``env.san is None`` check per kernel hook.

See ``docs/static_analysis.md`` for the rule catalog, the
``# wsrfcheck: ignore[RULE, ...]`` suppression syntax, SARIF output,
and how to add rules.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisReport,
    Finding,
    Rule,
    analyze_paths,
    iter_rules,
    rule_catalog,
)
from repro.analysis.model import ContractModel, build_model
from repro.analysis.sanitizer import RaceSanitizer, SanitizerReport

__all__ = [
    "AnalysisReport",
    "ContractModel",
    "Finding",
    "RaceSanitizer",
    "Rule",
    "SanitizerReport",
    "analyze_paths",
    "build_model",
    "iter_rules",
    "rule_catalog",
]
