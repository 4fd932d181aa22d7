"""A small interprocedural reachability/taint engine over the call graph.

Rules seed it with *source functions* — functions whose bodies directly
contain an interesting site (a wall-clock read, a ``fire_and_forget``,
an unlocked store mutation) — and it answers, for any other function,
whether calling it can transitively reach a source, together with the
shortest *witness chain* of call sites proving it.  The chain is what
turns "helper three hops down reads the wall clock" into an actionable
finding message.

The propagation is function-summary taint: taint flows from callee to
caller along resolved call edges (breadth-first, so chains are
shortest), and every function keeps the single best chain.  This is
deliberately path-, flow- and context-insensitive — cheap enough to run
on every lint pass, precise enough because the call graph itself only
records statically certain edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis.callgraph import CallEdge, CallGraph


@dataclass(frozen=True)
class TaintSource:
    """Why a function is a taint seed: the site inside it."""

    qualname: str
    lineno: int
    reason: str


@dataclass
class Taint:
    """Taint state of one function: its distance and witness to a source."""

    source: TaintSource
    #: call edges from this function down to the source's function,
    #: outermost first; empty for the source function itself
    chain: List[CallEdge]

    @property
    def depth(self) -> int:
        return len(self.chain)

    def describe(self) -> str:
        """``a -> b -> c`` human-readable witness, innermost last."""
        hops = [edge.callee.rsplit(".", 1)[-1] for edge in self.chain]
        parts = hops + [f"{self.source.reason}"]
        return " -> ".join(parts)


def propagate(
    graph: CallGraph,
    sources: List[TaintSource],
    barrier: Optional[Callable[[str], bool]] = None,
) -> Dict[str, Taint]:
    """Taint every function that can transitively reach a source.

    *barrier* (qualname -> bool) marks functions taint must not flow
    *through*: a barrier function may itself be tainted (it contains or
    calls a source) but its callers are not — used for sanctioned
    wrappers like the write-ahead outbox, which contains the raw send
    but makes it safe.

    Returns ``{qualname: Taint}``; the source functions themselves map
    to a zero-length chain.  Breadth-first over reverse call edges, so
    every function keeps a shortest witness chain; ties are broken by
    edge insertion order, which follows the deterministic file walk.
    """
    taints: Dict[str, Taint] = {}
    queue: deque = deque()
    for source in sources:
        if source.qualname in graph.functions and source.qualname not in taints:
            taints[source.qualname] = Taint(source=source, chain=[])
            queue.append(source.qualname)
    while queue:
        current = queue.popleft()
        if barrier is not None and barrier(current):
            continue  # taint stops here: callers stay clean
        base = taints[current]
        for edge in graph.callers(current):
            if edge.caller in taints:
                continue
            taints[edge.caller] = Taint(
                source=base.source, chain=[edge, *base.chain]
            )
            queue.append(edge.caller)
    return taints
