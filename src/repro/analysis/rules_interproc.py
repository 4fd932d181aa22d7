"""The call-graph wsrfcheck rules (WSRF005, DET001, WAL001, LOCK001).

These follow a contract violation through the module-qualified call
graph (:mod:`repro.analysis.callgraph`), across helper layers a scan of
one file cannot see:

- **WSRF005** — an EndpointReference escapes into module- or
  class-level state outside a resource store: after a host restart
  those handles dangle (docs/durability.md);
- **DET001** — a nondeterminism source (wall clock, global RNG,
  unseeded generator, set iteration) is flagged where it is, and a
  sim-visible entry point (service or port-type method, detached
  process root) that reaches one through helpers is flagged at its
  first call on the witness chain;
- **WAL001** — a raw ``fire_and_forget`` in dispatch-pipeline code is
  flagged where it is, and a service or port-type method that reaches
  one through helpers is flagged at its first call on the chain: the
  send sidesteps the write-ahead outbox;
- **LOCK001** — a resource-store mutation can execute on a path from a
  detached process root with no resource Lock acquired anywhere along
  the chain (the interprocedural successor of the old per-file SIM002).

Like the module-scope rules, every resolution here is conservative:
precision over recall, so a finding always has a concrete witness
chain and an unresolvable call site never manufactures one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.callgraph import CallEdge, CallGraph, FunctionNode, own_calls, own_nodes
from repro.analysis.dataflow import TaintSource, propagate
from repro.analysis.engine import Finding, ProgramContext, register_rule
from repro.analysis.rules import call_name, dotted_parts, enclosing_symbols

# -- shared graph/AST helpers ------------------------------------------------------


def _owner_index(graph: CallGraph) -> Dict[int, FunctionNode]:
    """id(ast node) -> the function lexically owning it."""
    return {
        id(node): fn for fn in graph.functions.values() for node in own_nodes(fn, graph)
    }


def _fn_symbol(fn: FunctionNode) -> str:
    """The enclosing-scope symbol for a finding inside *fn*.

    Matches the ``enclosing_symbols`` convention ("Class.method", plain
    "fn", nested "outer.inner") so every rule's fingerprints live in the
    same namespace.
    """
    prefix = fn.module + "."
    if fn.qualname.startswith(prefix):
        return fn.qualname[len(prefix):]
    return fn.qualname


def _short(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


def _edge_at(
    graph: CallGraph, caller: str, call: ast.Call
) -> Optional[CallEdge]:
    """The resolved edge for a concrete call expression, if any."""
    name = call_name(call.func)
    for edge in graph.callees(caller):
        if edge.lineno == call.lineno and _short(edge.callee) == name:
            return edge
    return None


def _sorted_functions(graph: CallGraph) -> List[FunctionNode]:
    return sorted(graph.functions.values(), key=lambda f: f.qualname)


def _acquire_lines(fn: FunctionNode, graph: CallGraph) -> List[int]:
    return [
        call.lineno
        for call in own_calls(fn, graph)
        if call_name(call.func) == "acquire"
    ]


def _is_service_method(fn: FunctionNode, pctx: ProgramContext) -> bool:
    return bool(fn.class_name) and fn.class_name in pctx.model.service_classes


def _dispatch_classes(pctx: ProgramContext) -> Set[str]:
    """Service classes plus SpecPortType subclasses.

    Port-type methods (Subscribe, RegisterPublisher, ...) run inside
    the same dispatch pipeline as author ``@WebMethod`` code — the
    write-ahead and determinism contracts bind them equally — but they
    are not ServiceSkeleton subclasses, so the per-module rules never
    see them as services.
    """
    model = pctx.model
    out: Set[str] = set(model.service_classes)
    roots = {"SpecPortType"}
    changed = True
    while changed:
        changed = False
        for name, info in model.classes.items():
            if name in out:
                continue
            if any(b in roots or b in out for b in info.bases):
                out.add(name)
                changed = True
    return out


# -- WSRF005: EPR escape into module/class globals ---------------------------------

#: primitives whose return value is an EndpointReference
_EPR_PRIMITIVES = {"epr_for", "service_epr", "my_epr", "EndpointReference"}

#: mutating container methods that capture their argument
_CONTAINER_ADDERS = {"append", "add", "insert", "setdefault"}


def _epr_producers(graph: CallGraph) -> Set[str]:
    """Functions whose return value is (transitively) an EPR."""
    producers: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for fn in _sorted_functions(graph):
            if fn.qualname in producers:
                continue
            for node in own_nodes(fn, graph):
                if not (isinstance(node, ast.Return) and node.value is not None):
                    continue
                if _is_epr_expr(node.value, fn.qualname, graph, producers):
                    producers.add(fn.qualname)
                    changed = True
                    break
    return producers


def _is_epr_expr(
    node: ast.expr,
    caller: Optional[str],
    graph: CallGraph,
    producers: Set[str],
) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if call_name(node.func) in _EPR_PRIMITIVES:
        return True
    if caller is not None:
        edge = _edge_at(graph, caller, node)
        if edge is not None and edge.callee in producers:
            return True
    # module-level (or unresolved) sites: a bare name that uniquely
    # names a producer in the analyzed tree still counts
    name = call_name(node.func)
    candidates = graph.by_name.get(name, [])
    return bool(candidates) and all(q in producers for q in candidates)


def _module_containers(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable container literals."""
    out: Set[str] = set()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        is_container = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set", "defaultdict", "OrderedDict")
        )
        if not is_container:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _is_store_module(path: str) -> bool:
    return "/db/" in path.replace("\\", "/")


@register_rule(
    "WSRF005",
    "EPR escapes into module/class globals",
    "EndpointReferences stored in module-level or class-level state "
    "outside a resource store dangle after a host restart: the handle "
    "survives in process memory while the resource it points at is "
    "rebuilt or gone (docs/durability.md); keep handles in WS-Resource "
    "state or re-derive them per use",
)
def check_epr_escape(pctx: ProgramContext) -> Iterator[Finding]:
    graph = pctx.callgraph
    producers = _epr_producers(graph)

    def finding(ctx_path: str, node: ast.AST, symbol: str, where: str) -> Finding:
        return Finding(
            rule="WSRF005",
            path=ctx_path,
            line=node.lineno,  # type: ignore[attr-defined]
            symbol=symbol,
            message=(
                f"EndpointReference stored into {where}; module/class "
                "globals outlive the resources they point at across a "
                "host restart — keep handles in WS-Resource state or "
                "re-derive them per use"
            ),
        )

    for ctx in pctx.modules:
        if _is_store_module(ctx.path):
            continue
        containers = _module_containers(ctx.tree)

        # module-level: X = <epr-expr>
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                if _is_epr_expr(stmt.value, None, graph, producers):
                    yield finding(
                        ctx.path, stmt, "", "a module-level global"
                    )

        # inside functions: global names, Class.attr, module containers
        for fn in _sorted_functions(graph):
            if fn.module != ctx.module:
                continue
            own = list(own_nodes(fn, graph))
            globals_here = {
                name
                for sub in own
                if isinstance(sub, ast.Global)
                for name in sub.names
            }
            for node in own:
                for where in _escape_targets(
                    node, fn.qualname, pctx, producers, containers, globals_here
                ):
                    yield finding(ctx.path, node, _fn_symbol(fn), where)


def _escape_targets(
    node: ast.AST,
    caller: str,
    pctx: ProgramContext,
    producers: Set[str],
    containers: Set[str],
    globals_here: Set[str],
) -> List[str]:
    """Where *node* parks an EPR in restart-surviving state, if anywhere."""
    graph = pctx.callgraph
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
        if not _is_epr_expr(node.value, caller, graph, producers):
            return []
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        out: List[str] = []
        for target in targets:
            if isinstance(target, ast.Name) and target.id in globals_here:
                out.append(f"module global {target.id!r}")
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in pctx.model.classes
            ):
                out.append(f"class attribute {target.value.id}.{target.attr}")
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in containers
            ):
                out.append(f"module-level container {target.value.id!r}")
        return out
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _CONTAINER_ADDERS
            and isinstance(func.value, ast.Name)
            and func.value.id in containers
            and any(_is_epr_expr(arg, caller, graph, producers) for arg in node.args)
        ):
            return [f"module-level container {func.value.id!r}"]
    return []


# -- DET001: nondeterminism, in place and through helpers --------------------------

_WALLCLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
}
_DATETIME_CALLS = {"now", "utcnow", "today"}
_UUID_CALLS = {"uuid1", "uuid4"}
#: generator constructors that reproduce when given a seed
_RNG_CONSTRUCTORS = {
    "default_rng", "Random", "RandomState", "SeedSequence",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
}


def det_source_sites(
    tree: ast.Module,
) -> Iterator[Tuple[Union[ast.expr, ast.stmt], str]]:
    """``(node, message)`` for every nondeterminism site in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            parts = dotted_parts(node.func)
            dotted = ".".join(parts)
            if tuple(parts[-2:]) in _WALLCLOCK and parts[0] == "time":
                yield (
                    node,
                    f"{dotted}() reads the wall clock; use env.now so "
                    "runs are reproducible under the simulation clock",
                )
            elif len(parts) >= 2 and parts[-1] in _DATETIME_CALLS and (
                "datetime" in parts[:-1] or parts[0] == "datetime"
            ):
                yield (
                    node,
                    f"{dotted}() reads the wall clock; derive timestamps "
                    "from env.now instead",
                )
            elif parts[-1:] and parts[-1] in _RNG_CONSTRUCTORS and (
                parts[-2:-1] == ["random"] or parts == ["default_rng"]
            ):
                if not node.args and not node.keywords:
                    yield (
                        node,
                        f"{parts[-1]}() without a seed is entropy-seeded; "
                        "pass an explicit seed so chaos/property tests "
                        "reproduce",
                    )
            elif parts[:1] == ["random"] and len(parts) == 2:
                yield (
                    node,
                    f"{dotted}() uses the process-global random state; "
                    "thread an explicitly seeded np.random.Generator through "
                    "instead",
                )
            elif (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] != "Generator"
            ):
                yield (
                    node,
                    f"{dotted}() draws from numpy's global RNG; use an "
                    "explicitly seeded np.random.default_rng(seed)",
                )
            elif parts[:1] == ["uuid"] and parts[-1] in _UUID_CALLS:
                yield (
                    node,
                    f"{dotted}() is nondeterministic; derive ids from a "
                    "seeded counter (see repro.wsa.headers)",
                )
            elif parts[:1] == ["os"] and parts[-1] == "urandom":
                yield (node, "os.urandom() is nondeterministic")
            elif parts[:1] == ["secrets"]:
                yield (node, f"{dotted}() is nondeterministic")
        elif isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Set) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
            ):
                yield (
                    node if isinstance(node, ast.For) else it,
                    "iterating an unordered set: wrap in sorted(...) so "
                    "downstream decisions are order-stable",
                )


@register_rule(
    "DET001",
    "nondeterminism",
    "wall-clock reads, global RNG use, unseeded generators and "
    "unordered set iteration break reproducible (seeded) runs; a "
    "service method or detached process reaching one through helpers "
    "is flagged too, with the witness chain",
)
def check_determinism(pctx: ProgramContext) -> Iterator[Finding]:
    graph = pctx.callgraph
    owners = _owner_index(graph)
    sources: List[TaintSource] = []
    for ctx in pctx.modules:
        symbols = enclosing_symbols(ctx.tree)
        for node, message in det_source_sites(ctx.tree):
            yield Finding(
                rule="DET001",
                path=ctx.path,
                line=node.lineno,
                symbol=symbols.get(id(node), ""),
                message=message,
            )
            fn = owners.get(id(node))
            if fn is not None and not ctx.suppressed(node.lineno, "DET001"):
                # an accepted source doesn't taint its callers
                sources.append(
                    TaintSource(fn.qualname, node.lineno, message.split(";")[0])
                )

    taints = propagate(graph, sources)
    dispatch = _dispatch_classes(pctx)
    entry_points = sorted(
        {
            fn.qualname
            for fn in graph.functions.values()
            if fn.class_name and fn.class_name in dispatch
        }
        | set(pctx.process_roots)
    )
    for qualname in entry_points:
        taint = taints.get(qualname)
        if taint is None or not taint.chain:
            continue  # a site in the entry itself is reported above
        fn = graph.functions[qualname]
        if _is_service_method(fn, pctx):
            kind = "service method"
        elif fn.class_name and fn.class_name in dispatch:
            kind = "port-type method"
        else:
            kind = "detached process"
        yield Finding(
            rule="DET001",
            path=fn.path,
            line=taint.chain[0].lineno,
            symbol=_fn_symbol(fn),
            message=(
                f"{kind} {fn.name} reaches nondeterminism through "
                f"helper calls: {taint.describe()}; seeded runs stop "
                "reproducing even though this file looks clean"
            ),
        )


# -- WAL001: fire_and_forget on the dispatch pipeline ------------------------------

#: path suffixes sanctioned to carry the raw send primitive: the
#: write-ahead outbox itself and the notification base machinery
WAL001_SANCTIONED = ("wsrf/tooling.py", "wsn/base_notification.py")


def _wal_sanctioned(path: str) -> bool:
    return path.replace("\\", "/").endswith(WAL001_SANCTIONED)


@register_rule(
    "WAL001",
    "notification may outrun the db_save stage",
    "dispatch-pipeline code (a ServiceSkeleton subclass, closures "
    "included, or a SpecPortType method) must not reach fire_and_forget, "
    "directly or through helpers: the message can leave the host before "
    "the state it announces is persisted, so a crash loses the state but "
    "not the message (docs/durability.md); route it through "
    "wsrf.send_after_persist instead",
)
def check_write_ahead_ordering(pctx: ProgramContext) -> Iterator[Finding]:
    graph = pctx.callgraph
    dispatch = _dispatch_classes(pctx)
    by_path = {ctx.path: ctx for ctx in pctx.modules}
    sources: List[TaintSource] = []
    for fn in _sorted_functions(graph):
        if _wal_sanctioned(fn.path):
            continue  # the outbox/base machinery legitimately sends raw
        sends = [
            call for call in own_calls(fn, graph)
            if call_name(call.func) == "fire_and_forget"
        ]
        if not sends:
            continue
        # an accepted send doesn't taint its callers
        live = [c for c in sends if not by_path[fn.path].suppressed(c.lineno, "WAL001")]
        if live:
            sources.append(
                TaintSource(fn.qualname, live[0].lineno, f"fire_and_forget in {fn.name}")
            )
        if fn.closure_class in pctx.model.service_classes:
            message = (
                f"service {fn.closure_class} calls fire_and_forget; the "
                "send can overtake the dispatch pipeline's db_save "
                "stage, breaking the write-ahead contract — use "
                "self.wsrf.send_after_persist so the message leaves "
                "only after the acknowledged state is durable"
            )
        elif fn.class_name in dispatch:
            message = (
                f"port-type method {fn.name} calls fire_and_forget "
                "inside the dispatch pipeline; the message can outrun "
                "the db_save stage — route it through the invocation's "
                "send_after_persist so it leaves only after the state "
                "it announces is durable"
            )
        else:
            continue  # infrastructure; flagged only where dispatch reaches it
        for call in sends:
            yield Finding(
                rule="WAL001",
                path=fn.path,
                line=call.lineno,
                symbol=_fn_symbol(fn),
                message=message,
            )

    taints = propagate(
        graph, sources, barrier=lambda q: _wal_sanctioned(graph.functions[q].path)
    )
    for fn in _sorted_functions(graph):
        taint = taints.get(fn.qualname)
        if taint is None or not taint.chain or fn.class_name not in dispatch:
            continue  # a send in the method itself is reported above
        kind = (
            "service method" if _is_service_method(fn, pctx) else "port-type method"
        )
        yield Finding(
            rule="WAL001",
            path=fn.path,
            line=taint.chain[0].lineno,
            symbol=_fn_symbol(fn),
            message=(
                f"{kind} {fn.name} reaches a raw notification "
                f"send through helpers: {taint.describe()}; the message "
                "can outrun the db_save stage — route it through "
                "self.wsrf.send_after_persist so it leaves only after "
                "the state it announces is durable"
            ),
        )


# -- LOCK001: store mutation reachable from a process root without the lock --------

_STORE_MUTATIONS = {"save", "destroy", "create"}


def store_mutation(node: ast.Call) -> Optional[str]:
    """'store.save' if this call mutates the resource store, else None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in ("destroy_resource", "save_resource"):
        return func.attr
    if (
        func.attr in _STORE_MUTATIONS
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "store"
    ):
        return f"store.{func.attr}"
    return None


#: function names that run strictly before concurrent dispatch starts
#: (crash recovery rebuilds state single-threaded; the locks it would
#: take died with the previous boot — docs/durability.md)
LOCK001_RECOVERY_ALLOWLIST = ("restore", "wsrf_recover", "snapshot")


@register_rule(
    "LOCK001",
    "store mutation on an unlocked path from a detached process",
    "a resource-store mutation (store.save/destroy/create, "
    "save_resource or destroy_resource) can execute on a call path from an "
    "env.process(...) root with no resource Lock acquired anywhere "
    "along the chain; a concurrent handler mid load-modify-save on the "
    "same WS-Resource loses its write (interprocedural successor of "
    "the per-file SIM002)",
)
def check_static_lockset(pctx: ProgramContext) -> Iterator[Finding]:
    graph = pctx.callgraph
    acquires = {
        fn.qualname: _acquire_lines(fn, graph) for fn in graph.functions.values()
    }

    # breadth-first may-unlocked reachability from the process roots; a
    # call site below an acquire() in its caller enters locked
    unlocked: Dict[str, List[CallEdge]] = {}
    queue: List[str] = []
    for root in sorted(pctx.process_roots):
        if root in graph.functions and root not in unlocked:
            unlocked[root] = []
            queue.append(root)
    while queue:
        current = queue.pop(0)
        if _short(current) in LOCK001_RECOVERY_ALLOWLIST:
            continue  # single-threaded recovery: no concurrent handlers
        chain = unlocked[current]
        acquired = acquires.get(current, [])
        for edge in graph.callees(current):
            if any(line <= edge.lineno for line in acquired):
                continue  # the caller holds a lock at this call site
            if edge.callee in unlocked or _short(edge.callee) in (
                LOCK001_RECOVERY_ALLOWLIST
            ):
                continue
            unlocked[edge.callee] = [*chain, edge]
            queue.append(edge.callee)

    for qualname in sorted(unlocked):
        if _short(qualname) in LOCK001_RECOVERY_ALLOWLIST:
            continue  # a recovery routine handed straight to env.process
        fn = graph.functions[qualname]
        acquired = acquires.get(qualname, [])
        chain = unlocked[qualname]
        for call in own_calls(fn, graph):
            mutation = store_mutation(call)
            if mutation is None:
                continue
            if any(line <= call.lineno for line in acquired):
                continue
            root = chain[0].caller if chain else qualname
            via = "".join(f" -> {_short(e.callee)}" for e in chain)
            yield Finding(
                rule="LOCK001",
                path=fn.path,
                line=call.lineno,
                symbol=_fn_symbol(fn),
                message=(
                    f"{mutation}() runs with no resource Lock held on the "
                    f"detached path {_short(root)}{via}; a concurrent "
                    "handler doing load-modify-save on the same "
                    "WS-Resource can lose its write — acquire "
                    "wrapper.resource_lock(rid) across the span"
                ),
            )
