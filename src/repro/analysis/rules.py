"""The per-module wsrfcheck rules (WSRF001-003, DET001, WAL001, SIM001).

Each rule is a generator over one module's AST plus the global contract
model; see ``docs/static_analysis.md`` for the catalog with examples
and the suppression syntax.  Rules favor precision over recall: a site
the analysis cannot resolve statically (computed method names, dynamic
namespaces) is skipped, not guessed at.

The whole-program rules (WSRF004-005, DET002, WAL002, LOCK001) live in
:mod:`repro.analysis.rules_interproc`; they reuse the site detectors
defined here (``det_source_sites``, ``store_mutation``) so the two
tiers agree on what counts as a source.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.engine import Finding, ModuleContext, register_rule
from repro.analysis.model import ns_symbol_for

# -- shared AST helpers ------------------------------------------------------------


def enclosing_symbols(tree: ast.Module) -> Dict[int, str]:
    """Map id(node) -> "Class.method" for every node, for stable fingerprints."""
    out: Dict[int, str] = {}

    def visit(node: ast.AST, stack: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + (node.name,)
        out[id(node)] = ".".join(stack)
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, ())
    return out


def call_name(node: ast.expr) -> str:
    """Rightmost name of a call target ('call' for client.call, ...)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def dotted_parts(node: ast.expr) -> List[str]:
    """['np', 'random', 'default_rng'] for np.random.default_rng."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def qname_constants(ctx: ModuleContext) -> Dict[str, Tuple[str, str]]:
    """Module-level ``X = QName(NS_ALIAS, "Local")`` constants."""
    from repro.analysis.model import module_ns_aliases

    aliases = module_ns_aliases(ctx.tree)
    out: Dict[str, Tuple[str, str]] = {}
    for node in ctx.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        resolved = resolve_qname(node.value, aliases, {})
        if resolved is not None:
            out[target.id] = resolved
    return out


def resolve_qname(
    node: ast.expr,
    aliases: Dict[str, str],
    constants: Dict[str, Tuple[str, str]],
) -> Optional[Tuple[str, str]]:
    """Resolve an expression to (ns_symbol, local) if statically known."""
    if isinstance(node, ast.Name) and node.id in constants:
        return constants[node.id]
    if (
        isinstance(node, ast.Call)
        and call_name(node.func) == "QName"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        ns = ns_symbol_for(node.args[0], aliases)
        if ns is not None:
            return (ns, node.args[1].value)
    return None


# -- WSRF001: proxy drift ----------------------------------------------------------


@register_rule(
    "WSRF001",
    "proxy drift",
    "client.call() sites must match a decorated @WebMethod signature "
    "in the target namespace",
)
def check_proxy_drift(ctx: ModuleContext) -> Iterator[Finding]:
    from repro.analysis.model import module_ns_aliases

    aliases = module_ns_aliases(ctx.tree)
    symbols = enclosing_symbols(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and call_name(node.func) == "call"):
            continue
        if len(node.args) < 3:
            continue
        ns_symbol = ns_symbol_for(node.args[1], aliases)
        method_node = node.args[2]
        if ns_symbol is None or not (
            isinstance(method_node, ast.Constant)
            and isinstance(method_node.value, str)
        ):
            continue  # dynamic site: out of static reach
        method_name = method_node.value
        declared = ctx.model.web_method(ns_symbol, method_name)
        symbol = symbols.get(id(node), "")
        if declared is None:
            yield Finding(
                rule="WSRF001",
                path=ctx.path,
                line=node.lineno,
                symbol=symbol,
                message=(
                    f"no service in namespace {ns_symbol} declares a "
                    f"@WebMethod {method_name!r}"
                ),
            )
            continue
        # argument-dict drift (literal dicts only)
        args_node: Optional[ast.expr] = node.args[3] if len(node.args) > 3 else None
        for kw in node.keywords:
            if kw.arg == "args":
                args_node = kw.value
        if isinstance(args_node, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in args_node.keys
        ):
            sent = [k.value for k in args_node.keys]  # type: ignore[union-attr]
            unknown = [k for k in sent if k not in declared.params]
            missing = sorted(declared.required - set(sent))
            if unknown and not declared.has_kwargs:
                yield Finding(
                    rule="WSRF001",
                    path=ctx.path,
                    line=node.lineno,
                    symbol=symbol,
                    message=(
                        f"call to {method_name!r} sends argument(s) "
                        f"{unknown} not accepted by the @WebMethod "
                        f"(accepts {declared.params}); the wrapper drops "
                        "them silently"
                    ),
                )
            if missing:
                yield Finding(
                    rule="WSRF001",
                    path=ctx.path,
                    line=node.lineno,
                    symbol=symbol,
                    message=(
                        f"call to {method_name!r} omits required "
                        f"argument(s) {missing}"
                    ),
                )
        # one-way drift
        for kw in node.keywords:
            if (
                kw.arg == "one_way"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                and not declared.one_way
            ):
                yield Finding(
                    rule="WSRF001",
                    path=ctx.path,
                    line=node.lineno,
                    symbol=symbol,
                    message=(
                        f"{method_name!r} is invoked one-way but the "
                        "@WebMethod is not declared one_way=True; its "
                        "response would be silently discarded"
                    ),
                )


# -- WSRF002: undeclared resource property access ----------------------------------

_RP_READERS = {"get_resource_property": 1, "get_multiple_resource_properties": 1}


@register_rule(
    "WSRF002",
    "undeclared resource property access",
    "RP reads must name a declared @ResourceProperty; service state "
    "writes must hit declared Resource fields",
)
def check_rp_access(ctx: ModuleContext) -> Iterator[Finding]:
    from repro.analysis.model import module_ns_aliases

    aliases = module_ns_aliases(ctx.tree)
    constants = qname_constants(ctx)
    symbols = enclosing_symbols(ctx.tree)

    # client side: RP reads against the declared catalog
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        reader = call_name(node.func)
        if reader not in _RP_READERS or len(node.args) < 2:
            continue
        arg = node.args[_RP_READERS[reader]]
        targets = arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else [arg]
        for target in targets:
            resolved = resolve_qname(target, aliases, constants)
            if resolved is None:
                continue
            ns_symbol, local = resolved
            declared = ctx.model.resource_property_names(ns_symbol)
            if declared and local not in declared:
                yield Finding(
                    rule="WSRF002",
                    path=ctx.path,
                    line=node.lineno,
                    symbol=symbols.get(id(node), ""),
                    message=(
                        f"reads resource property {local!r} but no service "
                        f"in namespace {ns_symbol} declares it via "
                        f"@ResourceProperty (declared: {sorted(declared)})"
                    ),
                )

    # service side: self.<attr> writes must be declared state
    for class_node in ast.walk(ctx.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        if class_node.name not in ctx.model.service_classes:
            continue
        members = ctx.model.declared_members(class_node.name)
        for node in ast.walk(class_node):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                name = target.attr
                if name.startswith("_") or name in members:
                    continue
                yield Finding(
                    rule="WSRF002",
                    path=ctx.path,
                    line=node.lineno,
                    symbol=symbols.get(id(node), ""),
                    message=(
                        f"write to undeclared attribute self.{name}: not a "
                        f"Resource field of {class_node.name}, so the value "
                        "is never persisted to the WS-Resource state"
                    ),
                )


# -- WSRF003: fault discipline -----------------------------------------------------


@register_rule(
    "WSRF003",
    "untyped fault raised by service code",
    "faults raised inside a ServiceSkeleton subclass must be BaseFault "
    "subclasses so clients can reconstruct them",
)
def check_fault_discipline(ctx: ModuleContext) -> Iterator[Finding]:
    symbols = enclosing_symbols(ctx.tree)
    for class_node in ast.walk(ctx.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        if class_node.name not in ctx.model.service_classes:
            continue
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if not isinstance(exc, ast.Call):
                continue  # bare re-raise or exception variable: skip
            name = call_name(exc.func)
            if not name or not isinstance(exc.func, ast.Name):
                continue
            if name in ctx.model.fault_classes:
                continue
            yield Finding(
                rule="WSRF003",
                path=ctx.path,
                line=node.lineno,
                symbol=symbols.get(id(node), ""),
                message=(
                    f"service {class_node.name} raises {name}, which is not "
                    "a BaseFault subclass; clients get an untyped soap:Server "
                    "fault instead of a reconstructible WS-BaseFault"
                ),
            )


# -- WAL001: write-ahead ordering --------------------------------------------------


@register_rule(
    "WAL001",
    "notification may outrun the db_save stage",
    "service code must not fire_and_forget from inside a ServiceSkeleton "
    "subclass: the message can leave the host before the state it "
    "announces is persisted, so a crash loses the state but not the "
    "message (docs/durability.md); route it through "
    "wsrf.send_after_persist instead",
)
def check_write_ahead_ordering(ctx: ModuleContext) -> Iterator[Finding]:
    symbols = enclosing_symbols(ctx.tree)
    for class_node in ast.walk(ctx.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        if class_node.name not in ctx.model.service_classes:
            continue
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node.func) != "fire_and_forget":
                continue
            yield Finding(
                rule="WAL001",
                path=ctx.path,
                line=node.lineno,
                symbol=symbols.get(id(node), ""),
                message=(
                    f"service {class_node.name} calls fire_and_forget; the "
                    "send can overtake the dispatch pipeline's db_save "
                    "stage, breaking the write-ahead contract — use "
                    "self.wsrf.send_after_persist so the message leaves "
                    "only after the acknowledged state is durable"
                ),
            )


# -- DET001: nondeterminism --------------------------------------------------------

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


def det_source_sites(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """``(node, message)`` for every nondeterminism site in *tree*.

    Shared between DET001 (reports each site in place) and DET002
    (seeds the interprocedural taint with the functions containing
    them), so the two rules can never disagree on what a source is.
    """
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
            elif parts[:1] == ["random"] and len(parts) == 2:
                yield (
                    node,
                    f"{dotted}() uses the process-global random state; "
                    "thread an explicitly seeded np.random.Generator through "
                    "instead",
                )
            elif (
                len(parts) >= 2
                and parts[-2:] != ["random", "default_rng"]
                and parts[0] in ("np", "numpy")
                and "random" in parts[1:-1] + [parts[1]]
                and parts[-1] != "Generator"
                and len(parts) == 3
            ):
                yield (
                    node,
                    f"{dotted}() draws from numpy's global RNG; use an "
                    "explicitly seeded np.random.default_rng(seed)",
                )
            elif parts[-2:] == ["random", "default_rng"] or parts == ["default_rng"]:
                if not node.args and not node.keywords:
                    yield (
                        node,
                        "default_rng() without a seed is entropy-seeded; "
                        "pass an explicit seed so chaos/property tests "
                        "reproduce",
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
    "unordered set iteration break reproducible (seeded) runs",
)
def check_determinism(ctx: ModuleContext) -> Iterator[Finding]:
    symbols = enclosing_symbols(ctx.tree)
    for node, message in det_source_sites(ctx.tree):
        yield Finding(
            rule="DET001",
            path=ctx.path,
            line=node.lineno,
            symbol=symbols.get(id(node), ""),
            message=message,
        )


# -- SIM001: real blocking calls ---------------------------------------------------

_BLOCKING_MODULES = {"socket", "subprocess", "requests", "urllib", "http"}


@register_rule(
    "SIM001",
    "blocking call inside the simulated world",
    "real sleeps, sockets and file I/O stall the discrete-event loop; "
    "use env.timeout / the simulated fs and network",
)
def check_blocking(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.module.startswith("repro.analysis"):
        return  # the analyzer itself legitimately reads source files
    symbols = enclosing_symbols(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = dotted_parts(node.func)
        dotted = ".".join(parts)
        message = None
        if parts[-2:] == ["time", "sleep"] or parts == ["sleep"]:
            message = (
                f"{dotted}() blocks the real thread; yield "
                "env.timeout(delay) to advance simulated time"
            )
        elif parts[:1] and parts[0] in _BLOCKING_MODULES and len(parts) > 1:
            message = (
                f"{dotted}() performs real I/O inside the simulation; "
                "use repro.net / repro.osim equivalents"
            )
        elif parts == ["open"]:
            message = (
                "open() performs real file I/O inside the simulation; "
                "use the simulated SimFileSystem"
            )
        elif parts[-2:] == ["threading", "Thread"] or (
            parts[:1] == ["threading"] and len(parts) > 1
        ):
            message = (
                f"{dotted}() starts a real thread; model concurrency as "
                "simulation processes (env.process)"
            )
        if message is not None:
            yield Finding(
                rule="SIM001",
                path=ctx.path,
                line=node.lineno,
                symbol=symbols.get(id(node), ""),
                message=message,
            )


# -- shared-state mutation sites (used by LOCK001 in rules_interproc) --------------

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
