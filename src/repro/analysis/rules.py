"""The module-scope wsrfcheck rules (WSRF001, WSRF003, SIM001).

Each rule walks every module of the :class:`ProgramContext` on its own,
against the global contract model; see ``docs/static_analysis.md`` for
the catalog with examples and the suppression syntax.  Rules favor
precision over recall: a site the analysis cannot resolve statically
(computed method names, dynamic namespaces) is skipped, not guessed at.

The call-graph rules (WSRF005, DET001, WAL001, LOCK001) live in
:mod:`repro.analysis.rules_interproc` and share the AST helpers below.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.engine import Finding, ProgramContext, register_rule
from repro.analysis.model import module_ns_aliases, ns_symbol_for

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


# -- WSRF001: proxy drift ----------------------------------------------------------


@register_rule(
    "WSRF001",
    "proxy drift",
    "client.call() sites must match a decorated @WebMethod signature "
    "in the target namespace",
)
def check_proxy_drift(pctx: ProgramContext) -> Iterator[Finding]:
    for ctx in pctx.modules:
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
            declared = pctx.model.web_method(ns_symbol, method_name)
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


# -- WSRF003: fault discipline -----------------------------------------------------


@register_rule(
    "WSRF003",
    "untyped fault raised by service code",
    "faults raised inside a ServiceSkeleton subclass must be BaseFault "
    "subclasses so clients can reconstruct them",
)
def check_fault_discipline(pctx: ProgramContext) -> Iterator[Finding]:
    for ctx in pctx.modules:
        symbols = enclosing_symbols(ctx.tree)
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            if class_node.name not in pctx.model.service_classes:
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
                if name in pctx.model.fault_classes:
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


# -- SIM001: real blocking calls ---------------------------------------------------

_BLOCKING_MODULES = {"socket", "subprocess", "requests", "urllib", "http"}


@register_rule(
    "SIM001",
    "blocking call inside the simulated world",
    "real sleeps, sockets and file I/O stall the discrete-event loop; "
    "use env.timeout / the simulated fs and network",
)
def check_blocking(pctx: ProgramContext) -> Iterator[Finding]:
    for ctx in pctx.modules:
        if ctx.module.startswith("repro.analysis"):
            continue  # the analyzer itself legitimately reads source files
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
