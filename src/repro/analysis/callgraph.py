"""Module-qualified call graph over the analyzed tree (pure AST).

This is the whole-program half of wsrfcheck v2: where the per-file
rules see one module at a time, the call graph links every function
definition in the analyzed tree to the call sites that can reach it,
so rules can follow a contract violation through helper layers
(``docs/static_analysis.md``).

Resolution is deliberately conservative — precision over recall, the
same stance as the per-file rules:

- ``name(...)`` resolves through local defs, module-level defs and
  ``from x import y`` / ``import x as z`` aliases;
- ``self.method(...)`` resolves through the class MRO recorded in the
  :class:`~repro.analysis.model.ContractModel`;
- ``Class.method(...)`` and ``Class(...)`` (constructor → ``__init__``)
  resolve when ``Class`` is a class in the analyzed tree;
- ``var.method(...)`` resolves when ``var`` was assigned a constructor
  call (``var = Class(...)``) earlier in the same function, or when the
  attribute chain starts from a typed ``self`` attribute the model
  knows about.

Anything else (computed attributes, duck-typed parameters) stays
unresolved rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.model import ContractModel


@dataclass
class FunctionNode:
    """One function or method definition in the analyzed tree."""

    qualname: str  # "module.Class.method" or "module.fn" (or nested "module.fn.inner")
    module: str
    path: str
    name: str
    lineno: int
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None  # immediately enclosing class, if any
    #: nearest enclosing class through any function nesting: a closure
    #: inside a method (the sweeper pattern) is not a method itself
    #: (class_name is falsy) but its captured ``self`` still refers to
    #: this class, so ``self.method(...)`` resolves through it
    closure_class: Optional[str] = None


@dataclass(frozen=True)
class CallEdge:
    """A resolved call site: *caller* invokes *callee* at *lineno*."""

    caller: str
    callee: str
    lineno: int


class CallGraph:
    """Functions plus resolved call edges, with forward/reverse indexes."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.edges: List[CallEdge] = []
        self._out: Dict[str, List[CallEdge]] = {}
        self._in: Dict[str, List[CallEdge]] = {}
        #: bare function/method name -> qualnames defining it
        self.by_name: Dict[str, List[str]] = {}
        #: qualname -> {id(node) of every function nested inside it},
        #: built on first use by :func:`own_nodes`
        self._nested: Optional[Dict[str, Set[int]]] = None

    def add_function(self, fn: FunctionNode) -> None:
        self.functions[fn.qualname] = fn
        self.by_name.setdefault(fn.name, []).append(fn.qualname)

    def add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)
        self._in.setdefault(edge.callee, []).append(edge)

    def callees(self, qualname: str) -> List[CallEdge]:
        return self._out.get(qualname, [])

    def callers(self, qualname: str) -> List[CallEdge]:
        return self._in.get(qualname, [])


# -- construction -------------------------------------------------------------------


def _import_aliases(tree: ast.Module, modules: Set[str]) -> Dict[str, str]:
    """Local name -> dotted target for imports of analyzed modules.

    ``from repro.wsn.base_notification import fire_and_forget`` maps
    ``fire_and_forget`` to ``repro.wsn.base_notification.fire_and_forget``;
    imports of modules outside the analyzed tree are ignored.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module in modules or any(
                m.startswith(node.module + ".") for m in modules
            ):
                for alias in node.names:
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    local = alias.asname or alias.name
                    aliases[local] = alias.name
    return aliases


class _Indexer(ast.NodeVisitor):
    """First pass: register every function definition with its scope."""

    def __init__(self, graph: CallGraph, module: str, path: str) -> None:
        self.graph = graph
        self.module = module
        self.path = path
        self.scope: List[str] = []
        self.class_stack: List[str] = []

    def _register(self, node: ast.AST, name: str, lineno: int) -> None:
        qualname = ".".join([self.module, *self.scope, name])
        closure_class = next(
            (cls for cls in reversed(self.class_stack) if cls), None
        )
        self.graph.add_function(
            FunctionNode(
                qualname=qualname,
                module=self.module,
                path=self.path,
                name=name,
                lineno=lineno,
                node=node,
                class_name=self.class_stack[-1] if self.class_stack else None,
                closure_class=closure_class,
            )
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()
        self.scope.pop()

    def _visit_fn(self, node: ast.AST, name: str, lineno: int) -> None:
        self._register(node, name, lineno)
        self.scope.append(name)
        # Methods of a class defined inside a function keep resolving;
        # the class stack only tracks the *immediately* enclosing class.
        self.class_stack.append("")
        self.generic_visit(node)
        self.class_stack.pop()
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node, node.name, node.lineno)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node, node.name, node.lineno)


def _attr_chain(node: ast.expr) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


#: ``self.<attr>`` names whose runtime type the resolver knows a priori
#: (ServiceSkeleton plumbing): attr -> class name in the analyzed tree
KNOWN_SELF_ATTR_TYPES: Dict[str, str] = {
    "wsrf": "InvocationContext",
    "wrapper": "WrapperService",
}


class _EdgeBuilder:
    """Second pass: resolve call sites inside one function body."""

    def __init__(
        self,
        graph: CallGraph,
        model: ContractModel,
        module: str,
        imports: Dict[str, str],
        local_defs: Dict[str, str],
    ) -> None:
        self.graph = graph
        self.model = model
        self.module = module
        self.imports = imports
        #: name -> qualname for defs visible at module scope
        self.local_defs = local_defs

    def _method_qualname(self, class_name: str, method: str) -> Optional[str]:
        """Resolve Class.method through the model's MRO."""
        for info in self.model.mro(class_name):
            candidate = f"{info.module}.{info.name}.{method}"
            if candidate in self.graph.functions:
                return candidate
        # The class may not be in the model (not extracted) but still
        # indexed: try the direct name in any module.
        for qualname in self.graph.by_name.get(method, []):
            fn = self.graph.functions[qualname]
            if fn.class_name == class_name:
                return qualname
        return None

    def _class_in_tree(self, name: str) -> bool:
        return name in self.model.classes

    def resolve(
        self,
        call: ast.Call,
        caller: FunctionNode,
        local_types: Dict[str, str],
        inner_defs: Dict[str, str],
    ) -> Optional[str]:
        func = call.func
        # name(...) — local def, module def, import, or constructor
        if isinstance(func, ast.Name):
            name = func.id
            if name in inner_defs:
                return inner_defs[name]
            if self._class_in_tree(name):
                return self._method_qualname(name, "__init__")
            if name in self.local_defs:
                return self.local_defs[name]
            if name in self.imports:
                target = self.imports[name]
                if target in self.graph.functions:
                    return target
                # imported class constructor
                tail = target.rsplit(".", 1)[-1]
                if self._class_in_tree(tail):
                    return self._method_qualname(tail, "__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        chain = _attr_chain(func)
        if len(chain) < 2:
            return None
        base, rest = chain[0], chain[1:]
        # self.method(...) and self.attr.method(...); closures inside a
        # method resolve their captured self through closure_class
        self_class = caller.class_name or caller.closure_class
        if base == "self" and self_class:
            if len(rest) == 1:
                return self._method_qualname(self_class, rest[0])
            if len(rest) == 2 and rest[0] in KNOWN_SELF_ATTR_TYPES:
                return self._method_qualname(KNOWN_SELF_ATTR_TYPES[rest[0]], rest[1])
            return None
        if len(rest) == 1:
            method = rest[0]
            # Class.method(...)
            if self._class_in_tree(base):
                return self._method_qualname(base, method)
            # var.method(...) where var = Class(...) earlier in this body
            if base in local_types:
                return self._method_qualname(local_types[base], method)
            # module_alias.fn(...)
            if base in self.imports:
                target = f"{self.imports[base]}.{method}"
                if target in self.graph.functions:
                    return target
        return None


def _constructor_class(
    value: ast.expr, model: ContractModel, imports: Dict[str, str]
) -> Optional[str]:
    """ClassName when *value* is ``ClassName(...)`` for a known class."""
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)):
        return None
    name = value.func.id
    if name in model.classes:
        return name
    if name in imports:
        tail = imports[name].rsplit(".", 1)[-1]
        if tail in model.classes:
            return tail
    return None


def _return_types(
    graph: CallGraph,
    model: ContractModel,
    imports_by_module: Dict[str, Dict[str, str]],
) -> Dict[str, str]:
    """``qualname -> ClassName`` for factory functions.

    A function whose return statements hand back a constructor call —
    directly (``return Class(...)``) or through a local assigned one
    (``x = Class(...); ...; return x``) — is typed as returning that
    class, so ``var = factory(...); var.method()`` resolves.  Functions
    with conflicting candidates stay untyped.
    """
    out: Dict[str, str] = {}
    for fn in graph.functions.values():
        imports = imports_by_module.get(fn.module, {})
        local_ctors: Dict[str, str] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    cls = _constructor_class(node.value, model, imports)
                    if cls is not None:
                        local_ctors[target.id] = cls
        candidates: Set[str] = set()
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Return) and node.value is not None):
                continue
            cls = _constructor_class(node.value, model, imports)
            if cls is None and isinstance(node.value, ast.Name):
                cls = local_ctors.get(node.value.id)
            if cls is not None:
                candidates.add(cls)
        if len(candidates) == 1:
            out[fn.qualname] = candidates.pop()
    return out


def _local_constructor_types(
    fn_node: ast.AST,
    model: ContractModel,
    imports: Dict[str, str],
    module_defs: Dict[str, str],
    return_types: Dict[str, str],
) -> Dict[str, str]:
    """``var -> ClassName`` for constructor and typed-factory assignments."""
    types: Dict[str, str] = {}
    for node in ast.walk(fn_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        cls = _constructor_class(value, model, imports)
        if cls is not None:
            types[target.id] = cls
            continue
        # var = factory(...) where factory has an inferred return class
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            name = value.func.id
            qualname = module_defs.get(name) or imports.get(name)
            if qualname is not None and qualname in return_types:
                types[target.id] = return_types[qualname]
    return types


def build_callgraph(
    modules: List[Tuple[str, str, ast.Module]], model: ContractModel
) -> CallGraph:
    """Index every function in *modules* and resolve their call sites.

    *modules* is ``[(module_name, path, tree), ...]`` — the same shape
    :func:`~repro.analysis.model.build_model` takes, typically every
    file the engine is analyzing.
    """
    graph = CallGraph()
    module_names = {m for m, _, _ in modules}
    for module_name, path, tree in modules:
        _Indexer(graph, module_name, path).visit(tree)

    imports_by_module = {
        module_name: _import_aliases(tree, module_names)
        for module_name, _path, tree in modules
    }
    return_types = _return_types(graph, model, imports_by_module)

    for module_name, path, tree in modules:
        imports = imports_by_module[module_name]
        module_defs = {
            fn.name: fn.qualname
            for fn in graph.functions.values()
            if fn.module == module_name and fn.qualname.count(".") == module_name.count(".") + 1
        }
        builder = _EdgeBuilder(graph, model, module_name, imports, module_defs)
        for fn in [f for f in graph.functions.values() if f.module == module_name]:
            local_types = _local_constructor_types(
                fn.node, model, imports, module_defs, return_types
            )
            # defs nested directly inside this function shadow module defs
            inner_defs = {
                g.name: g.qualname
                for g in graph.functions.values()
                if g.qualname.startswith(fn.qualname + ".")
                and g.qualname.count(".") == fn.qualname.count(".") + 1
            }
            for call in own_calls(fn, graph):
                callee = builder.resolve(call, fn, local_types, inner_defs)
                if callee is not None:
                    graph.add_edge(
                        CallEdge(caller=fn.qualname, callee=callee, lineno=call.lineno)
                    )
    return graph


def own_nodes(fn: FunctionNode, graph: CallGraph) -> Iterator[ast.AST]:
    """AST nodes lexically inside *fn*, excluding nested defs and classes."""
    index = graph._nested
    if index is None:
        # Built once per graph: the rules call this hot, and rescanning
        # all functions per call is quadratic on the real tree.
        index = graph._nested = {qualname: set() for qualname in graph.functions}
        for g in graph.functions.values():
            parts = g.qualname.split(".")
            for i in range(1, len(parts)):
                ancestor = ".".join(parts[:i])
                if ancestor in index:
                    index[ancestor].add(id(g.node))
    nested = index.get(fn.qualname, set())

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if id(child) in nested or isinstance(child, ast.ClassDef):
                continue
            yield child
            yield from walk(child)

    yield from walk(fn.node)


def own_calls(fn: FunctionNode, graph: CallGraph) -> Iterator[ast.Call]:
    """Call expressions lexically inside *fn* but not inside a nested def."""
    return (n for n in own_nodes(fn, graph) if isinstance(n, ast.Call))


# -- context discovery over the graph ------------------------------------------------


def process_roots(
    modules: List[Tuple[str, str, ast.Module]], graph: CallGraph
) -> Set[str]:
    """Qualnames of functions handed to ``env.process(...)``.

    These run detached from the dispatch pipeline — the contexts the
    lockset and taint rules treat as concurrent entry points.
    """
    roots: Set[str] = set()
    for module_name, _path, tree in modules:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"
                and node.args
            ):
                continue
            target = node.args[0]
            name = ""
            if isinstance(target, ast.Call):
                chain = _attr_chain(target.func)
                name = chain[-1] if chain else ""
                if isinstance(target.func, ast.Name):
                    name = target.func.id
            elif isinstance(target, (ast.Name, ast.Attribute)):
                chain = _attr_chain(target)
                name = chain[-1] if chain else ""
            if not name:
                continue
            for qualname in graph.by_name.get(name, []):
                if graph.functions[qualname].module == module_name:
                    roots.add(qualname)
    return roots
