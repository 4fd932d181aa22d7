"""Contract model extraction (pure AST, no imports of analyzed code).

The model is wsrfcheck's equivalent of WSRF.NET's reflection pass over
``[WebMethod]``/``[Resource]`` attributes: it reads every module once
and records, per service class, the declared web methods (with their
signatures) and the service namespace — plus the ``BaseFault`` class
hierarchy, so rules can check call sites and raised faults against what
the services actually declare.

Namespaces are tracked symbolically as ``"NS.<NAME>"`` strings: the
extractor resolves module-level aliases (``UVA = NS.UVACG``) so a call
site written against ``UVA`` matches a service declaring
``SERVICE_NS = NS.UVACG`` in another module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: exception types that count as the root of the typed fault hierarchy
FAULT_ROOTS = frozenset({"BaseFault"})

#: the base class marking author-written services
SERVICE_ROOTS = frozenset({"ServiceSkeleton"})


@dataclass
class WebMethodInfo:
    """One ``@WebMethod``-decorated operation."""

    name: str
    params: List[str] = field(default_factory=list)  # declared order, no self
    required: Set[str] = field(default_factory=set)
    has_kwargs: bool = False
    one_way: bool = False
    requires_resource: bool = True
    lineno: int = 0


@dataclass
class ServiceInfo:
    """One class in the analyzed tree (service or otherwise)."""

    name: str
    module: str
    path: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    #: "NS.X" if declared on this class, else None (inherited)
    service_ns: Optional[str] = None
    web_methods: Dict[str, WebMethodInfo] = field(default_factory=dict)


@dataclass
class ContractModel:
    """Everything the rules need to know about the analyzed tree."""

    #: class name -> ServiceInfo (last definition wins on collision)
    classes: Dict[str, ServiceInfo] = field(default_factory=dict)
    #: names of classes that are (transitively) BaseFault subclasses
    fault_classes: Set[str] = field(default_factory=set)
    #: names of classes that are (transitively) ServiceSkeleton subclasses
    service_classes: Set[str] = field(default_factory=set)

    # -- resolution helpers -------------------------------------------------------

    def mro(self, class_name: str) -> List[ServiceInfo]:
        """This class followed by its known bases, nearest first."""
        out: List[ServiceInfo] = []
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            out.append(info)
            stack.extend(info.bases)
        return out

    def effective_ns(self, class_name: str) -> Optional[str]:
        """The SERVICE_NS symbol a service resolves to, MRO-aware."""
        for info in self.mro(class_name):
            if info.service_ns is not None:
                return info.service_ns
        if class_name in self.service_classes:
            return "NS.UVACG"  # ServiceSkeleton's default
        return None

    def services_in_ns(self, ns_symbol: str) -> List[ServiceInfo]:
        return [
            self.classes[name]
            for name in sorted(self.service_classes)
            if name in self.classes and self.effective_ns(name) == ns_symbol
        ]

    def web_method(self, ns_symbol: str, name: str) -> Optional[WebMethodInfo]:
        """The declared @WebMethod *name* in *ns_symbol*, if any service has it."""
        for service in self.services_in_ns(ns_symbol):
            for info in self.mro(service.name):
                method = info.web_methods.get(name)
                if method is not None:
                    return method
        return None


# -- per-module extraction ----------------------------------------------------------


def ns_symbol_for(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an expression to an "NS.X" symbol, via module aliases."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "NS":
            return f"NS.{node.attr}"
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def module_ns_aliases(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``UVA = NS.UVACG``-style namespace aliases."""
    aliases: Dict[str, str] = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        symbol = ns_symbol_for(node.value, aliases)
        if symbol is not None:
            aliases[target.id] = symbol
    return aliases


def _decorator_name(node: ast.expr) -> str:
    """The bare name of a decorator expression ('WebMethod', 'property', ...)."""
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _web_method_meta(node: ast.expr) -> Dict[str, bool]:
    meta = {"one_way": False, "requires_resource": True}
    if isinstance(node, ast.Call):
        for kw in node.keywords:
            if kw.arg in meta and isinstance(kw.value, ast.Constant):
                meta[kw.arg] = bool(kw.value.value)
    return meta


def _extract_method(fn: ast.FunctionDef) -> WebMethodInfo:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args if a.arg != "self"]
    defaults = args.defaults
    n_required = len(names) - len(defaults)
    info = WebMethodInfo(
        name=fn.name,
        params=names + [a.arg for a in args.kwonlyargs],
        required=set(names[: max(0, n_required)]),
        has_kwargs=args.kwarg is not None,
        lineno=fn.lineno,
    )
    for kwonly, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is None:
            info.required.add(kwonly.arg)
    return info


def _extract_class(
    node: ast.ClassDef, module: str, path: str, aliases: Dict[str, str]
) -> ServiceInfo:
    info = ServiceInfo(
        name=node.name,
        module=module,
        path=path,
        lineno=node.lineno,
        bases=[_decorator_name(base) for base in node.bases],
    )
    for item in node.body:
        if (
            isinstance(item, ast.Assign)
            and len(item.targets) == 1
            and isinstance(item.targets[0], ast.Name)
            and item.targets[0].id == "SERVICE_NS"
        ):
            info.service_ns = ns_symbol_for(item.value, aliases)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in item.decorator_list:
                if _decorator_name(deco) == "WebMethod":
                    method = _extract_method(item)
                    meta = _web_method_meta(deco)
                    method.one_way = meta["one_way"]
                    method.requires_resource = meta["requires_resource"]
                    info.web_methods[item.name] = method
    return info


def build_model(modules: List[Tuple[str, str, ast.Module]]) -> ContractModel:
    """Extract the contract model from parsed modules.

    *modules* is ``[(module_name, path, tree), ...]`` — typically every
    file the engine is about to analyze, so fixtures and the real tree
    each get a self-consistent model.
    """
    model = ContractModel()
    for module_name, path, tree in modules:
        aliases = module_ns_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                info = _extract_class(node, module_name, path, aliases)
                model.classes[info.name] = info

    # Transitive closures over base-name edges.
    def closure(roots: frozenset) -> Set[str]:
        out: Set[str] = set()
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

    model.fault_classes = closure(FAULT_ROOTS) | set(FAULT_ROOTS)
    model.service_classes = closure(SERVICE_ROOTS)
    return model
