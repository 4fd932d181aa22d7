"""Every def in ``repro.analysis`` and ``repro.obs`` is fully annotated.

CI's ``lint`` job holds these two packages to mypy's
``disallow_untyped_defs`` / ``disallow_incomplete_defs`` (pyproject.toml).
This is the part of that override a scan of the tree can check without
mypy: every parameter except a method's ``self`` / ``cls``, and every
return, carries an annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
STRICT_PACKAGES = ("analysis", "obs")


def unannotated(tree: ast.Module):
    """``(line, def name, what)`` for every missing annotation in *tree*."""
    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [*args.posonlyargs, *args.args]
                if in_class and params and params[0].arg in ("self", "cls"):
                    params = params[1:]
                params += [*args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
                for param in params:
                    if param.annotation is None:
                        yield child.lineno, child.name, f"parameter {param.arg!r}"
                if child.returns is None:
                    yield child.lineno, child.name, "return"
                yield from visit(child, in_class=False)
            else:
                yield from visit(child, in_class=isinstance(child, ast.ClassDef))

    return list(visit(tree, in_class=False))


@pytest.mark.parametrize("package", STRICT_PACKAGES)
def test_every_def_is_annotated(package):
    missing = [
        f"{path.relative_to(SRC)}:{line} {name}: {what}"
        for path in sorted((SRC / package).rglob("*.py"))
        for line, name, what in unannotated(ast.parse(path.read_text()))
    ]
    assert not missing, "unannotated:\n" + "\n".join(missing)


def test_the_scan_sees_what_it_checks():
    tree = ast.parse(
        "def f(a, b: int):\n"
        "    def inner(c: int): ...\n"
        "class C:\n"
        "    def m(self, d: int) -> None: ...\n"
        "    @classmethod\n"
        "    def k(cls, *rest, **extra) -> None: ...\n"
    )
    assert unannotated(tree) == [
        (1, "f", "parameter 'a'"),
        (1, "f", "return"),
        (2, "inner", "return"),
        (6, "k", "parameter 'rest'"),
        (6, "k", "parameter 'extra'"),
    ]
