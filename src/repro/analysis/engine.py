"""The wsrfcheck rule engine: file walk, suppressions, report.

A :class:`Rule` is a callable over a :class:`ProgramContext`: every
parsed module plus the global
:class:`~repro.analysis.model.ContractModel` and the module-qualified
call graph (:mod:`repro.analysis.callgraph`).  Rules yield
:class:`Finding` objects; the engine handles everything around that:
collecting files, parsing, building the model and call graph,
line-level suppressions (``# wsrfcheck: ignore[WSRF001]``, multiple
comments per line combine), and stable text/JSON/SARIF rendering.

Fingerprints deliberately exclude line numbers: a finding keeps its
SARIF identity (``partialFingerprints``) when unrelated edits shift the
file, and gets a new one the moment its rule, file or message changes.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set

from repro.analysis.callgraph import CallGraph, build_callgraph, process_roots
from repro.analysis.model import ContractModel, build_model

SUPPRESS_RE = re.compile(r"#\s*wsrfcheck:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific site."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    message: str
    symbol: str = ""  # enclosing class/function, stabilizes the fingerprint

    @property
    def fingerprint(self) -> str:
        basis = "\x1f".join((self.rule, self.path, self.symbol, self.message))
        return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule}{sym}: {self.message}"


@dataclass
class ModuleContext:
    """Everything a rule sees for one file."""

    path: str  # repo-relative
    module: str  # dotted module name (best effort)
    tree: ast.Module
    source_lines: List[str]

    def suppressed(self, line: int, rule: str) -> bool:
        if not 1 <= line <= len(self.source_lines):
            return False
        for match in SUPPRESS_RE.finditer(self.source_lines[line - 1]):
            rules = match.group(1)
            if rules is None:
                return True  # bare "# wsrfcheck: ignore" silences every rule
            if rule in {r.strip() for r in rules.split(",")}:
                return True
        return False


@dataclass
class ProgramContext:
    """Everything a rule sees: all modules plus the call graph."""

    modules: List[ModuleContext]
    model: ContractModel
    callgraph: CallGraph
    #: qualnames of functions handed to env.process (detached contexts)
    process_roots: Set[str]


RuleFn = Callable[[ProgramContext], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    code: str
    title: str
    fn: RuleFn
    description: str = ""


_RULES: Dict[str, Rule] = {}


def register_rule(
    code: str, title: str, description: str = ""
) -> Callable[[RuleFn], RuleFn]:
    """Decorator adding a rule to the catalog."""

    def wrap(fn: RuleFn) -> RuleFn:
        _RULES[code] = Rule(code=code, title=title, fn=fn, description=description)
        return fn

    return wrap


def iter_rules() -> List[Rule]:
    _ensure_rules_loaded()
    return [_RULES[code] for code in sorted(_RULES)]


def rule_catalog() -> Dict[str, Rule]:
    _ensure_rules_loaded()
    return dict(_RULES)


def _ensure_rules_loaded() -> None:
    # Imported lazily so engine <-> rules avoid a circular import.
    from repro.analysis import rules as _rules  # noqa: F401
    from repro.analysis import rules_interproc as _rules_ip  # noqa: F401


# -- file collection ---------------------------------------------------------------


def collect_files(paths: Iterable[str]) -> List[Path]:
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    # de-duplicate, keep deterministic order
    seen: Set[Path] = set()
    unique = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _relative(path: Path, root: Optional[Path]) -> str:
    try:
        rel = path.resolve().relative_to((root or Path.cwd()).resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def _module_name(rel_path: str) -> str:
    parts = Path(rel_path).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# -- the run -----------------------------------------------------------------------


@dataclass
class AnalysisReport:
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_analyzed: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: suppressed findings, kept for the --show-suppressed audit view
    suppressed_findings: List[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.parse_errors else 0

    def to_json(self, show_suppressed: bool = False) -> Dict:
        out: Dict = {
            "files_analyzed": self.files_analyzed,
            "suppressed": self.suppressed,
            "parse_errors": self.parse_errors,
            "findings": [f.to_json() for f in self.findings],
        }
        if show_suppressed:
            out["suppressed_findings"] = [
                f.to_json() for f in self.suppressed_findings
            ]
        return out

    def render_text(self, show_suppressed: bool = False) -> str:
        lines = [f.render() for f in self.findings]
        lines.extend(f"parse error: {err}" for err in self.parse_errors)
        if show_suppressed:
            lines.extend(
                f"{f.render()} (suppressed)" for f in self.suppressed_findings
            )
        by_rule: Dict[str, int] = {}
        for f in self.findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        summary = ", ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
        lines.append(
            f"wsrfcheck: {len(self.findings)} finding(s) in "
            f"{self.files_analyzed} file(s)"
            + (f" ({summary})" if summary else "")
            + (f"; {self.suppressed} suppressed" if self.suppressed else "")
        )
        return "\n".join(lines)

    def render_sarif(self) -> str:
        """SARIF 2.1.0 for code-scanning upload (deterministic bytes)."""
        catalog = rule_catalog()
        fired = sorted({f.rule for f in self.findings})
        rules_json = []
        for code in fired:
            rule = catalog.get(code)
            rules_json.append(
                {
                    "id": code,
                    "name": code,
                    "shortDescription": {"text": rule.title if rule else code},
                    "fullDescription": {
                        "text": rule.description if rule else ""
                    },
                }
            )
        results = [
            {
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {"startLine": max(1, f.line)},
                        },
                        "logicalLocations": (
                            [{"fullyQualifiedName": f.symbol}] if f.symbol else []
                        ),
                    }
                ],
                "partialFingerprints": {"wsrfcheck/v1": f.fingerprint},
            }
            for f in self.findings
        ]
        doc = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "wsrfcheck",
                            "informationUri": "docs/static_analysis.md",
                            "rules": rules_json,
                        }
                    },
                    "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                    "results": results,
                }
            ],
        }
        return json.dumps(doc, indent=2)


def analyze_paths(
    paths: Iterable[str],
    rules: Optional[Iterable[str]] = None,
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Run the catalog over *paths*; returns the report.

    *rules* restricts to the given codes (default: all).  Every rule
    runs once over a :class:`ProgramContext` carrying the call graph; a
    finding on a line whose ``# wsrfcheck: ignore`` comment names its
    rule is counted as suppressed instead of reported.
    """
    report = AnalysisReport()
    contexts: List[ModuleContext] = []
    for path in collect_files(paths):
        rel = _relative(path, root)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append(f"{rel}: {exc}")
            continue
        contexts.append(
            ModuleContext(
                path=rel, module=_module_name(rel), tree=tree,
                source_lines=source.splitlines(),
            )
        )
    report.files_analyzed = len(contexts)

    trees = [(ctx.module, ctx.path, ctx.tree) for ctx in contexts]
    model = build_model(trees)
    graph = build_callgraph(trees, model)
    pctx = ProgramContext(
        modules=contexts,
        model=model,
        callgraph=graph,
        process_roots=process_roots(trees, graph),
    )
    by_path = {ctx.path: ctx for ctx in contexts}
    wanted = set(rules) if rules is not None else None
    findings: List[Finding] = []
    for rule in iter_rules():
        if wanted is not None and rule.code not in wanted:
            continue
        for finding in rule.fn(pctx):
            ctx = by_path.get(finding.path)
            if ctx is not None and ctx.suppressed(finding.line, finding.rule):
                report.suppressed += 1
                report.suppressed_findings.append(finding)
            else:
                findings.append(finding)

    report.findings = sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    report.suppressed_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
