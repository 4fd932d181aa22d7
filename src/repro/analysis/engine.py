"""The wsrfcheck rule engine: file walk, suppressions, baseline, report.

Two kinds of rules share the engine.  A *module* :class:`Rule` is a
callable over one parsed module plus the global
:class:`~repro.analysis.model.ContractModel`; a *program* rule runs
once over the whole analyzed tree via a :class:`ProgramContext`, which
carries the module-qualified call graph
(:mod:`repro.analysis.callgraph`) for interprocedural analysis.  Both
yield :class:`Finding` objects; the engine handles everything around
that: collecting files, parsing, building the model and call graph,
line-level suppressions (``# wsrfcheck: ignore[WSRF001]``, multiple
comments per line combine), the checked-in baseline of accepted
findings, and stable text/JSON/SARIF rendering.

Fingerprints deliberately exclude line numbers: a baselined finding
stays baselined when unrelated edits shift the file, and resurfaces the
moment its rule, file or message changes.  The baseline is a ratchet —
entries that no longer match any finding are *stale* and fail the run
until pruned with ``--update-baseline`` (baselines only shrink).
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

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
    model: ContractModel

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
    """Everything a whole-program rule sees: all modules plus the graph."""

    modules: List[ModuleContext]
    model: ContractModel
    callgraph: "object"  # repro.analysis.callgraph.CallGraph
    #: qualnames of functions handed to env.process (detached contexts)
    process_roots: Set[str]


RuleFn = Callable[[ModuleContext], Iterator[Finding]]
ProgramRuleFn = Callable[[ProgramContext], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    code: str
    title: str
    fn: Callable[..., Iterator[Finding]]
    description: str = ""
    #: program rules run once over the whole tree (ProgramContext);
    #: module rules run per file (ModuleContext)
    program: bool = False


_RULES: Dict[str, Rule] = {}


def register_rule(
    code: str, title: str, description: str = ""
) -> Callable[[RuleFn], RuleFn]:
    """Decorator adding a per-module rule to the catalog."""

    def wrap(fn: RuleFn) -> RuleFn:
        _RULES[code] = Rule(code=code, title=title, fn=fn, description=description)
        return fn

    return wrap


def register_program_rule(
    code: str, title: str, description: str = ""
) -> Callable[[ProgramRuleFn], ProgramRuleFn]:
    """Decorator adding a whole-program (interprocedural) rule."""

    def wrap(fn: ProgramRuleFn) -> ProgramRuleFn:
        _RULES[code] = Rule(
            code=code, title=title, fn=fn, description=description, program=True
        )
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


# -- baseline ----------------------------------------------------------------------

BASELINE_VERSION = 1


class BaselineError(ValueError):
    """The baseline file exists but cannot be parsed (CLI exit 2)."""


def load_baseline(path: Optional[Path]) -> Set[str]:
    if path is None or not path.exists():
        return set()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return {entry["fingerprint"] for entry in data.get("findings", [])}
    except (json.JSONDecodeError, TypeError, KeyError, UnicodeDecodeError) as exc:
        raise BaselineError(f"unreadable baseline {path}: {exc}") from exc


def write_baseline(path: Path, findings: List[Finding]) -> None:
    data = {
        "version": BASELINE_VERSION,
        "comment": (
            "Accepted wsrfcheck findings. Entries are keyed by fingerprint "
            "(rule+path+symbol+message, line-independent); remove entries as "
            "the underlying issues are fixed."
        ),
        "findings": [f.to_json() for f in sorted(
            findings, key=lambda f: (f.rule, f.path, f.line)
        )],
    }
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def prune_baseline(path: Path, matched: Set[str]) -> int:
    """Drop baseline entries whose fingerprint matched no finding.

    The ratchet: ``--update-baseline`` can only *shrink* the accepted
    set — new findings are never added (that would silently accept
    regressions; the one-time adoption path is ``--write-baseline``).
    Returns the number of pruned entries.
    """
    if not path.exists():
        return 0
    data = json.loads(path.read_text(encoding="utf-8"))
    before = data.get("findings", [])
    kept = [entry for entry in before if entry["fingerprint"] in matched]
    data["findings"] = kept
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return len(before) - len(kept)


# -- the run -----------------------------------------------------------------------


@dataclass
class AnalysisReport:
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    files_analyzed: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: suppressed findings, kept for the --show-suppressed audit view
    suppressed_findings: List[Finding] = field(default_factory=list)
    #: baseline fingerprints that matched no finding (the ratchet:
    #: stale entries fail the run until pruned with --update-baseline)
    stale_baseline: List[str] = field(default_factory=list)
    #: baseline fingerprints that did match a finding this run
    matched_baseline: Set[str] = field(default_factory=set)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.parse_errors or self.stale_baseline else 0

    def to_json(self, show_suppressed: bool = False) -> Dict:
        out: Dict = {
            "files_analyzed": self.files_analyzed,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "stale_baseline": sorted(self.stale_baseline),
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
        for fingerprint in sorted(self.stale_baseline):
            lines.append(
                f"stale baseline entry {fingerprint}: matches no current "
                "finding; prune it with --update-baseline"
            )
        by_rule: Dict[str, int] = {}
        for f in self.findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        summary = ", ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
        lines.append(
            f"wsrfcheck: {len(self.findings)} finding(s) in "
            f"{self.files_analyzed} file(s)"
            + (f" ({summary})" if summary else "")
            + (f"; {self.baselined} baselined" if self.baselined else "")
            + (f"; {self.suppressed} suppressed" if self.suppressed else "")
            + (
                f"; {len(self.stale_baseline)} stale baseline entr"
                f"{'y' if len(self.stale_baseline) == 1 else 'ies'}"
                if self.stale_baseline
                else ""
            )
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
    baseline: Optional[Set[str]] = None,
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Run the catalog over *paths*; returns the filtered report.

    *rules* restricts to the given codes (default: all).  *baseline* is
    a set of accepted fingerprints; matching findings are counted but
    not reported, and baseline entries matching nothing are reported as
    stale (the ratchet).  Program rules run after the per-module pass,
    over a :class:`ProgramContext` carrying the call graph.
    """
    report = AnalysisReport()
    files = collect_files(paths)
    parsed: List[Tuple[str, str, ast.Module, List[str]]] = []
    for path in files:
        rel = _relative(path, root)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append(f"{rel}: {exc}")
            continue
        parsed.append((_module_name(rel), rel, tree, source.splitlines()))
    report.files_analyzed = len(parsed)

    model = build_model([(m, p, t) for m, p, t, _ in parsed])
    wanted = set(rules) if rules is not None else None
    catalog = [
        rule for rule in iter_rules() if wanted is None or rule.code in wanted
    ]
    module_rules = [rule for rule in catalog if not rule.program]
    program_rules = [rule for rule in catalog if rule.program]

    accepted = baseline or set()
    findings: List[Finding] = []
    contexts: List[ModuleContext] = []
    by_path: Dict[str, ModuleContext] = {}

    def classify(ctx: Optional[ModuleContext], finding: Finding) -> None:
        if ctx is not None and ctx.suppressed(finding.line, finding.rule):
            report.suppressed += 1
            report.suppressed_findings.append(finding)
        elif finding.fingerprint in accepted:
            report.baselined += 1
            report.matched_baseline.add(finding.fingerprint)
        else:
            findings.append(finding)

    for module, rel, tree, source_lines in parsed:
        ctx = ModuleContext(
            path=rel, module=module, tree=tree,
            source_lines=source_lines, model=model,
        )
        contexts.append(ctx)
        by_path[rel] = ctx
        for rule in module_rules:
            for finding in rule.fn(ctx):
                classify(ctx, finding)

    if program_rules:
        from repro.analysis.callgraph import build_callgraph, process_roots

        module_triples = [(m, p, t) for m, p, t, _ in parsed]
        graph = build_callgraph(module_triples, model)
        program_ctx = ProgramContext(
            modules=contexts,
            model=model,
            callgraph=graph,
            process_roots=process_roots(module_triples, graph),
        )
        for rule in program_rules:
            for finding in rule.fn(program_ctx):
                classify(by_path.get(finding.path), finding)

    if wanted is None:
        # Stale detection needs the full catalog: a --rules-restricted
        # run has no opinion about entries belonging to other rules.
        report.stale_baseline = sorted(accepted - report.matched_baseline)
    report.findings = sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    report.suppressed_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
