"""What the code says about the docs is true of the docs.

Source files, tests, benchmarks, CI and the verify skill point readers
at a document, often at a section of it.  Three checks keep those
pointers from going stale when the prose is rewritten:

- every cited document (a ``docs/*.md`` file, or a README, DESIGN or
  EXPERIMENTS file) exists;
- every section named right after such a path, as a quoted title after
  a comma or an opening parenthesis, or as an experiment id after
  EXPERIMENTS.md, is the start of a markdown heading of that document;
- every ``from repro... import ...`` in a ``python`` code block of the
  docs imports.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITING = ("src", "tests", "benchmarks", ".github", ".claude/skills")
SUFFIXES = {".py", ".md", ".yml"}
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)

_PATH = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*(?:README|DESIGN|EXPERIMENTS|docs/\w+)\.md)")
# a line break inside a comment or a docstring, with what starts the next line
_BREAK = re.compile(r"\s*\n\s*(?:#|//|\*)?\s*")
_QUOTED = re.compile(r'(?:, |\s?\(\s?)"([^"]+)"')
_EXPERIMENT = re.compile(r", ([A-Z][A-Z0-9]*(?:-\d+)?)\b")
_HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$")
_FENCE = re.compile(r"^```(\w*)\s*$")


def _citing_files():
    this = Path(__file__).resolve()
    for top in CITING:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in SUFFIXES and path.resolve() != this:
                yield path


def _resolve(cited: str, citing: Path):
    """The cited document: beside the citing file first (a package's own
    README), else from the repository root; None when neither exists."""
    for base in (citing.parent, ROOT):
        candidate = base / cited
        if candidate.is_file():
            return candidate
    return None


def _headings(doc: Path):
    headings, fenced = [], False
    for line in doc.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line):
            fenced = not fenced
        elif not fenced and (m := _HEADING.match(line)):
            headings.append(m.group(1))
    return headings


def _citations():
    """(citing file, line, cited path, section title or None)."""
    for path in _citing_files():
        text = path.read_text(encoding="utf-8", errors="replace")
        for m in _PATH.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            after = _BREAK.sub(" ", text[m.end() : m.end() + 240])
            section = None
            if q := _QUOTED.match(after):
                section = " ".join(q.group(1).split())
            elif m.group(1).endswith("EXPERIMENTS.md") and (e := _EXPERIMENT.match(after)):
                section = e.group(1)
            yield path, line, m.group(1), section


def test_every_cited_document_exists():
    missing = [
        f"{path.relative_to(ROOT)}:{line}: {cited}"
        for path, line, cited, _ in _citations()
        if _resolve(cited, path) is None
    ]
    assert not missing, "cited documents that do not exist:\n" + "\n".join(missing)


def test_every_cited_section_is_a_heading():
    stale, cited_sections = [], 0
    for path, line, cited, section in _citations():
        doc = _resolve(cited, path)
        if section is None or doc is None:
            continue
        cited_sections += 1
        if not any(h.startswith(section) for h in _headings(doc)):
            stale.append(f'{path.relative_to(ROOT)}:{line}: {cited}, "{section}"')
    assert cited_sections > 0
    assert not stale, "cited sections that are no heading:\n" + "\n".join(stale)


def _python_blocks(doc: Path):
    block, language = None, None
    for line in doc.read_text(encoding="utf-8").splitlines():
        fence = _FENCE.match(line)
        if fence and block is None:
            block, language = [], fence.group(1)
        elif fence:
            if language == "python":
                yield "\n".join(block)
            block = None
        elif block is not None:
            block.append(line)


def _repro_imports(source: str):
    try:
        nodes = ast.walk(ast.parse(source))
    except SyntaxError:  # a fragment: parse its import statements alone
        statements = re.findall(r"^from repro[\w.]* import (?:\([^)]*\)|.*)$", source, re.M)
        nodes = [n for s in statements for n in ast.walk(ast.parse(s))]
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            yield node.module, [alias.name for alias in node.names]


def test_imports_in_doc_examples_resolve():
    broken, checked = [], 0
    for doc in DOCS:
        for source in _python_blocks(doc):
            for module, names in _repro_imports(source):
                checked += 1
                try:
                    imported = importlib.import_module(module)
                except ImportError as exc:
                    broken.append(f"{doc.relative_to(ROOT)}: from {module}: {exc}")
                    continue
                for name in names:
                    if not hasattr(imported, name):
                        try:
                            importlib.import_module(f"{module}.{name}")
                        except ImportError:
                            broken.append(f"{doc.relative_to(ROOT)}: from {module} import {name}")
    assert checked > 0
    assert not broken, "doc examples whose imports fail:\n" + "\n".join(broken)
