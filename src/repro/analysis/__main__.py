"""CLI for wsrfcheck: ``python -m repro.analysis [paths...]``.

Exit-code matrix (tested by ``tests/test_analysis.py``):

- **0** — every finding is suppressed and no file failed to parse;
- **1** — unsuppressed findings or parse errors;
- **2** — usage or I/O errors: unknown rule codes, nonexistent paths
  (argparse misuse also exits 2).

CI runs ``python -m repro.analysis src/repro`` and fails the build on
any unsuppressed finding; ``--format sarif`` feeds the code-scanning
upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import analyze_paths, iter_rules, rule_catalog


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="wsrfcheck: WSRF contract, determinism and sim-safety linter",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="audit view: also list findings silenced by "
        "'# wsrfcheck: ignore[...]' comments",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    opts = parser.parse_args(argv)

    if opts.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  {rule.title}")
            if rule.description:
                print(f"        {rule.description}")
        return 0

    rules = (
        [code.strip() for code in opts.rules.split(",") if code.strip()]
        if opts.rules
        else None
    )
    if rules:
        unknown = sorted(set(rules) - set(rule_catalog()))
        if unknown:
            print(
                f"wsrfcheck: unknown rule code(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2
    missing = [p for p in opts.paths if not Path(p).exists()]
    if missing:
        print(
            f"wsrfcheck: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    report = analyze_paths(opts.paths, rules=rules)
    if opts.format == "json":
        print(json.dumps(report.to_json(show_suppressed=opts.show_suppressed), indent=2))
    elif opts.format == "sarif":
        print(report.render_sarif())
    else:
        print(report.render_text(show_suppressed=opts.show_suppressed))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
