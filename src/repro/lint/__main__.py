"""The simlint CLI: ``python -m repro.lint [paths ...]``.

Exit codes:

* ``0`` — no findings;
* ``1`` — at least one finding (each is printed with its rule id and
  location);
* ``2`` — usage error (a path that does not exist).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.lint.engine import iter_python_files, lint_paths, rule_classes
from repro.lint.report import render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: simulation-safety static analysis "
                    "(determinism, scheduling and plane-contract "
                    "invariants; see docs/lint.md)")
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to lint "
                             "(default: src tests)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def main(argv: List[str] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for cls in rule_classes():
            print(f"{cls.id}  {cls.name}: {cls.rationale}")
        return 0

    files: List[Path] = []
    for raw in args.paths:
        root = Path(raw)
        if not root.exists():
            print(f"simlint: no such path: {raw}", file=sys.stderr)
            return 2
        files.extend(iter_python_files(root))
    findings = lint_paths(files)
    print(render_text(findings, len(files)))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
