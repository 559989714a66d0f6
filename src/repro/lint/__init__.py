"""simlint: simulation-safety static analysis for this repository.

The repo's headline guarantees — byte-identical traces, golden metrics
CSVs, seeded fault streams — rest on invariants that code review keeps
missing (``id()``-keyed dicts, stray wall-clock reads, uncataloged
metric names).  This package turns each invariant into an AST-level
rule and a CI gate::

    python -m repro.lint src tests examples   # exit 0 = clean
    python -m repro.lint --list-rules

Three rule families: **DET** (determinism), **SIM** (event-loop
scheduling), **PLANE** (metrics/trace/fault catalog contracts).  The
full catalog, with rationale and examples per rule, is documented in
``docs/lint.md`` and kept in lock-step by ``tests/test_lint_docs.py``
— the same docs-contract pattern the metrics and tracing planes use.

Suppress a single finding inline with ``# simlint: disable=RULE``, or
a whole file with ``# simlint: skip-file`` (first five lines); there
is no other suppression mechanism.
"""

from repro.lint.engine import (EXCLUDED_DIRS, Finding, ModuleContext, Rule,
                               iter_python_files, lint_file, lint_paths,
                               lint_source, module_name, register,
                               rule_classes, rule_ids)
from repro.lint.report import render_text

__all__ = [
    "EXCLUDED_DIRS", "Finding", "ModuleContext", "Rule",
    "iter_python_files", "lint_file", "lint_paths", "lint_source",
    "module_name", "register", "rule_classes", "rule_ids", "render_text",
]
