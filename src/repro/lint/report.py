"""The text report of a lint run."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lint.engine import Finding


def render_text(findings: Sequence[Finding],
                files_scanned: Optional[int] = None) -> str:
    """The report: one ``path:line:col: RULE[name] message`` per
    finding, then a one-line summary."""
    lines: List[str] = []
    for finding in findings:
        lines.append(f"{finding.location()}: {finding.rule}"
                     f"[{finding.name}] {finding.message}")
    summary = [f"{len(findings)} finding"
               f"{'s' if len(findings) != 1 else ''}"]
    if files_scanned is not None:
        summary.append(f"{files_scanned} files scanned")
    lines.append("simlint: " + ", ".join(summary))
    return "\n".join(lines)
