"""The common experiment result container and its paper claims."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_table


@dataclass(frozen=True)
class Claim:
    """One checkable claim: a measured value and the open interval the
    paper's claim puts it in.  ``lower == upper`` means exactly equal."""

    name: str
    paper: str
    measured: float
    lower: Optional[float] = None
    upper: Optional[float] = None

    @property
    def holds(self) -> bool:
        if self.lower is not None and self.lower == self.upper:
            return self.measured == self.lower
        return ((self.lower is None or self.measured > self.lower)
                and (self.upper is None or self.measured < self.upper))

    @property
    def bound(self) -> str:
        if self.lower is not None and self.lower == self.upper:
            return f"== {self.lower:g}"
        parts = []
        if self.lower is not None:
            parts.append(f"> {self.lower:g}")
        if self.upper is not None:
            parts.append(f"< {self.upper:g}")
        return ", ".join(parts)


@dataclass
class ExperimentResult:
    """Rows, headline metrics and paper claims of one reproduced
    table/figure."""

    name: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    claims: List[Claim] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def claim(self, name: str, paper: str, measured: float,
              lower: Optional[float] = None,
              upper: Optional[float] = None) -> None:
        self.claims.append(Claim(name, paper, measured, lower, upper))

    def failed_claims(self) -> List[Claim]:
        return [claim for claim in self.claims if not claim.holds]

    def render(self) -> str:
        """The paper-style text table plus metrics, notes and claims; a
        result without headers has no table."""
        parts = [format_table(self.headers, self.rows, title=self.name)
                 if self.headers else self.name]
        if self.metrics:
            parts.append("")
            parts.append("key metrics:")
            for key, value in self.metrics.items():
                parts.append(f"  {key} = {value:.3f}"
                             if isinstance(value, float) else
                             f"  {key} = {value}")
        for note in self.notes:
            parts.append(f"note: {note}")
        if self.claims:
            parts.append("")
            parts.append(format_table(
                ["claim", "paper", "measured", "bound", "ok"],
                [[c.name, c.paper, f"{c.measured:.3f}", c.bound,
                  "ok" if c.holds else "FAIL"] for c in self.claims],
                title="claims:"))
        return "\n".join(parts)
