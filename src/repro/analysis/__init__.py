"""Result containers, projections and table rendering for experiments."""

from repro.analysis.breakdown import LatencyTrace, NULL_TRACE, NullTrace
from repro.analysis.tables import format_table
from repro.analysis.projection import ScalabilityProjection, project_cores

__all__ = [
    "LatencyTrace",
    "NULL_TRACE",
    "NullTrace",
    "ScalabilityProjection",
    "format_table",
    "project_cores",
]
