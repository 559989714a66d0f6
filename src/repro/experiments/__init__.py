"""Experiment runners: one per table/figure in the paper's evaluation.

Each runner builds fresh testbeds, executes the measurement, and
returns an :class:`ExperimentResult` whose ``render()`` prints the
paper-style rows, whose ``metrics`` carry the headline numbers, and
whose ``claims`` bound them by the paper's claims; ``python -m
repro.experiments`` fails when a claim does not hold.  ``run_fig13``
and ``run_headline`` simulate nothing: they take the results they
summarize as arguments.
"""

from repro.experiments.result import ExperimentResult
from repro.experiments.table1 import run_table1
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12_swift, run_fig12_hdfs
from repro.experiments.fig13 import run_fig13
from repro.experiments.fig13_validate import run_fig13_validate
from repro.experiments.sweep import run_sweep
from repro.experiments.headline import run_headline
from repro.experiments.faults import run_faults
from repro.experiments.ablations import run_ablations

__all__ = [
    "ExperimentResult",
    "run_ablations",
    "run_faults",
    "run_fig11",
    "run_fig12_hdfs",
    "run_fig12_swift",
    "run_fig13",
    "run_fig13_validate",
    "run_sweep",
    "run_fig3",
    "run_fig8",
    "run_headline",
    "run_table1",
    "run_table3",
    "run_table4",
]
