"""Table III — NDP IP-core resources, clocks and throughput."""

from __future__ import annotations

from repro.core.ndp.resources import NDP_CORES
from repro.experiments.result import ExperimentResult


def run_table3() -> ExperimentResult:
    result = ExperimentResult(
        name="Table III: NDP units on Virtex-7 (for 10 Gbps aggregate)",
        headers=["unit", "LUTs", "LUT %", "registers", "reg %",
                 "max clock (MHz)", "per-unit Gbps", "instances"])
    total_lut_frac = 0.0
    total_reg_frac = 0.0
    for name, spec in NDP_CORES.items():
        result.add_row(name.upper(), spec.luts,
                       f"{spec.lut_fraction() * 100:.2f}",
                       spec.registers,
                       f"{spec.register_fraction() * 100:.2f}",
                       spec.max_clock_mhz,
                       f"{spec.per_unit_rate.gbps():.2f}",
                       spec.units_for_10g())
        total_lut_frac += spec.lut_fraction()
        total_reg_frac += spec.register_fraction()
    n = len(NDP_CORES)
    result.metrics["avg_lut_pct"] = total_lut_frac / n * 100
    result.metrics["avg_reg_pct"] = total_reg_frac / n * 100
    result.notes.append(
        "paper: on average 3.28 % slice LUTs and 1.02 % registers per unit")
    result.claim("avg_lut_pct", "3.28 %", result.metrics["avg_lut_pct"],
                 lower=3.13, upper=3.43)
    result.claim("avg_reg_pct", "1.02 %", result.metrics["avg_reg_pct"],
                 lower=0.92, upper=1.12)
    return result
