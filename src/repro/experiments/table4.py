"""Table IV — HDC Engine base resource utilization on Virtex-7."""

from __future__ import annotations

from repro.core.ndp.resources import (ENGINE_BASE_UTILIZATION, NDP_CORES,
                                      VIRTEX7)
from repro.experiments.result import ExperimentResult


def run_table4() -> ExperimentResult:
    engine = ENGINE_BASE_UTILIZATION
    result = ExperimentResult(
        name="Table IV: HDC Engine device controllers on Virtex-7",
        headers=["resource", "used", "available", "fraction"])
    result.add_row("LUTs", engine.luts, VIRTEX7.luts,
                   f"{engine.lut_fraction() * 100:.0f}%")
    result.add_row("registers", engine.registers, VIRTEX7.registers,
                   f"{engine.register_fraction() * 100:.0f}%")
    result.add_row("BRAMs", engine.brams, VIRTEX7.brams,
                   f"{engine.bram_fraction() * 100:.0f}%")
    result.add_row("power (W)", engine.power_watts, "-", "-")
    result.metrics["lut_pct"] = engine.lut_fraction() * 100
    result.metrics["reg_pct"] = engine.register_fraction() * 100
    result.metrics["bram_pct"] = engine.bram_fraction() * 100
    result.metrics["fits_all_ndp"] = float(
        engine.fits_with_ndp(list(NDP_CORES)))
    result.notes.append(
        "paper: 38 % LUTs, 15 % registers, 43 % BRAMs, 5.57 W; enough "
        "headroom remains for every NDP unit")
    for key, paper in (("lut_pct", 38), ("reg_pct", 15), ("bram_pct", 43)):
        result.claim(key, f"{paper} %", result.metrics[key],
                     lower=paper - 1, upper=paper + 1)
    result.claim("fits_all_ndp", "every NDP unit fits",
                 result.metrics["fits_all_ndp"], lower=1.0, upper=1.0)
    return result
