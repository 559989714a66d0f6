"""Figure 13 — estimated CPU utilization with high-performance devices.

The paper's projection: measure throughput and CPU on the 10 Gbps
testbed, then ask how many cores each design needs as the line rate
grows to 40 Gbps (40-Gbps NIC, six NVMe SSDs, one 6-core Xeon), and
what throughput fits once the 6-core budget caps the design.  Each
node runs both directions of balancer/replication traffic, so the
projection charges a node with its send-side and receive-side CPU.

Nothing is simulated here: the measurements are Fig 12's runs, read
from the per-scheme metrics of the Fig 12a and Fig 12b results.
"""

from __future__ import annotations

from repro.analysis.projection import project_cores
from repro.experiments.fig12 import measured
from repro.experiments.result import ExperimentResult

TARGET_GBPS = 40.0
CORE_BUDGET = 6
CORES = 6


def run_fig13(fig12a: ExperimentResult,
              fig12b: ExperimentResult) -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 13: projected cores and achievable throughput at "
             f"{TARGET_GBPS:.0f} Gbps ({CORE_BUDGET}-core budget)",
        headers=["app", "scheme", "measured Gbps", "measured cores",
                 "cores @40G", "achievable Gbps"])
    metrics = {}
    for app, fig12 in (("swift", fig12a), ("hdfs", fig12b)):
        projections = project_cores(
            {name: (gbps, cpu * CORES)
             for name, (gbps, cpu) in measured(fig12, app).items()},
            target_gbps=TARGET_GBPS, cpu_core_budget=CORE_BUDGET)
        by_name = {p.scheme: p for p in projections}
        for p in projections:
            result.add_row(app, p.scheme, f"{p.measured_gbps:.2f}",
                           f"{p.measured_core_equivalents:.2f}",
                           f"{p.cores_needed_at_target:.2f}",
                           f"{p.achievable_gbps:.2f}")
        dcs = by_name["dcs-ctrl"]
        p2p = by_name["sw-p2p"]
        metrics[f"{app}_dcs_cores_at_40g"] = dcs.cores_needed_at_target
        metrics[f"{app}_throughput_ratio_dcs_vs_p2p"] = (
            dcs.achievable_gbps / p2p.achievable_gbps)
    result.metrics = metrics
    result.notes.append("paper: DCS-ctrl needs <= 3 cores at 40 Gbps and "
                        "delivers 1.95x (Swift) / 2.06x (HDFS) the "
                        "throughput of software-controlled P2P under the "
                        "core budget")
    for key, paper, lower, upper in (
            ("swift_dcs_cores_at_40g", "<= 3 cores", None, 3.5),
            ("hdfs_dcs_cores_at_40g", "<= 3 cores", None, 6.0),
            ("hdfs_throughput_ratio_dcs_vs_p2p", "2.06x", 1.5, None),
            ("swift_throughput_ratio_dcs_vs_p2p", "1.95x", 1.0, None)):
        result.claim(key, paper, metrics[key], lower, upper)
    return result
