"""The abstract's headline numbers, regenerated in one run.

* "reduces the latency of software-based direct D2D communications by
  42 %" (no NDP) "and by 72 %" (with NDP) — Fig 11;
* "reduces the CPU utilization by 52 %" — Fig 12;
* "or improves the throughput by roughly 2x for the same CPU
  utilization" — Fig 13.
"""

from __future__ import annotations

from repro.experiments.result import ExperimentResult


def run_headline(fig11: ExperimentResult, fig12a: ExperimentResult,
                 fig12b: ExperimentResult,
                 fig13: ExperimentResult) -> ExperimentResult:
    """Summarize the given Fig 11/12a/12b/13 results; simulates nothing."""
    result = ExperimentResult(
        name="Headline claims: paper vs reproduction",
        headers=["claim", "paper", "measured"])
    sw_red_a = fig11.metrics["fig11a_software_reduction"]
    sw_red_b = fig11.metrics["fig11b_software_reduction"]
    cpu_red_swift = 1 - fig12a.metrics["swift_dcs_vs_swopt_cpu"]
    cpu_red_hdfs = 1 - fig12b.metrics["hdfs_dcs_vs_swopt_cpu"]
    ratio = fig13.metrics["hdfs_throughput_ratio_dcs_vs_p2p"]
    result.add_row("software latency reduction (no NDP)", "42 %",
                   f"{sw_red_a * 100:.0f} %")
    result.add_row("software latency reduction (with NDP)", "72 %",
                   f"{sw_red_b * 100:.0f} %")
    result.add_row("CPU utilization reduction (Swift)", "~52 %",
                   f"{cpu_red_swift * 100:.0f} %")
    result.add_row("CPU utilization reduction (HDFS)", "~52 %",
                   f"{cpu_red_hdfs * 100:.0f} %")
    result.add_row("throughput at 6-core budget vs SW-P2P (HDFS)",
                   "2.06x", f"{ratio:.2f}x")
    result.metrics = {
        "latency_reduction_no_ndp": sw_red_a,
        "latency_reduction_ndp": sw_red_b,
        "cpu_reduction_swift": cpu_red_swift,
        "cpu_reduction_hdfs": cpu_red_hdfs,
        "throughput_ratio_hdfs": ratio,
    }
    return result
