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
    result = ExperimentResult(name="Headline claims: paper vs reproduction",
                              headers=())
    result.metrics = {
        "latency_reduction_no_ndp":
            fig11.metrics["fig11a_software_reduction"],
        "latency_reduction_ndp": fig11.metrics["fig11b_software_reduction"],
        "cpu_reduction_swift": 1 - fig12a.metrics["swift_dcs_vs_swopt_cpu"],
        "cpu_reduction_hdfs": 1 - fig12b.metrics["hdfs_dcs_vs_swopt_cpu"],
        "throughput_ratio_hdfs":
            fig13.metrics["hdfs_throughput_ratio_dcs_vs_p2p"],
    }
    for key, paper, lower, upper in (
            ("latency_reduction_no_ndp", "42 %", 0.35, 0.70),
            ("latency_reduction_ndp", "72 %", 0.55, 0.85),
            ("cpu_reduction_swift", "~52 %", 0.40, None),
            ("cpu_reduction_hdfs", "~52 %", 0.40, None),
            ("throughput_ratio_hdfs", "2.06x", 1.5, None)):
        result.claim(key, paper, result.metrics[key], lower, upper)
    return result
