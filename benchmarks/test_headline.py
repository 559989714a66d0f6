"""Bench: the abstract's headline numbers, paper vs measured."""

from repro.experiments import run_fig11, run_fig13, run_headline


def test_headline(once, fig12a, fig12b):
    result = once(run_headline, run_fig11(), fig12a, fig12b,
                  run_fig13(fig12a, fig12b))
    print("\n" + result.render())
    # "reduces the latency of software-based direct D2D communications
    # by 42 % (without NDP) and by 72 % (with NDP)"
    assert 0.35 < result.metrics["latency_reduction_no_ndp"] < 0.70
    assert 0.55 < result.metrics["latency_reduction_ndp"] < 0.85
    # "reduces the utilization of host-side CPUs by 52 %"
    assert result.metrics["cpu_reduction_swift"] > 0.40
    assert result.metrics["cpu_reduction_hdfs"] > 0.40
    # "or improves the throughput by roughly 2x"
    assert result.metrics["throughput_ratio_hdfs"] > 1.5
