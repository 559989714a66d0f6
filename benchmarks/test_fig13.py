"""Bench: regenerate Fig 13 (scalability projection to 40 Gbps)."""

from repro.experiments import run_fig13


def test_fig13(once, fig12a, fig12b):
    result = once(run_fig13, fig12a, fig12b)
    print("\n" + result.render())
    # Paper: DCS-ctrl needs "three or fewer" cores to drive 40 Gbps
    # (Swift) and stays within the 6-core budget for HDFS, while the
    # software designs blow past the budget for HDFS.
    assert result.metrics["swift_dcs_cores_at_40g"] < 3.5
    assert result.metrics["hdfs_dcs_cores_at_40g"] < 6.0
    # Paper: ~2x throughput for HDFS under the core budget.
    assert result.metrics["hdfs_throughput_ratio_dcs_vs_p2p"] > 1.5
    assert result.metrics["swift_throughput_ratio_dcs_vs_p2p"] > 1.0
