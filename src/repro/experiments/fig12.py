"""Figure 12 — CPU-utilization breakdown of scale-out storage apps.

(a) Swift PUT/GET with MD5 integrity; (b) the HDFS balancer with CRC32
on the receiver.  Every scheme runs the same workload: (a) the same
open-loop request stream, (b) the same 24 x 1 MiB blocks moved
back-to-back.  Each scheme's CPU is measured at the throughput that
scheme reaches, shown in the Gbps column.

On HDFS, sw-p2p equals sw-opt by construction: the send uses no
processing, so ``SwP2pScheme.send_file`` falls back to the sw-opt path,
and the receive path is inherited.  The two identical rows are
therefore expected.

Each result's metrics also carry the per-scheme throughput and CPU at
full precision; :func:`measured` reads them back for Fig 13.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.apps import (HdfsConfig, SwiftConfig, WorkloadConfig,
                        run_hdfs_balancer, run_swift)
from repro.experiments.result import ExperimentResult
from repro.host.costs import CAT
from repro.schemes import DcsCtrlScheme, SwOptScheme, SwP2pScheme, Testbed
from repro.units import KIB, MIB

# (display name, metric-key stem, scheme)
SCHEMES = (("sw-opt", "swopt", SwOptScheme), ("sw-p2p", "p2p", SwP2pScheme),
           ("dcs-ctrl", "dcs", DcsCtrlScheme))

CPU_DISPLAY = (CAT.APPLICATION, CAT.KERNEL_OTHER, CAT.FILESYSTEM,
               CAT.NETWORK, CAT.DEVICE_CONTROL, CAT.COMPLETION,
               CAT.DATA_COPY, CAT.GPU_COPY, CAT.GPU_CONTROL,
               CAT.HDC_DRIVER)

SWIFT_CONFIG = SwiftConfig(
    workload=WorkloadConfig(arrival_rate=3000.0, put_ratio=0.4,
                            max_object=256 * KIB, count=60, seed=12))

HDFS_CONFIG = HdfsConfig(blocks=24, block_size=1 * MIB, streams=6)


def _cpu_cells(util: Dict[str, float]) -> list:
    return [f"{util.get(cat, 0.0) * 100:.2f}" for cat in CPU_DISPLAY]


def measured(result: ExperimentResult,
             app: str) -> Dict[str, Tuple[float, float]]:
    """Scheme name -> (Gbps, CPU fraction) recorded in a Fig 12 result;
    ``app`` is ``"swift"`` (12a) or ``"hdfs"`` (12b)."""
    return {name: (result.metrics[f"{app}_{key}_gbps"],
                   result.metrics[f"{app}_{key}_cpu"])
            for name, key, _ in SCHEMES}


def run_fig12_swift() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 12a: Swift server CPU utilization (%, 6 cores) at "
             "matched load",
        headers=["scheme", "Gbps", "total %"]
                + [cat for cat in CPU_DISPLAY])
    gbps, cpu = {}, {}
    for name, key, scheme_cls in SCHEMES:
        run = run_swift(scheme_cls(Testbed()), SWIFT_CONFIG)
        gbps[key], cpu[key] = run.throughput_gbps, run.server_cpu_total
        result.add_row(name, f"{run.throughput_gbps:.2f}",
                       f"{run.server_cpu_total * 100:.2f}",
                       *_cpu_cells(run.server_cpu))
    result.metrics["swift_dcs_vs_swopt_cpu"] = cpu["dcs"] / cpu["swopt"]
    result.metrics["swift_dcs_vs_p2p_cpu"] = cpu["dcs"] / cpu["p2p"]
    for key in gbps:
        result.metrics[f"swift_{key}_gbps"] = gbps[key]
        result.metrics[f"swift_{key}_cpu"] = cpu[key]
    result.notes.append("paper: DCS-ctrl removes the accelerator-control "
                        "overhead entirely and reduces kernel overhead")
    for key in ("swift_dcs_vs_swopt_cpu", "swift_dcs_vs_p2p_cpu"):
        result.claim(key, "~0.48 (52 % less CPU)", result.metrics[key],
                     upper=0.60)
    return result


def run_fig12_hdfs() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 12b: HDFS balancer CPU utilization (%, 6 cores), "
             "24 x 1 MiB blocks back-to-back, at each scheme's own Gbps",
        headers=["scheme", "side", "Gbps", "total %"]
                + [cat for cat in CPU_DISPLAY])
    gbps, cpu = {}, {}
    for name, key, scheme_cls in SCHEMES:
        run = run_hdfs_balancer(scheme_cls(Testbed()), HDFS_CONFIG)
        gbps[key] = run.throughput_gbps
        # A storage node carries both roles' CPU.
        cpu[key] = run.sender_cpu_total + run.receiver_cpu_total
        result.add_row(name, "sender", f"{run.throughput_gbps:.2f}",
                       f"{run.sender_cpu_total * 100:.2f}",
                       *_cpu_cells(run.sender_cpu))
        result.add_row(name, "receiver", f"{run.throughput_gbps:.2f}",
                       f"{run.receiver_cpu_total * 100:.2f}",
                       *_cpu_cells(run.receiver_cpu))
    result.metrics["hdfs_dcs_vs_swopt_cpu"] = cpu["dcs"] / cpu["swopt"]
    result.metrics["hdfs_p2p_vs_swopt_cpu"] = cpu["p2p"] / cpu["swopt"]
    result.metrics["hdfs_dcs_gbps"] = gbps["dcs"]
    result.metrics["hdfs_swopt_gbps"] = gbps["swopt"]
    # The loop re-sets those two keys in place and appends the rest.
    for key in gbps:
        result.metrics[f"hdfs_{key}_gbps"] = gbps[key]
        result.metrics[f"hdfs_{key}_cpu"] = cpu[key]
    result.notes.append("paper: software-controlled P2P cannot improve "
                        "HDFS; DCS-ctrl cuts both sides' CPU")
    result.claim("hdfs_dcs_vs_swopt_cpu", "~0.48 (52 % less CPU)",
                 result.metrics["hdfs_dcs_vs_swopt_cpu"], upper=0.60)
    result.claim("hdfs_p2p_vs_swopt_cpu", "P2P cannot improve HDFS",
                 result.metrics["hdfs_p2p_vs_swopt_cpu"],
                 lower=0.9, upper=1.15)
    # Not matched: each scheme runs the same blocks at its own rate.
    result.claim("hdfs_dcs_vs_swopt_gbps", "same throughput",
                 gbps["dcs"] / gbps["swopt"], lower=0.75, upper=1.25)
    return result
