"""Figure 3 — software overheads of multi-device communication.

The motivating microbenchmark: SSD→GPU→NIC ("sending data to network
with hash computation on a GPU"), measured as (a) software-side latency
and (b) normalized CPU utilization, for the optimized-software
baseline, software-controlled P2P and the device-integration reference.
The integrated device has a built-in CRC32 block, so the checksum is
CRC32 in every column (the function choice does not change the
overhead structure the figure is about).
"""

from __future__ import annotations

from repro.experiments.common import (SOFTWARE_CATEGORIES, measure_send,
                                      measure_send_cpu, software_us)
from repro.experiments.result import ExperimentResult
from repro.schemes import IntegratedScheme, SwOptScheme, SwP2pScheme

SCHEMES = (("sw-opt", SwOptScheme), ("sw-p2p", SwP2pScheme),
           ("integrated", IntegratedScheme))

PROCESSING = "crc32"


def run_fig3() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 3: software overheads of SSD->processing->NIC",
        headers=["scheme", "total us", "software us", "norm. CPU"]
                + [f"{cat} us" for cat in SOFTWARE_CATEGORIES])
    latency = {}
    cpu = {}
    for name, scheme_cls in SCHEMES:
        sent = measure_send(scheme_cls, PROCESSING)
        cpu_ns = measure_send_cpu(scheme_cls, PROCESSING)
        latency[name] = sent
        cpu[name] = sum(cpu_ns.values())
    baseline_cpu = cpu["sw-opt"]
    for name, _ in SCHEMES:
        sent = latency[name]
        segs = sent.trace.breakdown_us()
        result.add_row(name, f"{sent.latency_us:.2f}",
                       f"{software_us(sent):.2f}",
                       f"{cpu[name] / baseline_cpu:.2f}",
                       *[f"{segs.get(cat, 0.0):.2f}"
                         for cat in SOFTWARE_CATEGORIES])
    result.metrics["sw_opt_total_us"] = latency["sw-opt"].latency_us
    result.metrics["p2p_total_us"] = latency["sw-p2p"].latency_us
    result.metrics["integrated_total_us"] = latency["integrated"].latency_us
    result.metrics["integrated_vs_swopt_latency"] = (
        latency["integrated"].latency_us / latency["sw-opt"].latency_us)
    result.metrics["integrated_vs_swopt_cpu"] = (
        cpu["integrated"] / baseline_cpu)
    result.notes.append(
        "paper shape: P2P trims data-copy but keeps control costs; the "
        "integrated device removes both (its bar is mostly device time)")
    result.claim("p2p_vs_swopt_latency", "P2P below SW-opt",
                 latency["sw-p2p"].latency_us / latency["sw-opt"].latency_us,
                 upper=1.0)
    result.claim("integrated_vs_swopt_latency", "mostly device time",
                 result.metrics["integrated_vs_swopt_latency"], upper=0.7)
    result.claim("integrated_vs_swopt_cpu", "control costs removed",
                 result.metrics["integrated_vs_swopt_cpu"], upper=0.4)
    return result
