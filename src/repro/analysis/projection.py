"""Scalability projection (paper Fig 13).

The paper measures throughput and CPU utilization on the 10 Gbps
testbed, derives CPU cost per byte, and extrapolates: with a 40 Gbps
NIC, six NVMe SSDs and a single 6-core Xeon, how many cores does each
design need — and what throughput fits when cores run out?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class ScalabilityProjection:
    """Result of projecting one design to a target line rate."""

    scheme: str
    measured_gbps: float
    measured_core_equivalents: float
    target_gbps: float
    cpu_core_budget: int

    @property
    def cores_per_gbps(self) -> float:
        if self.measured_gbps <= 0:
            raise ValueError("measured throughput must be positive")
        return self.measured_core_equivalents / self.measured_gbps

    @property
    def cores_needed_at_target(self) -> float:
        """Cores to sustain the full target rate (may exceed the budget)."""
        return self.cores_per_gbps * self.target_gbps

    @property
    def achievable_gbps(self) -> float:
        """Throughput once the core budget caps the design."""
        uncapped = self.target_gbps
        by_cpu = self.cpu_core_budget / self.cores_per_gbps
        return min(uncapped, by_cpu)


def project_cores(measurements: Dict[str, tuple[float, float]],
                  target_gbps: float = 40.0,
                  cpu_core_budget: int = 6) -> List[ScalabilityProjection]:
    """Project every scheme; ``measurements`` maps scheme name to
    (measured_gbps, measured_core_equivalents)."""
    return [
        ScalabilityProjection(scheme=name, measured_gbps=gbps,
                              measured_core_equivalents=cores,
                              target_gbps=target_gbps,
                              cpu_core_budget=cpu_core_budget)
        for name, (gbps, cores) in measurements.items()
    ]
