"""Ablations of the HDC Engine's design choices (paper §III-B, §IV-B/C).

Each ablation runs DCS-ctrl with one choice switched off:

* **queue placement** — NVMe queue pairs in engine BRAM "to enable fast
  access of the peripheral devices" (§IV-C) vs in host DRAM, where
  every SQE fetch and CQE write crosses the switch to the host (§IV-B
  minimizes exactly those host-side accesses);
* **bulk transfer** — PRP lists and large send offload (§IV-C) vs one
  NVMe command per 4 KiB block and one descriptor per packet;
* **checksum placement** — the MD5 NDP unit vs the GPU vs a host core,
  which "decreases the server throughput due to the increased CPU
  utilization" (§V-B);
* **completion order** — the prototype "issues D2D commands in a
  requested order and notifies HDC Driver of their completions in the
  same order", so a small command waits behind a big one; the
  scoreboard can deliver in dependency order instead.
"""

from __future__ import annotations

from repro.analysis import LatencyTrace
from repro.experiments.common import measure_send
from repro.experiments.result import ExperimentResult
from repro.host.costs import CAT
from repro.schemes import DcsCtrlScheme, SwOptScheme, Testbed
from repro.trace import trace_section
from repro.units import KIB, to_usec

BULK_SIZE = 64 * KIB
CHECKSUM_SIZE = 4 * KIB
BIG = 256 * KIB
SMALL = 4 * KIB


def _dcs_send(tb: Testbed, size: int) -> tuple[float, int]:
    """Latency (us) and host-path bytes of one steady-state DCS-ctrl
    send of ``size`` bytes, after one warm-up send."""
    scheme = DcsCtrlScheme(tb)
    data = bytes(size)
    tb.node0.host.install_file("warm.dat", data)
    tb.node0.host.install_file("meas.dat", data)
    conn = scheme.connect()

    def one(name, trace=None):
        def body(sim):
            yield from scheme.send_file(tb.node0, conn, name, 0, size,
                                        trace=trace)
        tb.sim.run(until=tb.sim.process(body(tb.sim)))

    one("warm.dat")
    before = tb.node0.host.fabric.host_bytes
    trace = LatencyTrace(tb.sim)
    one("meas.dat", trace)
    trace.finish()
    return trace.total_us, tb.node0.host.fabric.host_bytes - before


def _cpu_checksum() -> tuple[float, int]:
    """The host-core variant: the SW-opt path with MD5 on a core;
    returns its latency (us) and host CPU busy ns."""
    tb = Testbed(seed=43)
    host = tb.node0.host
    host.install_file("cpu.dat", bytes(CHECKSUM_SIZE))
    conn = tb.connect_kernel()
    buf = host.alloc_buffer(CHECKSUM_SIZE)

    def body(sim):
        kernel = host.kernel
        yield from kernel.syscall_enter()
        yield from kernel.file_read_direct("cpu.dat", 0, CHECKSUM_SIZE, buf)
        yield from kernel.cpu_checksum("md5", buf, CHECKSUM_SIZE)
        yield from kernel.socket_send(conn.flow0, buf, CHECKSUM_SIZE)
        yield from kernel.syscall_exit()

    def drain(sim):
        dst = tb.node1.host.alloc_buffer(CHECKSUM_SIZE)
        yield from tb.node1.host.kernel.socket_recv(conn.flow1,
                                                    CHECKSUM_SIZE, dst)

    host.cpu.tracker.reset_window()
    start = tb.sim.now
    send = tb.sim.process(body(tb.sim))
    recv = tb.sim.process(drain(tb.sim))
    tb.sim.run(until=send)
    elapsed_us = (tb.sim.now - start) / 1000
    tb.sim.run(until=recv)
    return elapsed_us, host.cpu.tracker.total()


def _small_behind_big(in_order: bool) -> float:
    """Latency (us) of a small send submitted right after a big one."""
    tb = Testbed(seed=44, in_order_completion=in_order)
    scheme = DcsCtrlScheme(tb)
    tb.node0.host.install_file("big.dat", bytes(BIG))
    tb.node0.host.install_file("small.dat", bytes(SMALL))
    conn_big = scheme.connect()
    conn_small = scheme.connect()

    def big(sim):
        yield from scheme.send_file(tb.node0, conn_big, "big.dat", 0, BIG)

    def small(sim):
        start = sim.now
        yield from scheme.send_file(tb.node0, conn_small, "small.dat", 0,
                                    SMALL)
        return sim.now - start

    big_proc = tb.sim.process(big(tb.sim))
    small_proc = tb.sim.process(small(tb.sim))
    small_latency = tb.sim.run(until=small_proc)
    tb.sim.run(until=big_proc)
    return to_usec(small_latency)


def run_ablations() -> ExperimentResult:
    result = ExperimentResult(
        name="Ablations: DCS-ctrl with one design choice switched off",
        headers=["ablation", "variant", "latency us", "detail"])

    with trace_section("queues"):
        bram_us, bram_bytes = _dcs_send(
            Testbed(seed=41, nvme_rings_in_host=False), 4 * KIB)
        dram_us, dram_bytes = _dcs_send(
            Testbed(seed=41, nvme_rings_in_host=True), 4 * KIB)
    result.add_row("queue placement", "NVMe queues in BRAM",
                   f"{bram_us:.2f}", f"{bram_bytes} host-path bytes")
    result.add_row("queue placement", "NVMe queues in host DRAM",
                   f"{dram_us:.2f}", f"{dram_bytes} host-path bytes")

    with trace_section("bulk"):
        bulk_us, _ = _dcs_send(Testbed(seed=42, bulk_transfer=True),
                               BULK_SIZE)
        single_us, _ = _dcs_send(Testbed(seed=42, bulk_transfer=False),
                                 BULK_SIZE)
    result.add_row("bulk transfer", "PRP lists + LSO", f"{bulk_us:.2f}",
                   "64 KiB send")
    result.add_row("bulk transfer", "one block / packet per command",
                   f"{single_us:.2f}", "64 KiB send")

    with trace_section("checksum"):
        ndp = measure_send(DcsCtrlScheme, "md5", size=CHECKSUM_SIZE)
        gpu = measure_send(SwOptScheme, "md5", size=CHECKSUM_SIZE)
        cpu_us, cpu_busy_ns = _cpu_checksum()
    ndp_hash = ndp.trace.breakdown_us().get(CAT.NDP, 0.0)
    gpu_hash = gpu.trace.breakdown_us().get(CAT.HASH, 0.0)
    result.add_row("checksum placement", "MD5 on the NDP unit",
                   f"{ndp.latency_us:.2f}", f"{ndp_hash:.2f} us hashing")
    result.add_row("checksum placement", "MD5 on the GPU",
                   f"{gpu.latency_us:.2f}", f"{gpu_hash:.2f} us hashing")
    result.add_row("checksum placement", "MD5 on a host core",
                   f"{cpu_us:.2f}", f"{cpu_busy_ns / 1000:.2f} us CPU busy")

    with trace_section("completion"):
        in_order_us = _small_behind_big(True)
        dependency_us = _small_behind_big(False)
    result.add_row("completion order", "in order (prototype)",
                   f"{in_order_us:.2f}", "4 KiB behind 256 KiB")
    result.add_row("completion order", "dependency order",
                   f"{dependency_us:.2f}", "4 KiB behind 256 KiB")

    result.claim("bram_vs_dram_latency", "BRAM queues are faster",
                 bram_us / dram_us, upper=1.0)
    result.claim("bram_vs_dram_host_bytes", "fewer host-side accesses",
                 bram_bytes / dram_bytes, upper=1.0)
    result.claim("single_vs_bulk_latency", "bulk transfer is faster",
                 single_us / bulk_us, lower=1.15)
    result.claim("ndp_vs_gpu_latency", "NDP is faster than the GPU",
                 ndp.latency_us / gpu.latency_us, upper=1.0)
    result.claim("cpu_hash_ns_per_byte", "CPU hashing costs the host",
                 cpu_busy_ns / CHECKSUM_SIZE, lower=3.0)
    result.claim("in_order_vs_dependency_latency",
                 "in-order delivery blocks", in_order_us / dependency_us,
                 lower=1.5)
    return result
