"""The benchmark's workloads.

Each workload builds its inputs from a seed (set-up), runs one round of
fixed work through the simulator's public entry points (the timed
part), then checks every output and summarises every simulated
statistic it produced.  The round size is fixed per workload, so the
simulated outputs of a round depend on the seed alone.

Operations:

* ``d2d-small`` / ``d2d-observed``: one 4 KiB ``Scheme.send_file``
  (SSD -> NIC) together with the peer's ``client_recv``;
* ``swift-mix``: one Swift request (GET or PUT);
* ``hdfs-bulk``: one HDFS block moved (send + receive).
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
import zlib
from typing import Callable, Dict, List, Optional

from repro.apps import (HdfsConfig, SwiftConfig, WorkloadConfig,
                        run_hdfs_balancer, run_swift)
from repro.apps.workload import RequestKind, bytes_by_kind, requests
from repro.metrics import MetricsSession, write_csv
from repro.schemes import DcsCtrlScheme, SwOptScheme, SwP2pScheme, Testbed
from repro.trace import TraceSession, write_jsonl
from repro.units import KIB, MIB

D2D_SIZE = 4 * KIB
D2D_OPS = 100                 # transfers per scheme per round
SWIFT_REQUESTS = 100          # requests per scheme per round
SWIFT_MAX_OBJECT = 16 * KIB   # see README.md: seed-to-seed spread
HDFS_BLOCKS = 4               # 1 MiB blocks per scheme per round
HDFS_STREAMS = 4

DIGESTS: Dict[str, Callable[[bytes], bytes]] = {
    "md5": lambda data: hashlib.md5(data).digest(),
    "crc32": lambda data: zlib.crc32(data).to_bytes(4, "big"),
}


def read_file(host, name: str, offset: int, size: int) -> bytes:
    """The bytes of ``name`` at [offset, offset+size) as stored on flash
    (functional read: no simulated time passes)."""
    ssd = host.ssds[host.fs.volume_of(name)]
    data = b"".join(ssd.flash.read_blocks(extent.slba, extent.nblocks)
                    for extent in host.fs.extents_for(name, offset, size))
    return data[:size]


def sim_events(sim) -> int:
    """Events the simulator has processed (``Simulator.step`` calls):
    every scheduled event is pushed once and popped once by ``step``."""
    return sim._sequence - len(sim._heap)


class OpLog:
    """Every scheme operation of a round, and the checks that failed."""

    def __init__(self):
        self.ops: List[list] = []
        self.problems: List[str] = []

    def transfer(self, scheme, op: str, node, name: str, offset: int,
                 size: int, processing: Optional[str], result,
                 began: int) -> None:
        self.ops.append([scheme.name, op, node.host.name, name, offset,
                         size, result.bytes_moved, result.digest.hex(),
                         began, scheme.sim.now])
        if result.bytes_moved != size:
            self.problems.append(
                f"{scheme.name} {op} {name}@{offset}: moved "
                f"{result.bytes_moved} of {size} bytes")
            return
        expected = (DIGESTS[processing](read_file(node.host, name, offset,
                                                  size))
                    if processing is not None else b"")
        if result.digest != expected:
            self.problems.append(
                f"{scheme.name} {op} {name}@{offset}: {processing} digest "
                f"{result.digest.hex()} != {expected.hex()}")

    def client(self, scheme, op: str, node, size: int, moved: int,
               began: int) -> None:
        self.ops.append([scheme.name, op, node.host.name, size, moved,
                         began, scheme.sim.now])
        if moved != size:
            self.problems.append(
                f"{scheme.name} {op}: moved {moved} of {size} bytes")

    def latencies_ns(self, op: str) -> List[int]:
        return [entry[-1] - entry[-2] for entry in self.ops if entry[1] == op]


class CheckedScheme:
    """A scheme whose every operation is checked and logged.

    Delegates to the wrapped :class:`repro.schemes.Scheme`; the apps
    drive it exactly as they drive the scheme itself.
    """

    def __init__(self, scheme, log: OpLog):
        self._scheme = scheme
        self._log = log

    def __getattr__(self, attr):
        return getattr(self._scheme, attr)

    def send_file(self, node, conn, name, offset, size, processing=None,
                  trace=None):
        began = self._scheme.sim.now
        result = yield from self._scheme.send_file(
            node, conn, name, offset, size, processing=processing,
            trace=trace)
        self._log.transfer(self._scheme, "send_file", node, name, offset,
                           size, processing, result, began)
        return result

    def receive_to_file(self, node, conn, name, offset, size,
                        processing=None, trace=None):
        began = self._scheme.sim.now
        result = yield from self._scheme.receive_to_file(
            node, conn, name, offset, size, processing=processing,
            trace=trace)
        self._log.transfer(self._scheme, "receive_to_file", node, name,
                           offset, size, processing, result, began)
        return result

    def client_send(self, node, conn, size):
        began = self._scheme.sim.now
        moved = yield from self._scheme.client_send(node, conn, size)
        self._log.client(self._scheme, "client_send", node, size, moved,
                         began)
        return moved

    def client_recv(self, node, conn, size):
        began = self._scheme.sim.now
        moved = yield from self._scheme.client_recv(node, conn, size)
        self._log.client(self._scheme, "client_recv", node, size, moved,
                         began)
        return moved


def _percentile(values: List[int], pct: int) -> int:
    """Nearest-rank percentile (as ``repro.sim.stats.Histogram``)."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def _sim_outputs(moved_bytes: int, duration_ns: int,
                 latencies_ns: List[int]) -> Dict[str, float]:
    """Simulated throughput, and the p50/p99 simulated latency of the
    server-side scheme calls (``send_file`` / ``receive_to_file``)."""
    return {"apps.sim_gbps": moved_bytes * 8 / duration_ns,
            "apps.sim_req_p50_us": _percentile(latencies_ns, 50) / 1e3,
            "apps.sim_req_p99_us": _percentile(latencies_ns, 99) / 1e3}


class Round:
    """One round of a workload: set-up in ``__init__``, then ``run``."""

    name = "abstract"
    schemes: tuple = ()
    planned_ops = 0
    # True for a workload that installs its own observability sessions.
    observed = False

    def __init__(self, seed: int, scratch_dir: str):
        self.scratch_dir = scratch_dir
        self.log = OpLog()
        self.beds = []
        for scheme_cls in self.schemes:
            testbed = Testbed(seed=seed)
            self.beds.append((testbed,
                              CheckedScheme(scheme_cls(testbed), self.log)))
        self.exports: Dict[str, int] = {"trace.events": 0,
                                        "trace.export_bytes": 0,
                                        "metrics.rows": 0,
                                        "metrics.export_bytes": 0}

    def run(self) -> None:
        """The timed part: every call into the apps and schemes."""
        raise NotImplementedError

    def app_problems(self) -> List[str]:
        """Checks of the app-level results against the generated inputs."""
        return []

    def app_record(self) -> dict:
        """App-level simulated results, for the fingerprint."""
        return {}

    def sim_outputs(self) -> Dict[str, float]:
        """Simulated throughput and per-operation latency."""
        raise NotImplementedError

    def drain(self) -> List[str]:
        """Run every testbed dry and check it leaked nothing."""
        problems = []
        for testbed, _ in self.beds:
            testbed.sim.run()
            try:
                testbed.assert_no_leaks()
            except AssertionError as exc:
                problems.append(str(exc))
        return problems

    def record(self) -> dict:
        """Every simulated statistic of the round."""
        return {
            "testbeds": [
                {"scheme": scheme.name, "now_ns": testbed.sim.now,
                 "events": sim_events(testbed.sim),
                 "cpu_busy_ns": {node.host.name:
                                 node.host.cpu.tracker.by_category()
                                 for node in testbed.nodes}}
                for testbed, scheme in self.beds],
            "ops": self.log.ops,
            "app": self.app_record(),
        }

    def failed_ops(self, app_problems: List[str],
                   leak_problems: List[str]) -> int:
        """A round-wide failure fails every operation; otherwise each
        failed per-operation check fails one operation."""
        if app_problems or leak_problems:
            return self.planned_ops
        return min(self.planned_ops, len(self.log.problems))


class D2DSmall(Round):
    """Closed loop of 4 KiB SSD -> NIC ``send_file`` transfers, one
    outstanding, on sw-p2p then dcs-ctrl (the Fig 11a comparison)."""

    name = "d2d-small"
    schemes = (SwP2pScheme, DcsCtrlScheme)
    planned_ops = D2D_OPS * len(schemes)
    FILE = "d2d.dat"

    def __init__(self, seed: int, scratch_dir: str):
        super().__init__(seed, scratch_dir)
        self.data = random.Random(seed).randbytes(D2D_OPS * D2D_SIZE)
        for testbed, _ in self.beds:
            testbed.node0.host.install_file(self.FILE, self.data)
        self.loop_ns = 0

    def _loop(self, testbed, scheme, conn):
        sim = testbed.sim
        for index in range(D2D_OPS):
            send = sim.process(scheme.send_file(
                testbed.node0, conn, self.FILE, index * D2D_SIZE, D2D_SIZE))
            recv = sim.process(scheme.client_recv(testbed.node1, conn,
                                                  D2D_SIZE))
            yield sim.all_of([send, recv])

    def run(self) -> None:
        for testbed, scheme in self.beds:
            conn = scheme.connect()
            began = testbed.sim.now
            testbed.sim.run(until=testbed.sim.process(
                self._loop(testbed, scheme, conn)))
            self.loop_ns += testbed.sim.now - began

    def sim_outputs(self) -> Dict[str, float]:
        return _sim_outputs(self.planned_ops * D2D_SIZE, self.loop_ns,
                            self.log.latencies_ns("send_file"))


class D2DObserved(D2DSmall):
    """``d2d-small`` with a TraceSession and a MetricsSession installed
    and their exports (JSONL trace, CSV metrics) inside the timed part."""

    name = "d2d-observed"
    observed = True

    def __init__(self, seed: int, scratch_dir: str):
        self.trace_session = TraceSession(label=self.name).install()
        self.metrics_session = MetricsSession(label=self.name).install()
        super().__init__(seed, scratch_dir)

    def run(self) -> None:
        super().run()
        self.trace_session.uninstall()
        self.metrics_session.uninstall()
        self.trace_session.finalize()
        self.metrics_session.finalize()
        with tempfile.TemporaryDirectory(dir=self.scratch_dir) as out:
            trace_path = os.path.join(out, "trace.jsonl")
            metrics_path = os.path.join(out, "metrics.csv")
            self.exports["trace.events"] = write_jsonl(trace_path,
                                                       self.trace_session)
            self.exports["metrics.rows"] = write_csv(metrics_path,
                                                     self.metrics_session)
            self.exports["trace.export_bytes"] = os.path.getsize(trace_path)
            self.exports["metrics.export_bytes"] = os.path.getsize(
                metrics_path)

    def app_problems(self) -> List[str]:
        problems = []
        if not self.exports["trace.events"]:
            problems.append("trace export is empty")
        if not self.exports["metrics.rows"]:
            problems.append("metrics export is empty")
        return problems


class SwiftMix(Round):
    """Swift, 60:40 GET:PUT with MD5 integrity over 4 connections, on
    sw-opt then dcs-ctrl (the Fig 12a shape)."""

    name = "swift-mix"
    schemes = (SwOptScheme, DcsCtrlScheme)
    planned_ops = SWIFT_REQUESTS * len(schemes)

    def __init__(self, seed: int, scratch_dir: str):
        super().__init__(seed, scratch_dir)
        self.config = SwiftConfig(workload=WorkloadConfig(
            arrival_rate=3000.0, put_ratio=0.4,
            max_object=SWIFT_MAX_OBJECT, count=SWIFT_REQUESTS, seed=seed))
        self.requests = requests(self.config.workload)
        self.runs = []

    def run(self) -> None:
        for _, scheme in self.beds:
            self.runs.append(run_swift(scheme, self.config))

    def app_problems(self) -> List[str]:
        totals = bytes_by_kind(self.requests)
        expected = (len(self.requests), totals[RequestKind.GET],
                    totals[RequestKind.PUT])
        problems = []
        for run in self.runs:
            got = (run.requests_done, run.bytes_get, run.bytes_put)
            if got != expected:
                problems.append(f"{run.scheme}: (requests, GET bytes, PUT "
                                f"bytes) {got} != generated {expected}")
        return problems

    def app_record(self) -> dict:
        return {run.scheme: {"duration_ns": run.duration_ns,
                             "bytes_get": run.bytes_get,
                             "bytes_put": run.bytes_put,
                             "requests_done": run.requests_done,
                             "server_cpu": run.server_cpu,
                             "latency_p50_us": run.latencies.percentile(50),
                             "latency_p99_us": run.latencies.percentile(99)}
                for run in self.runs}

    def sim_outputs(self) -> Dict[str, float]:
        return _sim_outputs(
            sum(run.bytes_get + run.bytes_put for run in self.runs),
            sum(run.duration_ns for run in self.runs),
            self.log.latencies_ns("send_file")
            + self.log.latencies_ns("receive_to_file"))


class HdfsBulk(Round):
    """The HDFS balancer moving 1 MiB blocks back-to-back over 4
    streams, CRC32 on the receiver, on sw-opt then dcs-ctrl (the
    Fig 12b shape)."""

    name = "hdfs-bulk"
    schemes = (SwOptScheme, DcsCtrlScheme)
    planned_ops = HDFS_BLOCKS * len(schemes)

    def __init__(self, seed: int, scratch_dir: str):
        super().__init__(seed, scratch_dir)
        self.config = HdfsConfig(blocks=HDFS_BLOCKS, block_size=1 * MIB,
                                 streams=HDFS_STREAMS)
        self.runs = []

    def run(self) -> None:
        for _, scheme in self.beds:
            self.runs.append(run_hdfs_balancer(scheme, self.config))

    def app_problems(self) -> List[str]:
        expected = self.config.blocks * self.config.block_size
        return [f"{run.scheme}: moved {run.bytes_moved} != {expected}"
                for run in self.runs if run.bytes_moved != expected]

    def app_record(self) -> dict:
        return {run.scheme: {"duration_ns": run.duration_ns,
                             "bytes_moved": run.bytes_moved,
                             "sender_cpu": run.sender_cpu,
                             "receiver_cpu": run.receiver_cpu}
                for run in self.runs}

    def sim_outputs(self) -> Dict[str, float]:
        return _sim_outputs(sum(run.bytes_moved for run in self.runs),
                            sum(run.duration_ns for run in self.runs),
                            self.log.latencies_ns("receive_to_file"))


WORKLOADS = {cls.name: cls for cls in (D2DSmall, SwiftMix, HdfsBulk,
                                       D2DObserved)}
