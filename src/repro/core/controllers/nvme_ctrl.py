"""The engine's NVMe SSD controller (paper Fig 7a).

"The NVMe SSD controller allocates HDC Engine memory for a submission
and completion queue pair, and it implements hardware logic to build
NVMe commands and to handle completion messages from the devices.  In
addition, it rings doorbell registers located in NVMe SSD devices."

The controller is a scoreboard :class:`Executor`: it takes scoreboard
entries ``dev="nvme"`` whose ``src``/``dst`` are an SLBA and an engine
DDR3 address (direction by ``rw``), splits them into ≤MDTS NVMe
commands with BRAM-resident PRP lists (the bulk-transfer optimization
of §IV-C), pipelines the commands, and completes them by *polling* its
BRAM CQ — no interrupts anywhere on this path.  The NVMe protocol
itself (cids, PRP lists, doorbells, waiters, retries) is
:class:`NvmeInitiator`'s, shared with the host driver.
"""

from __future__ import annotations

from functools import partial

from repro.core.command import DeviceCommand
from repro.core.scoreboard import Executor
from repro.devices.nvme.commands import LBA_SIZE, OP_READ, OP_WRITE
from repro.devices.nvme.initiator import NvmeInitiator
from repro.devices.nvme.ssd import NvmeSsd
from repro.errors import DeviceError
from repro.faults import ENGINE_NVME_POLICY, RetryPolicy
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.units import nsec

# Hardware SQE + PRP build: a pipelined FSM at the engine clock.
COMMAND_BUILD = nsec(150)
# CQ polling cadence of the completion FSM.
POLL_INTERVAL = nsec(200)

QUEUE_DEPTH = 64
# BRAM bytes per in-flight command's PRP list: a 128 KiB transfer needs
# 31 entries x 8 B, so 512 B per slot is ample.
PRP_SLOT = 512


class EngineNvmeController(Executor):
    """FPGA hardware that drives one NVMe SSD."""

    slots = 4  # concurrent scoreboard entries (each pipelines internally)

    def __init__(self, sim: Simulator, fabric: Fabric, ssd: NvmeSsd,
                 engine_port: str, sq_addr: int, cq_addr: int,
                 prp_area: int, qid: int = 2,
                 max_chunk: int | None = None):
        self.sim = sim
        # Bulk-transfer ablation: None = use PRP lists up to the MDTS
        # (the paper's §IV-C optimization); 4096 = one block per command.
        self.max_chunk = max_chunk if max_chunk is not None else 128 * 1024
        qp = ssd.create_io_queue(qid, sq_addr, cq_addr, QUEUE_DEPTH,
                                 interrupt=False)
        self._poll_wake = sim.event()
        # Deadline/backoff: what the RTL FSM's wait state would time out.
        self.nvme = NvmeInitiator(
            sim, qp, engine_port, prp_area, PRP_SLOT, ENGINE_NVME_POLICY,
            "engine NVMe",
            owner=f"{fabric.name}:{engine_port}:nvme:{ssd.name}")
        sim.process(self._completion_fsm())

    @property
    def policy(self) -> RetryPolicy:
        return self.nvme.policy

    @property
    def retries(self) -> int:
        return self.nvme.retries

    # -- executor interface ------------------------------------------------

    def execute(self, entry: DeviceCommand):
        """Process: run one read/write scoreboard entry: issue its
        ≤``max_chunk`` commands back to back, then await them in order."""
        if entry.rw == "r":
            opcode, slba, buf = OP_READ, entry.src, entry.dst
        elif entry.rw == "w":
            opcode, slba, buf = OP_WRITE, entry.dst, entry.src
        else:
            raise DeviceError(f"bad NVMe entry direction {entry.rw!r}")
        nbytes = entry.length + (-entry.length % LBA_SIZE)
        step = self.max_chunk
        chunks = [(slba + off // LBA_SIZE, min(step, nbytes - off), buf + off)
                  for off in range(0, nbytes, step)]  # one per command
        posted = []
        for chunk in chunks:
            posted.append((yield from self._issue(opcode, *chunk)))
        # Every posted command is seen through (its watchdog armed, its
        # waiter retired) before the first failure is raised.
        failure = None
        for chunk, (command, waiter) in zip(chunks, posted):
            try:
                yield from self.nvme.complete(
                    command, waiter, partial(self._issue, opcode, *chunk),
                    self._settle)
            except DeviceError as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return None

    def _issue(self, opcode: int, slba: int, nbytes: int, buf: int):
        """Process: build one NVMe command in hardware and post it;
        returns ``(command, waiter)``."""
        yield self.sim.timeout(COMMAND_BUILD)
        command = self.nvme.prepare(opcode, slba, nbytes, buf)
        waiter = yield from self.nvme.post(command)
        wake, self._poll_wake = self._poll_wake, self.sim.event()
        wake.succeed()
        return command, waiter

    @staticmethod
    def _settle(cqe):
        """Process: the polling FSM hands the CQE straight over."""
        yield from ()
        return cqe

    # -- completion polling FSM ----------------------------------------------

    def _completion_fsm(self):
        nvme = self.nvme
        while True:
            if nvme.idle:
                yield self._poll_wake
                continue
            cqe = nvme.qp.poll_completion()
            if cqe is None:
                yield self.sim.timeout(POLL_INTERVAL)
                continue
            yield from nvme.retire(cqe, cqe)
