"""The NVMe submission protocol, run by whoever owns a queue pair.

The host's kernel driver and the HDC Engine's NVMe controller (paper
§IV-C, Fig 7a) drive an SSD with the same protocol: allocate a command
id, place the PRP list, push the SQE, ring the SQ doorbell, park a
waiter per cid, drain CQEs into those waiters, and re-issue lost or
failed commands under a deadline with exponential backoff.
:class:`NvmeInitiator` is that protocol, once.  It charges no cost of
its own: the host pays its command build and completion handling on a
CPU, the engine pays its build on the FSM clock, and each side drains
the CQ from its own trigger (an MSI handler, a polling FSM) through
:meth:`NvmeInitiator.retire`.
"""

from __future__ import annotations

from typing import Dict

from repro.devices.nvme.commands import (LBA_SIZE, Completion, NvmeCommand,
                                         prp_fields, prp_pages)
from repro.devices.nvme.queues import QueuePair
from repro.errors import DeviceError, DeviceTimeout
from repro.faults import RetryPolicy, active_faults, watchdog


class NvmeInitiator:
    """Submitter side of one NVMe I/O queue pair.

    ``port`` is the fabric port that rings the doorbells; PRP lists go
    to ``prp_area`` in one ``prp_slot``-byte slot per cid (modulo the
    queue depth); ``name`` prefixes watchdog and retry event names and
    ``owner`` labels the ``faults.retries`` series.
    """

    def __init__(self, sim, qp: QueuePair, port: str, prp_area: int,
                 prp_slot: int, policy: RetryPolicy, name: str, owner: str):
        self.sim = sim
        self.qp = qp
        self.port = port
        self.policy = policy
        self.name = name
        self._prp_area = prp_area
        self._prp_slot = prp_slot
        self._waiters: Dict[int, object] = {}  # cid -> Event
        self.retries = 0
        # CQEs for commands whose deadline had already expired (they
        # were re-issued under a fresh cid).
        self.late_completions = 0
        metrics = sim.metrics
        if metrics is not None:
            metrics.polled("faults.retries", lambda: self.retries,
                           owner=owner)

    @property
    def idle(self) -> bool:
        """No command is waiting for its completion."""
        return not self._waiters

    # -- submission ------------------------------------------------------

    def prepare(self, opcode: int, slba: int, nbytes: int,
                buf: int) -> NvmeCommand:
        """A command under a fresh cid, its PRP list (if it needs one)
        already written to the cid's slot (functional, no timing)."""
        cid = self.qp.allocate_cid()
        prp1, prp2, blob = prp_fields(prp_pages(buf, nbytes))
        if blob:
            prp2 = self._prp_area + (cid % self.qp.depth) * self._prp_slot
            self.qp.fabric.address_map.write(prp2, blob)
        return NvmeCommand(opcode=opcode, cid=cid, nsid=1, prp1=prp1,
                           prp2=prp2, slba=slba, nlb=nbytes // LBA_SIZE - 1)

    def post(self, command: NvmeCommand):
        """Process: push the SQE, ring the SQ doorbell; returns the
        waiter that :meth:`retire` wakes with the completion."""
        self.qp.push(command)
        yield from self.qp.ring_sq(self.port)
        waiter = self.sim.event()
        self._waiters[command.cid] = waiter
        return waiter

    def complete(self, command: NvmeCommand, waiter, issue, settle):
        """Process: see ``command`` through to an OK completion.

        ``settle(value)`` is the submitter's process that takes what its
        drain woke the waiter with and returns the CQE.  A lost command
        (deadline expired) or a failed status is re-issued after the
        policy's backoff by ``issue()``, the submitter's process that
        builds and posts it again and returns ``(command, waiter)``;
        once the retry budget is spent the last failure is raised.
        """
        policy = self.policy
        attempt = 0
        while True:
            cid, nbytes = command.cid, command.byte_length
            if active_faults(self.sim) is not None:
                watchdog(self.sim, waiter, policy.deadline_for(nbytes),
                         f"{self.name} cid {cid}", cid=cid,
                         slba=command.slba, size=nbytes)
            try:
                value = yield waiter
            except DeviceTimeout as exc:
                # Forget the lost command; its CQE, if it ever lands,
                # is counted late.
                self._waiters.pop(cid, None)
                failure = exc
            else:
                cqe = yield from settle(value)
                if cqe.ok:
                    return cqe
                failure = DeviceError(
                    f"NVMe I/O failed with status {cqe.status} "
                    f"(opcode {command.opcode}, slba {command.slba}, "
                    f"{nbytes} bytes)")
            if attempt >= policy.retries:
                raise failure
            attempt += 1
            self.retries += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant("recover.retry", track="faults",
                               name=f"{self.name} retry {attempt}",
                               cid=cid, attempt=attempt,
                               reason=str(failure))
            yield self.sim.timeout(policy.backoff(attempt))
            command, waiter = yield from issue()

    # -- completion ------------------------------------------------------

    def retire(self, cqe: Completion, value):
        """Process: acknowledge ``cqe`` on the CQ head doorbell and wake
        its command's waiter with ``value``."""
        yield from self.qp.ring_cq(self.port)
        waiter = self._waiters.pop(cqe.cid, None)
        if waiter is None or waiter.triggered:
            self.late_completions += 1
        else:
            waiter.succeed(value)
