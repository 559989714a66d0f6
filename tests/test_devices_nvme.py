"""Tests for the NVMe SSD model: command formats, PRPs, rings, the device."""

import pytest

from repro.devices.nvme import (Completion, FlashStore, INTEL_750_400GB,
                                NvmeCommand, NvmeInitiator, NvmeSsd,
                                OP_FLUSH, OP_READ, OP_WRITE, prp_pages)
from repro.devices.nvme.commands import (LBA_SIZE, prp_fields,
                                         unpack_prp_list)
from repro.errors import DeviceError, ProtocolError
from repro.faults import HOST_NVME_POLICY
from repro.units import KIB, MIB, PAGE, usec

from tests.conftest import SSD_BAR

SQ_ADDR = 0x10_0000      # rings live in host DRAM for these tests
CQ_ADDR = 0x11_0000
DATA_ADDR = 0x20_0000
PRP_LIST_ADDR = 0x12_0000
DEPTH = 64


class TestCommandFormats:
    def test_sqe_roundtrip(self):
        cmd = NvmeCommand(opcode=OP_READ, cid=7, nsid=1, prp1=0x1000,
                          prp2=0x2000, slba=123, nlb=15)
        raw = cmd.pack()
        assert len(raw) == 64
        assert NvmeCommand.unpack(raw) == cmd

    def test_cqe_roundtrip(self):
        cqe = Completion(cid=3, sq_head=10, status=0, phase=1, sq_id=1)
        raw = cqe.pack()
        assert len(raw) == 16
        parsed = Completion.unpack(raw)
        assert parsed.cid == 3
        assert parsed.phase == 1
        assert parsed.ok

    def test_cqe_status_and_phase_packing(self):
        cqe = Completion(cid=1, sq_head=0, status=2, phase=0)
        parsed = Completion.unpack(cqe.pack())
        assert parsed.status == 2
        assert parsed.phase == 0
        assert not parsed.ok

    def test_byte_length_is_one_based(self):
        cmd = NvmeCommand(opcode=OP_READ, cid=0, nsid=1, prp1=0, prp2=0,
                          slba=0, nlb=0)
        assert cmd.byte_length == LBA_SIZE

    def test_bad_sqe_size_rejected(self):
        with pytest.raises(ProtocolError):
            NvmeCommand.unpack(b"\x00" * 63)


class TestPrp:
    def test_single_page(self):
        assert prp_pages(0x1000, 4096) == [0x1000]

    def test_offset_first_page(self):
        pages = prp_pages(0x1800, 4096)
        assert pages == [0x1800, 0x2000]

    def test_multi_page(self):
        pages = prp_pages(0x1000, 16 * KIB)
        assert pages == [0x1000, 0x2000, 0x3000, 0x4000]

    def test_prp_fields_one_two_many(self):
        p1, p2, blob = prp_fields([0xA000])
        assert (p1, p2, blob) == (0xA000, 0, b"")
        p1, p2, blob = prp_fields([0xA000, 0xB000])
        assert (p1, p2, blob) == (0xA000, 0xB000, b"")
        p1, p2, blob = prp_fields([0xA000, 0xB000, 0xC000])
        assert p1 == 0xA000 and p2 == 0
        assert unpack_prp_list(blob) == [0xB000, 0xC000]

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError):
            prp_pages(0x1000, 0)


@pytest.fixture
def ssd(sim, fabric):
    return NvmeSsd(sim, fabric, "ssd", bar_base=SSD_BAR)


def _initiator(sim, ssd, qid=1, interrupt=False, ring_offset=0):
    """An initiator on a fresh host-DRAM queue pair, drained by a
    polling loop (the engine's way; no interrupt handler needed)."""
    qp = ssd.create_io_queue(qid, SQ_ADDR + ring_offset,
                             CQ_ADDR + ring_offset, DEPTH,
                             interrupt=interrupt)
    nvme = NvmeInitiator(sim, qp, "host", PRP_LIST_ADDR + ring_offset,
                         PAGE, HOST_NVME_POLICY, "test NVMe", owner="test")

    def drain(sim):
        while True:
            cqe = qp.poll_completion()
            if cqe is None:
                yield sim.timeout(200)
            else:
                yield from nvme.retire(cqe, cqe)

    sim.process(drain(sim))
    return nvme


def _io(nvme, command):
    """Process: post one command and return its CQE."""
    waiter = yield from nvme.post(command)
    return (yield waiter)


def _raw(nvme, opcode, slba=0, nlb=0, prp1=0):
    """A hand-made command under the initiator's next cid."""
    return NvmeCommand(opcode=opcode, cid=nvme.qp.allocate_cid(), nsid=1,
                       prp1=prp1, prp2=0, slba=slba, nlb=nlb)


class TestNvmeSsd:
    def test_read_4k(self, sim, fabric, ssd):
        ssd.flash.write_blocks(5, b"\xab" * LBA_SIZE)
        nvme = _initiator(sim, ssd)

        def body(sim):
            cmd = nvme.prepare(OP_READ, 5, LBA_SIZE, DATA_ADDR)
            return (yield from _io(nvme, cmd))

        cqe = sim.run(until=sim.process(body(sim)))
        assert cqe.ok
        assert fabric.peek(DATA_ADDR, LBA_SIZE) == b"\xab" * LBA_SIZE

    def test_read_latency_in_device_range(self, sim, fabric, ssd):
        """A 4 KiB read should land in the ~11-25 us envelope."""
        ssd.flash.write_blocks(0, bytes(LBA_SIZE))
        nvme = _initiator(sim, ssd)

        def body(sim):
            yield from _io(nvme, nvme.prepare(OP_READ, 0, LBA_SIZE,
                                              DATA_ADDR))

        sim.run(until=sim.process(body(sim)))
        assert usec(11) < sim.now < usec(25)

    def test_write_then_read_roundtrip(self, sim, fabric, ssd):
        nvme = _initiator(sim, ssd)
        payload = bytes(range(256)) * 16  # 4096 bytes
        fabric.poke(DATA_ADDR, payload)

        def body(sim):
            yield from _io(nvme, nvme.prepare(OP_WRITE, 9, LBA_SIZE,
                                              DATA_ADDR))
            yield from _io(nvme, nvme.prepare(OP_READ, 9, LBA_SIZE,
                                              DATA_ADDR + 64 * KIB))

        sim.run(until=sim.process(body(sim)))
        assert fabric.peek(DATA_ADDR + 64 * KIB, LBA_SIZE) == payload
        assert ssd.flash.read_blocks(9, 1) == payload

    def test_multi_page_read_uses_prp_list(self, sim, fabric, ssd):
        size = 32 * KIB
        pattern = bytes(range(256)) * (size // 256)
        ssd.flash.write_blocks(100, pattern)
        nvme = _initiator(sim, ssd)

        def body(sim):
            cmd = nvme.prepare(OP_READ, 100, size, DATA_ADDR)
            assert cmd.prp2 == PRP_LIST_ADDR  # really took the list path
            assert unpack_prp_list(fabric.peek(PRP_LIST_ADDR, 7 * 8)) == [
                DATA_ADDR + n * PAGE for n in range(1, 8)]
            yield from _io(nvme, cmd)

        sim.run(until=sim.process(body(sim)))
        assert fabric.peek(DATA_ADDR, size) == pattern

    def test_flush_completes(self, sim, fabric, ssd):
        nvme = _initiator(sim, ssd)

        def body(sim):
            return (yield from _io(nvme, _raw(nvme, OP_FLUSH)))

        cqe = sim.run(until=sim.process(body(sim)))
        assert cqe.ok

    def test_invalid_opcode_fails_status(self, sim, fabric, ssd):
        nvme = _initiator(sim, ssd)

        def body(sim):
            return (yield from _io(nvme, _raw(nvme, 0x7F, prp1=DATA_ADDR)))

        cqe = sim.run(until=sim.process(body(sim)))
        assert not cqe.ok

    def test_msi_on_interrupt_queue(self, sim, fabric, ssd):
        hits = []
        fabric.register_msi_handler("host", lambda src, vec: hits.append(vec))
        nvme = _initiator(sim, ssd, interrupt=True)
        ssd.flash.write_blocks(0, bytes(LBA_SIZE))

        def body(sim):
            yield from _io(nvme, nvme.prepare(OP_READ, 0, LBA_SIZE,
                                              DATA_ADDR))

        sim.run(until=sim.process(body(sim)))
        assert hits == [1]

    def test_queue_full_detected(self, sim, fabric, ssd):
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, depth=4)
        for _ in range(3):
            qp.push(NvmeCommand(opcode=OP_FLUSH, cid=qp.allocate_cid(),
                                nsid=1, prp1=0, prp2=0, slba=0, nlb=0))
        with pytest.raises(ProtocolError, match="full"):
            qp.push(NvmeCommand(opcode=OP_FLUSH, cid=qp.allocate_cid(),
                                nsid=1, prp1=0, prp2=0, slba=0, nlb=0))

    def test_duplicate_queue_rejected(self, sim, fabric, ssd):
        ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)
        with pytest.raises(DeviceError):
            ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

    def test_oversized_transfer_fails_status(self, sim, fabric, ssd):
        nvme = _initiator(sim, ssd)

        def body(sim):
            nlb = (INTEL_750_400GB.max_transfer // LBA_SIZE) + 1
            return (yield from _io(nvme, _raw(nvme, OP_READ, nlb=nlb,
                                              prp1=DATA_ADDR)))

        cqe = sim.run(until=sim.process(body(sim)))
        assert not cqe.ok

    def test_pipelined_commands_overlap(self, sim, fabric, ssd):
        """Two queued reads should take less than 2x one read."""
        ssd.flash.write_blocks(0, bytes(2 * LBA_SIZE))
        nvme = _initiator(sim, ssd)

        def one(sim, ssd):
            other = _initiator(sim, ssd, qid=2, ring_offset=0x8000)
            yield from _io(other, other.prepare(OP_READ, 0, LBA_SIZE,
                                                DATA_ADDR))
            return sim.now

        single = sim.process(one(sim, ssd))
        single_time = sim.run(until=single)

        def two(sim):
            start = sim.now
            c1 = nvme.prepare(OP_READ, 0, LBA_SIZE, DATA_ADDR)
            c2 = nvme.prepare(OP_READ, 1, LBA_SIZE, DATA_ADDR + PAGE)
            w1 = yield from nvme.post(c1)
            w2 = yield from nvme.post(c2)
            yield w1
            yield w2
            return sim.now - start

        pair_time = sim.run(until=sim.process(two(sim)))
        assert pair_time < 2 * single_time


class TestFlashStore:
    def test_out_of_range_rejected(self):
        store = FlashStore(capacity_bytes=16 * LBA_SIZE)
        with pytest.raises(DeviceError):
            store.read_blocks(15, 2)
        with pytest.raises(DeviceError):
            store.read_blocks(-1, 1)

    def test_unaligned_write_rejected(self):
        store = FlashStore(capacity_bytes=16 * LBA_SIZE)
        with pytest.raises(DeviceError):
            store.write_blocks(0, b"tiny")

    def test_sparse_capacity(self):
        store = FlashStore(capacity_bytes=1024 * MIB)
        store.write_blocks(1000, b"\x01" * LBA_SIZE)
        assert store.read_blocks(1000, 1) == b"\x01" * LBA_SIZE
        assert store.read_blocks(0, 1) == bytes(LBA_SIZE)
