"""Tests for NDP units, the function registry and the resource model."""

import pytest

from repro.algos import aes256_ctr, lz77_decompress
from repro.core.ndp import (ENGINE_BASE_UTILIZATION, FUNC_AES256, FUNC_CRC32,
                            FUNC_GZIP, FUNC_MD5, NDP_CORES, NdpBank, func_id,
                            func_name)
from repro.core.ndp.unit import _AES_KEY, _AES_NONCE, NdpUnit
from repro.errors import ConfigurationError
from repro.memory import MemoryRegion
from repro.pcie import Fabric, LINK_GEN2_X8
from repro.sim import Simulator
from repro.units import KIB, MIB, usec

from tests.conftest import STDLIB_DIGESTS


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    fab = Fabric(sim)
    fab.add_port("engine", LINK_GEN2_X8)
    fab.add_region(MemoryRegion("ddr3", base=0x1000_0000, size=16 * MIB,
                                port="engine"))
    return fab


BUF = 0x1000_0000


class TestRegistry:
    def test_roundtrip(self):
        assert func_id("md5") == FUNC_MD5
        assert func_name(FUNC_MD5) == "md5"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            func_id("rot13")
        with pytest.raises(ConfigurationError):
            func_name(99)


class TestResourceModel:
    def test_table3_instances_for_10g(self):
        # MD5 at 0.97 Gbps/unit needs ~10 instances; AES needs one.
        assert NDP_CORES["md5"].units_for_10g() == 10
        assert NDP_CORES["aes256"].units_for_10g() == 1
        assert NDP_CORES["crc32"].units_for_10g() == 1

    def test_table3_fractions_match_paper(self):
        # Paper: MD5 = 3.0 % LUTs, 0.69 % registers of a Virtex-7.
        assert NDP_CORES["md5"].lut_fraction() == pytest.approx(0.030, abs=0.002)
        assert NDP_CORES["md5"].register_fraction() == pytest.approx(
            0.0069, abs=0.0005)

    def test_table4_fractions_match_paper(self):
        # Paper Table IV: 38 % LUTs, 15 % registers, 43 % BRAMs.
        assert ENGINE_BASE_UTILIZATION.lut_fraction() == pytest.approx(
            0.38, abs=0.01)
        assert ENGINE_BASE_UTILIZATION.register_fraction() == pytest.approx(
            0.15, abs=0.01)
        assert ENGINE_BASE_UTILIZATION.bram_fraction() == pytest.approx(
            0.43, abs=0.01)

    def test_engine_plus_all_ndp_fits(self):
        # "the FPGA has enough remaining resources to add NDP units"
        assert ENGINE_BASE_UTILIZATION.fits_with_ndp(list(NDP_CORES))


class TestNdpUnits:
    def _run(self, sim, fabric, bank, fid, data):
        fabric.poke(BUF, data)

        def body(sim):
            result = yield from bank.process(fabric, fid, BUF, len(data))
            return result

        return sim.run(until=sim.process(body(sim)))

    @pytest.mark.parametrize("name", sorted(STDLIB_DIGESTS))
    def test_digest_matches_stdlib(self, sim, fabric, name):
        bank = NdpBank(sim)
        data = bytes(range(256)) * 16 + b"ndp checksum input"
        result = self._run(sim, fabric, bank, func_id(name), data)
        assert result.digest == STDLIB_DIGESTS[name](data)
        assert result.output_length == len(data)

    def test_aes_transforms_in_place(self, sim, fabric):
        bank = NdpBank(sim)
        data = b"secret" * 100
        result = self._run(sim, fabric, bank, FUNC_AES256, data)
        assert result.output_length == len(data)
        encrypted = fabric.peek(BUF, len(data))
        assert encrypted != data
        assert aes256_ctr(encrypted, _AES_KEY, _AES_NONCE) == data

    def test_gzip_shrinks_and_roundtrips(self, sim, fabric):
        bank = NdpBank(sim)
        data = b"compressible! " * 1000
        result = self._run(sim, fabric, bank, FUNC_GZIP, data)
        assert result.output_length < len(data)
        blob = fabric.peek(BUF, result.output_length)
        assert lz77_decompress(blob) == data

    def test_md5_timing_matches_provisioned_bank(self, sim, fabric):
        """64 KiB through the 10-instance (≈9.7 Gbps) MD5 bank: ~55 us."""
        bank = NdpBank(sim)
        data = bytes(64 * KIB)
        self._run(sim, fabric, bank, FUNC_MD5, data)
        assert usec(45) < sim.now < usec(80)

    def test_md5_bank_instances_match_table3(self, sim):
        bank = NdpBank(sim)
        assert bank.unit_for(FUNC_MD5).instances == 10
        assert bank.unit_for(FUNC_AES256).instances == 1
        assert bank.unit_for(FUNC_CRC32).instances == 1

    def test_aes_much_faster_than_md5(self, sim, fabric):
        data = bytes(64 * KIB)
        sim_md5 = Simulator()
        fab_md5 = Fabric(sim_md5)
        fab_md5.add_port("engine", LINK_GEN2_X8)
        fab_md5.add_region(MemoryRegion("ddr3", base=BUF, size=16 * MIB,
                                        port="engine"))
        self._run(sim_md5, fab_md5, NdpBank(sim_md5), FUNC_MD5, data)
        self._run(sim, fabric, NdpBank(sim), FUNC_AES256, data)
        # AES streams at 40.9 Gbps vs the MD5 bank's ~9.7 Gbps.
        assert sim.now < sim_md5.now / 2

    def test_concurrent_streams_share_bank_throughput(self, sim, fabric):
        """Four concurrent 16 KiB requests pipeline through the bank:
        aggregate throughput is the provisioned 10 Gbps, so the last
        finishes ~4x after the first."""
        bank = NdpBank(sim)
        data = bytes(16 * KIB)
        fabric.poke(BUF, data)
        finish = []

        def one(sim):
            yield from bank.process(fabric, FUNC_MD5, BUF, len(data))
            finish.append(sim.now)

        for _ in range(4):
            sim.process(one(sim))
        sim.run()
        assert finish == sorted(finish)
        assert 3.0 < max(finish) / min(finish) < 5.0

    def test_unconfigured_function_rejected(self, sim, fabric):
        bank = NdpBank(sim, functions=["crc32"])
        with pytest.raises(ConfigurationError):
            bank.unit_for(FUNC_MD5)

    def test_unit_counters(self, sim, fabric):
        bank = NdpBank(sim)
        data = bytes(4 * KIB)
        self._run(sim, fabric, bank, FUNC_CRC32, data)
        unit = bank.unit_for(FUNC_CRC32)
        assert unit.operations == 1
        assert unit.bytes_processed == len(data)
