"""Shared fixtures: a minimal fabric with host memory for device tests,
plus the doc-heading parser behind the docs-contract tests."""

import hashlib
import re
import zlib
from pathlib import Path

import pytest

from repro.memory import MemoryRegion
from repro.pcie import Fabric, LINK_GEN2_X8
from repro.sim import Simulator
from repro.units import MIB

HOST_DRAM_BASE = 0x0000_0000
HOST_DRAM_SIZE = 256 * MIB

SSD_BAR = 0x8000_0000
NIC_BAR = 0x8100_0000
NIC2_BAR = 0x8200_0000
GPU_BAR = 0x9000_0000
ENGINE_BAR = 0xA000_0000
ENGINE_DDR_BASE = 0xC000_0000

# Reference digests for every integrity function the devices offer; CRC32
# is stored big-endian, as HDFS does.
STDLIB_DIGESTS = {
    "md5": lambda data: hashlib.md5(data).digest(),
    "sha1": lambda data: hashlib.sha1(data).digest(),
    "sha256": lambda data: hashlib.sha256(data).digest(),
    "crc32": lambda data: zlib.crc32(data).to_bytes(4, "big"),
}


REPO_ROOT = Path(__file__).resolve().parent.parent


def doc_headings(doc: str, id_pattern: str) -> list[tuple[str, str]]:
    """(id, rest-of-line) for each '### `id`' heading of ``docs/<doc>``
    whose id matches ``id_pattern`` -- the sections a docs-contract test
    holds in lock-step with a registry."""
    heading = re.compile(rf"^###\s+`({id_pattern})`(.*)$", re.MULTILINE)
    text = (REPO_ROOT / "docs" / doc).read_text(encoding="utf-8")
    return [(found, rest.strip()) for found, rest in heading.findall(text)]


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    """A fabric with a host port and host DRAM mapped at 0."""
    fab = Fabric(sim)
    fab.add_port("host", LINK_GEN2_X8)
    fab.add_region(MemoryRegion("host-dram", base=HOST_DRAM_BASE,
                                size=HOST_DRAM_SIZE, port="host",
                                sparse=True))
    fab.register_msi_handler("host", lambda src, vec: None)
    return fab
