"""The engine's 1 GB DDR3 intermediate-buffer manager.

Paper §IV-C: "we utilize on-board 1GB DDR3 DRAMs as intermediate
buffers for intermediate processing and packet recv buffers for NIC
devices.  To easily manage large memory space, the intermediate buffers
and packet recv buffers are chunked into multiple fixed-size blocks
(64KB)."

Both come from one allocator: the NIC controller takes its receive
chunks at engine bring-up, before any intermediate buffer exists, so
they cannot be starved.
"""

from __future__ import annotations

from repro.memory.allocator import ChunkAllocator
from repro.units import GIB, KIB

CHUNK_SIZE = 64 * KIB
DDR3_SIZE = 1 * GIB


class EngineBuffers:
    """Chunked allocation over the engine's DDR3 window."""

    def __init__(self, ddr_base: int, size: int = DDR3_SIZE):
        self._alloc = ChunkAllocator(ddr_base, size, CHUNK_SIZE)

    # -- allocation -------------------------------------------------------

    def alloc_intermediate(self, size: int) -> int:
        """A contiguous intermediate buffer of at least ``size`` bytes."""
        chunks = self._alloc.chunks_for(size)
        if chunks == 1:
            return self._alloc.alloc()
        return self._alloc.alloc_contiguous(chunks)

    def free_intermediate(self, addr: int, size: int) -> None:
        self._alloc.free(addr, self._alloc.chunks_for(size))

    @property
    def free_chunks(self) -> int:
        return self._alloc.free_chunks

    @property
    def bytes_in_use(self) -> int:
        """Allocated DDR3 bytes (the engine.ddr3_bytes_in_use metric)."""
        return self._alloc.allocated_chunks * CHUNK_SIZE

    @property
    def chunk_size(self) -> int:
        return CHUNK_SIZE
