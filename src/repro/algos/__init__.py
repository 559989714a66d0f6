"""Data-processing algorithms behind the offload functions.

These are the functional cores behind both the GPU's offload kernels
and the HDC Engine's NDP units (paper Table III), and the host CPU's
checksum path.  The data-integrity hashes (MD5, SHA-1, SHA-256, CRC32)
come from the standard library (``hashlib`` / ``zlib``) through the
single :data:`DIGESTS` table; their simulated cost is the Table III /
:class:`~repro.host.costs.SoftwareCosts` timing model, never the host
runtime.  AES-256-CTR and the GZIP-style LZ77 compressor have no
standard-library equivalent and are implemented from first principles
here; the LZ77 container is our own (DESIGN.md §6) and round-trips
through :func:`lz77_decompress`.
"""

import hashlib
import zlib
from typing import Callable, Dict

from repro.algos.aes import aes256_ctr, expand_key_256
from repro.algos.lz77 import lz77_compress, lz77_decompress

#: Integrity-hash name -> digest function.  CRC32 is 4 big-endian bytes
#: (how HDFS stores block checksums).
DIGESTS: Dict[str, Callable[[bytes], bytes]] = {
    "md5": lambda data: hashlib.md5(data).digest(),
    "sha1": lambda data: hashlib.sha1(data).digest(),
    "sha256": lambda data: hashlib.sha256(data).digest(),
    "crc32": lambda data: zlib.crc32(data).to_bytes(4, "big"),
}

__all__ = [
    "DIGESTS",
    "aes256_ctr",
    "expand_key_256",
    "lz77_compress",
    "lz77_decompress",
]
