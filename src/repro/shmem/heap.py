"""The symmetric heap.

Every PE allocates an identical heap at init; because OpenSHMEM
requires allocation calls to be symmetric (same sizes, same order on
every PE), an object's offset from the heap base is identical
everywhere — the remote address is computed from the local one via the
peer's segment descriptor.

The heap is a real byte buffer (``numpy.uint8``): RMA moves real data.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ShmemError
from ..ib.memory import MemoryManager

__all__ = ["SymmetricHeap"]

_ALIGN = 64  # cache-line alignment for allocations


class SymmetricHeap:
    """Bump allocator over one registered region.

    ``model_bytes`` is the heap size the runtime *registers* (drives
    the memory-registration cost and the resource accounting, 256 MB by
    default as on the paper's systems); ``backing_bytes`` is the real
    buffer actually materialised for data movement.  Simulating 8K PEs
    with 256 MB of physical backing each is infeasible and unnecessary:
    applications use a tiny fraction, and exceeding the backing raises
    a clear error telling the user to raise ``heap_backing_kb``.
    """

    __slots__ = (
        "mm", "model_bytes", "size", "base", "_bufcache", "_brk", "_allocs",
    )

    def __init__(self, mm: MemoryManager, model_bytes: int,
                 backing_bytes: Optional[int] = None) -> None:
        if model_bytes < _ALIGN:
            raise ValueError(f"heap too small: {model_bytes}")
        backing = backing_bytes if backing_bytes is not None else model_bytes
        if backing < _ALIGN:
            raise ValueError(f"heap backing too small: {backing}")
        self.mm = mm
        self.model_bytes = max(model_bytes, backing)
        self.size = backing  # real, allocatable bytes
        self.base = mm.alloc(self.size)
        self._bufcache: Optional[np.ndarray] = None  # materialised lazily
        self._brk = 0  # offset of first free byte
        self._allocs: Dict[int, int] = {}  # addr -> size (for shfree checks)

    @property
    def _buf(self) -> np.ndarray:
        buf = self._bufcache
        if buf is None:
            buf = self._bufcache = self.mm.buffer_of(self.base)
        return buf

    # ------------------------------------------------------------------
    def shmalloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the (local) symmetric address."""
        if size <= 0:
            raise ShmemError(f"shmalloc of non-positive size {size}")
        offset = (self._brk + _ALIGN - 1) // _ALIGN * _ALIGN
        if offset + size > self.size:
            raise ShmemError(
                f"symmetric heap backing exhausted: need {size}B at offset "
                f"{offset}, backing is {self.size}B — raise the job's "
                "heap_backing_kb (the modelled heap is "
                f"{self.model_bytes}B)"
            )
        self._brk = offset + size
        addr = self.base + offset
        self._allocs[addr] = size
        return addr

    def shfree(self, addr: int) -> None:
        """Release an allocation (bump allocator: bookkeeping only)."""
        if addr not in self._allocs:
            raise ShmemError(f"shfree of unknown address {addr:#x}")
        del self._allocs[addr]

    def reset(self) -> None:
        """Drop every allocation (used between benchmark iterations)."""
        self._brk = 0
        self._allocs.clear()

    # ------------------------------------------------------------------
    def offset_of(self, addr: int) -> int:
        off = addr - self.base
        if not (0 <= off < self.size):
            raise ShmemError(f"address {addr:#x} is not in the symmetric heap")
        return off

    def view(self, addr: int, dtype, count: int) -> np.ndarray:
        """A typed numpy view of local heap memory (zero copy)."""
        off = self.offset_of(addr)
        itemsize = np.dtype(dtype).itemsize
        end = off + itemsize * count
        if end > self.size:
            raise ShmemError("typed view extends past the heap")
        return self._buf[off:end].view(dtype)

    def read(self, addr: int, nbytes: int) -> bytes:
        off = self.offset_of(addr)
        return bytes(self._buf[off : off + nbytes])

    def write(self, addr: int, data: bytes) -> None:
        off = self.offset_of(addr)
        self._buf[off : off + len(data)] = np.frombuffer(data, dtype=np.uint8)

    @property
    def bytes_in_use(self) -> int:
        return self._brk
