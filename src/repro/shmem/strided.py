"""Strided RMA: shmem_iput / shmem_iget.

Element-wise transfers with independent target and source strides.
Contiguous runs (both strides == 1) collapse into one RDMA; genuinely
strided transfers issue one pipelined non-blocking RDMA per element —
the same wire traffic a verbs implementation without hardware
scatter/gather generates — and complete before returning (the blocking
OpenSHMEM semantics).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..errors import ShmemError

__all__ = ["StridedMixin"]


class StridedMixin:
    """Mixed into :class:`repro.shmem.runtime.ShmemPE`."""

    __slots__ = ()

    def iput(self, peer: int, dst_addr: int, src_addr: int, dst_stride: int,
             src_stride: int, count: int, dtype=np.int64) -> Generator:
        """shmem_iput: count elements, strides in *elements*."""
        self._require_init()
        if dst_stride < 1 or src_stride < 1:
            raise ShmemError("strides must be >= 1 element")
        if count < 0:
            raise ShmemError("count must be >= 0")
        self.counters.add("shmem.iputs")
        itemsize = np.dtype(dtype).itemsize
        if dst_stride == 1 and src_stride == 1:
            data = self.heap.read(src_addr, count * itemsize)
            yield from self.put(peer, dst_addr, data)
            return
        for i in range(count):
            element = self.heap.read(src_addr + i * src_stride * itemsize,
                                     itemsize)
            yield from self.put_nbi(
                peer, dst_addr + i * dst_stride * itemsize, element
            )
        yield from self.quiet()

    def iget(self, peer: int, dst_addr: int, src_addr: int, dst_stride: int,
             src_stride: int, count: int, dtype=np.int64) -> Generator:
        """shmem_iget: count elements from ``peer`` into local memory."""
        self._require_init()
        if dst_stride < 1 or src_stride < 1:
            raise ShmemError("strides must be >= 1 element")
        if count < 0:
            raise ShmemError("count must be >= 0")
        self.counters.add("shmem.igets")
        itemsize = np.dtype(dtype).itemsize
        if dst_stride == 1 and src_stride == 1:
            data = yield from self.get(peer, src_addr, count * itemsize)
            self.heap.write(dst_addr, data)
            return
        for i in range(count):
            yield from self.get_nbi(
                peer,
                src_addr + i * src_stride * itemsize,
                dst_addr + i * dst_stride * itemsize,
                itemsize,
            )
        yield from self.quiet()
