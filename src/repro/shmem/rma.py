"""One-sided put/get (shmem_put / shmem_get and typed variants).

Operations are blocking (they return once remotely complete), which
makes ``shmem_quiet``/``shmem_fence`` trivially satisfied — a
documented simplification that matches how the OSU latency benchmarks
measure these calls anyway.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..errors import ShmemError

__all__ = ["RMAMixin"]


class RMAMixin:
    """Mixed into :class:`repro.shmem.runtime.ShmemPE`."""

    __slots__ = ()

    # ------------------------------------------------------------------
    def put(self, peer: int, addr: int, data: bytes) -> Generator:
        """shmem_putmem: write ``data`` to ``addr`` at ``peer``."""
        self._require_init()
        self.counters.add("shmem.puts")
        if peer == self.rank:
            self.heap.write(addr, data)
            return
        yield from self._ensure_peer(peer)
        raddr, rkey = self._translate(peer, addr)
        yield from self.conduit.rdma_put(peer, bytes(data), raddr, rkey)

    def get(self, peer: int, addr: int, nbytes: int) -> Generator:
        """shmem_getmem: read ``nbytes`` from ``addr`` at ``peer``."""
        self._require_init()
        self.counters.add("shmem.gets")
        if peer == self.rank:
            return self.heap.read(addr, nbytes)
        yield from self._ensure_peer(peer)
        raddr, rkey = self._translate(peer, addr)
        data = yield from self.conduit.rdma_get(peer, nbytes, raddr, rkey)
        return data

    # -- typed conveniences ------------------------------------------------
    def put_array(self, peer: int, addr: int, array: np.ndarray) -> Generator:
        """Typed put of a numpy array into symmetric memory."""
        yield from self.put(peer, addr, np.ascontiguousarray(array).tobytes())

    def get_array(self, peer: int, addr: int, dtype, count: int) -> Generator:
        data = yield from self.get(peer, addr, np.dtype(dtype).itemsize * count)
        return np.frombuffer(data, dtype=dtype).copy()

    def put_value(self, peer: int, addr: int, value: int,
                  dtype=np.int64) -> Generator:
        yield from self.put(peer, addr, np.dtype(dtype).type(value).tobytes())

    def get_value(self, peer: int, addr: int, dtype=np.int64) -> Generator:
        data = yield from self.get(peer, addr, np.dtype(dtype).itemsize)
        return np.frombuffer(data, dtype=dtype)[0].item()

    # -- non-blocking implicit (shmem_putmem_nbi / shmem_getmem_nbi) -------
    def put_nbi(self, peer: int, addr: int, data: bytes) -> Generator:
        """shmem_putmem_nbi: initiate and return; complete at quiet()."""
        self._require_init()
        self.counters.add("shmem.puts_nbi")
        if peer == self.rank:
            self.heap.write(addr, data)
            return
        yield from self._ensure_peer(peer)
        raddr, rkey = self._translate(peer, addr)
        yield from self.conduit.rdma_put_nbi(peer, bytes(data), raddr, rkey)

    def put_array_nbi(self, peer: int, addr: int, array: np.ndarray) -> Generator:
        yield from self.put_nbi(
            peer, addr, np.ascontiguousarray(array).tobytes()
        )

    def get_nbi(self, peer: int, src_addr: int, dst_addr: int,
                nbytes: int) -> Generator:
        """shmem_getmem_nbi: fetch into *local* symmetric memory at
        ``dst_addr``; data is usable only after quiet()."""
        self._require_init()
        self.counters.add("shmem.gets_nbi")
        if peer == self.rank:
            self.heap.write(dst_addr, self.heap.read(src_addr, nbytes))
            return
        yield from self._ensure_peer(peer)
        raddr, rkey = self._translate(peer, src_addr)
        heap = self.heap
        yield from self.conduit.rdma_get_nbi(
            peer, nbytes, raddr, rkey,
            on_data=lambda data: heap.write(dst_addr, data),
        )

    # ------------------------------------------------------------------
    def quiet(self) -> Generator:
        """shmem_quiet: complete all outstanding nbi operations.

        (Blocking put/get are already remotely complete on return.)
        """
        self._require_init()
        yield self.cost.poll_cq_us
        yield from self.conduit.quiet()

    def fence(self) -> Generator:
        """shmem_fence: ordering only; same guarantee as quiet here."""
        yield from self.quiet()

    # ------------------------------------------------------------------
    def wait_until(self, addr: int, op: str, value: int,
                   dtype=np.int64) -> Generator:
        """shmem_wait_until on a local symmetric variable.

        Polls local memory with exponential backoff (a remote PE's put
        or atomic will make the predicate true).
        """
        self._require_init()
        view = self.heap.view(addr, dtype, 1)
        ops = {
            "eq": lambda a, b: a == b,
            "ne": lambda a, b: a != b,
            "gt": lambda a, b: a > b,
            "ge": lambda a, b: a >= b,
            "lt": lambda a, b: a < b,
            "le": lambda a, b: a <= b,
        }
        try:
            cmp = ops[op]
        except KeyError:
            raise ShmemError(f"unknown wait_until op {op!r}") from None
        interval = 0.5
        while not cmp(view[0], value):
            yield interval
            interval = min(interval * 2.0, 25.0)
