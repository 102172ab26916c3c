"""Remote atomic operations on 64-bit symmetric integers.

The full OpenSHMEM 1.x atomic set the paper benchmarks in Figure 6(c):
fadd, finc, add, inc, cswap, swap (plus fetch/set conveniences).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

__all__ = ["AtomicsMixin"]


class AtomicsMixin:
    """Mixed into :class:`repro.shmem.runtime.ShmemPE`."""

    __slots__ = ()

    def _atomic(self, peer: int, op: str, addr: int, compare: int,
                operand: int) -> Generator:
        self._require_init()
        self.counters.add("shmem.atomics")
        yield from self._ensure_peer(peer)
        raddr, rkey = self._translate(peer, addr)
        old = yield from self.conduit.atomic(
            peer, op, raddr, rkey, compare=compare, operand=operand
        )
        return old

    # -- fetching variants -------------------------------------------------
    def atomic_fetch_add(self, peer: int, addr: int, value: int) -> Generator:
        """shmem_longlong_fadd: returns the old value."""
        old = yield from self._atomic(peer, "fetch_add", addr, 0, value)
        return old

    def atomic_fetch_inc(self, peer: int, addr: int) -> Generator:
        """shmem_longlong_finc."""
        old = yield from self._atomic(peer, "fetch_add", addr, 0, 1)
        return old

    def atomic_compare_swap(self, peer: int, addr: int, cond: int,
                            value: int) -> Generator:
        """shmem_longlong_cswap: swap iff current == cond; returns old."""
        old = yield from self._atomic(peer, "cmp_swap", addr, cond, value)
        return old

    def atomic_swap(self, peer: int, addr: int, value: int) -> Generator:
        """shmem_longlong_swap: unconditional swap; returns old.

        Implemented as a compare-swap retry loop, as on HCAs without a
        native swap (bounded in practice by contention).
        """
        while True:
            current = yield from self.atomic_fetch_add(peer, addr, 0)
            old = yield from self._atomic(peer, "cmp_swap", addr, current, value)
            if old == current:
                return old

    def atomic_fetch(self, peer: int, addr: int) -> Generator:
        """shmem_longlong_fetch (atomic read)."""
        old = yield from self.atomic_fetch_add(peer, addr, 0)
        return old

    # -- non-fetching variants ----------------------------------------------
    def atomic_add(self, peer: int, addr: int, value: int) -> Generator:
        """shmem_longlong_add (no result returned)."""
        yield from self._atomic(peer, "fetch_add", addr, 0, value)

    def atomic_inc(self, peer: int, addr: int) -> Generator:
        """shmem_longlong_inc."""
        yield from self._atomic(peer, "fetch_add", addr, 0, 1)

    def atomic_set(self, peer: int, addr: int, value: int) -> Generator:
        """shmem_longlong_set (atomic write)."""
        yield from self.atomic_swap(peer, addr, value)
