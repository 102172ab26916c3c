"""Distributed locks (shmem_set_lock / clear_lock / test_lock).

Implemented the classic OpenSHMEM way: the lock is a symmetric 64-bit
word whose *home* is PE 0's copy; acquisition is an atomic
compare-and-swap against the home copy with bounded exponential
backoff.  (Production MCS-queue locks trade fairness for fewer remote
atomics; the simple CAS lock keeps the remote-atomic traffic pattern
visible, which is what the simulation measures.)
"""

from __future__ import annotations

from typing import Generator

from ..errors import ShmemError

__all__ = ["LocksMixin"]

#: Value stored in a held lock word: owner rank + 1 (0 == free).
_FREE = 0


class LocksMixin:
    """Mixed into :class:`repro.shmem.runtime.ShmemPE`."""

    __slots__ = ()

    _LOCK_HOME = 0  #: PE owning the authoritative copy of every lock.

    def set_lock(self, lock_addr: int) -> Generator:
        """shmem_set_lock: blocks until the lock is acquired."""
        self._require_init()
        self.counters.add("shmem.lock_acquires")
        ticket = self.rank + 1
        backoff = 1.0
        while True:
            old = yield from self.atomic_compare_swap(
                self._LOCK_HOME, lock_addr, _FREE, ticket
            )
            if old == _FREE:
                return
            yield backoff
            backoff = min(backoff * 2.0, 50.0)

    def clear_lock(self, lock_addr: int) -> Generator:
        """shmem_clear_lock: releases a lock this PE holds."""
        self._require_init()
        ticket = self.rank + 1
        old = yield from self.atomic_compare_swap(
            self._LOCK_HOME, lock_addr, ticket, _FREE
        )
        if old != ticket:
            raise ShmemError(
                f"PE {self.rank}: clear_lock of a lock it does not hold "
                f"(word={old})"
            )

    def test_lock(self, lock_addr: int) -> Generator:
        """shmem_test_lock: one acquisition attempt; True on success."""
        self._require_init()
        old = yield from self.atomic_compare_swap(
            self._LOCK_HOME, lock_addr, _FREE, self.rank + 1
        )
        return old == _FREE
