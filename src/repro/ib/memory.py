"""Registered memory: protection domains, regions, rkeys.

Each PE owns a :class:`MemoryManager` modelling its virtual address
space.  Buffers are real ``numpy`` byte arrays, so RDMA operations in
the simulator genuinely move data — application results (heat fields,
BFS trees, reductions) are computed from bytes that travelled through
the simulated fabric.

Addresses are integers in a per-PE flat space; registration yields an
``rkey`` that remote peers must present.  rkeys are globally unique so
that a stale or wrong key is always caught.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import MemoryRegistrationError, RemoteAccessError

__all__ = ["MemoryRegion", "MemoryManager"]

_rkey_counter = itertools.count(0x1000)


@dataclass
class MemoryRegion:
    """A registered, RDMA-accessible buffer.

    The backing array is owned by the :class:`MemoryManager` and
    materialised lazily — registering a large heap that is never
    touched (common in startup benchmarks) costs no real memory.
    """

    # Hand-written rather than ``dataclass(slots=True)``, which needs
    # Python 3.10; slots rule out field defaults, so ``register`` passes
    # ``revoked`` explicitly.
    __slots__ = (
        "addr", "size", "rkey", "lkey", "owner_rank", "mm", "model_bytes",
        "revoked",
    )

    addr: int  #: Base virtual address in the owner's address space.
    size: int  #: Length in bytes.
    rkey: int  #: Remote access key (globally unique).
    lkey: int  #: Local key (== rkey in this model).
    owner_rank: int
    mm: "MemoryManager"  #: Owner of the backing storage.
    #: Size charged for cost and accounting; ``size`` unless the
    #: registrant models a larger region than it backs.
    model_bytes: int
    #: Set by ``deregister``: the handle is dead even though the numpy
    #: view it references may still be alive.  Remote access through a
    #: revoked region must fail, never read through.
    revoked: bool

    @property
    def buf(self) -> np.ndarray:
        """Backing storage (uint8, length ``size``), created on first use."""
        return self.mm.buffer_of(self.addr)

    def contains(self, addr: int, nbytes: int) -> bool:
        return self.addr <= addr and addr + nbytes <= self.addr + self.size

    def offset_of(self, addr: int) -> int:
        return addr - self.addr


class MemoryManager:
    """Per-PE address space + registration table.

    ``alloc`` carves address ranges out of a monotonically growing
    space; ``register`` pins a range and issues an rkey.  Only
    registered ranges are remotely accessible.
    """

    __slots__ = (
        "rank", "_next_addr", "_buffers", "_regions", "_by_addr", "_revoked",
        "registered_bytes",
    )

    #: Arbitrary non-zero base so address 0 is always invalid.
    _BASE_ADDR = 0x10_0000

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._next_addr = self._BASE_ADDR
        #: addr -> backing array, or the pending size (int) for
        #: allocations whose bytes have never been touched.
        self._buffers: Dict[int, object] = {}
        self._regions: Dict[int, MemoryRegion] = {}  # rkey -> region
        self._by_addr: Dict[int, MemoryRegion] = {}  # base addr -> region
        #: rkeys of deregistered regions, kept so a late lookup fails
        #: with a *revoked* error rather than a confusing unknown-rkey.
        self._revoked: Dict[int, None] = {}
        self.registered_bytes = 0

    # -- allocation -----------------------------------------------------
    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the base address.

        The zeroed backing array is materialised on first access, so
        PEs that register memory but never move data through it (e.g.
        a startup-only benchmark) pay nothing."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        addr = self._next_addr
        # 4 KiB alignment, like a page-aligned allocator.
        self._next_addr += (size + 4095) // 4096 * 4096
        self._buffers[addr] = size
        return addr

    def buffer_of(self, addr: int) -> np.ndarray:
        """Backing array for an allocation base address."""
        try:
            buf = self._buffers[addr]
        except KeyError:
            raise MemoryRegistrationError(
                f"PE {self.rank}: {addr:#x} is not an allocation base"
            ) from None
        if buf.__class__ is int:
            buf = np.zeros(buf, dtype=np.uint8)
            self._buffers[addr] = buf
        return buf

    def size_of(self, addr: int) -> int:
        """Allocation size without materialising the backing array."""
        try:
            buf = self._buffers[addr]
        except KeyError:
            raise MemoryRegistrationError(
                f"PE {self.rank}: {addr:#x} is not an allocation base"
            ) from None
        return buf if buf.__class__ is int else len(buf)

    # -- registration ----------------------------------------------------
    def register(self, addr: int,
                 model_bytes: Optional[int] = None) -> MemoryRegion:
        """Register the allocation at ``addr``; returns its region.

        ``model_bytes`` is recorded on the region as the size its
        registrant charged (default: the allocation size)."""
        size = self.size_of(addr)
        if addr in self._by_addr:
            raise MemoryRegistrationError(
                f"PE {self.rank}: {addr:#x} already registered"
            )
        key = next(_rkey_counter)
        region = MemoryRegion(
            addr=addr, size=size, rkey=key, lkey=key,
            owner_rank=self.rank, mm=self,
            model_bytes=size if model_bytes is None else model_bytes,
            revoked=False,
        )
        self._regions[key] = region
        self._by_addr[addr] = region
        self.registered_bytes += region.size
        return region

    def deregister(self, region: MemoryRegion) -> None:
        if region.rkey not in self._regions:
            raise MemoryRegistrationError(
                f"PE {self.rank}: rkey {region.rkey:#x} not registered"
            )
        del self._regions[region.rkey]
        del self._by_addr[region.addr]
        region.revoked = True
        self._revoked[region.rkey] = None
        self.registered_bytes -= region.size

    def region_by_rkey(self, rkey: int) -> MemoryRegion:
        try:
            region = self._regions[rkey]
        except KeyError:
            if rkey in self._revoked:
                raise RemoteAccessError(
                    f"PE {self.rank}: rkey {rkey:#x} revoked "
                    f"(region deregistered)"
                ) from None
            raise RemoteAccessError(
                f"PE {self.rank}: unknown rkey {rkey:#x}"
            ) from None
        if region.revoked:  # pragma: no cover - defence in depth
            raise RemoteAccessError(
                f"PE {self.rank}: rkey {rkey:#x} revoked "
                f"(region deregistered)"
            )
        return region

    # -- local access ------------------------------------------------------
    def _locate(self, addr: int, nbytes: int) -> Tuple[np.ndarray, int]:
        """Find (buffer, offset) for any allocated range, registered or not."""
        for base in self._buffers:
            if base <= addr and addr + nbytes <= base + self.size_of(base):
                return self.buffer_of(base), addr - base
        raise RemoteAccessError(
            f"PE {self.rank}: address range {addr:#x}+{nbytes} not allocated"
        )

    def read_local(self, addr: int, nbytes: int) -> bytes:
        buf, off = self._locate(addr, nbytes)
        return bytes(buf[off : off + nbytes])

    def write_local(self, addr: int, data: bytes) -> None:
        buf, off = self._locate(addr, len(data))
        buf[off : off + len(data)] = np.frombuffer(data, dtype=np.uint8)

    # -- remote (validated) access -----------------------------------------
    def rdma_write(self, raddr: int, rkey: int, data: bytes) -> None:
        region = self.region_by_rkey(rkey)
        if not region.contains(raddr, len(data)):
            raise RemoteAccessError(
                f"PE {self.rank}: write {raddr:#x}+{len(data)} outside "
                f"region rkey={rkey:#x}"
            )
        off = region.offset_of(raddr)
        region.buf[off : off + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def rdma_read(self, raddr: int, rkey: int, nbytes: int) -> bytes:
        region = self.region_by_rkey(rkey)
        if not region.contains(raddr, nbytes):
            raise RemoteAccessError(
                f"PE {self.rank}: read {raddr:#x}+{nbytes} outside "
                f"region rkey={rkey:#x}"
            )
        off = region.offset_of(raddr)
        return bytes(region.buf[off : off + nbytes])

    def atomic(self, raddr: int, rkey: int, op: str, compare: int, operand: int) -> int:
        """Execute a 64-bit atomic at ``raddr``; returns the old value."""
        region = self.region_by_rkey(rkey)
        if not region.contains(raddr, 8):
            raise RemoteAccessError(
                f"PE {self.rank}: atomic at {raddr:#x} outside region "
                f"rkey={rkey:#x}"
            )
        off = region.offset_of(raddr)
        view = region.buf[off : off + 8]
        old = int(np.frombuffer(view.tobytes(), dtype="<i8")[0])
        if op == "fetch_add":
            new = old + operand
        elif op == "cmp_swap":
            new = operand if old == compare else old
        else:
            raise ValueError(f"unknown atomic op {op!r}")
        view[:] = np.frombuffer(
            int(new & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little", signed=False),
            dtype=np.uint8,
        )
        return old
