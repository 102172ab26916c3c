"""OpenSHMEM collectives: barrier, broadcast, collect, reductions —
over the world set or any OpenSHMEM 1.x *active set*.

Algorithms (and the connection footprints they imply, which is what
Figure 9 measures):

* barriers / broadcasts / reductions — a binary tree over the set's
  members: each PE talks to its parent and at most two children, so
  on-demand mode creates only a handful of connections per PE;
* ``collect``/``fcollect`` — Bruck-style dissemination allgather:
  ceil(log2 P) *distinct* peers per PE with doubling message sizes
  (the "dense" collective of Figure 7a);
* ``alltoall`` — pairwise exchange rounds (every member is a peer:
  the densest pattern, used by the IS kernel);
* the intra-node barrier of Section IV-E — pure shared memory, zero
  fabric connections.

All payloads are real bytes: a reduction really reduces, a collect
really concatenates.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Tuple

import numpy as np

from ..errors import ShmemError
from .activeset import ActiveSet

__all__ = ["CollectivesMixin", "tree_parent_children"]


def tree_parent_children(rank: int, npes: int, root: int = 0
                         ) -> Tuple[Optional[int], List[int]]:
    """Binary-heap tree rotated so ``root`` is the root.

    Returns (parent or None, children) in *real* rank space.
    """
    vrank = (rank - root) % npes
    parent = None if vrank == 0 else ((vrank - 1) // 2 + root) % npes
    children = [
        (c + root) % npes
        for c in (2 * vrank + 1, 2 * vrank + 2)
        if c < npes
    ]
    return parent, children


_REDUCE_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


class CollectivesMixin:
    """Mixed into :class:`repro.shmem.runtime.ShmemPE`."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _world(self) -> ActiveSet:
        return ActiveSet.world(self.npes)

    def _team_tree(self, aset: ActiveSet, team_root: int
                   ) -> Tuple[Optional[int], List[int]]:
        """Parent/children as *global* ranks for a team tree."""
        me = aset.team_rank(self.rank)
        parent, children = tree_parent_children(me, aset.pe_size, team_root)
        return (
            None if parent is None else aset.global_rank(parent),
            [aset.global_rank(c) for c in children],
        )

    def _team_seq(self, kind: str, aset: ActiveSet) -> int:
        return self._next_seq((kind,) + aset.key())

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def barrier_all(self) -> Generator:
        """shmem_barrier_all: tree gather + release over the fabric."""
        self._require_init()
        self.counters.add("shmem.barriers")
        yield from self.team_barrier(self._world())

    def team_barrier(self, aset: ActiveSet) -> Generator:
        """shmem_barrier over an active set."""
        self._require_init()
        seq = self._team_seq("bar", aset)
        parent, children = self._team_tree(aset, 0)
        up = ("bar", aset.key(), seq, "up")
        down = ("bar", aset.key(), seq, "down")
        for _ in children:
            yield self._chan(up).recv()
        if parent is not None:
            yield from self._coll_send(parent, up)
            yield self._chan(down).recv()
        for child in children:
            yield from self._coll_send(child, down)

    def barrier_intranode(self) -> Generator:
        """The paper's shared-memory intra-node barrier (Section IV-E)."""
        if self.node_barrier is None:
            raise ShmemError(f"PE {self.rank}: node barrier not installed")
        local = self.cluster.local_size(self.rank)
        rounds = max(1, math.ceil(math.log2(max(2, local))))
        yield self.cost.shm_barrier_us * rounds
        yield self.node_barrier.wait()
        self.counters.add("shmem.intranode_barriers")

    # ------------------------------------------------------------------
    # broadcast
    # ------------------------------------------------------------------
    def broadcast(self, root: int, addr: int, nbytes: int) -> Generator:
        """shmem_broadcast over all PEs; ``root`` is a global rank."""
        self._require_init()
        self.counters.add("shmem.broadcasts")
        yield from self.team_broadcast(self._world(), root, addr, nbytes)

    def team_broadcast(self, aset: ActiveSet, pe_root: int, addr: int,
                       nbytes: int) -> Generator:
        """shmem_broadcast over an active set (``pe_root`` is the
        *team-relative* root, as in the OpenSHMEM 1.x signature)."""
        self._require_init()
        seq = self._team_seq("bcast", aset)
        key = ("bcast", aset.key(), seq)
        parent, children = self._team_tree(aset, pe_root)
        if parent is None:
            data = self.heap.read(addr, nbytes)
        else:
            _src, data = yield self._chan(key).recv()
            self.heap.write(addr, data)
        for child in children:
            yield from self._coll_send(child, key, payload=data, nbytes=nbytes)

    # ------------------------------------------------------------------
    # collect (allgather)
    # ------------------------------------------------------------------
    def fcollect(self, src_addr: int, dst_addr: int, nbytes: int) -> Generator:
        """shmem_fcollect: every PE contributes ``nbytes`` from
        ``src_addr``; the concatenation (by PE order) lands at
        ``dst_addr`` everywhere."""
        self._require_init()
        self.counters.add("shmem.collects")
        yield from self.team_fcollect(self._world(), src_addr, dst_addr, nbytes)

    collect = fcollect  # fixed-size variant is all the paper uses

    def team_fcollect(self, aset: ActiveSet, src_addr: int, dst_addr: int,
                      nbytes: int) -> Generator:
        """Bruck allgather over an active set (team order)."""
        self._require_init()
        n = aset.pe_size
        me = aset.team_rank(self.rank)
        seq = self._team_seq("coll", aset)
        blocks = {me: self.heap.read(src_addr, nbytes)}
        stages = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        for k in range(stages):
            s = 1 << k
            dst = aset.global_rank((me - s) % n)
            key = ("coll", aset.key(), seq, k)
            total = sum(len(b) for b in blocks.values())
            yield from self._coll_send(
                dst, key, payload=dict(blocks), nbytes=total
            )
            _src, incoming = yield self._chan(key).recv()
            blocks.update(incoming)
        if len(blocks) != n:
            raise ShmemError(
                f"PE {self.rank}: collect gathered {len(blocks)}/{n} blocks"
            )
        for pos in range(n):
            self.heap.write(dst_addr + pos * nbytes, blocks[pos])

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def reduce(self, src_addr: int, dst_addr: int, count: int, dtype,
               op: str = "sum") -> Generator:
        """shmem_*_to_all over all PEs."""
        self._require_init()
        self.counters.add("shmem.reductions")
        yield from self.team_reduce(
            self._world(), src_addr, dst_addr, count, dtype, op
        )

    def team_reduce(self, aset: ActiveSet, src_addr: int, dst_addr: int,
                    count: int, dtype, op: str = "sum") -> Generator:
        """Elementwise reduction over an active set, result everywhere.

        Binary-tree reduce to the first member followed by a tree
        broadcast — the "sparse" collective of Figure 7(b).
        """
        self._require_init()
        try:
            ufunc = _REDUCE_OPS[op]
        except KeyError:
            raise ShmemError(f"unknown reduction op {op!r}") from None
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        seq = self._team_seq("red", aset)
        up = ("red", aset.key(), seq, "up")
        down = ("red", aset.key(), seq, "down")
        parent, children = self._team_tree(aset, 0)

        acc = np.frombuffer(self.heap.read(src_addr, nbytes), dtype=dtype).copy()
        for _ in children:
            _src, data = yield self._chan(up).recv()
            acc = ufunc(acc, np.frombuffer(data, dtype=dtype))
        if parent is not None:
            yield from self._coll_send(
                parent, up, payload=acc.tobytes(), nbytes=nbytes
            )
            _src, result = yield self._chan(down).recv()
        else:
            result = acc.tobytes()
        self.heap.write(dst_addr, result)
        for child in children:
            yield from self._coll_send(child, down, payload=result, nbytes=nbytes)

    def sum_to_all(self, src_addr: int, dst_addr: int, count: int,
                   dtype=np.float64) -> Generator:
        yield from self.reduce(src_addr, dst_addr, count, dtype, "sum")

    def max_to_all(self, src_addr: int, dst_addr: int, count: int,
                   dtype=np.float64) -> Generator:
        yield from self.reduce(src_addr, dst_addr, count, dtype, "max")

    # ------------------------------------------------------------------
    # alltoall
    # ------------------------------------------------------------------
    def alltoall(self, src_addr: int, dst_addr: int, nbytes: int) -> Generator:
        """shmem_alltoall: block i of my source lands in *my* slot of
        member i's destination (``nbytes`` per block)."""
        self._require_init()
        self.counters.add("shmem.alltoalls")
        yield from self.team_alltoall(self._world(), src_addr, dst_addr, nbytes)

    def team_alltoall(self, aset: ActiveSet, src_addr: int, dst_addr: int,
                      nbytes: int) -> Generator:
        """Pairwise-exchange alltoall over an active set.

        Uses non-blocking puts (pipelined round trips) followed by a
        quiet + team barrier — the standard one-sided formulation.
        """
        self._require_init()
        n = aset.pe_size
        me = aset.team_rank(self.rank)
        # Local block: plain copy.
        self.heap.write(
            dst_addr + me * nbytes,
            self.heap.read(src_addr + me * nbytes, nbytes),
        )
        for shift in range(1, n):
            peer_team = (me + shift) % n
            peer = aset.global_rank(peer_team)
            block = self.heap.read(src_addr + peer_team * nbytes, nbytes)
            yield from self.put_nbi(peer, dst_addr + me * nbytes, block)
        yield from self.quiet()
        yield from self.team_barrier(aset)
