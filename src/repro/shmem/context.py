"""Per-PE OpenSHMEM state: the :class:`ShmemContext` base.

The full user-facing object is :class:`repro.shmem.runtime.ShmemPE`,
which mixes this state base with the RMA, atomics and collectives
mixins.  Keeping the state here lets each mixin stay a small module.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generator, Optional, Tuple

from ..cluster import Cluster
from ..errors import ShmemError
from ..gasnet import Conduit, SegmentTable
from ..gasnet.segment import SegmentInfo
from ..ib import VerbsContext
from ..pmi import PMIClient
from ..sim import Barrier, Counters, Mailbox, PhaseTimer, Simulator
from .heap import SymmetricHeap

__all__ = ["ShmemContext", "COLL_HANDLER"]

#: AM handler name used by all OpenSHMEM collectives.
COLL_HANDLER = "shmem.coll"


class ShmemContext:
    """State shared by every part of the OpenSHMEM runtime."""

    __slots__ = (
        "sim", "rank", "cluster", "cost", "ctx", "conduit", "pmi",
        "counters", "heap", "heap_region", "segments", "timer", "obs",
        "check", "initialized", "finalized", "node_barrier", "_coll_chan",
        "_coll_seq", "_segrep_waiters",
    )

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        cluster: Cluster,
        ctx: VerbsContext,
        conduit: Conduit,
        pmi: PMIClient,
        counters: Counters,
    ) -> None:
        self.sim = sim
        self.rank = rank
        self.cluster = cluster
        self.cost = cluster.cost
        self.ctx = ctx
        self.conduit = conduit
        self.pmi = pmi
        self.counters = counters

        self.heap: Optional[SymmetricHeap] = None
        self.heap_region = None
        self.segments = SegmentTable(rank)
        self.timer = PhaseTimer(sim)
        #: Flight recorder (repro.obs.Observability); the Job installs
        #: it when observing, None otherwise (one predicate per site).
        self.obs = None
        #: Invariant sanitizer (installed by ``Job(check=...)``).
        self.check = None
        self.initialized = False
        self.finalized = False

        #: Node-level shared-memory barrier (installed by the Job).
        self.node_barrier: Optional[Barrier] = None

        # Collective plumbing: per-key mailboxes + per-kind sequence
        # numbers (collective calls are globally ordered, so the same
        # sequence is generated on every PE).
        self._coll_chan: Dict[tuple, Mailbox] = {}
        self._coll_seq: Dict[str, int] = defaultdict(int)
        conduit.register_handler(COLL_HANDLER, self._on_coll_message)

        # Separate (non-piggybacked) segment exchange — the baseline
        # behaviour the paper's Section IV-B calls inefficiency #2;
        # kept for the D1 ablation.
        self._segrep_waiters: Dict[int, object] = {}
        conduit.register_handler("shmem.segreq", self._on_segreq)
        conduit.register_handler("shmem.segrep", self._on_segrep)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def npes(self) -> int:
        """shmem_n_pes()."""
        return self.cluster.npes

    @property
    def mype(self) -> int:
        """shmem_my_pe()."""
        return self.rank

    def _require_init(self) -> None:
        if not self.initialized:
            raise ShmemError(f"PE {self.rank}: OpenSHMEM not initialised")

    # ------------------------------------------------------------------
    # symmetric allocation
    # ------------------------------------------------------------------
    def shmalloc(self, size: int) -> int:
        """Symmetric allocation (must be called symmetrically on all PEs)."""
        self._require_init()
        addr = self.heap.shmalloc(size)
        if self.check is not None:
            self.check.on_shmalloc(self.rank, addr, size)
        return addr

    def shfree(self, addr: int) -> None:
        self._require_init()
        self.heap.shfree(addr)

    def view(self, addr: int, dtype, count: int):
        """Typed local view of symmetric memory (for computation)."""
        self._require_init()
        return self.heap.view(addr, dtype, count)

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def _translate(self, peer: int, addr: int) -> Tuple[int, int]:
        """Map a local symmetric address to (remote_addr, rkey) at peer."""
        seg = self.segments.get(peer)[0]
        return seg.translate(addr, self.heap.base), seg.rkey

    def _ensure_peer(self, peer: int) -> Generator:
        """Connect (if needed) and guarantee segment info for ``peer``."""
        if not (0 <= peer < self.npes):
            raise ShmemError(f"PE {self.rank}: invalid target PE {peer}")
        if not self.segments.knows(peer):
            yield from self.conduit.ensure_connected(peer)
            if not self.segments.knows(peer):
                if getattr(self.config, "piggyback_segments", True):
                    raise ShmemError(
                        f"PE {self.rank}: no segment info for {peer} after "
                        "connection (exchange payload missing?)"
                    )
                yield from self._request_segments(peer)

    # -- separate segment exchange (baseline / ablation D1) -------------
    def _request_segments(self, peer: int) -> Generator:
        ev = self._segrep_waiters.get(peer)
        if ev is None:
            ev = self.sim.event()
            self._segrep_waiters[peer] = ev
            yield from self.conduit.am_send(
                peer, "shmem.segreq", data=None, data_bytes=8
            )
        if not self.segments.knows(peer):
            yield ev
        self.counters.add("shmem.separate_seg_exchanges")

    def _on_segreq(self, src: int, _data) -> Generator:
        from ..gasnet.segment import encode_segments

        region = self.heap_region
        blob = encode_segments(
            [SegmentInfo(addr=region.addr, size=region.size,
                         rkey=region.rkey)]
        )
        # Reply over the already-established connection (safe: the
        # requester only asks after connecting).
        yield from self.conduit.am_send(
            src, "shmem.segrep", data=blob, data_bytes=len(blob)
        )

    def _on_segrep(self, src: int, blob: bytes) -> None:
        from ..gasnet.segment import decode_segments

        self.segments.put(src, decode_segments(blob))
        ev = self._segrep_waiters.pop(src, None)
        if ev is not None and not ev.triggered:
            ev.succeed()

    def _install_own_segments(self) -> None:
        """Record our own heap segment (self-targeted RMA)."""
        region = self.heap_region
        self.segments.put(
            self.rank,
            [SegmentInfo(addr=region.addr, size=region.size, rkey=region.rkey)],
        )

    # ------------------------------------------------------------------
    # collective channels
    # ------------------------------------------------------------------
    def _chan(self, key: tuple) -> Mailbox:
        mbox = self._coll_chan.get(key)
        if mbox is None:
            mbox = Mailbox(self.sim, name=f"coll-{self.rank}-{key}")
            self._coll_chan[key] = mbox
        return mbox

    def _on_coll_message(self, src: int, data) -> None:
        key, payload = data
        self._chan(key).send((src, payload))

    def _next_seq(self, kind: str) -> int:
        seq = self._coll_seq[kind]
        self._coll_seq[kind] += 1
        return seq

    def _coll_send(self, peer: int, key: tuple, payload=None,
                   nbytes: int = 0) -> Generator:
        yield from self.conduit.am_send(
            peer, COLL_HANDLER, data=(key, payload), data_bytes=nbytes
        )
