"""The static (full wire-up) conduit: the baseline the paper improves on.

During initialisation every PE connects to **all N peers** — the
behaviour of GASNet-ibv and of MVAPICH2-X before this paper.  The cost
and memory of all N queue pairs and connections are charged during
:meth:`StaticConduit.wireup`; the simulator materialises the actual QP
objects lazily on first use (already paid for — see
``VerbsContext.bulk_charge_rc_qps``), because holding 8192 x 8192 QP
objects is infeasible in any simulator while the *timing and resource
accounting* are identical either way.

The static conduit never uses the UD handshake: endpoint information
for all peers is assumed exchanged via PMI during wire-up, which is why
``wireup`` must only be called after the PMI fence completed.
"""

from __future__ import annotations

from typing import Generator

from ..errors import ConduitError
from .conduit import Conduit
from .messages import ConnectReply, ConnectRequest

__all__ = ["StaticConduit"]


class StaticConduit(Conduit):
    """All-to-all connections established at init."""

    __slots__ = ("_prewired",)

    mode = "static"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._prewired = False

    # ------------------------------------------------------------------
    def wireup(self) -> Generator:
        """Create and connect QPs for every peer (charged in bulk).

        Paper Section I: "each process creates N IB endpoints (QPs) and
        connects to all N processes (including itself)".
        """
        if self._ud_directory is None and self._dir_handle is None:
            raise ConduitError(
                f"PE {self.rank}: static wireup requires the PMI endpoint "
                "exchange to have been initiated"
            )
        yield from self.resolve_directory()
        npes = self.cluster.npes
        yield from self.ctx.bulk_charge_rc_qps(npes, connect=True)
        # Per-peer handshake/bookkeeping CPU of the bulk wire-up loop.
        yield npes * self.cost.static_wireup_per_peer_us
        self._prewired = True
        self.counters.add("conduit.static_wireups")

    def teardown_charge(self) -> Generator:
        """Destroy-time for the full QP set (finalize cost)."""
        self._closed = True
        yield from self.ctx.bulk_charge_qp_destroy(self.cluster.npes)
        # The bulk charge pays for every QP, including the lazily
        # materialised ones — destroy those objects too so the HCA's QP
        # table ends the job empty (and the sanitizer can assert it).
        for conn in self._conns.values():
            conn.qp.destroy()
        self._conns.clear()

    # ------------------------------------------------------------------
    def ensure_connected(self, peer: int) -> Generator:
        if peer == self.rank or self.cluster.same_node(peer, self.rank):
            return
        if peer in self._conns:
            return
        if not self._prewired:
            raise ConduitError(
                f"PE {self.rank}: static conduit used before wireup"
            )
        peer_conduit = self.network.peer(peer)
        if not isinstance(peer_conduit, StaticConduit) or not peer_conduit._prewired:
            raise ConduitError(
                f"PE {self.rank}: peer {peer} is not statically wired"
            )
        # Materialise the pre-paid QP pair on both sides, instantly.
        my_cq = self.ctx.create_cq(f"rc-send-{peer}")
        peer_cq = peer_conduit.ctx.create_cq(f"rc-send-{self.rank}")
        my_qp = yield from self.ctx.create_rc_qp(my_cq, self._recv_cq, prepaid=True)
        peer_qp = yield from peer_conduit.ctx.create_rc_qp(
            peer_cq, peer_conduit._recv_cq, prepaid=True
        )
        yield from self.ctx.connect_rc_qp(my_qp, peer_qp.address, prepaid=True)
        yield from peer_conduit.ctx.connect_rc_qp(
            peer_qp, my_qp.address, prepaid=True
        )
        self._register_connection(peer, my_qp, my_cq)
        peer_conduit._register_connection(self.rank, peer_qp, peer_cq)

    # -- the static conduit never sees handshake traffic -----------------
    def _on_connect_request(self, req: ConnectRequest) -> Generator:
        raise ConduitError("static conduit received a connect request")
        yield  # pragma: no cover

    def _on_connect_reply(self, rep: ConnectReply) -> Generator:
        raise ConduitError("static conduit received a connect reply")
        yield  # pragma: no cover
