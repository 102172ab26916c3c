"""Queue pairs: UD (unreliable datagram) and RC (reliable connected).

Methods here mutate protocol state and inject packets; they do **not**
charge CPU time — the :mod:`repro.ib.verbs` facade charges posting and
state-transition costs so that the cost model stays in one place.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..errors import QPStateError, RemoteAccessError, VerbsError
from .cq import CompletionQueue
from .types import EndpointAddress, Opcode, Packet, QPState, QPType, WCStatus, WorkCompletion

if TYPE_CHECKING:  # pragma: no cover
    from .hca import HCA

__all__ = ["UDQueuePair", "RCQueuePair"]

_token_counter = itertools.count(1)


class _QueuePairBase:
    """State shared by both transports."""

    __slots__ = (
        "hca", "sim", "send_cq", "recv_cq", "owner_rank", "qpn", "state",
        "destroyed",
    )

    is_rc = False

    def __init__(
        self,
        hca: "HCA",
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        owner_rank: int,
    ) -> None:
        self.hca = hca
        self.sim = hca.sim
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.owner_rank = owner_rank
        self.qpn = hca.alloc_qpn()
        self.state = QPState.RESET
        self.destroyed = False
        hca.register_qp(self)

    @property
    def address(self) -> EndpointAddress:
        """The ``<lid, qpn>`` tuple peers need to reach this QP."""
        return EndpointAddress(lid=self.hca.lid, qpn=self.qpn)

    def _require(self, *states: QPState) -> None:
        if self.state not in states:
            detail = (
                f"QP {self.qpn} (PE {self.owner_rank}) is {self.state.value}, "
                f"needs {'/'.join(s.value for s in states)}"
            )
            check = self.hca.check
            if check is not None:
                # Raises InvariantViolation under a strict plan; if it
                # returns, fall through to the legacy error so the
                # illegal operation never proceeds.
                check.on_qp_state_error(self, states, detail)
            raise QPStateError(detail)

    def destroy(self) -> None:
        check = self.hca.check
        if self.destroyed:
            # Legacy behaviour tolerates the redundant call silently
            # (the QP table pop was already a no-op); the sanitizer
            # flags it.
            if check is not None:
                check.on_qp_double_destroy(self)
            return
        self.destroyed = True
        if check is not None:
            check.on_qp_destroy(self)
        self.hca.destroy_qp(self.qpn)
        self.state = QPState.ERROR


class UDQueuePair(_QueuePairBase):
    """Connection-less transport: one QP reaches every peer.

    Unreliable: the fabric may drop or duplicate datagrams; senders get
    a local completion as soon as the packet leaves (no ACK), so upper
    layers must implement their own retry (the on-demand conduit does).
    """

    __slots__ = ()

    qp_type = QPType.UD

    def activate(self) -> None:
        """UD has no remote: INIT->RTR->RTS collapses into activation."""
        self._require(QPState.RESET)
        self.state = QPState.RTS

    def post_send(
        self,
        dst: EndpointAddress,
        payload: object,
        nbytes: int,
        wr_id: int = 0,
    ) -> None:
        self._require(QPState.RTS)
        if nbytes > self.hca.cost.ud_mtu_bytes:
            raise VerbsError(
                f"UD payload {nbytes}B exceeds MTU "
                f"{self.hca.cost.ud_mtu_bytes}B"
            )
        packet = Packet(
            kind="ud",
            dst_lid=dst.lid,
            dst_qpn=dst.qpn,
            src_lid=self.hca.lid,
            src_qpn=self.qpn,
            nbytes=nbytes,
            payload=payload,
        )
        self.hca.fabric.transmit(self.hca, packet, unreliable=True)
        # UD send completes locally once the datagram is on the wire.
        self.send_cq.push(
            WorkCompletion(wr_id=wr_id, opcode=Opcode.SEND, byte_len=nbytes)
        )

    def handle(self, packet: Packet) -> None:
        if self.state is not QPState.RTS:
            self.hca.counters.add("ud.dropped_not_ready")
            return
        self.recv_cq.push(
            WorkCompletion(
                wr_id=0,
                opcode=Opcode.RECV,
                byte_len=packet.nbytes,
                src_qpn=packet.src_qpn,
                src_addr=EndpointAddress(packet.src_lid, packet.src_qpn),
                data=packet.payload,
            )
        )


class RCQueuePair(_QueuePairBase):
    """Reliable connected transport: RDMA, atomics, exactly-once."""

    __slots__ = ("remote", "_pending", "_obs", "_obs_delivered")

    qp_type = QPType.RC
    is_rc = True

    def __init__(self, hca, send_cq, recv_cq, owner_rank) -> None:
        super().__init__(hca, send_cq, recv_cq, owner_rank)
        self.remote: Optional[EndpointAddress] = None
        #: Outstanding requests awaiting ack/response: token -> (wr_id, opcode).
        self._pending: Dict[int, Tuple[int, Opcode]] = {}
        #: Flight-recorder binding: (SpanTracer, parent Span) or None.
        #: Bound by the conduit during a handshake so QP transitions
        #: land in the establishment's causal tree.
        self._obs: Optional[Tuple[object, object]] = None
        self._obs_delivered = False

    # -- observation --------------------------------------------------------
    def observe(self, spans, parent) -> None:
        """Bind this QP's transitions to ``parent`` on ``spans``.

        Rebinding (e.g. a collision-lost client QP adopted by the
        serve path) only switches the parent; the initial-state event
        is emitted once, at first bind.
        """
        first = self._obs is None
        self._obs = (spans, parent)
        if first:
            spans.event(
                f"qp.{self.state.value}", f"pe{self.owner_rank}",
                parent=parent, qpn=self.qpn,
            )

    def _obs_transition(self) -> None:
        spans, parent = self._obs
        spans.event(
            f"qp.{self.state.value}", f"pe{self.owner_rank}",
            parent=parent, qpn=self.qpn,
        )

    # -- state machine ------------------------------------------------------
    def modify_to_init(self) -> None:
        self._require(QPState.RESET)
        self.state = QPState.INIT
        if self._obs is not None:
            self._obs_transition()

    def modify_to_rtr(self, remote: EndpointAddress) -> None:
        self._require(QPState.INIT)
        self.remote = remote
        self.state = QPState.RTR
        if self._obs is not None:
            self._obs_transition()

    def modify_to_rts(self) -> None:
        self._require(QPState.RTR)
        self.state = QPState.RTS
        if self._obs is not None:
            self._obs_transition()

    def destroy(self) -> None:
        super().destroy()
        if self._obs is not None:
            spans, parent = self._obs
            spans.event(
                "qp.destroy", f"pe{self.owner_rank}",
                parent=parent, qpn=self.qpn,
            )
            self._obs = None

    # -- posting ---------------------------------------------------------------
    def _transmit(self, kind: str, nbytes: int, **fields) -> None:
        assert self.remote is not None
        penalty = self.hca.touch_qp_cache(self.qpn)
        packet = Packet(
            kind=kind,
            dst_lid=self.remote.lid,
            dst_qpn=self.remote.qpn,
            src_lid=self.hca.lid,
            src_qpn=self.qpn,
            nbytes=nbytes,
            **fields,
        )
        if penalty > 0.0:
            self.sim._schedule_at(self.sim.now + penalty, self._inject, packet)
        else:
            self.hca.fabric.transmit(self.hca, packet)

    def _inject(self, packet: Packet) -> None:
        """Delayed transmit continuation (QP-cache-miss penalty path)."""
        self.hca.fabric.transmit(self.hca, packet)

    def _track(self, wr_id: int, opcode: Opcode) -> int:
        token = next(_token_counter)
        self._pending[token] = (wr_id, opcode)
        check = self.hca.check
        if check is not None:
            check.on_wr_posted(self, token)
        return token

    def post_send(self, payload: object, nbytes: int, wr_id: int = 0) -> None:
        """Two-sided send; remote gets a recv completion with the payload."""
        self._require(QPState.RTS)
        token = self._track(wr_id, Opcode.SEND)
        self._transmit("send", nbytes, payload=payload, token=token)

    def post_rdma_write(
        self, data: bytes, raddr: int, rkey: int, wr_id: int = 0
    ) -> None:
        self._require(QPState.RTS)
        token = self._track(wr_id, Opcode.RDMA_WRITE)
        self._transmit(
            "rdma_write", len(data), payload=data, raddr=raddr, rkey=rkey,
            token=token,
        )

    def post_rdma_read(
        self, nbytes: int, raddr: int, rkey: int, wr_id: int = 0
    ) -> None:
        self._require(QPState.RTS)
        token = self._track(wr_id, Opcode.RDMA_READ)
        # Read request itself is a small control packet.
        self._transmit(
            "rdma_read_req", 32, raddr=raddr, rkey=rkey, token=token,
            swap_or_add=nbytes,
        )

    def post_atomic(
        self,
        op: str,
        raddr: int,
        rkey: int,
        compare: int = 0,
        swap_or_add: int = 0,
        wr_id: int = 0,
    ) -> None:
        self._require(QPState.RTS)
        opcode = (
            Opcode.ATOMIC_FETCH_ADD if op == "fetch_add" else Opcode.ATOMIC_CMP_SWAP
        )
        token = self._track(wr_id, opcode)
        self._transmit(
            "atomic_req", 40, raddr=raddr, rkey=rkey, token=token,
            compare=compare, swap_or_add=swap_or_add,
            payload=op,
        )

    # -- arrival ------------------------------------------------------------------
    def _reply(self, kind: str, nbytes: int, token: int, payload=None) -> None:
        """Send an ack/response back to the connected peer."""
        self._transmit(kind, nbytes, token=token, payload=payload)

    def _nak(self, packet: Packet, exc: RemoteAccessError) -> None:
        """Inbound RDMA/atomic hit a revoked or unknown rkey.

        Mirrors IBV: the target NAKs and the requester's WR completes
        with a remote-access error status — the simulation does not
        crash and no stale view is read through.  The sanitizer (when
        armed) additionally reports the access at the point of damage.
        """
        self.hca.counters.add("rc.remote_access_naks")
        check = self.hca.check
        if check is not None:
            check.on_remote_access_error(self, packet.rkey, str(exc))
        self._reply("nak", 16, packet.token, payload=str(exc))

    #: Redelivery delay when a packet reaches a QP that is not yet RTR
    #: (models the RNR/retry behaviour of real RC hardware: the sender's
    #: HCA retransmits until the receiver is ready).
    RNR_RETRY_US = 25.0

    def handle(self, packet: Packet) -> None:
        if self.state is QPState.INIT:
            self.hca.counters.add("rc.rnr_retries")
            if self._obs is not None:
                spans, parent = self._obs
                spans.event(
                    "rc.rnr_retry", f"pe{self.owner_rank}",
                    parent=parent, qpn=self.qpn, kind=packet.kind,
                )
            self.sim._schedule_at(
                self.sim.now + self.RNR_RETRY_US, self.handle, packet
            )
            return
        if self.state is QPState.ERROR:
            # An RNR redelivery (scheduled above while we were INIT) can
            # race with QP teardown: a collision-losing client destroys
            # its half-connected QP while the delayed ``handle`` is
            # still in flight.  Real HCAs silently drop traffic for a
            # dead QP; raising here would crash the simulation on a
            # perfectly legal protocol interleaving.
            self.hca.counters.add("rc.dropped_dead_qp")
            return
        if self.state not in (QPState.RTR, QPState.RTS):
            raise QPStateError(
                f"RC QP {self.qpn} (PE {self.owner_rank}) got {packet.kind} "
                f"while {self.state.value}"
            )
        if self._obs is not None and not self._obs_delivered:
            # The first packet this RC QP delivers: the tail of the
            # acceptance chain (handshake -> ... -> first RC delivery).
            self._obs_delivered = True
            spans, parent = self._obs
            spans.event(
                "rc.first_delivery", f"pe{self.owner_rank}",
                parent=parent, qpn=self.qpn, kind=packet.kind,
            )
        cost = self.hca.cost
        if packet.kind == "send":
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=0,
                    opcode=Opcode.RECV,
                    byte_len=packet.nbytes,
                    src_qpn=packet.src_qpn,
                    src_addr=EndpointAddress(packet.src_lid, packet.src_qpn),
                    data=packet.payload,
                )
            )
            self._reply("ack", 16, packet.token)
        elif packet.kind == "rdma_write":
            try:
                region, mm = self.hca.memory_target(packet.rkey)
                mm.rdma_write(packet.raddr, packet.rkey, packet.payload)
            except RemoteAccessError as exc:
                self._nak(packet, exc)
            else:
                self._reply("ack", 16, packet.token)
        elif packet.kind == "rdma_read_req":
            try:
                region, mm = self.hca.memory_target(packet.rkey)
                data = mm.rdma_read(
                    packet.raddr, packet.rkey, packet.swap_or_add
                )
            except RemoteAccessError as exc:
                self._nak(packet, exc)
            else:
                self._reply(
                    "rdma_read_resp", len(data), packet.token, payload=data
                )
        elif packet.kind == "atomic_req":
            try:
                region, mm = self.hca.memory_target(packet.rkey)
                old = mm.atomic(
                    packet.raddr, packet.rkey, packet.payload,
                    packet.compare, packet.swap_or_add,
                )
            except RemoteAccessError as exc:
                self._nak(packet, exc)
            else:
                self._reply("atomic_resp", 16, packet.token, payload=old)
        elif packet.kind in ("ack", "rdma_read_resp", "atomic_resp", "nak"):
            try:
                wr_id, opcode = self._pending.pop(packet.token)
            except KeyError:
                check = self.hca.check
                if check is not None:
                    check.on_unmatched_completion(
                        self, packet.kind, packet.token
                    )
                raise VerbsError(
                    f"RC QP {self.qpn}: unmatched {packet.kind} "
                    f"token={packet.token}"
                ) from None
            check = self.hca.check
            if packet.kind == "nak":
                # Remote-access failure at the target: surface as an
                # error completion at the requester (IBV maps a remote
                # access NAK to IBV_WC_REM_ACCESS_ERR).
                if check is not None:
                    check.on_wr_errored(self, packet.token)
                self.send_cq.push(
                    WorkCompletion(
                        wr_id=wr_id,
                        opcode=opcode,
                        status=WCStatus.REMOTE_ACCESS_ERROR,
                        byte_len=0,
                        data=packet.payload,
                    )
                )
                return
            if check is not None:
                check.on_wr_completed(self, packet.token)
            self.send_cq.push(
                WorkCompletion(
                    wr_id=wr_id,
                    opcode=opcode,
                    byte_len=packet.nbytes,
                    data=packet.payload,
                )
            )
        else:  # pragma: no cover - protocol exhaustiveness guard
            raise VerbsError(f"RC QP: unknown packet kind {packet.kind!r}")
