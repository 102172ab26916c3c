"""The on-demand conduit: the paper's contribution (Sections IV-A/C/E).

Connection establishment follows Figure 4 exactly:

1. the **client** creates an RC QP (RESET->INIT) and sends a UD
   ``ConnectRequest`` carrying its ``<lid, qpn>`` *plus the upper
   layer's exchange payload* (OpenSHMEM's serialized segment keys);
2. the **server**'s connection-manager (progress process) creates its
   own RC QP, moves it INIT->RTR toward the client, replies with a UD
   ``ConnectReply`` (again piggybacking its payload), then RTR->RTS;
3. the client, on reply, moves INIT->RTR->RTS and flushes queued work.

Robustness (Section IV-A, IV-E):

* UD is lossy: the client retransmits after ``ud_retry_timeout_us``,
  up to ``ud_max_retries`` times; duplicate requests and replies are
  idempotent.
* **Collision** (both sides initiate simultaneously): the lower rank
  stays client; the higher rank abandons its client attempt and serves
  the incoming request reusing the QP it already created.
* **Server not ready** (segments not yet registered because there is
  no global barrier anymore): requests are *held* and served on
  ``mark_ready()``; the client's retransmission covers a lost wake-up.

Connection retirement mirrors establishment in reverse (installed via
:meth:`OnDemandConduit.install_lifecycle`; off by default):

1. a reaper process periodically selects idle/over-cap victims
   (:func:`repro.gasnet.lifecycle.select_victims`);
2. the **initiator** removes the connection from its table (new senders
   transparently wait out the drain, then reconnect through the normal
   ``_connect`` path), quiesces its outstanding WRs under the
   connection lock, and sends a UD ``Disconnect`` with the same
   retry/idempotence discipline as ``ConnectRequest``;
3. the **target** drains its own half the same way, destroys its RC QP
   (releasing the HCA cache slot), and replies ``DisconnectAck`` — the
   ack is cached and retransmittable for the initiator's whole retry
   window, exactly like the ``ConnectReply`` cache;
4. the initiator destroys its QP on ack (or unilaterally after the
   retry budget — the peer's half is swept at finalize, and late
   traffic to the dead QP is NAKed, never written through).

**Disconnect collisions** resolve by the establish rule: the lower rank
stays initiator; the higher rank abandons its own handshake and acks
the peer's *after* finishing its local drain (acking early would let
the peer destroy a QP our in-flight WRs still need).  A
``ConnectRequest`` racing a drain is parked until the drain completes,
then served — reconnect-after-evict, never connect-during-drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..errors import ConduitError, ResourceExhaustedError
from ..ib import CompletionQueue, RCQueuePair
from ..sim import SimEvent, spawn
from .conduit import Conduit, Connection
from .lifecycle import LifecyclePolicy, select_victims
from .messages import ConnectReply, ConnectRequest, Disconnect, DisconnectAck

__all__ = ["OnDemandConduit"]


@dataclass
class _PendingConnect:
    """Client-side state for an in-flight handshake.

    Registered *before* the client's QP exists (QP creation itself
    takes simulated time) so that concurrent senders to the same peer
    always share one handshake.
    """

    event: SimEvent
    qp: Optional[RCQueuePair] = None
    send_cq: Optional[CompletionQueue] = None
    abandoned: bool = False  # collision: peer serves us instead
    #: Flight-recorder span covering this client attempt (or None).
    span: object = None


@dataclass
class _PendingDisconnect:
    """State of one in-flight drain handshake (either role).

    ``done`` fires only at the epilogue, *after* the entry has left
    ``_draining`` — waiters (new senders, shutdown) re-check the tables
    on wake.  ``ack`` (initiator role only) fires when the peer's
    ``DisconnectAck`` arrives or a lost collision abandons the
    handshake; it never outlives the entry's removal ordering rules.
    """

    done: SimEvent
    gen: int
    role: str  # "initiator" | "target"
    ack: Optional[SimEvent] = None
    abandoned: bool = False  # collision: we lost; peer's drain wins
    #: The peer's generation from its Disconnect (collision-loser ack).
    peer_gen: Optional[int] = None
    #: Flight-recorder span covering this drain (or None).
    span: object = None


class OnDemandConduit(Conduit):
    """Connections are made lazily, on first communication."""

    __slots__ = (
        "_pending", "_serving", "_active_serves", "_serves_drained",
        "_draining", "_disc_acks", "_conn_gens", "_evicted_at",
        "_reaper_started", "_reaper_wake",
    )

    mode = "on-demand"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending: Dict[int, _PendingConnect] = {}
        #: Peers we are currently serving (reply possibly in flight).
        self._serving: Dict[int, ConnectReply] = {}
        #: Serves currently executing in the progress process; teardown
        #: must drain them or it races a half-built QP.
        self._active_serves = 0
        self._serves_drained: Optional[SimEvent] = None
        #: Peers whose connection is mid-drain (either role).
        self._draining: Dict[int, _PendingDisconnect] = {}
        #: Cached DisconnectAcks, retransmittable like ConnectReplies.
        self._disc_acks: Dict[int, DisconnectAck] = {}
        #: Per-peer establishment generation (1 on first connect);
        #: stale Disconnect retransmissions carry an older generation
        #: and must not tear down a fresh reconnection.
        self._conn_gens: Dict[int, int] = {}
        #: When each drain completed, for the reconnect-latency metric.
        self._evicted_at: Dict[int, float] = {}
        self._reaper_started = False
        #: Set while the reaper is parked with nothing to watch;
        #: _register_connection fires it so the loop resumes scanning.
        self._reaper_wake: Optional[SimEvent] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> Generator:
        """Drain or abort in-flight handshakes, then tear down.

        Finalize can race the progress engine: a serve spawned for a
        late ConnectRequest builds its RC QP over several simulated
        steps, and sweeping connections mid-build leaves a half-open QP
        nothing ever destroys.  Close first (the progress engine drops
        new requests from here on), abort held requests, wait out any
        client attempts and in-flight serves, then run the QP sweep.
        """
        self._closed = True
        if self._reaper_wake is not None and not self._reaper_wake.triggered:
            # A parked reaper re-checks _closed on wake and exits.
            self._reaper_wake.succeed()
        held, self._held_requests = self._held_requests, []
        if held:
            # Never served now; the senders' retry budgets expired long
            # before finalize's barrier let us get here.
            self.counters.add("conduit.held_dropped_at_close", len(held))
        for pending in list(self._pending.values()):
            if not pending.event.triggered:
                yield pending.event
        # Serves and drain handshakes can re-enter (a parked request
        # adopted mid-drain spawns a fresh serve after this loop last
        # looked), so re-arm with a fresh event on every pass instead
        # of trusting one lazily-created drained event to cover them
        # all.  Every waited event fires only after its table entry is
        # removed, so each pass either blocks or terminates the loop.
        while self._active_serves > 0 or self._draining:
            for pending in list(self._draining.values()):
                if not pending.done.triggered:
                    yield pending.done
            if self._active_serves > 0:
                self._serves_drained = self.sim.event()
                yield self._serves_drained
        self._serves_drained = None
        # The reply/ack caches die with the conduit; their TTL timers
        # are _closed-guarded and must find nothing left to mutate.
        self._serving.clear()
        self._disc_acks.clear()
        yield from super().shutdown()

    def install_lifecycle(self, policy: LifecyclePolicy) -> None:
        """Arm idle-connection reaping (connections never retire
        otherwise).  A disabled policy is not installed at all, so
        every lifecycle code path stays behind ``lifecycle is None``."""
        if not policy.enabled:
            return
        self.lifecycle = policy
        if self._ready and not self._reaper_started:
            self._spawn_reaper()

    def mark_ready(self) -> None:
        super().mark_ready()
        if self.lifecycle is not None and not self._reaper_started:
            self._spawn_reaper()

    def _spawn_reaper(self) -> None:
        self._reaper_started = True
        spawn(self.sim, self._reaper_loop(), name=f"reaper-{self.rank}")

    def _reaper_loop(self) -> Generator:
        """Periodically evict idle / over-cap connections.

        Exits on ``_closed`` so a finished job drains instead of
        ticking forever; victim order is pinned by
        :func:`~repro.gasnet.lifecycle.select_victims`, never by table
        iteration order.
        """
        lc = self.lifecycle
        last_scan = self.sim.now
        while not self._closed:
            if not self._conns and not self._draining:
                # Nothing to watch: park until the next establishment
                # registers.  An idle reaper must not keep ticking —
                # it would hold the event queue open forever after the
                # job's real work has drained.
                self._reaper_wake = self.sim.event()
                yield self._reaper_wake
                self._reaper_wake = None
                if self._closed:
                    return
                last_scan = self.sim.now
            yield self.sim.timeout(lc.scan_interval_us)
            if self._closed:
                return
            if lc.policy == "credit":
                for conn in self._conns.values():
                    if conn.last_used_us <= last_scan and conn.credits > 0:
                        conn.credits -= 1
            last_scan = self.sim.now
            candidates = [
                (peer, conn.last_used_us, conn.credits)
                for peer, conn in self._conns.items()
                if peer not in self._draining
            ]
            for peer in select_victims(self.sim.now, candidates, lc):
                if self._closed:
                    return
                yield from self._disconnect(peer, reason=lc.policy)

    # ------------------------------------------------------------------
    # disconnect: initiator side
    # ------------------------------------------------------------------
    def _disconnect(self, peer: int, reason: str = "idle") -> Generator:
        """Retire the connection to ``peer`` (drain handshake,
        establish in reverse)."""
        if self._closed or peer in self._draining or peer not in self._conns:
            return
        conn = self._conns.pop(peer)
        # The cached ConnectReply (duplicate-request idempotence) names
        # this incarnation's QP; once the drain starts, a request from
        # the peer is a *fresh* establish and must be served anew.
        self._serving.pop(peer, None)
        pending = _PendingDisconnect(
            done=self.sim.event(), ack=self.sim.event(),
            gen=self._conn_gens.get(peer, 0), role="initiator",
        )
        self._draining[peer] = pending
        self.counters.add("conduit.disconnect_requests")
        obs = self.obs
        if obs is not None:
            pending.span = obs.spans.start(
                "conduit.disconnect", f"pe{self.rank}", peer=peer,
                reason=reason, gen=pending.gen,
            )
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "disconnect", peer)
        try:
            # Quiesce: the connection is out of the table, so new
            # posters re-route through ensure_connected and wait out
            # the drain; the lock excludes the poster that is already
            # in, and outstanding WRs complete while the peer's QP is
            # still alive (it destroys only after draining its half).
            yield conn.lock.acquire()
            try:
                yield from self._quiesce(conn)
                acked = yield from self._disconnect_handshake(peer, pending)
                if pending.abandoned:
                    # Lost collision: the peer's handshake retires the
                    # pair; ack as soon as our half is quiesced.  The
                    # ack must not wait for the local destroy —
                    # qp_destroy_us exceeds the UD retry timeout, so
                    # acking late makes the winner retransmit (and,
                    # on a tight budget, time out) on every collision.
                    yield from self._send_disc_ack(
                        peer, pending.peer_gen, span_parent=pending.span
                    )
                yield from self._destroy_drained(peer, conn)
            finally:
                conn.lock.release()
            if pending.abandoned:
                outcome = "collision"
            elif acked:
                outcome = "evicted"
            else:
                self.counters.add("conduit.disconnect_timeouts")
                outcome = "timeout"
            self.counters.add("conduit.evictions")
            if obs is not None and pending.span is not None:
                obs.spans.finish(pending.span, outcome=outcome)
        finally:
            self._evicted_at[peer] = self.sim.now
            self._finish_draining(peer, pending)

    def _quiesce(self, conn: Connection) -> Generator:
        lc = self.lifecycle
        drain_poll = lc.drain_poll_us if lc is not None else 5.0
        while conn.qp._pending:
            yield self.sim.timeout(drain_poll)

    def _disconnect_handshake(
        self, peer: int, pending: "_PendingDisconnect"
    ) -> Generator:
        """Send Disconnect with the ConnectRequest retry discipline;
        returns True when the peer acked."""
        directory = yield from self.resolve_directory()
        dst_ud = directory[peer]
        obs = self.obs
        span_id = pending.span.span_id if pending.span is not None else None
        sends = 0
        for attempt in range(self.cost.ud_max_retries + 1):
            if pending.ack.triggered:
                break
            if self._closed:
                # Finalize has begun: peers drop handshake traffic from
                # here on; fall through to the unilateral destroy.
                break
            msg = Disconnect(
                src_rank=self.rank, gen=pending.gen, attempt=attempt,
                span_id=span_id,
            )
            if attempt < self.cost.ud_max_retries:
                if obs is not None:
                    obs.spans.event(
                        "conduit.ud_disconnect", f"pe{self.rank}",
                        parent=pending.span, peer=peer, attempt=attempt,
                    )
                yield from self._ud_send(dst_ud, msg, msg.nbytes)
                sends += 1
                if sends > 1:
                    self.counters.add("conduit.disconnect_retries")
            # else: final grace wait for an in-flight ack.
            timeout = self.sim.timeout(self.cost.ud_retry_timeout_us)
            which, _value = yield self.sim.any_of([pending.ack, timeout])
            if which is pending.ack:
                break
        return pending.ack.triggered and not pending.abandoned

    def _destroy_drained(self, peer: int, conn: Connection) -> Generator:
        if self.check is not None:
            self.check.on_evict(self.rank, peer, len(conn.qp._pending))
        yield from self.ctx.destroy_qp(conn.qp)

    def _finish_draining(
        self, peer: int, pending: "_PendingDisconnect"
    ) -> None:
        """Epilogue for both roles: remove the entry, then wake waiters
        (strictly in that order — see shutdown's drain loop)."""
        if self._draining.get(peer) is pending:
            del self._draining[peer]
        if not pending.done.triggered:
            pending.done.succeed()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def ensure_connected(self, peer: int) -> Generator:
        if peer == self.rank or self.cluster.same_node(peer, self.rank):
            return
        while True:
            draining = self._draining.get(peer)
            if draining is not None:
                # The previous incarnation is mid-drain: wait it out,
                # then reconnect below (transparent reconnect-after-
                # evict through the normal _connect path).
                yield draining.done
                continue
            if peer in self._conns:
                return
            pending = self._pending.get(peer)
            if pending is not None:
                # Someone on this PE is already connecting: piggyback.
                # Re-check on wake: the attempt may have failed (its
                # event fires then too) — mount our own attempt rather
                # than return unconnected.
                yield pending.event
                continue
            yield from self._connect(peer)
            # Re-validate rather than return: between the connect
            # event firing and this process resuming, the progress
            # loop can have accepted a Disconnect for the *fresh*
            # connection (the peer's reaper raced our establish) and
            # moved it into _draining already.
            continue

    def _connect(self, peer: int) -> Generator:
        ev = self.sim.event()
        pending = _PendingConnect(event=ev)
        self._pending[peer] = pending
        obs = self.obs
        if obs is not None:
            # Root span of this establishment attempt; the server's
            # serve span links back to it via the request's span_id.
            pending.span = obs.spans.start(
                "conduit.connect", f"pe{self.rank}", peer=peer
            )
        if peer in self._serving:
            # Our own progress engine is already serving this peer's
            # request: sending our own request too would cross the
            # handshakes and pair mismatched QPs.  The serve's epilogue
            # wakes our pending event.
            yield ev
            self._finish_connect_span(pending, "served")
            return
        directory = yield from self.resolve_directory()
        dst_ud = directory[peer]
        send_cq = self.ctx.create_cq(f"rc-send-{peer}")
        qp = yield from self._create_rc_qp_backoff(send_cq, peer)
        if pending.span is not None:
            qp.observe(obs.spans, pending.span)
        yield from self.ctx.modify_init(qp)
        if pending.abandoned or ev.triggered or peer in self._conns:
            # While we were creating the QP, our own progress process
            # served (or is serving) the peer's request — the
            # established connection does not use this QP.
            qp.destroy()
            if not ev.triggered:
                if pending.abandoned:
                    # Serve in flight: it wakes this event when done.
                    yield ev
                else:
                    self._finish_superseded(peer, pending)
            if self._pending.get(peer) is pending:
                del self._pending[peer]
            self._finish_connect_span(pending, "superseded")
            return
        pending.qp = qp
        pending.send_cq = send_cq
        self.counters.add("conduit.connect_requests")
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "connect_req", peer)

        req_payload = self._exchange_payload
        req_span_id = (
            pending.span.span_id if pending.span is not None else None
        )
        if self.check is not None:
            self.check.on_connect_request_sent(self.rank, peer)
        sends = 0
        for attempt in range(self.cost.ud_max_retries + 1):
            req = ConnectRequest(
                src_rank=self.rank, rc_addr=qp.address,
                payload=req_payload, attempt=attempt,
                span_id=req_span_id,
            )
            if attempt < self.cost.ud_max_retries:
                if obs is not None:
                    obs.spans.event(
                        "conduit.ud_request", f"pe{self.rank}",
                        parent=pending.span, peer=peer, attempt=attempt,
                    )
                yield from self._ud_send(dst_ud, req, req.nbytes)
                sends += 1
                if sends > 1:
                    # Count actual retransmissions only — neither the
                    # first send nor the final grace pass is a retry.
                    self.counters.add("conduit.connect_retries")
            # else: final grace wait for an in-flight reply.
            timeout = self.sim.timeout(self.cost.ud_retry_timeout_us)
            which, _value = yield self.sim.any_of([ev, timeout])
            if which is ev:
                if peer in self._conns and self._conns[peer].qp is not qp:
                    qp.destroy()  # superseded by a served collision
                # If the reply path connected us it already closed the
                # span "connected"; otherwise a serve won — close it.
                self._finish_connect_span(pending, "served")
                return
            if peer in self._conns:
                # Connected through the serve path without our event
                # (we were not yet in _pending when it looked): adopt.
                qp.destroy()
                self._finish_superseded(peer, pending)
                self._finish_connect_span(pending, "superseded")
                return
        self._finish_connect_span(pending, "failed")
        # Abort cleanly: a failed attempt must not leave a half-open QP
        # behind, nor a forever-untriggered pending event for shutdown
        # (or a piggybacked sender) to wait on.  Remove the entry
        # *before* waking waiters so they re-check a consistent table.
        qp.destroy()
        if self._pending.get(peer) is pending:
            del self._pending[peer]
        if not pending.event.triggered:
            pending.event.succeed()
        raise ConduitError(
            f"PE {self.rank}: connect to {peer} failed after {sends} sends "
            f"({sends - 1} retransmissions)"
        )

    def _finish_connect_span(self, pending: "_PendingConnect",
                             outcome: str) -> None:
        """Close the client span if the reply path has not already."""
        span = pending.span
        if span is not None and span.end_us is None:
            self.obs.spans.finish(span, outcome=outcome)

    def _create_rc_qp_backoff(self, send_cq: CompletionQueue, peer: int):
        """Create an RC QP, riding out transient ENOMEM failures.

        QP-context memory can be (transiently) exhausted under load or
        a fault plan; the conduit retries with bounded exponential
        backoff.  The jitter is a pure function of (rank, peer,
        attempt) — deterministic for the replay tests, yet decorrelated
        across ranks so colliding creators do not retry in lockstep.
        """
        attempt = 0
        while True:
            try:
                qp = yield from self.ctx.create_rc_qp(send_cq, self._recv_cq)
            except ResourceExhaustedError:
                if attempt >= self.cost.qp_create_max_retries:
                    raise ConduitError(
                        f"PE {self.rank}: QP creation toward {peer} still "
                        f"failing after {attempt} backoff retries"
                    ) from None
                self.counters.add("conduit.qp_create_retries")
                yield self._qp_backoff_delay(attempt, peer)
                attempt += 1
            else:
                return qp

    def _qp_backoff_delay(self, attempt: int, peer: int) -> float:
        base = min(
            self.cost.qp_create_backoff_base_us * (1 << attempt),
            self.cost.qp_create_backoff_cap_us,
        )
        # Golden-ratio style hash -> jitter fraction in [0, 1).
        h = (
            (self.rank * 0x9E3779B1)
            ^ (peer * 0x85EBCA77)
            ^ (attempt * 0xC2B2AE35)
        ) & 0xFFFFFFFF
        return base * (1.0 + h / 2.0**32)

    def _finish_superseded(self, peer: int, pending: "_PendingConnect") -> None:
        """Our client attempt lost to a concurrently served connection."""
        if self._pending.get(peer) is pending:
            del self._pending[peer]
        if not pending.event.triggered:
            pending.event.succeed()

    def _on_connect_reply(self, rep: ConnectReply) -> Generator:
        peer = rep.src_rank
        if self.check is not None:
            self.check.on_connect_reply_rx(self.rank, peer)
        pending = self._pending.get(peer)
        if pending is None or peer in self._conns:
            # Duplicate reply (retransmission already handled) -- drop.
            self.counters.add("conduit.dup_replies")
            return
        obs = self.obs
        if obs is not None:
            obs.spans.event(
                "conduit.reply_rx", f"pe{self.rank}",
                parent=pending.span, src=peer,
            )
        yield self.cost.conn_handshake_cpu_us
        yield from self.ctx.modify_rtr(pending.qp, rep.rc_addr)
        yield from self.ctx.modify_rts(pending.qp)
        self._register_connection(peer, pending.qp, pending.send_cq)
        self._deliver_payload(peer, rep.payload)
        del self._pending[peer]
        if obs is not None:
            span = pending.span
            if span is not None:
                obs.metrics.histogram("conduit.handshake_rtt_us").observe(
                    self.sim.now - span.start_us
                )
                if span.end_us is None:
                    obs.spans.finish(span, outcome="connected")
        pending.event.succeed()

    # ------------------------------------------------------------------
    # server side (runs in the progress process)
    # ------------------------------------------------------------------
    def _on_connect_request(self, req: ConnectRequest) -> Generator:
        peer = req.src_rank
        if self._closed:
            # Teardown has begun: serving now would build an RC QP that
            # nothing will ever tear down (the shutdown pass is already
            # past).  A delayed/duplicate request landing this late is
            # legal UD behaviour — drop it; the sender's retry budget
            # has long expired.
            self.counters.add("conduit.dropped_after_close")
            return
        if peer in self._draining:
            # Reconnect racing our drain of the previous incarnation:
            # the drain wins (serving now would pair a fresh QP with a
            # half-dead one).  Park the request and re-enter once the
            # drain completes — every idempotence rule reapplies.
            self.counters.add("conduit.requests_during_drain")
            spawn(
                self.sim,
                self._serve_after_drain(req),
                name=f"parked-req-{self.rank}<-{peer}",
            )
            return
        if peer in self._conns:
            # Lost reply: retransmit idempotently.
            rep = self._serving.get(peer)
            if rep is not None:
                directory = yield from self.resolve_directory()
                yield from self._ud_send(directory[peer], rep, rep.nbytes)
                self.counters.add("conduit.dup_requests")
            return
        if peer in self._serving:
            # Reply in flight; client will retransmit if it was lost.
            self.counters.add("conduit.dup_requests")
            return
        pending = self._pending.get(peer)
        if pending is not None and self.rank < peer:
            # Collision, we are the winner-client: ignore; peer serves us.
            self.counters.add("conduit.collisions_ignored")
            return
        if not self._ready:
            # Hold until our segments are registered (Section IV-E).
            self._held_requests.append(req)
            self.counters.add("conduit.requests_held")
            if self.obs is not None:
                self.obs.spans.event(
                    "conduit.request_held", f"pe{self.rank}",
                    parent=req.span_id, src=peer,
                )
            return
        yield from self._serve(req, pending)

    def _serve_after_drain(self, req: ConnectRequest) -> Generator:
        while True:
            pending = self._draining.get(req.src_rank)
            if pending is None:
                break
            yield pending.done
        if not self._closed:
            yield from self._on_connect_request(req)

    def _serve(
        self, req: ConnectRequest, pending: Optional["_PendingConnect"]
    ) -> Generator:
        """Track the serve so :meth:`shutdown` can drain it."""
        self._active_serves += 1
        try:
            yield from self._do_serve(req, pending)
        finally:
            self._active_serves -= 1
            if self._active_serves == 0 and self._serves_drained is not None:
                self._serves_drained.succeed()
                self._serves_drained = None

    def _do_serve(
        self, req: ConnectRequest, pending: Optional["_PendingConnect"]
    ) -> Generator:
        peer = req.src_rank
        if self._closed and self.check is not None:
            # Unreachable through _on_connect_request (which drops
            # post-close traffic); the sanitizer guards the invariant
            # against regressions on other entry paths.
            self.check.on_serve_after_close(self.rank, peer)
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "serve", peer)
        obs = self.obs
        sspan = None
        if obs is not None:
            # Parented by the client's connect span id carried on the
            # request — the causal link across the simulated wire.
            sspan = obs.spans.start(
                "conduit.serve", f"pe{self.rank}",
                parent=req.span_id, peer=peer,
            )
        # Marker: a serve is in progress (duplicate requests must not
        # spawn a second QP; the eventual reply is retransmittable).
        self._serving[peer] = None
        yield self.cost.conn_handshake_cpu_us
        if pending is not None and pending.qp is not None:
            # Collision, we lost the tie-break: reuse our INIT QP.
            self.counters.add("conduit.collisions_served")
            qp, send_cq = pending.qp, pending.send_cq
            pending.abandoned = True
        else:
            if pending is not None:
                # Collision caught before our client QP even existed.
                self.counters.add("conduit.collisions_served")
                pending.abandoned = True
            send_cq = self.ctx.create_cq(f"rc-send-{peer}")
            qp = yield from self._create_rc_qp_backoff(send_cq, peer)
            if sspan is not None:
                qp.observe(obs.spans, sspan)
            yield from self.ctx.modify_init(qp)
        if sspan is not None:
            # Collision-reuse rebinding included: from here the QP's
            # transitions belong to the serve, not the dead attempt.
            qp.observe(obs.spans, sspan)
        yield from self.ctx.modify_rtr(qp, req.rc_addr)
        rep = ConnectReply(
            src_rank=self.rank, rc_addr=qp.address,
            payload=self._exchange_payload,
            span_id=sspan.span_id if sspan is not None else None,
        )
        self._serving[peer] = rep
        directory = yield from self.resolve_directory()
        if sspan is not None:
            obs.spans.event(
                "conduit.ud_reply", f"pe{self.rank}",
                parent=sspan, peer=peer,
            )
        yield from self._ud_send(directory[peer], rep, rep.nbytes)
        yield from self.ctx.modify_rts(qp)
        self._register_connection(peer, qp, send_cq)
        self._deliver_payload(peer, req.payload)
        if sspan is not None:
            obs.spans.finish(sspan, outcome="connected")
        # The reply stays cached for idempotent retransmission to
        # duplicate requests, but only as long as the client can still
        # be retransmitting; after its full retry budget has elapsed
        # the entry is garbage (the exchange payload it carries is the
        # bulk of it), so evict on a timer instead of leaking one entry
        # per served peer for the lifetime of the job.
        self.sim._schedule_at(
            self.sim.now + self._serving_ttl_us(), self._evict_serving, peer
        )
        # Wake whichever client attempt exists *now* (it may have been
        # created after we sampled `pending` at serve entry).
        latest = self._pending.get(peer)
        if latest is None:
            latest = pending
        if latest is not None:
            latest.abandoned = True
            if self._pending.get(peer) is latest:
                del self._pending[peer]
            if not latest.event.triggered:
                latest.event.succeed()

    def _serving_ttl_us(self) -> float:
        """How long a served reply must stay retransmittable: the
        client's whole retry schedule (sends plus the grace pass) can
        still produce duplicate requests until it gives up."""
        return (self.cost.ud_max_retries + 1) * self.cost.ud_retry_timeout_us

    def _evict_serving(self, peer: int) -> None:
        if self._closed:
            # The timer can outlive the conduit (shutdown already
            # cleared the cache); a closed conduit must not be mutated,
            # nor its counters bumped, after finalize.
            return
        if self._serving.pop(peer, None) is not None:
            self.counters.add("conduit.serving_evicted")

    # ------------------------------------------------------------------
    # disconnect: target side (runs in the progress process)
    # ------------------------------------------------------------------
    def _on_disconnect(self, msg: Disconnect) -> Generator:
        peer = msg.src_rank
        if self._closed:
            self.counters.add("conduit.dropped_after_close")
            return
        pending = self._draining.get(peer)
        if pending is not None:
            if pending.role == "target":
                # Duplicate while the drain is already in progress.
                self.counters.add("conduit.dup_disconnects")
                ack = self._disc_acks.get(peer)
                if ack is not None and ack.gen == msg.gen:
                    # Quiescence already acked but the ack was lost (or
                    # crossed this retransmission): re-ack from the
                    # cache.  Our local destroy still in progress is no
                    # reason to leave the initiator retrying.
                    yield from self._send_disc_ack(
                        peer, msg.gen, span_parent=msg.span_id
                    )
                return
            # Initiator-initiator collision: same rule as establish —
            # the lower rank stays initiator; the higher rank abandons
            # its own handshake and acks the peer's once its local
            # drain finishes (acking early would let the peer destroy
            # a QP our in-flight WRs still need).
            if self.rank < peer:
                self.counters.add("conduit.disconnect_collisions")
                return
            if pending.abandoned:
                self.counters.add("conduit.dup_disconnects")
                return
            self.counters.add("conduit.disconnect_collisions")
            pending.abandoned = True
            pending.peer_gen = msg.gen
            if not pending.ack.triggered:
                pending.ack.succeed()
            return
        conn = self._conns.get(peer)
        if conn is None or msg.gen < self._conn_gens.get(peer, 0):
            # Already torn down (our ack was lost and the initiator is
            # retransmitting), or a stale retransmission from a
            # previous incarnation that must not touch the fresh
            # reconnection: re-ack idempotently, tear down nothing.
            self.counters.add("conduit.dup_disconnects")
            yield from self._send_disc_ack(peer, msg.gen,
                                           span_parent=msg.span_id)
            return
        self._serve_disconnect(peer, conn, msg)

    def _serve_disconnect(
        self, peer: int, conn: Connection, msg: Disconnect
    ) -> None:
        """Start draining our half (establish's serve in reverse).

        The table mutations happen synchronously — the very next
        message the progress loop dispatches must already see the pair
        as draining — but the drain body itself (quiesce + a
        qp_destroy_us far longer than the UD retry timeout) runs in
        its own process: executed inline it would starve the progress
        engine, delaying every unrelated handshake and the very
        Disconnect retransmissions whose ack the initiator is waiting
        for.  Shutdown still waits it out via ``_draining``.
        """
        del self._conns[peer]
        # Same rule as the initiator side: the cached reply for this
        # incarnation dies with it.
        self._serving.pop(peer, None)
        pending = _PendingDisconnect(
            done=self.sim.event(), gen=msg.gen, role="target"
        )
        self._draining[peer] = pending
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "drain", peer)
        obs = self.obs
        if obs is not None:
            pending.span = obs.spans.start(
                "conduit.drain", f"pe{self.rank}", parent=msg.span_id,
                peer=peer, gen=msg.gen,
            )
        spawn(
            self.sim,
            self._drain_as_target(peer, conn, msg, pending),
            name=f"drain-{self.rank}<-{peer}",
        )

    def _drain_as_target(
        self, peer: int, conn: Connection, msg: Disconnect,
        pending: "_PendingDisconnect",
    ) -> Generator:
        obs = self.obs
        try:
            yield self.cost.conn_handshake_cpu_us
            yield conn.lock.acquire()
            try:
                yield from self._quiesce(conn)
                # Ack on quiescence, not on destroy: once our WRs have
                # drained the initiator is free to destroy its half,
                # and our own qp_destroy_us (which exceeds the UD
                # retry timeout) must not stall the ack into the
                # initiator's retransmission schedule.
                yield from self._send_disc_ack(peer, msg.gen,
                                               span_parent=pending.span)
                yield from self._destroy_drained(peer, conn)
            finally:
                conn.lock.release()
            self.counters.add("conduit.evicted_by_peer")
            if obs is not None and pending.span is not None:
                obs.spans.finish(pending.span, outcome="evicted_by_peer")
        finally:
            self._evicted_at[peer] = self.sim.now
            self._finish_draining(peer, pending)

    def _send_disc_ack(self, peer: int, gen: int,
                       span_parent=None) -> Generator:
        ack = self._disc_acks.get(peer)
        if ack is None or ack.gen != gen:
            span_id = getattr(span_parent, "span_id", span_parent)
            ack = DisconnectAck(src_rank=self.rank, gen=gen,
                                span_id=span_id)
            self._disc_acks[peer] = ack
            # Retransmittable for the initiator's whole retry schedule,
            # then garbage: timer-evicted like the ConnectReply cache
            # (and _closed-guarded the same way).
            self.sim._schedule_at(
                self.sim.now + self._serving_ttl_us(),
                self._evict_disc_ack, peer,
            )
        directory = yield from self.resolve_directory()
        if self.obs is not None:
            self.obs.spans.event(
                "conduit.ud_disc_ack", f"pe{self.rank}",
                parent=span_parent, peer=peer,
            )
        yield from self._ud_send(directory[peer], ack, ack.nbytes)

    def _evict_disc_ack(self, peer: int) -> None:
        if self._closed:
            return
        if self._disc_acks.pop(peer, None) is not None:
            self.counters.add("conduit.disc_ack_evicted")

    def _on_disconnect_ack(self, msg: DisconnectAck) -> Generator:
        peer = msg.src_rank
        if self._closed:
            self.counters.add("conduit.dropped_after_close")
            return
        pending = self._draining.get(peer)
        if (
            pending is None
            or pending.role != "initiator"
            or msg.gen != pending.gen
            or pending.ack.triggered
        ):
            # Stale or duplicate ack (UD duplicates/reorders): drop.
            self.counters.add("conduit.dup_disc_acks")
            return
        if self.obs is not None:
            self.obs.spans.event(
                "conduit.disc_ack_rx", f"pe{self.rank}",
                parent=pending.span, src=peer,
            )
        pending.ack.succeed()
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # reconnect bookkeeping
    # ------------------------------------------------------------------
    def _register_connection(self, peer: int, qp, send_cq):
        conn = super()._register_connection(peer, qp, send_cq)
        if self._reaper_wake is not None and not self._reaper_wake.triggered:
            self._reaper_wake.succeed()
        gen = self._conn_gens.get(peer, 0) + 1
        self._conn_gens[peer] = gen
        if gen > 1:
            # Only reachable after an eviction, i.e. with a lifecycle
            # policy somewhere in the job — never on the golden path.
            self.counters.add("conduit.reconnects")
            evicted_at = self._evicted_at.pop(peer, None)
            obs = self.obs
            if obs is not None and evicted_at is not None:
                obs.metrics.histogram(
                    "conduit.reconnect_latency_us"
                ).observe(self.sim.now - evicted_at)
            if self.check is not None:
                self.check.on_reconnect(self.rank, peer)
        return conn
