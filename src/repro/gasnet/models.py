"""Closed-form conduit cost models (macro phase layer).

:func:`finalize_model` models the on-demand design's finalize (a
rank-tree barrier whose cross-node edges connect lazily through the
Figure-4 UD handshake, then a QP sweep).  This is a **lossless-UD
model**: it reproduces the exact engine's event structure assuming no
UD drops, no duplicates and an idle progress engine, which holds in
expectation but not per-seed (``ud_loss_probability`` is small yet
nonzero).  It feeds the modeled ``wall_time_us`` of macro on-demand
runs and the modeled finalize counters; the equivalence fixtures
assert neither (see DESIGN.md, "Analytical phase models").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..cluster import Cluster
from ..cluster.params import CostModel
from .messages import AM_HEADER_BYTES, CONNECT_HEADER_BYTES
from .segment import SegmentInfo, encode_segments

__all__ = ["exchange_payload_bytes", "finalize_model"]


def exchange_payload_bytes(heap_region_size: int) -> int:
    """Size of the piggybacked segment blob every on-demand handshake
    carries (one :class:`~repro.gasnet.segment.SegmentInfo` per PE)."""
    return len(encode_segments([
        SegmentInfo(addr=0, size=heap_region_size, rkey=1)
    ]))


def _rc_rtt_us(cost: CostModel, nbytes: int, hops: int) -> Tuple[float, float]:
    """(sender_block, mailbox_arrival) deltas of one RC active message
    on a warm connection: post, wire, remote handler; the ack ride
    back releases the sender (lossless, idle progress engine)."""
    wire = cost.wire_time(nbytes, hops)
    ack = cost.wire_time(AM_HEADER_BYTES, hops)
    arrival = cost.post_wr_us + wire + cost.am_handler_cpu_us
    block = cost.post_wr_us + wire + ack + cost.poll_cq_us
    return block, arrival


def _intra_am_us(cost: CostModel, nbytes: int) -> Tuple[float, float]:
    """(sender_block, mailbox_arrival) of one same-node active message
    (``Conduit._intra_deliver``: post, shared-memory hop, handler)."""
    arrival = (cost.post_wr_us + cost.intra_node_time(nbytes)
               + cost.am_handler_cpu_us)
    return cost.post_wr_us, arrival


def _connect_us(cost: CostModel, hops: int, payload: int) -> float:
    """Client-observed latency of one Figure-4 handshake (lossless):
    client QP to INIT, UD request, serve (QP to RTR + UD reply),
    client RTR→RTS.  Both directories are assumed resolved."""
    msg = CONNECT_HEADER_BYTES + payload
    ud_flight = cost.post_wr_us + cost.wire_time(msg, hops)
    client_setup = cost.rc_qp_create_us + cost.qp_modify_init_us
    serve = (cost.conn_handshake_cpu_us + cost.rc_qp_create_us
             + cost.qp_modify_init_us + cost.qp_modify_rtr_us)
    client_finish = (cost.conn_handshake_cpu_us + cost.qp_modify_rtr_us
                     + cost.qp_modify_rts_us)
    return client_setup + ud_flight + serve + ud_flight + client_finish


def finalize_model(
    cluster: Cluster,
    enter_times: Sequence[float],
    dir_release: Sequence[float],
    payload_bytes: int,
) -> Tuple[List[float], Dict[str, int]]:
    """Model the on-demand finalize: barrier_all + shutdown sweep.

    ``enter_times[r]`` is when PE ``r`` enters ``finalize`` (its app
    completion); ``dir_release[node]`` is when the PMI allgather
    releases that node's clients (``resolve_directory`` blocks on it at
    the first cross-node send).  Returns per-PE completion times and
    the modeled finalize counter deltas.

    The barrier is the binary rank tree of
    :func:`repro.shmem.collectives.tree_parent_children` (root 0,
    world team): gather up, broadcast down.  Cross-node edges pay one
    lazy connect on first use (both sides of the edge register a
    connection); down-phase traffic reuses it.  The sweep then destroys
    every RC connection plus the UD QP.
    """
    cost = cluster.cost
    npes = cluster.npes
    am = AM_HEADER_BYTES  # barrier AMs carry no payload
    ready = list(enter_times)  # when each PE may send its up message
    nconns = [0] * npes
    counters: Dict[str, int] = {
        "shmem.barriers": npes,
        "conduit.am_sent": 0,
        "conduit.intra_am": 0,
        "conduit.connect_requests": 0,
        "conduit.connections": 0,
    }

    def children_of(rank: int) -> List[int]:
        first = 2 * rank + 1
        return [c for c in (first, first + 1) if c < npes]

    # Up phase: reverse rank order visits children before parents.
    for rank in range(npes - 1, 0, -1):
        parent = (rank - 1) // 2
        counters["conduit.am_sent"] += 1
        if cluster.same_node(rank, parent):
            counters["conduit.intra_am"] += 1
            _block, arrival = _intra_am_us(cost, am)
            arrive = ready[rank] + arrival
        else:
            hops = cluster.hops(rank, parent)
            # Lazy connect: the client waits for its node's directory,
            # the server side resolves its own before replying.
            t = ready[rank]
            t = max(t, dir_release[cluster.node_of(rank)],
                    dir_release[cluster.node_of(parent)])
            t += _connect_us(cost, hops, payload_bytes)
            counters["conduit.connect_requests"] += 1
            counters["conduit.connections"] += 2
            nconns[rank] += 1
            nconns[parent] += 1
            _block, arrival = _rc_rtt_us(cost, am, hops)
            arrive = t + arrival
        if arrive > ready[parent]:
            ready[parent] = arrive

    # Down phase: each PE forwards to its children sequentially (the
    # sender blocks per send: post + ack for RC, post for intra).
    exit_at = [0.0] * npes
    exit_at[0] = ready[0]
    for rank in range(npes):
        t = exit_at[rank]
        for child in children_of(rank):
            counters["conduit.am_sent"] += 1
            if cluster.same_node(rank, child):
                counters["conduit.intra_am"] += 1
                block, arrival = _intra_am_us(cost, am)
            else:
                hops = cluster.hops(rank, child)
                block, arrival = _rc_rtt_us(cost, am, hops)
            exit_at[child] = t + arrival
            t += block
        exit_at[rank] = t

    # Shutdown sweep: every registered RC connection plus the UD QP.
    done = [
        exit_at[r] + (nconns[r] + 1) * cost.qp_destroy_us
        for r in range(npes)
    ]
    return done, counters
