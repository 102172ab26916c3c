"""Ablation D5 — HCA QP-context cache pressure.

Paper Section I (drawback 3): HCAs cache a limited number of QP
contexts on-board; jobs whose processes keep many connections live pay
a per-message context-fetch penalty.  We drive a fixed communication
pattern whose per-node QP working set exceeds a small cache and sweep
the cache capacity.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from ...core import RuntimeConfig
from ...exec import run_sweep
from ..runner import ExperimentResult, JobSpec
from ..tables import fmt_us
from ...apps.base import Application


class ManyPeerTraffic(Application):
    """Every PE repeatedly messages many distinct cross-node peers."""

    name = "many-peer-traffic"

    def __init__(self, peers: int = 24, rounds: int = 30) -> None:
        self.peers = peers
        self.rounds = rounds

    def run(self, pe) -> Generator:
        buf = pe.shmalloc(256)
        yield from pe.barrier_all()
        targets = [
            (pe.mype + 1 + k * pe.cluster.ppn) % pe.npes
            for k in range(self.peers)
        ]
        targets = [t for t in targets if not pe.cluster.same_node(t, pe.mype)]
        start = pe.sim.now
        for _ in range(self.rounds):
            for t in targets:
                yield from pe.put(t, buf, b"y" * 256)
        elapsed = pe.sim.now - start
        yield from pe.barrier_all()
        return elapsed


def run(cache_sizes: Optional[Sequence[int]] = None, npes: int = 32
        ) -> ExperimentResult:
    cache_sizes = list(cache_sizes) if cache_sizes else [8, 32, 128, 512]
    config = RuntimeConfig.proposed(heap_backing_kb=256)
    results = run_sweep(
        JobSpec(
            app=ManyPeerTraffic(peers=12, rounds=20), npes=npes,
            config=config, testbed="A", ppn=4,
            cost_overrides={"qp_cache_entries": entries},
        )
        for entries in cache_sizes
    )
    rows: List[list] = []
    raw = {}
    for entries, result in zip(cache_sizes, results):
        comm_us = max(result.app_results)
        misses = result.counters.get("hca.qp_cache_misses", 0)
        hits = result.counters.get("hca.qp_cache_hits", 0)
        raw[entries] = (comm_us, misses, hits)
        miss_rate = misses / max(1, misses + hits) * 100.0
        rows.append([entries, fmt_us(comm_us), f"{miss_rate:.1f}%"])
    return ExperimentResult(
        experiment="Ablation D5",
        title=f"communication time vs HCA QP-cache capacity ({npes} PEs)",
        columns=["cache entries", "comm time", "miss rate"],
        rows=rows,
        note="small caches thrash when each node keeps many live QPs — "
             "the scalability drawback motivating fewer connections",
        extras={"raw": raw},
    )
