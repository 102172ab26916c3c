"""Ablation D3 — global vs intra-node barriers during init.

Section IV-E replaces the spec-mandated global ``shmem_barrier_all``
calls inside ``start_pes`` with shared-memory intra-node barriers,
removing both the synchronisation latency and the connections the
global barrier would otherwise force during init.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...apps import HelloWorld
from ...core import RuntimeConfig
from ...exec import run_sweep
from ..runner import ExperimentResult, job_spec
from ..tables import fmt_us

FULL_SIZES = [256, 1024, 4096]
QUICK_SIZES = [128, 512]

MODES = ("global", "intranode")


def run(sizes: Optional[Sequence[int]] = None, quick: bool = True
        ) -> ExperimentResult:
    sizes = list(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    results = run_sweep(
        job_spec(
            HelloWorld(), npes,
            RuntimeConfig(
                connection_mode="ondemand", pmi_mode="nonblocking",
                barrier_mode=mode,
            ),
            testbed="B",
        )
        for npes in sizes
        for mode in MODES
    )
    rows: List[list] = []
    raw = {}
    for idx, npes in enumerate(sizes):
        g = results[2 * idx]
        i = results[2 * idx + 1]
        conns_g = g.resources.mean_connections
        conns_i = i.resources.mean_connections
        raw[npes] = {
            "global_us": g.startup.mean_us,
            "intranode_us": i.startup.mean_us,
            "global_conns": conns_g,
            "intranode_conns": conns_i,
        }
        rows.append([
            npes,
            fmt_us(g.startup.mean_us),
            fmt_us(i.startup.mean_us),
            f"{conns_g:.2f}",
            f"{conns_i:.2f}",
        ])
    return ExperimentResult(
        experiment="Ablation D3",
        title="init barriers: global vs intra-node (on-demand design)",
        columns=["npes", "init (global)", "init (intranode)",
                 "conns@init (global)", "conns@init (intranode)"],
        rows=rows,
        note="global init barriers force connections and serialise on the "
             "PMI exchange; intra-node barriers avoid both",
        extras={"raw": raw},
    )
