"""Figure 1 — breakdown of OpenSHMEM initialisation time, static design.

Paper setup: Cluster-B, 16 processes/node, 128..4K processes, existing
(static + blocking PMI + global barriers) design.  Expected shape:
Connection Setup and PMI Exchange grow with job size and dominate;
Memory Registration / Shared Memory Setup / Other stay ~constant.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...apps import HelloWorld
from ...shmem import (
    PHASE_CONN,
    PHASE_MEMREG,
    PHASE_OTHER,
    PHASE_PMI,
    PHASE_SHM,
)
from ..runner import CURRENT, ExperimentResult, run_job
from ..tables import fmt_us

FULL_SIZES = [128, 256, 512, 1024, 2048, 4096]
QUICK_SIZES = [128, 256, 512]

PHASES = [PHASE_CONN, PHASE_PMI, PHASE_MEMREG, PHASE_SHM, PHASE_OTHER]


def run(sizes: Optional[Sequence[int]] = None, quick: bool = True
        ) -> ExperimentResult:
    sizes = list(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    rows: List[list] = []
    raw = {}
    for npes in sizes:
        result = run_job(HelloWorld(), npes, CURRENT, testbed="B")
        means = result.startup.phase_means
        raw[npes] = means
        rows.append(
            [npes]
            + [fmt_us(means.get(p, 0.0)) for p in PHASES]
            + [fmt_us(result.startup.mean_us)]
        )
    return ExperimentResult(
        experiment="Figure 1",
        title="start_pes breakdown, static design (Cluster-B, 16 ppn)",
        columns=["npes"] + PHASES + ["total"],
        rows=rows,
        note="Connection Setup and PMI Exchange grow with job size; "
             "the other phases are ~constant.",
        extras={"phase_means": raw},
    )
