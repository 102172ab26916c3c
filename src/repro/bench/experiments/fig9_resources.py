"""Figure 9 — endpoints created per process: measured and projected.

Paper: per-process endpoint (QP) counts for 2DHeat/BT/EP/MG/SP at
64/256/1024 processes under the on-demand design, with a linear
regression projecting 4,096; the static design always creates N
endpoints per process, so at 1,024 PEs the reduction exceeds 90%.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...apps import Heat2D, NasBT, NasEP, NasMG, NasSP
from ...exec import run_sweep
from ..regression import project
from ..runner import PROPOSED, ExperimentResult, job_spec

FULL_SIZES = [64, 256, 1024]
QUICK_SIZES = [32, 128]
PROJECT_AT = 4096


def _apps(npes: int):
    from ...apps import process_grid

    pr, pc = process_grid(npes)
    heat_n = max(pr, pc) * 8
    return [
        ("2DHeat", Heat2D(n=heat_n, iters=6, check_every=3)),
        ("BT", NasBT("S")),
        ("EP", NasEP("S", real_pairs=300)),
        ("MG", NasMG("S", iters=3)),
        ("SP", NasSP("S")),
    ]


def run(sizes: Optional[Sequence[int]] = None, quick: bool = True
        ) -> ExperimentResult:
    sizes = list(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    config = PROPOSED.evolve(heap_backing_kb=2048)
    grid = [(npes, name, app) for npes in sizes for name, app in _apps(npes)]
    results = run_sweep(
        job_spec(app, npes, config, testbed="A") for npes, name, app in grid
    )
    per_app: Dict[str, Dict[int, float]] = {}
    reductions: Dict[str, float] = {}
    for (npes, name, _app), result in zip(grid, results):
        endpoints = result.resources.mean_endpoints
        per_app.setdefault(name, {})[npes] = endpoints
        # Static design would create N endpoints per process.
        reductions[name] = (1.0 - endpoints / npes) * 100.0

    rows: List[list] = []
    largest = max(sizes)
    for name, series in per_app.items():
        xs = sorted(series)
        ys = [series[x] for x in xs]
        projected = project(xs, ys, PROJECT_AT) if len(xs) >= 2 else float("nan")
        rows.append(
            [name]
            + [f"{series[x]:.1f}" for x in xs]
            + [f"{projected:.1f}", f"{reductions[name]:.1f}%"]
        )
    return ExperimentResult(
        experiment="Figure 9",
        title="endpoints created per process, on-demand design (Cluster-A)",
        columns=(
            ["application"]
            + [f"{n} PEs" for n in sorted(sizes)]
            + [f"{PROJECT_AT} (projected)", f"reduction @ {largest}"]
        ),
        rows=rows,
        note="static design creates N endpoints/process; paper reports "
             ">90% reduction at 1024 PEs",
        extras={"series": per_app, "reductions": reductions},
    )
