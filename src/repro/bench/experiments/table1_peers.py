"""Table I — average number of communicating peers per process.

The paper measures BT, EP, MG, SP and 2D-Heat and finds every
application talks to a small subset of its peers (the motivation for
on-demand connections).  EP (reduction-only) is the sparsest; the
stencil/ADI codes sit around 5-10 peers regardless of job size.
"""

from __future__ import annotations

from typing import List, Optional

from ...apps import Heat2D, NasBT, NasEP, NasMG, NasSP
from ...exec import run_sweep
from ..runner import PROPOSED, ExperimentResult, job_spec


def _apps(npes: int, nas_class: str):
    return [
        ("BT", NasBT(nas_class)),
        ("EP", NasEP(nas_class, real_pairs=500)),
        ("MG", NasMG(nas_class, iters=3)),
        ("SP", NasSP(nas_class)),
        ("2DHeat", Heat2D(n=_heat_n(npes), iters=8, check_every=4)),
    ]


def _heat_n(npes: int) -> int:
    # A grid that tiles any near-square process grid we use.
    from ...apps import process_grid

    pr, pc = process_grid(npes)
    base = max(pr, pc)
    return base * 8


def run(npes: Optional[int] = None, nas_class: str = "S", quick: bool = True
        ) -> ExperimentResult:
    npes = npes or (64 if quick else 256)
    rows: List[list] = []
    raw = {}
    config = PROPOSED.evolve(heap_backing_kb=2048)
    apps = _apps(npes, nas_class)
    results = run_sweep(
        job_spec(app, npes, config, testbed="A") for _name, app in apps
    )
    for (name, _app), result in zip(apps, results):
        peers = result.resources.mean_active_peers
        raw[name] = peers
        rows.append([name, npes, f"{peers:.2f}"])
    return ExperimentResult(
        experiment="Table I",
        title=f"average communicating peers per process ({npes} PEs)",
        columns=["application", "npes", "avg peers"],
        rows=rows,
        note="every application uses a small subset of its peers; "
             "EP is the sparsest",
        extras={"peers": raw, "npes": npes},
    )
