"""Figure 2 — qualitative summary radar (derived, not measured anew).

The paper's radar chart claims the proposed design improves resource
usage and startup time dramatically and application execution time
moderately.  We regenerate the three axes from small measured runs and
normalise each axis to the current design ( = 1.0, closer to the
centre is better).
"""

from __future__ import annotations

from typing import Optional

from ...apps import HelloWorld, NasBT
from ..runner import CURRENT, PROPOSED, ExperimentResult, run_job


def run(npes: int = 64, startup_npes: Optional[int] = None,
        quick: bool = True) -> ExperimentResult:
    startup_npes = startup_npes or (512 if quick else 1024)
    hello_cur = run_job(HelloWorld(), startup_npes, CURRENT, testbed="B")
    hello_prop = run_job(HelloWorld(), startup_npes, PROPOSED, testbed="B")
    bt_cur = run_job(NasBT("S"), npes,
                     CURRENT.evolve(heap_backing_kb=2048), testbed="A")
    bt_prop = run_job(NasBT("S"), npes,
                      PROPOSED.evolve(heap_backing_kb=2048), testbed="A")

    axes = {
        "Startup Time": (
            hello_prop.startup.mean_us / hello_cur.startup.mean_us
        ),
        "Resource Usage": (
            bt_prop.resources.mean_endpoints
            / max(1.0, bt_cur.resources.mean_endpoints)
        ),
        "Execution Time": bt_cur and (
            bt_prop.wall_time_us / bt_cur.wall_time_us
        ),
    }
    rows = [
        [axis, "1.00", f"{value:.2f}"] for axis, value in axes.items()
    ]
    return ExperimentResult(
        experiment="Figure 2",
        title="summary radar: normalised metrics (lower is better)",
        columns=["axis", "current", "proposed"],
        rows=rows,
        note="large gains on resource usage & startup; moderate on "
             "execution time",
        extras={"axes": axes},
    )
