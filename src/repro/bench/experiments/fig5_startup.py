"""Figure 5 — startup performance, current vs. proposed design.

(a) mean ``start_pes`` time and Hello World wall time at growing job
sizes for both designs (Cluster-B, 16 ppn).  Expected shape: the
current design grows steeply; the proposed design is near-constant;
the paper reports ~3x (start_pes) and ~8.3x (Hello World) at 8,192.

(b) per-phase breakdown of the proposed design: PMI Exchange and
Connection Setup become negligible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...apps import HelloWorld
from ...exec import run_sweep
from ...shmem import STARTUP_PHASES
from ..runner import CURRENT, PROPOSED, ExperimentResult, job_spec, run_job
from ..tables import fmt_ratio, fmt_us

FULL_SIZES = [128, 256, 512, 1024, 2048, 4096, 8192]
QUICK_SIZES = [128, 512, 2048]
#: Beyond-the-paper extrapolation sizes for the on-demand design (the
#: calendar-queue kernel runs 65,536 PEs in minutes on one core; the
#: macro phase models carry the curve to 1,048,576).  The static
#: design is deliberately absent: its all-pairs wireup needs O(N^2)
#: simulated QPs — 4.3 billion at 65,536 — which is neither tractable
#: nor interesting (the paper's point is that it cannot scale).
SCALE_SIZES = [16384, 32768, 65536, 131072, 262144, 524288, 1048576]
#: Sizes at or above this run through the analytical phase-model layer
#: (``macro_phases=True``): the exact engine's per-PE generator swarm
#: is past its memory/wall budget there, and the macro layer reproduces
#: the startup metrics bit for bit (see tests/core/test_macro_equivalence).
MACRO_THRESHOLD = 131072


def run(sizes: Optional[Sequence[int]] = None, quick: bool = True
        ) -> ExperimentResult:
    sizes = list(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    results = run_sweep(
        job_spec(HelloWorld(), npes, config, testbed="B")
        for npes in sizes
        for config in (CURRENT, PROPOSED)
    )
    rows: List[list] = []
    raw: Dict[int, Dict[str, object]] = {}
    for i, npes in enumerate(sizes):
        current, proposed = results[2 * i], results[2 * i + 1]
        raw[npes] = {"current": current, "proposed": proposed}
        init_ratio = current.startup.mean_us / proposed.startup.mean_us
        wall_ratio = current.wall_time_us / proposed.wall_time_us
        rows.append([
            npes,
            fmt_us(current.startup.mean_us),
            fmt_us(proposed.startup.mean_us),
            fmt_ratio(init_ratio),
            fmt_us(current.wall_time_us),
            fmt_us(proposed.wall_time_us),
            fmt_ratio(wall_ratio),
        ])
    return ExperimentResult(
        experiment="Figure 5(a)",
        title="start_pes and Hello World, current vs proposed "
              "(Cluster-B, 16 ppn)",
        columns=[
            "npes", "start_pes cur", "start_pes prop", "init speedup",
            "hello cur", "hello prop", "hello speedup",
        ],
        rows=rows,
        note="proposed start_pes is near-constant; paper reports ~3x init "
             "and ~8.3x Hello World at 8192",
        extras={"raw": raw},
    )


def run_scale(sizes: Optional[Sequence[int]] = None, quick: bool = True
              ) -> ExperimentResult:
    """Figure 5 extended: on-demand startup far past the paper's 8,192.

    Quick scale runs the 16,384-PE point only; paper scale runs every
    :data:`SCALE_SIZES` point.

    Proposed (on-demand) design only, one job per size, run serially
    in-process — at these sizes a single job dominates a core and the
    pool would only add fork + result-pickling overhead (and at 65,536
    PEs, several gigabytes of resident simulation state per worker).
    Sizes at or above :data:`MACRO_THRESHOLD` use the analytical phase
    models (``macro_phases=True``), which is what carries the curve to
    1,048,576 PEs on one core.

    Each point records host wall seconds and peak RSS (``getrusage``
    high-water, in MB — monotone across the ascending sweep) in
    ``extras["wallclock"]`` so memory headroom is tracked alongside
    simulated time.
    """
    import resource
    import time

    sizes = list(sizes) if sizes else (SCALE_SIZES[:1] if quick else SCALE_SIZES)
    rows: List[list] = []
    raw: Dict[int, object] = {}
    wallclock: Dict[int, dict] = {}
    for npes in sizes:
        macro = npes >= MACRO_THRESHOLD
        # Host wall, not simulated time: the whole point of this
        # column is how long the simulator itself takes per point.
        t0 = time.perf_counter()  # lint: allow-wall-clock
        result = run_job(HelloWorld(), npes, PROPOSED, testbed="B",
                         macro_phases=macro)
        wall_s = time.perf_counter() - t0  # lint: allow-wall-clock
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw[npes] = result
        wallclock[npes] = {
            "wall_s": round(wall_s, 3),
            "peak_rss_kb": rss_kb,
            "macro": macro,
        }
        rows.append([
            npes,
            fmt_us(result.startup.mean_us),
            fmt_us(result.wall_time_us),
            f"{result.resources.mean_connections:.2f}",
            "macro" if macro else "exact",
            f"{wall_s:.1f}s",
            f"{rss_kb / 1024:.0f}MB",
        ])
    return ExperimentResult(
        experiment="Figure 5 (scale)",
        title="on-demand start_pes beyond the paper (Cluster-B, 16 ppn)",
        columns=["npes", "start_pes", "hello wall", "conns/PE",
                 "engine", "host wall", "peak RSS"],
        rows=rows,
        note="proposed design only: static wireup is O(N^2) QPs and "
             "infeasible at these sizes — which is the paper's point; "
             ">= 131072 PEs via the macro phase models",
        extras={"raw": raw, "wallclock": wallclock},
    )


def run_breakdown(sizes: Optional[Sequence[int]] = None, quick: bool = True
                  ) -> ExperimentResult:
    """Figure 5(b): phase breakdown of the *proposed* design."""
    sizes = list(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES[:-1])
    results = run_sweep(
        job_spec(HelloWorld(), npes, PROPOSED, testbed="B") for npes in sizes
    )
    rows: List[list] = []
    raw = {}
    for npes, result in zip(sizes, results):
        means = result.startup.phase_means
        raw[npes] = means
        rows.append(
            [npes]
            + [fmt_us(means.get(p, 0.0)) for p in STARTUP_PHASES]
            + [fmt_us(result.startup.mean_us)]
        )
    return ExperimentResult(
        experiment="Figure 5(b)",
        title="start_pes breakdown, proposed design (Cluster-B, 16 ppn)",
        columns=["npes"] + STARTUP_PHASES + ["total"],
        rows=rows,
        note="negligible time in PMI operations and connection setup",
        extras={"phase_means": raw},
    )
