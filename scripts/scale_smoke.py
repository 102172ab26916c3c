#!/usr/bin/env python
"""CI scale smoke: the calendar-queue kernel at real size, on a budget.

Three gates, all cheap enough for every merge:

1. **Order**: the 128-PE golden trace must stay byte-identical with
   batching and the calendar queue enabled, and the same job re-run on
   the reference heap scheduler must produce the *same bytes* — the
   fast kernel is a constant-factor optimisation, never a semantic one.

2. **Macro scale**: a 262,144-PE on-demand startup through the
   analytical phase-model layer (``macro=True``) must finish inside
   ``--macro-budget`` seconds and ``--macro-rss-mb`` peak RSS.  The
   macro layer's whole value is O(nodes) cost at any npes; a stray
   per-PE loop or per-PE allocation shows up here immediately.  This
   gate runs *before* the exact gate so the process RSS high-water
   reflects the macro run, not the much larger exact-engine footprint.

3. **Scale**: a 16,384-PE on-demand startup (one fig5 scale point) on
   the exact engine must finish inside ``--budget`` wall-clock
   seconds; its peak RSS is printed but not gated.  The point of the
   calendar-queue scheduler is that dense startup waves are O(1)
   amortized — a regression to heap-like behaviour (or an accidental
   O(N^2) anywhere in the startup path) blows the budget immediately
   rather than surfacing months later on someone's 65,536-PE run.

Usage::

    PYTHONPATH=src python scripts/scale_smoke.py              # defaults
    PYTHONPATH=src python scripts/scale_smoke.py --npes 4096 --budget 60
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import HelloWorld  # noqa: E402
from repro.cluster import cluster_b  # noqa: E402
from repro.core import Job, RuntimeConfig  # noqa: E402

GOLDEN = REPO_ROOT / "tests" / "data" / "golden_trace_ondemand_128.txt"


def scale_gate(npes: int, budget_s: float) -> bool:
    print(f"[scale-smoke] {npes}-PE on-demand startup "
          f"(budget {budget_s:.0f}s) ...", flush=True)
    t0 = time.perf_counter()
    job = Job(npes=npes, config=RuntimeConfig.proposed(),
              cluster=cluster_b(npes, ppn=32))
    result = job.run(HelloWorld())
    wall = time.perf_counter() - t0
    # Reported, not gated.  getrusage is process-wide, so this is the
    # high-water of every gate run so far, the macro gate included.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = wall <= budget_s
    print(f"[scale-smoke] {npes}-PE: wall={wall:.1f}s "
          f"rss={rss_mb:.0f}MB (process high-water) "
          f"sim={result.wall_time_us / 1e6:.2f}s "
          f"start_pes={result.startup.mean_us / 1e3:.1f}ms "
          f"-> {'OK' if ok else 'OVER BUDGET'}", flush=True)
    return ok


def macro_gate(npes: int, budget_s: float, rss_budget_mb: float) -> bool:
    print(f"[scale-smoke] {npes}-PE macro startup "
          f"(budget {budget_s:.0f}s / {rss_budget_mb:.0f}MB RSS) ...",
          flush=True)
    t0 = time.perf_counter()
    job = Job(npes=npes, config=RuntimeConfig.proposed(),
              cluster=cluster_b(npes, ppn=32), macro=True)
    result = job.run(HelloWorld())
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = wall <= budget_s and rss_mb <= rss_budget_mb
    print(f"[scale-smoke] {npes}-PE macro: wall={wall:.1f}s "
          f"rss={rss_mb:.0f}MB sim={result.wall_time_us / 1e6:.2f}s "
          f"start_pes={result.startup.mean_us / 1e3:.1f}ms "
          f"-> {'OK' if ok else 'OVER BUDGET'}", flush=True)
    return ok


def _trace(scheduler: str) -> list:
    job = Job(npes=128, config=RuntimeConfig.proposed(),
              cluster=cluster_b(128, ppn=16), trace=True,
              scheduler=scheduler)
    job.run(HelloWorld())
    return job.tracer.formatted()


def golden_gate() -> bool:
    print("[scale-smoke] 128-PE golden trace, calendar vs heap vs "
          "fixture ...", flush=True)
    want = GOLDEN.read_text().splitlines()
    ok = True
    for scheduler in ("calendar", "heap"):
        got = _trace(scheduler)
        if got != want:
            ok = False
            for i, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    print(f"[scale-smoke] {scheduler}: trace diverges at "
                          f"line {i + 1}:\n  got:  {g}\n  want: {w}",
                          flush=True)
                    break
            else:
                print(f"[scale-smoke] {scheduler}: trace length "
                      f"{len(got)} != fixture {len(want)}", flush=True)
        else:
            print(f"[scale-smoke] {scheduler}: {len(got)} lines, "
                  "byte-identical", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--npes", type=int, default=16384,
                        help="scale-gate job size (default 16384)")
    parser.add_argument("--budget", type=float, default=300.0,
                        help="wall-clock budget in seconds (default 300; "
                             "the reference 1-core host runs 16K PEs in "
                             "~20s, so 300 absorbs slow shared runners)")
    parser.add_argument("--macro-npes", type=int, default=262144,
                        help="macro-gate job size (default 262144)")
    parser.add_argument("--macro-budget", type=float, default=120.0,
                        help="macro-gate wall budget in seconds (default "
                             "120; the reference host models 262,144 PEs "
                             "in ~3s)")
    parser.add_argument("--macro-rss-mb", type=float, default=4096.0,
                        help="macro-gate peak-RSS budget in MB (default "
                             "4096; the reference host peaks ~300MB)")
    parser.add_argument("--skip-scale", action="store_true",
                        help="golden-trace gate only")
    args = parser.parse_args(argv)

    ok = golden_gate()
    if not args.skip_scale:
        # Macro first: getrusage's high-water is process-wide, so the
        # RSS budget is only meaningful before the exact engine runs.
        ok = macro_gate(args.macro_npes, args.macro_budget,
                        args.macro_rss_mb) and ok
        ok = scale_gate(args.npes, args.budget) and ok
    if not ok:
        print("[scale-smoke] FAILED", flush=True)
        return 1
    print("[scale-smoke] all gates passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
