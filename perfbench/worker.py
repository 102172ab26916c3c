"""Run one benchmark job in this fresh process; print one JSON line.

``run.py`` starts one worker per job, so each job's peak RSS is its own
process's high-water mark and no job inherits another's heap.  Modes:

``time``
    The untraced job: set-up and run times, peak RSS, then further
    set-ups alone (each from a cold cluster preset) for a steadier
    set-up median.
``profile``
    The job under cProfile, split by layer (see ``layers.py``).
``memory``
    The job under tracemalloc, with the kernel's ``KernelProfile``
    attached: bytes the job still holds after ``run()``, by layer, and
    the kernel's event counts.

Every mode reports the application's own validation problems and the
job's fingerprint, which ``run.py`` compares with the recorded one.

    python3 perfbench/worker.py --workload graph500 --seed 1 --mode time
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Set-up-only repeats after the job, for a steadier set-up median.
SETUP_REPEATS = 5


def _repro_dir() -> Path:
    import repro

    path = Path(repro.__file__).resolve().parent
    if path.parent != SRC:
        raise SystemExit(f"repro imported from {path}, not from {SRC}")
    return path


def _checked(name: str, seed: int, result) -> dict:
    return {"problems": workloads.validate(name, seed, result),
            "fingerprint": workloads.fingerprint(result)}


def time_job(name: str, seed: int) -> dict:
    make_job, app = workloads.job_factory(name, seed)
    t0 = time.perf_counter()
    job = make_job()
    t1 = time.perf_counter()
    result = job.run(app)
    t2 = time.perf_counter()
    out = {
        "job_s": t2 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **_checked(name, seed, result),
    }
    del job, result
    setups = [t1 - t0]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        workloads.clear_preset_caches()
        t0 = time.perf_counter()
        job = make_job()
        setups.append(time.perf_counter() - t0)
        del job
    out["setup_s"] = setups
    return out


def profile_job(name: str, seed: int) -> dict:
    make_job, app = workloads.job_factory(name, seed)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    job = make_job()
    result = job.run(app)
    profiler.disable()
    traced_s = time.perf_counter() - t0
    profiler.create_stats()
    split = layers.profile_by_layer(profiler.stats,
                                    layers.LayerMap(_repro_dir()))
    split["coverage"] = layers.check_coverage(split["self_s"], traced_s)
    return {"traced_job_s": traced_s, **split, **_checked(name, seed, result)}


def memory_job(name: str, seed: int) -> dict:
    from repro.sim.profile import KernelProfile

    make_job, app = workloads.job_factory(name, seed)
    lmap = layers.LayerMap(_repro_dir())
    tracemalloc.start()
    job = make_job()
    kernel = KernelProfile().attach(job.sim)
    result = job.run(app)
    gc.collect()  # count what the job holds, not uncollected garbage
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    held = layers.held_by_layer(snapshot.statistics("filename"), lmap)
    kernel_snap = kernel.snapshot()
    return {
        "kb_per_pe": {layer: b / 1024.0 / job.npes
                      for layer, b in held.items()},
        "kernel": {key: kernel_snap[key] for key in
                   ("events_scheduled", "micro_ratio", "batch_ratio")},
        **_checked(name, seed, result),
    }


MODES = {"time": time_job, "profile": profile_job, "memory": memory_job}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=sorted(MODES))
    args = parser.parse_args()
    out = MODES[args.mode](args.workload, args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
