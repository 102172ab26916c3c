"""The repo benchmark: host time, set-up time and peak RSS of simulator jobs.

Run it from the repository root::

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --trace 1            # all workloads, per layer
    python3 perfbench/run.py --workload graph500 --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py --record-fingerprints

The load is a closed loop with one client: this process starts one
worker process per job (``worker.py``) and starts the next job when the
previous worker has exited, until about ``--seconds`` have passed and
at least :data:`MIN_JOBS` jobs ran.  A fresh process per job makes
``peak_rss_mb`` that job's own high-water mark.

``--trace 0`` reports the end-to-end metrics, medians over the run's
jobs: ``job_s`` (``Job(...)`` to the returned ``JobResult``),
``setup_s`` (the ``Job(...)`` constructor with its cluster preset) and
``peak_rss_mb``.  ``--trace 1`` runs the job three times, untraced,
under cProfile and under tracemalloc, and reports the per-layer
metrics, including the profiler's own overhead.  The last line of
output is one JSON object.

A job fails if its worker raises or times out, if the application's own
validation fails, or, at the default seed, if its simulated results
differ from the fingerprint recorded in ``fingerprints.json``.  See
``README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import ALL_LAYERS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"

#: Fewest jobs a ``--trace 0`` run measures, however short ``--seconds``.
MIN_JOBS = 3
#: No new job starts this long after a run began ...
LAUNCH_CUTOFF_S = 100.0
#: ... and every worker is stopped by this point.
RUN_BUDGET_S = 170.0

#: Counters read from ``JobResult.counters`` for the traced run.
COUNTERS = (
    "fabric.packets", "hca.qp_cache_hits", "hca.qp_cache_misses",
    "rc.rnr_retries", "verbs.rc_qp_created", "pmi.gets", "pmi.fences",
    "pmi.tree_messages", "conduit.connect_requests",
    "conduit.connect_retries", "conduit.evictions", "conduit.reconnects",
    "shmem.intranode_barriers", "shmem.puts", "shmem.atomics",
)
#: Waste ratios: name -> (useful counter, counters summed as the base).
RATIOS = {
    "hca.qp_cache_hit_ratio":
        ("hca.qp_cache_hits", ("hca.qp_cache_hits", "hca.qp_cache_misses")),
    "conduit.connect_retry_ratio":
        ("conduit.connect_retries", ("conduit.connect_requests",)),
    "conduit.reconnects_per_eviction":
        ("conduit.reconnects", ("conduit.evictions",)),
}

Metrics = Dict[str, Tuple[float, str]]
#: A run's metrics, and the details behind them for ``--out``.
Measured = Tuple[Metrics, dict]


class Tally:
    """Jobs attempted and failed in one run, with the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text())


def fingerprint_problems(name: str, seed: int, fingerprint: dict,
                         recorded: Optional[dict]) -> List[str]:
    """At the default seed, differences from the recorded fingerprint."""
    if seed != DEFAULT_SEED or recorded is None:
        return []
    expected = recorded.get(name)
    if expected is None:
        return [f"{name}: no fingerprint recorded for seed {seed}"]
    keys = sorted(set(expected) | set(fingerprint))
    counters = expected.get("counters", {}), fingerprint.get("counters", {})
    diffs = [k for k in keys if k != "counters"
             and expected.get(k) != fingerprint.get(k)]
    diffs += [f"counters[{k}]" for k in sorted(set(counters[0])
                                               | set(counters[1]))
              if counters[0].get(k) != counters[1].get(k)]
    if diffs:
        return [f"{name}: simulated results differ from the recorded "
                f"fingerprint in {', '.join(diffs[:6])}"]
    return []


def spawn(name: str, seed: int, mode: str, deadline: float, tally: Tally,
          recorded: Optional[dict]) -> Optional[dict]:
    """Run one job in a worker; its output, or None if it failed.

    ``recorded`` holds the fingerprints to check; None skips the check.
    """
    tally.attempted += 1
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        tally.fail([f"{name}: {mode} worker timed out"])
        return None
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        tally.fail([f"{name}: {mode} worker exited {proc.returncode}: "
                    f"{tail}"])
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = out["problems"] + fingerprint_problems(
        name, seed, out["fingerprint"], recorded)
    if problems:
        tally.fail(problems)
        return None
    return out


def measure(name: str, seed: int, seconds: float, tally: Tally,
            recorded: dict, min_jobs: int = MIN_JOBS) -> Measured:
    """The untraced run: end-to-end metrics over a closed loop of jobs.

    A job starts only if it should end no more than half a job past
    ``seconds``, so a run lasts close to ``seconds`` whatever the job
    length.
    """
    start = time.perf_counter()
    outs = []
    last = 0.0  # wall time of the previous worker
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > LAUNCH_CUTOFF_S or (tally.attempted >= min_jobs
                                         and elapsed + last / 2 >= seconds):
            break
        out = spawn(name, seed, "time", start + RUN_BUDGET_S, tally, recorded)
        last = time.perf_counter() - start - elapsed
        if out is not None:
            outs.append(out)
    if not outs:
        return {}, {}
    setups = [s for out in outs for s in out["setup_s"]]
    metrics = {
        "job_s": (statistics.median(o["job_s"] for o in outs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(o["peak_rss_mb"] for o in outs),
                        "MB"),
    }
    print(f"[perfbench] {name} seed={seed}: {tally.attempted} jobs in "
          f"{time.perf_counter() - start:.1f} s; medians of {len(outs)} "
          f"jobs and {len(setups)} set-ups")
    for key, (value, unit) in metrics.items():
        print(f"  {key:12} {value:.6g} {unit}")
    print(f"  {'failed_frac':12} {tally.failed / tally.attempted:.6g} "
          f"ratio ({tally.failed} of {tally.attempted} jobs)")
    return metrics, {"job_s": [o["job_s"] for o in outs],
                     "peak_rss_mb": [o["peak_rss_mb"] for o in outs],
                     "setup_s": setups}


def trace(name: str, seed: int, tally: Tally, recorded: dict) -> Measured:
    """The traced run: per-layer metrics from three workers."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    timed = spawn(name, seed, "time", deadline, tally, recorded)
    prof = spawn(name, seed, "profile", deadline, tally, recorded)
    mem = spawn(name, seed, "memory", deadline, tally, recorded)
    if timed is None or prof is None or mem is None:
        return {}, {}
    metrics: Metrics = {}
    for layer in ALL_LAYERS:
        metrics[f"{layer}.self_s"] = (prof["self_s"][layer], "s")
        metrics[f"{layer}.calls"] = (prof["calls"][layer], "count")
        metrics[f"{layer}.kb_per_pe"] = (mem["kb_per_pe"][layer], "KB")
    metrics["builtins.self_s"] = (sum(prof["builtin_s"].values()), "s")
    metrics["held.kb_per_pe"] = (sum(mem["kb_per_pe"].values()), "KB")
    for key, value in mem["kernel"].items():
        metrics[f"sim.{key}"] = (value, "ratio" if "ratio" in key
                                 else "count")
    counters = timed["fingerprint"]["counters"]
    for key in COUNTERS:
        metrics[key] = (counters.get(key, 0), "count")
    for key, (useful, base) in RATIOS.items():
        total = sum(counters.get(b, 0) for b in base)
        metrics[key] = (counters.get(useful, 0) / total if total else 0.0,
                        "ratio")
    metrics["trace.job_s"] = (prof["traced_job_s"], "s")
    metrics["trace.untraced_job_s"] = (timed["job_s"], "s")
    metrics["trace.overhead_ratio"] = (prof["traced_job_s"] / timed["job_s"],
                                       "ratio")
    metrics["trace.coverage"] = (prof["coverage"], "ratio")
    print_layers(name, metrics, prof["builtin_s"], prof["edges"])
    return metrics, {"builtin_s": prof["builtin_s"], "edges": prof["edges"]}


def print_layers(name: str, metrics: Metrics, builtin_s: dict,
                 edges: dict) -> None:
    traced = metrics["trace.job_s"][0]
    print(f"[perfbench] {name} traced: job {traced:.3f} s = "
          f"{metrics['trace.overhead_ratio'][0]:.2f} x untraced "
          f"{metrics['trace.untraced_job_s'][0]:.3f} s; layers cover "
          f"{metrics['trace.coverage'][0]:.1%}; C builtins "
          f"{metrics['builtins.self_s'][0] / traced:.1%}, charged to callers")
    print(f"  {'layer':8} {'self_s':>9} {'share':>6} {'builtin':>8} "
          f"{'calls':>10} {'KB/PE':>9}")
    for layer in ALL_LAYERS:
        self_s = metrics[f"{layer}.self_s"][0]
        print(f"  {layer:8} {self_s:9.3f} {self_s / traced:6.1%} "
              f"{builtin_s[layer] / traced:8.1%} "
              f"{metrics[f'{layer}.calls'][0]:10d} "
              f"{metrics[f'{layer}.kb_per_pe'][0]:9.2f}")
    print("  cross-layer edges (caller->callee: calls, inclusive s):")
    for edge, stat in sorted(edges.items(),
                             key=lambda kv: -kv[1]["inclusive_s"]):
        print(f"    {edge:16} {stat['calls']:9d} {stat['inclusive_s']:9.3f}")
    for key, (useful, base) in RATIOS.items():
        base_count = sum(metrics[b][0] for b in base)
        print(f"  {key} = {metrics[key][0]:.4f} "
              f"({metrics[useful][0]} of {base_count})")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 recorded: dict) -> Tuple[Optional[dict], dict]:
    """One workload run: the result object (None if nothing ran) and
    the details behind it."""
    tally = Tally()
    if traced:
        metrics, details = trace(name, seed, tally, recorded)
    else:
        metrics, details = measure(name, seed, seconds, tally, recorded)
    for problem in tally.problems[:5]:
        print(f"[perfbench] FAILED {problem}")
    if not metrics:
        return None, details
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }, details


def record_fingerprints() -> int:
    """Write the default-seed fingerprint of every workload."""
    fingerprints = {}
    for name in WORKLOADS:
        tally = Tally()
        out = spawn(name, DEFAULT_SEED, "time",
                    time.perf_counter() + RUN_BUDGET_S, tally, None)
        if out is None:
            print("\n".join(tally.problems), file=sys.stderr)
            return 1
        fingerprints[name] = out["fingerprint"]
    FINGERPRINTS.write_text(json.dumps(fingerprints, indent=1,
                                       sort_keys=True) + "\n")
    print(f"[perfbench] wrote {FINGERPRINTS}")
    return 0


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the results as JSON to this file")
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="record the default-seed fingerprints and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.record_fingerprints:
        return record_fingerprints()

    recorded = load_fingerprints()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, details = {}, {}
    for name in names:
        result, details[name] = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), recorded)
        if result is None:
            return 1
        results[name] = result
    if args.out is not None:
        record = {name: {**results[name], "details": details[name]}
                  for name in results}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
