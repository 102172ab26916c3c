"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import cProfile
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REPRO = ROOT / "src" / "repro"


def test_layer_map_names_every_repro_package_or_fails():
    lmap = layers.LayerMap(str(REPRO))
    assert lmap.of_file(str(REPRO / "gasnet" / "lifecycle.py")) == "gasnet"
    assert lmap.of_file(str(REPRO / "sim" / "engine.py")) == "sim"
    assert lmap.of_file(os.path.join("lib", "numpy", "core", "x.py")) == "numpy"
    assert lmap.of_file("<frozen importlib._bootstrap>") == "other"
    for unmapped in (REPRO / "serve" / "cache.py", REPRO / "errors.py"):
        with pytest.raises(layers.LayerError, match="maps to no layer"):
            lmap.of_file(str(unmapped))


def test_builtins_are_charged_to_each_calling_layer():
    sim_fn = (str(REPRO / "sim" / "engine.py"), 1, "run")
    ib_fn = (str(REPRO / "ib" / "qp.py"), 1, "handle")
    app_fn = (str(REPRO / "apps" / "graph500.py"), 1, "run")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    zeros = ("~", 0, "<built-in method numpy.zeros>")
    stats = {
        sim_fn: (1, 1, 0.5, 2.0, {}),
        ib_fn: (4, 4, 0.25, 0.75, {sim_fn: (4, 4, 0.25, 0.75)}),
        push: (3, 3, 0.5, 0.5, {sim_fn: (2, 2, 0.375, 0.375),
                                ib_fn: (1, 1, 0.125, 0.125)}),
        app_fn: (1, 1, 0.0, 0.25, {sim_fn: (1, 1, 0.0, 0.25)}),
        zeros: (1, 1, 0.25, 0.25, {app_fn: (1, 1, 0.25, 0.25)}),
    }
    split = layers.profile_by_layer(stats, layers.LayerMap(str(REPRO)))
    assert split["self_s"]["sim"] == 0.875
    assert split["self_s"]["ib"] == 0.375
    assert split["self_s"]["numpy"] == 0.25
    assert split["builtin_s"]["sim"] == 0.375
    assert split["calls"] == {**dict.fromkeys(layers.ALL_LAYERS, 0),
                              "sim": 1, "ib": 4, "apps": 1, "numpy": 1}
    assert split["edges"]["sim->ib"] == {"calls": 4, "inclusive_s": 0.75}
    assert split["edges"]["apps->numpy"]["calls"] == 1
    assert layers.check_coverage(split["self_s"], 1.5) == 1.0
    with pytest.raises(layers.LayerError, match="sum to"):
        layers.check_coverage(split["self_s"], 2.0)


def test_profile_of_a_small_job_covers_its_time_with_known_layers():
    from repro.apps import HelloWorld
    from repro.cluster import cluster_b
    from repro.core import Job, RuntimeConfig

    profiler = cProfile.Profile()
    profiler.enable()
    Job(64, config=RuntimeConfig.proposed(),
        cluster=cluster_b(64, ppn=16)).run(HelloWorld())
    profiler.disable()
    profiler.create_stats()
    split = layers.profile_by_layer(profiler.stats,
                                    layers.LayerMap(str(REPRO)))
    total = sum(entry[2] for entry in profiler.stats.values())
    assert layers.check_coverage(split["self_s"], total) == pytest.approx(1)
    for edge in split["edges"]:
        source, target = edge.split("->")
        assert {source, target} <= set(layers.ALL_LAYERS)
    for layer in ("core", "sim", "ib", "pmi", "gasnet", "shmem", "apps"):
        assert split["calls"][layer] > 0, layer


def test_fingerprint_mismatch_is_a_failure_only_at_the_default_seed():
    name = "startup_static"
    recorded = run.load_fingerprints()
    fp = {**recorded[name], "counters": {**recorded[name]["counters"]}}
    seed = workloads.DEFAULT_SEED
    assert run.fingerprint_problems(name, seed, fp, recorded) == []
    fp["counters"]["pmi.gets"] += 1
    fp["wall_time_us"] += 1e-6
    [problem] = run.fingerprint_problems(name, seed, fp, recorded)
    assert "wall_time_us" in problem and "counters[pmi.gets]" in problem
    assert run.fingerprint_problems(name, seed + 1, fp, recorded) == []


def test_workloads_run_in_sequence_report_independent_peaks():
    recorded = run.load_fingerprints()
    peaks = {}
    for name in ("startup_ondemand", "graph500"):
        tally = run.Tally()
        metrics, _ = run.measure(name, workloads.DEFAULT_SEED, 0.0,
                                 tally, recorded, min_jobs=1)
        assert (tally.attempted, tally.failed) == (1, 0), tally.problems
        peaks[name] = metrics["peak_rss_mb"][0]
    # In one process the second workload would inherit the first's
    # high-water mark; a fresh process reports its own, far lower.
    assert peaks["graph500"] < peaks["startup_ondemand"] / 2


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph500",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no simulator sources" in proc.stderr
