"""Benchmark harness configuration.

Each benchmark runs one entry of the ``repro.bench.experiments``
registry — quick scale by default, paper scale (``quick=False``, the
same run ``scripts/run_full_experiments.py`` makes) with
``REPRO_BENCH_FULL=1`` — asserts the paper's qualitative claims, and
writes the rendered table to ``benchmarks/results/{stem}.txt``.
"""

import os
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS

RESULTS_DIR = Path(__file__).parent / "results"


def full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture
def run_experiment(benchmark):
    """Run a registry entry by name, save and echo its table.

    pytest-benchmark times one round: simulations are deterministic,
    so one round is exact; re-running a multi-second DES adds nothing.
    """

    def _run(name: str):
        entry = EXPERIMENTS[name]
        result = benchmark.pedantic(
            entry.run, kwargs={"quick": not full_scale()},
            rounds=1, iterations=1,
        )
        print(result.save(RESULTS_DIR, entry.stem))
        return result

    return _run
