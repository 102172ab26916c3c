#!/usr/bin/env python
"""Regenerate every paper table/figure at paper scale.

Runs each experiment in the :mod:`repro.bench.experiments` registry
with ``quick=False`` — exactly what ``python -m repro.bench --full
NAME`` and ``REPRO_BENCH_FULL=1 pytest benchmarks/`` run — and writes
``{stem}.txt``/``{stem}.csv`` to ``benchmarks/results/full/``.  Expect
it to run for some minutes.

    python scripts/run_full_experiments.py              # the full suite
    python scripts/run_full_experiments.py fig5a fig9   # named ones only

Names are the ``python -m repro.bench --list`` names.  ``fig5-scale``
(on-demand startup to 1,048,576 PEs: minutes of wall clock, several GB
of RSS) runs only when named.

Each experiment declares its job grid through ``repro.exec.run_sweep``,
so independent simulations fan out across cores.  Control worker count
with ``REPRO_PAR`` (``0``/``1`` forces serial in-process execution,
``N`` uses N workers, unset auto-detects).

Exits non-zero if any experiment fails; failures are collected and
summarised rather than silently swallowed.
"""

import sys
import time
import traceback
from pathlib import Path

from repro.bench.experiments import full_suite, select
from repro.errors import ConfigError

OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "results" / "full"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    try:
        entries = select(names) if names else full_suite()
    except ConfigError as exc:
        print(exc)
        return 2
    total_start = time.time()
    done: list = []
    failures: list = []
    for entry in entries:
        start = time.time()
        print(f"[{entry.name}] running ...", flush=True)
        try:
            result = entry.run(quick=False)
        except Exception as exc:
            failures.append((entry.name, exc))
            traceback.print_exc()
            print(f"[{entry.name}] FAILED: {exc!r}", flush=True)
            continue
        elapsed = time.time() - start
        print(result.save(OUT, entry.stem), flush=True)
        print(f"[{entry.name}] done in {elapsed:.0f}s", flush=True)
        done.append((entry.name, elapsed))

    print(f"\n=== summary ({time.time() - total_start:.0f}s total) ===")
    for name, elapsed in done:
        print(f"  ok      {name} ({elapsed:.0f}s)")
    for name, exc in failures:
        print(f"  FAILED  {name}: {exc!r}")
    if failures:
        print(f"{len(failures)} of {len(done) + len(failures)} "
              "experiments failed")
        return 1
    print(f"all {len(done)} experiments passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
