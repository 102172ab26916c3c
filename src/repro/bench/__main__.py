"""Command-line entry: regenerate paper tables/figures.

Usage::

    python -m repro.bench --list
    python -m repro.bench fig5a fig9            # quick scale
    python -m repro.bench --full fig8a          # paper scale
    python -m repro.bench fig5-scale --sizes 131072 1048576

Experiment names and what quick/paper scale mean for each come from
the registry in :mod:`repro.bench.experiments`, which
``scripts/run_full_experiments.py`` and ``benchmarks/`` read too.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError
from .experiments import EXPERIMENTS, fig5_startup, select

#: ``--sizes`` sanity ceiling: the macro layer happily models a million
#: PEs, but anything past 4Mi is a typo, not an experiment.
MAX_SCALE_SIZE = 1 << 22


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables/figures from the paper.",
    )
    parser.add_argument("names", nargs="*", help="experiment names")
    parser.add_argument("--list", action="store_true", help="list names")
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale sweeps (slow) instead of quick scale",
    )
    parser.add_argument(
        "--sizes", nargs="+", type=int, metavar="NPES",
        help="explicit job sizes for fig5-scale (overrides the preset "
             "sweep; sizes >= %d PEs use the macro phase models)"
        % fig5_startup.MACRO_THRESHOLD,
    )
    args = parser.parse_args(argv)

    if args.sizes is not None:
        if args.names != ["fig5-scale"]:
            print("--sizes is only valid with the fig5-scale experiment",
                  file=sys.stderr)
            return 2
        bad = [n for n in args.sizes if n <= 0 or n > MAX_SCALE_SIZE]
        if bad:
            print(f"--sizes values must be in 1..{MAX_SCALE_SIZE} PEs, "
                  f"got: {', '.join(map(str, bad))}", file=sys.stderr)
            return 2

    if args.list or not args.names:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0

    if args.sizes is not None:  # the only name is fig5-scale (see above)
        print(fig5_startup.run_scale(sizes=args.sizes).render())
        return 0
    try:
        entries = select(args.names)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    for entry in entries:
        print(entry.run(quick=not args.full).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
