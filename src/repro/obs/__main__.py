"""CLI: run an observed job and export its flight-recorder data, or
diff two telemetry snapshots.

Used by the CI ``obs-smoke`` step and by hand::

    PYTHONPATH=src python -m repro.obs --npes 64 --testbed B \
        --out trace.json --flat spans.txt --validate --summary

    PYTHONPATH=src python -m repro.obs --npes 64 --timeline \
        --csv timeline.csv --telemetry run_a.json

    PYTHONPATH=src python -m repro.obs diff run_a.json run_b.json

Open ``trace.json`` at https://ui.perfetto.dev (or ``chrome://tracing``)
to browse one track per PE plus fabric/pmi/faults tracks — and, with
``--timeline``, counter tracks of every sampled series.

Bad inputs (missing/corrupt telemetry files, unwritable output paths)
exit with code 2 and a one-line error on stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..apps.heat2d import Heat2D
from ..apps.hello import HelloWorld
from ..cluster import cluster_a, cluster_b
from ..core import Job, RuntimeConfig
from .diff import diff_snapshots, format_diff, load_snapshot
from .export import timeline_csv, validate_chrome_trace

_APPS = {
    "hello": lambda: HelloWorld(),
    "heat2d": lambda: Heat2D(),
}


class CliError(Exception):
    """User-facing failure: printed as one line, exits nonzero."""


def _validate_output_path(path: str, flag: str) -> str:
    """Fail fast (one line, exit 2) on unwritable output destinations
    instead of tracebacking after an expensive simulated run."""
    if not path:
        raise CliError(f"{flag}: empty output path")
    if os.path.isdir(path):
        raise CliError(f"{flag}: {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise CliError(f"{flag}: directory {parent!r} does not exist")
    return path


# ----------------------------------------------------------------------
# run subcommand (the default, flag-only invocation)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run a simulated job with the flight recorder on and "
                    "export spans/metrics/timeline "
                    "(or: python -m repro.obs diff A B).",
    )
    p.add_argument("--npes", type=int, default=64, help="number of PEs")
    p.add_argument("--ppn", type=int, default=None, help="PEs per node")
    p.add_argument("--testbed", choices=("A", "B"), default="B",
                   help="paper testbed preset (default B)")
    p.add_argument("--config", choices=("current", "proposed"),
                   default="proposed",
                   help="runtime design point (default proposed = on-demand)")
    p.add_argument("--app", choices=sorted(_APPS), default="hello",
                   help="application to run")
    p.add_argument("--seed", type=int, default=None, help="override RNG seed")
    p.add_argument("--timeline", action="store_true",
                   help="enable the time-series sampler (counter tracks in "
                        "the Chrome trace, --csv export)")
    p.add_argument("--interval-us", type=float, default=None,
                   metavar="US", help="timeline sampling cadence "
                   "(simulated us; implies --timeline)")
    p.add_argument("--out", default=None, metavar="TRACE.json",
                   help="write Chrome trace-event JSON here")
    p.add_argument("--flat", default=None, metavar="SPANS.txt",
                   help="write the deterministic flat span dump here")
    p.add_argument("--csv", default=None, metavar="TIMELINE.csv",
                   help="write the timeline series as CSV here")
    p.add_argument("--telemetry", default=None, metavar="TELEMETRY.json",
                   help="write the full JobResult.telemetry JSON here "
                        "(the input format of `repro.obs diff`)")
    p.add_argument("--validate", action="store_true",
                   help="schema-validate the Chrome trace before writing "
                        "(with --timeline, also require counter tracks)")
    p.add_argument("--summary", action="store_true",
                   help="print telemetry summary to stdout")
    return p


def _run_main(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)

    timeline_on = args.timeline or args.interval_us is not None
    if args.csv and not timeline_on:
        raise CliError("--csv requires --timeline")
    outputs = [("--out", args.out), ("--flat", args.flat),
               ("--csv", args.csv), ("--telemetry", args.telemetry)]
    for flag, path in outputs:
        if path is not None:
            _validate_output_path(path, flag)
    if args.interval_us is not None and args.interval_us <= 0:
        raise CliError(f"--interval-us must be positive, got {args.interval_us}")

    config = (RuntimeConfig.current() if args.config == "current"
              else RuntimeConfig.proposed())
    if args.seed is not None:
        config = config.evolve(seed=args.seed)
    if args.testbed == "A":
        cluster = cluster_a(args.npes, ppn=args.ppn or 8)
    else:
        cluster = cluster_b(args.npes, ppn=args.ppn or 16)

    if timeline_on:
        tl_opts = {}
        if args.interval_us is not None:
            tl_opts["interval_us"] = args.interval_us
        observe = {"timeline": tl_opts or True}
    else:
        observe = True
    job = Job(npes=args.npes, config=config, cluster=cluster, observe=observe)
    result = job.run(_APPS[args.app]())

    trace = job.obs.chrome_trace(
        label=f"{args.app} npes={args.npes} {config.label}")
    if args.validate:
        stats = validate_chrome_trace(trace)
        if timeline_on and not stats.get("C"):
            raise CliError("trace validation failed: --timeline was on but "
                           "the export contains no counter (C) events")
        print(f"trace OK: {sum(stats.values())} events "
              f"({', '.join(f'{k}={v}' for k, v in sorted(stats.items()))})")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(trace, fh, indent=None, separators=(",", ":"))
        print(f"wrote {args.out}: {len(trace['traceEvents'])} trace events")
    if args.flat:
        with open(args.flat, "w") as fh:
            fh.write("\n".join(job.obs.flat_spans()) + "\n")
        print(f"wrote {args.flat}: {len(job.obs.spans)} spans")

    tele = result.telemetry or {}
    if args.csv:
        snapshot = tele.get("timeline", {"series": {}})
        with open(args.csv, "w") as fh:
            fh.write(timeline_csv(snapshot))
        print(f"wrote {args.csv}: {len(snapshot.get('series', {}))} series")
    if args.telemetry:
        with open(args.telemetry, "w") as fh:
            json.dump(tele, fh, indent=None, separators=(",", ":"))
        print(f"wrote {args.telemetry}")

    if args.summary:
        summary = {
            "npes": args.npes,
            "config": config.label,
            "wall_time_us": result.wall_time_us,
            "spans": tele.get("spans"),
            "counters": tele.get("metrics", {}).get("counters"),
            "histograms": sorted(
                tele.get("metrics", {}).get("histograms", {})),
        }
        if "timeline" in tele:
            summary["timeline"] = {
                "samples": tele["timeline"]["samples"],
                "series": sorted(tele["timeline"]["series"]),
            }
        print(json.dumps(summary, indent=2))
    return 0


# ----------------------------------------------------------------------
# diff subcommand
# ----------------------------------------------------------------------
def build_diff_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Align two telemetry snapshots (telemetry JSON or "
                    "timeline CSV) and report per-series deltas.",
    )
    p.add_argument("a", metavar="A", help="baseline snapshot")
    p.add_argument("b", metavar="B", help="comparison snapshot")
    p.add_argument("--json", action="store_true",
                   help="emit the raw diff report as JSON")
    p.add_argument("--output", default=None, metavar="REPORT",
                   help="write the report here instead of stdout")
    return p


def _diff_main(argv: List[str]) -> int:
    args = build_diff_parser().parse_args(argv)
    if args.output is not None:
        _validate_output_path(args.output, "--output")
    loaded = []
    for path in (args.a, args.b):
        try:
            loaded.append(load_snapshot(path))
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror or exc}")
        except ValueError as exc:
            raise CliError(str(exc))
    report = diff_snapshots(loaded[0], loaded[1])
    if args.json:
        text = json.dumps(report, indent=2)
    else:
        text = format_diff(report, label_a=args.a, label_b=args.b)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "diff":
            return _diff_main(argv[1:])
        return _run_main(list(argv))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
