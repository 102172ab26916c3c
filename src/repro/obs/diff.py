"""Run comparison: align two telemetry snapshots, report the deltas.

The paper's experiments are *pairs* — static vs on-demand startup,
evict-never vs LRU churn — and the interesting result is always the
delta between two trajectories (e.g. fig9's footprint 57 vs 18 at
1,024 PEs).  This module turns any two telemetry artifacts into that
report:

* :func:`load_snapshot` accepts a ``JobResult.telemetry`` JSON dump, a
  bare timeline snapshot, or a ``repro.obs`` timeline CSV, and
  normalises all of them to one shape.
* :func:`diff_snapshots` aligns the series/counters/histograms by key
  and computes per-series peak/final deltas, counter deltas, and
  histogram count/mean/p50/p99 deltas.
* :func:`format_diff` renders the report as deterministic text.

Command line::

    PYTHONPATH=src python -m repro.obs diff A.json B.json
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .export import parse_timeline_csv

__all__ = [
    "load_snapshot",
    "diff_snapshots",
    "format_diff",
    "series_peak",
    "series_final",
]


def _empty() -> Dict[str, Any]:
    return {"series": {}, "counters": {}, "histograms": {}}


def _normalize(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Map any of the JSON shapes we emit onto the canonical one."""
    snap = _empty()
    if "timeline" in obj and isinstance(obj["timeline"], dict):
        snap["series"] = obj["timeline"].get("series", {})
    elif "series" in obj:
        snap["series"] = obj.get("series", {})
    metrics = obj.get("metrics", obj)
    if isinstance(metrics, dict):
        for kind in ("counters", "histograms"):
            value = metrics.get(kind)
            if isinstance(value, dict):
                snap[kind] = value
    return snap


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read + normalise one telemetry artifact.

    Dispatches on content, not just extension: JSON objects
    (``JobResult.telemetry`` dumps, bare timeline snapshots, or metric
    snapshots) and timeline CSVs load.
    Raises ``OSError`` / ``ValueError`` with a one-line reason on
    missing or corrupt input (the CLI turns those into exit code 2).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty telemetry file")
    if stripped.startswith(("{", "[")):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: corrupt JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: JSON telemetry must be an object")
        return _normalize(obj)
    first_line = stripped.splitlines()[0]
    if first_line.startswith("series,"):
        try:
            return _normalize(parse_timeline_csv(text))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    raise ValueError(
        f"{path}: unrecognised telemetry format (expected JSON or "
        f"timeline CSV)"
    )


# ----------------------------------------------------------------------
# per-series reductions
# ----------------------------------------------------------------------
def series_peak(buf: Dict[str, Any]) -> float:
    """Largest windowed max — the high-water mark the series saw."""
    values = buf.get("max", [])
    return max(values) if values else 0.0


def series_final(buf: Dict[str, Any]) -> float:
    """The last stored sample value."""
    values = buf.get("last", [])
    return values[-1] if values else 0.0


def _align(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    return sorted(dict.fromkeys(list(a) + list(b)))


def diff_snapshots(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Align two normalised snapshots; compute per-key deltas.

    Every entry carries ``only_in`` (``None`` when present in both,
    else ``"a"``/``"b"``) so disappearing series are loud, not silent.
    Inputs may be canonical snapshots from :func:`load_snapshot` or raw
    ``JobResult.telemetry`` dicts (normalised here).
    """
    a = _normalize(a)
    b = _normalize(b)
    report: Dict[str, Any] = {"series": {}, "counters": {},
                              "histograms": {}}

    for key in _align(a["series"], b["series"]):
        sa, sb = a["series"].get(key), b["series"].get(key)
        entry: Dict[str, Any] = {
            "only_in": "a" if sb is None else ("b" if sa is None else None),
            "peak_a": series_peak(sa) if sa else None,
            "peak_b": series_peak(sb) if sb else None,
            "final_a": series_final(sa) if sa else None,
            "final_b": series_final(sb) if sb else None,
        }
        if entry["only_in"] is None:
            entry["peak_delta"] = entry["peak_b"] - entry["peak_a"]
            entry["final_delta"] = entry["final_b"] - entry["final_a"]
        report["series"][key] = entry

    for key in _align(a["counters"], b["counters"]):
        ca, cb = a["counters"].get(key), b["counters"].get(key)
        entry = {
            "only_in": "a" if cb is None else ("b" if ca is None else None),
            "a": ca, "b": cb,
        }
        if entry["only_in"] is None:
            entry["delta"] = cb - ca
        report["counters"][key] = entry

    for key in _align(a["histograms"], b["histograms"]):
        ha, hb = a["histograms"].get(key), b["histograms"].get(key)
        entry = {
            "only_in": "a" if hb is None else ("b" if ha is None else None),
        }
        for field in ("count", "mean", "p50", "p99"):
            entry[f"{field}_a"] = ha.get(field) if ha else None
            entry[f"{field}_b"] = hb.get(field) if hb else None
            if entry["only_in"] is None:
                entry[f"{field}_delta"] = (
                    entry[f"{field}_b"] - entry[f"{field}_a"]
                )
        report["histograms"][key] = entry

    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _delta(value: Optional[float]) -> str:
    if value is None:
        return ""
    return f" ({'+' if value >= 0 else ''}{_fmt(value)})"


def format_diff(report: Dict[str, Any], label_a: str = "A",
                label_b: str = "B") -> str:
    """Deterministic text rendering of a :func:`diff_snapshots` report."""
    lines: List[str] = [f"telemetry diff: A={label_a}  B={label_b}"]

    if report["series"]:
        lines.append("")
        lines.append("series (peak / final):")
        for key, e in report["series"].items():
            if e["only_in"]:
                lines.append(f"  {key}: only in {e['only_in'].upper()}")
                continue
            lines.append(
                f"  {key}: peak {_fmt(e['peak_a'])} -> {_fmt(e['peak_b'])}"
                f"{_delta(e.get('peak_delta'))}, "
                f"final {_fmt(e['final_a'])} -> {_fmt(e['final_b'])}"
                f"{_delta(e.get('final_delta'))}"
            )

    changed = {k: e for k, e in report["counters"].items()
               if e["only_in"] or e.get("delta")}
    if changed:
        lines.append("")
        lines.append("counters (changed):")
        for key, e in changed.items():
            if e["only_in"]:
                lines.append(f"  {key}: only in {e['only_in'].upper()} "
                             f"({_fmt(e['a'] if e['a'] is not None else e['b'])})")
            else:
                lines.append(f"  {key}: {_fmt(e['a'])} -> {_fmt(e['b'])}"
                             f"{_delta(e['delta'])}")

    if report["histograms"]:
        lines.append("")
        lines.append("histograms (count / mean / p50 / p99):")
        for key, e in report["histograms"].items():
            if e["only_in"]:
                lines.append(f"  {key}: only in {e['only_in'].upper()}")
                continue
            lines.append(
                f"  {key}: count {_fmt(e['count_a'])} -> {_fmt(e['count_b'])}"
                f"{_delta(e.get('count_delta'))}, "
                f"mean {_fmt(e['mean_a'])} -> {_fmt(e['mean_b'])}"
                f"{_delta(e.get('mean_delta'))}, "
                f"p50 {_fmt(e['p50_a'])} -> {_fmt(e['p50_b'])}"
                f"{_delta(e.get('p50_delta'))}, "
                f"p99 {_fmt(e['p99_a'])} -> {_fmt(e['p99_b'])}"
                f"{_delta(e.get('p99_delta'))}"
            )

    if len(lines) == 1:
        lines.append("(no overlapping telemetry)")
    return "\n".join(lines)
