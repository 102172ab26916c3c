"""Charge a traced job's host time and memory to the simulator's layers.

A layer is a ``repro.<package>``: the package of the file a function
or an allocation comes from.  Time outside ``repro`` goes to ``numpy``
(numpy's Python files and its C entry points) or to ``other``.  Any
other C builtin (``len``, ``heapq.heappush``, ``generator.send``...)
is charged to the layer of the function that called it, call site by
call site, using cProfile's per-caller times.

This module does not import ``repro``; the worker passes it the
package directory.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Iterable, Tuple

#: The ``repro`` packages the four workloads run.  ``exec``, ``serve``,
#: ``check``, ``faults``, ``upc``, ``caf`` and ``bench`` are absent on
#: purpose: no workload runs them, so a profile that reaches one is a
#: workload the benchmark does not describe.
LAYERS = ("core", "cluster", "sim", "ib", "pmi", "gasnet", "shmem", "mpi",
          "apps", "obs")
ALL_LAYERS = LAYERS + ("numpy", "other")

#: Largest gap allowed between the traced job time and the sum of the
#: layers' self times, as a share of the traced job time.
COVERAGE_TOLERANCE = 0.03

FuncKey = Tuple[str, int, str]  # cProfile's (filename, line, name)


class LayerError(RuntimeError):
    """The trace does not split cleanly into the benchmark's layers."""


class LayerMap:
    """Maps a source file to its layer name."""

    def __init__(self, repro_dir: str) -> None:
        self.repro_dir = os.path.join(os.path.abspath(repro_dir), "")
        self._numpy_part = f"{os.sep}numpy{os.sep}"

    def of_file(self, filename: str) -> str:
        if filename.startswith(self.repro_dir):
            package = filename[len(self.repro_dir):].split(os.sep, 1)
            if len(package) == 2 and package[0] in LAYERS:
                return package[0]
            raise LayerError(f"repro file maps to no layer: {filename}")
        if self._numpy_part in filename:
            return "numpy"
        return "other"


def profile_by_layer(stats: Dict[FuncKey, tuple], lmap: LayerMap) -> dict:
    """Split a ``cProfile.Profile().stats`` table by layer.

    Returns per-layer self time and call counts (a generator resume
    counts as a call), the part of each layer's self time spent in C
    builtins, and the cross-layer call edges: ``"caller->callee"`` with
    the call count and the callee's inclusive time from that caller.
    """
    self_s = dict.fromkeys(ALL_LAYERS, 0.0)
    calls = dict.fromkeys(ALL_LAYERS, 0)
    edges: Dict[Tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
    builtin_s = dict.fromkeys(ALL_LAYERS, 0.0)
    resolved: Dict[FuncKey, str] = {}

    def is_builtin(func: FuncKey) -> bool:
        return func[0] == "~" and "numpy" not in func[2]

    def layer_of(func: FuncKey, seen: frozenset = frozenset()) -> str:
        """A function's layer; a builtin's is that of its main caller."""
        if func in resolved:
            return resolved[func]
        if func[0] == "~":
            if not is_builtin(func):
                return "numpy"
            callers = stats[func][4] if func in stats else {}
            main = max(callers, key=lambda c: callers[c][3], default=None)
            if main is None or main in seen:
                return "other"
            layer = layer_of(main, seen | {func})
        else:
            layer = lmap.of_file(func[0])
        resolved[func] = layer
        return layer

    for func, (_, ncalls, tottime, _, callers) in stats.items():
        if is_builtin(func):
            for caller, (_, _, caller_tt, _) in callers.items():
                layer = layer_of(caller)
                self_s[layer] += caller_tt
                builtin_s[layer] += caller_tt
                tottime -= caller_tt
            # Time the caller table does not cover (a builtin entered
            # with no profiled caller, such as the profiler's own
            # disable()) stays outside the repro layers.
            self_s["other"] += tottime
            builtin_s["other"] += tottime
            continue
        layer = layer_of(func)
        self_s[layer] += tottime
        calls[layer] += ncalls
        for caller, (caller_nc, _, _, caller_ct) in callers.items():
            source = layer_of(caller)
            if source != layer:
                edge = edges[(source, layer)]
                edge[0] += caller_nc
                edge[1] += caller_ct
    return {
        "self_s": self_s,
        "calls": calls,
        "builtin_s": builtin_s,
        "edges": {f"{s}->{t}": {"calls": n, "inclusive_s": ct}
                  for (s, t), (n, ct) in sorted(edges.items())},
    }


def check_coverage(self_s: Dict[str, float], traced_s: float) -> float:
    """Share of the traced job time the layers account for.

    Raises :class:`LayerError` if the self times, ``numpy`` and
    ``other`` included, miss the traced time by more than
    :data:`COVERAGE_TOLERANCE`.
    """
    coverage = sum(self_s.values()) / traced_s
    if abs(1.0 - coverage) > COVERAGE_TOLERANCE:
        raise LayerError(
            f"layer self times sum to {coverage:.1%} of the traced job "
            f"time ({traced_s:.3f} s); allowed gap "
            f"{COVERAGE_TOLERANCE:.0%}")
    return coverage


def held_by_layer(statistics: Iterable, lmap: LayerMap) -> Dict[str, int]:
    """Bytes per layer from ``Snapshot.statistics("filename")``."""
    held = dict.fromkeys(ALL_LAYERS, 0)
    for stat in statistics:
        held[lmap.of_file(stat.traceback[0].filename)] += stat.size
    return held
