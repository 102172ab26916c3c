"""The metrics registry: log2-bucket latency histograms.

Counts do not live here: every count of a run goes through
:class:`repro.sim.trace.Counters` (``counters.add(...)``), observed or
not, and telemetry reports that dict as-is.  The registry holds the one
thing a flat counter cannot: distributions.

Every histogram is keyed by ``(name, labels)`` where labels is a sorted
tuple of ``(key, value)`` pairs, so ``registry.histogram("x", pe=3)``
and ``registry.histogram("x", pe=7)`` are distinct series while
remaining cheap to aggregate.

:class:`Histogram` replaces the means-only reporting the repro had for
latencies: fixed log2 buckets (shared by *every* histogram, so two
histograms are always mergeable and golden snapshots never depend on
per-instance configuration) record full distributions of handshake
RTT, PMI fence duration, QP-cache miss penalties, and anything else a
layer observes.  Bucket semantics are Prometheus-style ``le``: bucket
``i`` counts values ``v`` with ``bounds[i-1] < v <= bounds[i]``; an
exact power of two lands in the bucket whose bound it equals (pinned
by unit tests — the boundary test uses :func:`math.frexp`, which is
exact for floats, not ``log2`` rounding).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "bucket_index",
    "Histogram",
    "MetricsRegistry",
]

#: Smallest / largest log2 bucket exponent.  2**-4 = 0.0625 us resolves
#: sub-cost-model noise; 2**24 us ≈ 16.8 simulated seconds tops every
#: latency the repro can produce.  Fixed for ALL histograms (see module
#: docstring).
_LOG2_MIN_EXP = -4
_LOG2_MAX_EXP = 24

#: Inclusive upper bounds of the finite buckets; one overflow bucket
#: (+Inf) follows implicitly.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(_LOG2_MIN_EXP, _LOG2_MAX_EXP + 1)
)

#: Finite buckets + overflow.
NUM_BUCKETS = len(BUCKET_BOUNDS) + 1


def bucket_index(value: float) -> int:
    """Index of the bucket that counts ``value`` (le semantics).

    Exact at the boundaries: ``frexp`` decomposes the float precisely,
    so ``2.0**k`` always lands in the bucket whose bound is ``2.0**k``,
    never one off due to ``log2`` rounding.
    """
    if value <= BUCKET_BOUNDS[0]:
        return 0
    mantissa, exp = math.frexp(value)  # value = mantissa * 2**exp
    if mantissa == 0.5:  # exact power of two: v == 2**(exp-1)
        exp -= 1
    idx = exp - _LOG2_MIN_EXP
    return idx if idx < len(BUCKET_BOUNDS) else len(BUCKET_BOUNDS)


class Histogram:
    """Latency distribution over the shared log2 buckets."""

    __slots__ = ("name", "labels", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...] = ()
                 ) -> None:
        self.name = name
        self.labels = labels
        self.counts: List[int] = [0] * NUM_BUCKETS
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def key(self) -> str:
        """Deterministic flat series name, ``name{k=v,...}``."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        Conservative (bucket-resolution) estimate; the overflow bucket
        reports the maximum observed value.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[i]
                return self.max if self.max is not None else BUCKET_BOUNDS[-1]
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def percentile(self, p: float) -> float:
        """:meth:`quantile` with the argument in percent (``p50`` ==
        ``percentile(50)``) — the form the diff tool's latency
        comparison and most dashboards speak."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        return self.quantile(p / 100.0)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly summary; only non-empty buckets are listed."""
        buckets = [
            {"le": BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else "+Inf",
             "count": c}
            for i, c in enumerate(self.counts) if c
        ]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


class MetricsRegistry:
    """All histogram series of one observed run, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]],
                            Histogram] = {}

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Histogram(name, key[1])
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic (key-sorted) dump of every histogram."""
        histograms = {m.key: m.snapshot() for m in self._metrics.values()}
        return dict(sorted(histograms.items()))
