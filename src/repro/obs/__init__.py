"""repro.obs — the flight recorder: spans, histograms, exporters.

One :class:`Observability` object per observed :class:`~repro.core.job.
Job` aggregates the two recording surfaces:

* :attr:`Observability.spans` — a :class:`SpanTracer` capturing nested,
  causally-linked spans across every substrate (SHMEM startup phases,
  on-demand handshakes, QP state machines, PMI collectives, fault
  hits);
* :attr:`Observability.metrics` — a :class:`MetricsRegistry` of latency
  histograms.

Counts are not recorded here: every count goes through the job's plain
:class:`~repro.sim.trace.Counters`, observed or not, and
:meth:`Observability.telemetry` reports that same dict — so observing a
run can never change its counters.

Layers hold a plain ``obs`` attribute that is ``None`` unless the job
was built with ``observe=True`` — instrumentation sites cost exactly
one predicate check when observation is off (the ``KernelProfile.
_prof`` discipline), which is what keeps the golden traces and the
wall-clock bench untouched by this module's existence.

Export with :meth:`Observability.chrome_trace` (Perfetto-loadable),
:meth:`Observability.flat_spans` (byte-stable golden text) or
:func:`timeline_csv` (the sampled series, for plotting), or from the
command line::

    PYTHONPATH=src python -m repro.obs --npes 64 --out trace.json
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..sim import Counters, Simulator
from .diff import (
    diff_snapshots,
    format_diff,
    load_snapshot,
    series_final,
    series_peak,
)
from .export import (
    chrome_trace,
    flat_dump,
    parse_timeline_csv,
    span_descendants,
    span_index,
    timeline_counter_events,
    timeline_csv,
    validate_chrome_trace,
)
from .metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    bucket_index,
)
from .spans import Span, SpanTracer
from .timeline import (
    Probe,
    SeriesBuffer,
    Timeline,
    TimelineConfig,
    canonical_observe,
    parse_observe,
)

__all__ = [
    "Observability",
    "Span",
    "SpanTracer",
    "MetricsRegistry",
    "Histogram",
    "BUCKET_BOUNDS",
    "bucket_index",
    "Timeline",
    "TimelineConfig",
    "Probe",
    "SeriesBuffer",
    "parse_observe",
    "canonical_observe",
    "chrome_trace",
    "flat_dump",
    "span_index",
    "span_descendants",
    "validate_chrome_trace",
    "timeline_counter_events",
    "timeline_csv",
    "parse_timeline_csv",
    "load_snapshot",
    "diff_snapshots",
    "format_diff",
    "series_peak",
    "series_final",
]


class Observability:
    """Span tracer + histogram registry for one observed job."""

    def __init__(self, sim: Simulator, counters: Counters,
                 span_capacity: int = 1_000_000,
                 timeline: Optional[TimelineConfig] = None) -> None:
        self.sim = sim
        #: The job's counters — the one place a count is recorded.
        self.counters = counters
        self.spans = SpanTracer(sim, capacity=span_capacity)
        self.metrics = MetricsRegistry()
        #: Time-series sampler; ``None`` unless the job asked for
        #: ``observe={"timeline": ...}``.
        self.timeline: Optional[Timeline] = (
            Timeline(sim, timeline) if timeline is not None else None
        )

    # ------------------------------------------------------------------
    # results / export
    # ------------------------------------------------------------------
    def telemetry(self) -> Dict[str, Any]:
        """The ``JobResult.telemetry`` payload: span stats, the job's
        counters and histograms (+ the timeline snapshot when sampling
        was enabled)."""
        open_spans = sum(1 for s in self.spans if s.end_us is None)
        payload: Dict[str, Any] = {
            "spans": {
                "count": len(self.spans),
                "dropped": self.spans.dropped,
                "open": open_spans,
            },
            "metrics": {
                "counters": dict(sorted(self.counters.as_dict().items())),
                "histograms": self.metrics.snapshot(),
            },
        }
        if self.timeline is not None:
            payload["timeline"] = self.timeline.snapshot()
        return payload

    def chrome_trace(self, label: str = "repro simulated job") -> Dict[str, Any]:
        """Chrome trace-event JSON object (see :func:`export.chrome_trace`).

        When a timeline is attached its series are merged in as counter
        ("C") tracks, so footprint curves render under the span rows.
        """
        timeline = (self.timeline.snapshot()
                    if self.timeline is not None else None)
        return chrome_trace(self.spans, label=label,
                            dropped=self.spans.dropped,
                            timeline=timeline)

    def flat_spans(self) -> List[str]:
        """Deterministic flat-text span dump for golden comparisons."""
        lines = flat_dump(self.spans)
        if self.spans.dropped:
            lines.append(f"# dropped {self.spans.dropped} spans "
                         f"(capacity {self.spans.capacity})")
        return lines
