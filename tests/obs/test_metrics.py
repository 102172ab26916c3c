"""Unit tests for the metrics registry: buckets, histograms, series.

The bucket-boundary tests are the load-bearing ones: ``bucket_index``
must be *exact* at powers of two (le semantics — ``2**k`` lands in the
bucket whose bound is ``2**k``), which is why the implementation uses
``math.frexp`` instead of ``log2`` rounding.
"""

import math

import pytest

from repro.obs import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    bucket_index,
)
from repro.obs.metrics import NUM_BUCKETS


class TestBucketIndex:
    def test_every_power_of_two_lands_on_its_own_bound(self):
        # le semantics: v == bounds[i] must count in bucket i, for every
        # finite bound.  This is the exactness frexp buys.
        for i, bound in enumerate(BUCKET_BOUNDS):
            assert bucket_index(bound) == i, (
                f"2**{int(math.log2(bound))} should land in its own "
                f"bucket {i}, got {bucket_index(bound)}"
            )

    def test_just_above_a_bound_spills_to_the_next_bucket(self):
        for i, bound in enumerate(BUCKET_BOUNDS[:-1]):
            above = math.nextafter(bound, math.inf)
            assert bucket_index(above) == i + 1

    def test_just_below_a_bound_stays_in_its_bucket(self):
        for i, bound in enumerate(BUCKET_BOUNDS):
            below = math.nextafter(bound, 0.0)
            assert bucket_index(below) == i

    def test_below_smallest_bound_is_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(0.001) == 0
        assert bucket_index(BUCKET_BOUNDS[0] / 2) == 0

    def test_overflow_bucket(self):
        assert bucket_index(math.nextafter(BUCKET_BOUNDS[-1], math.inf)) == (
            len(BUCKET_BOUNDS)
        )
        assert bucket_index(BUCKET_BOUNDS[-1] * 1000) == len(BUCKET_BOUNDS)

    def test_bounds_are_contiguous_log2(self):
        assert len(BUCKET_BOUNDS) + 1 == NUM_BUCKETS
        for lo, hi in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert hi == 2.0 * lo


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 16.0
        assert h.min == 1.0
        assert h.max == 10.0
        assert h.mean == 4.0

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["buckets"] == []

    def test_quantile_returns_bucket_upper_bound(self):
        h = Histogram("h")
        # 1.5 -> le=2.0 bucket; 3.0 -> le=4.0 bucket.
        for _ in range(99):
            h.observe(1.5)
        h.observe(3.0)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_quantile_overflow_bucket_reports_max(self):
        h = Histogram("h")
        big = BUCKET_BOUNDS[-1] * 4
        h.observe(big)
        assert h.quantile(0.5) == big
        assert h.quantile(0.99) == big

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_snapshot_lists_only_nonempty_buckets(self):
        h = Histogram("h")
        h.observe(2.0)   # exact bound: le=2.0
        h.observe(2.5)   # le=4.0
        snap = h.snapshot()
        assert [(b["le"], b["count"]) for b in snap["buckets"]] == [
            (2.0, 1), (4.0, 1)
        ]
        assert snap["p50"] == 2.0

    def test_snapshot_overflow_bucket_label(self):
        h = Histogram("h")
        h.observe(BUCKET_BOUNDS[-1] * 2)
        assert h.snapshot()["buckets"] == [{"le": "+Inf", "count": 1}]


class TestHistogramPercentile:
    """percentile(p) is quantile(p/100) on the shared log2 ladder —
    exact at bucket bounds, like everything else in this module."""

    def test_matches_quantile_on_exact_bounds(self):
        h = Histogram("h")
        for _ in range(99):
            h.observe(1.5)   # le=2.0 bucket
        h.observe(3.0)       # le=4.0 bucket
        assert h.percentile(50.0) == h.quantile(0.5) == 2.0
        assert h.percentile(99.0) == 2.0
        assert h.percentile(100.0) == 4.0

    def test_exact_bucket_boundaries(self):
        h = Histogram("h")
        # One observation on each of four consecutive power-of-two
        # bounds: percentile cut points land on exact bucket bounds.
        for v in (2.0, 4.0, 8.0, 16.0):
            h.observe(v)
        assert h.percentile(25.0) == 2.0
        assert h.percentile(50.0) == 4.0
        assert h.percentile(75.0) == 8.0
        assert h.percentile(100.0) == 16.0

    def test_p0_is_smallest_bucket_bound(self):
        h = Histogram("h")
        h.observe(5.0)  # le=8.0
        assert h.percentile(0.0) == 8.0

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram("h")
        big = BUCKET_BOUNDS[-1] * 2
        h.observe(big)
        assert h.percentile(99.0) == big

    def test_empty_histogram(self):
        assert Histogram("h").percentile(50.0) == 0.0

    @pytest.mark.parametrize("p", [-1.0, 100.5, 200.0])
    def test_range_checked(self, p):
        with pytest.raises(ValueError):
            Histogram("h").percentile(p)


class TestMetricsRegistry:
    def test_same_name_and_labels_memoised(self):
        reg = MetricsRegistry()
        assert reg.histogram("x", pe=3) is reg.histogram("x", pe=3)
        assert reg.histogram("x", pe=3) is not reg.histogram("x", pe=7)
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert reg.histogram("x", a=1, b=2) is reg.histogram("x", b=2, a=1)

    def test_series_key_format(self):
        reg = MetricsRegistry()
        assert reg.histogram("plain").key == "plain"
        assert reg.histogram("h", node=2, kind="rtr").key == (
            "h{kind=rtr,node=2}"
        )

    def test_snapshot_is_key_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.histogram("b").observe(2.0)
        reg.histogram("a").observe(1.0)
        reg.histogram("a", pe=1).observe(4.0)
        snap = reg.snapshot()
        assert list(snap) == ["a", "a{pe=1}", "b"]
        assert snap["a"]["count"] == 1 and snap["a"]["sum"] == 1.0
        assert snap["b"] == {
            "count": 1, "sum": 2.0, "min": 2.0, "max": 2.0, "mean": 2.0,
            "p50": 2.0, "p99": 2.0, "buckets": [{"le": 2.0, "count": 1}],
        }
