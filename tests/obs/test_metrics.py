"""Metrics registry: bucket edges, deterministic snapshots, absorbing."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ObsError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_METRICS,
)


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ObsError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_gauge_last_set_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_name_collision_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("shared")
        with pytest.raises(ObsError):
            registry.gauge("shared")
        with pytest.raises(ObsError):
            registry.histogram("shared", (1.0,))


class TestHistogramBuckets:
    def test_value_on_edge_lands_in_that_bucket(self):
        # Edges are *upper* bounds, inclusive: observe(edge) -> that bucket.
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0]
        hist.observe(2.0)
        assert hist.counts == [1, 1, 0]

    def test_value_past_edge_falls_through(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0000001)
        assert hist.counts == [0, 1, 0]

    def test_overflow_bucket_catches_the_tail(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.counts == [0, 0, 1]

    def test_total_sum_and_mean(self):
        hist = Histogram("h", buckets=(10.0,))
        for value in (1.0, 3.0, 5.0):
            hist.observe(value)
        assert hist.total == 3
        assert hist.sum == 9.0
        assert hist.mean == 3.0
        assert Histogram("empty", buckets=(1.0,)).mean == 0.0

    def test_empty_edges_rejected(self):
        with pytest.raises(ObsError):
            Histogram("h", buckets=())

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ObsError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_reregistration_with_different_edges_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        assert registry.histogram("h", (1.0, 2.0)).name == "h"
        with pytest.raises(ObsError):
            registry.histogram("h", (1.0, 3.0))


class TestSnapshot:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(2)
        registry.counter("a.count").inc(1)
        registry.gauge("g").set(4.0)
        registry.histogram("h", (1.0, 2.0)).observe(1.5)
        return registry

    def test_snapshot_sorted_by_name(self):
        snap = self._registry().snapshot()
        assert [name for name, _ in snap.counters] == ["a.count", "z.count"]

    def test_snapshot_is_picklable_plain_data(self):
        snap = self._registry().snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_snapshot_is_frozen_against_later_writes(self):
        registry = self._registry()
        snap = registry.snapshot()
        registry.counter("a.count").inc(100)
        assert snap.counter_value("a.count") == 1.0

    def test_counter_value_missing_is_zero(self):
        assert MetricsSnapshot().counter_value("nope") == 0.0


class TestMerge:
    """``MetricsRegistry.absorb`` is the one rule for merging snapshots."""

    def _snap(self, c, g, h_counts, h_sum):
        return MetricsSnapshot(
            counters=(("c", float(c)),),
            gauges=(("g", float(g)),),
            histograms=(("h", (1.0, 2.0), tuple(h_counts), float(h_sum)),),
        )

    @staticmethod
    def _absorbed(*snapshots):
        registry = MetricsRegistry()
        for snapshot in snapshots:
            registry.absorb(snapshot)
        return registry.snapshot()

    def test_counters_add_gauges_max_histograms_bucketwise(self):
        merged = self._absorbed(
            self._snap(2, 5, (1, 0, 2), 7), self._snap(3, 4, (0, 4, 1), 11)
        )
        assert merged.counters == (("c", 5.0),)
        assert merged.gauges == (("g", 5.0),)
        assert merged.histograms == ((("h", (1.0, 2.0), (1, 4, 3), 18.0)),)

    def test_merge_is_commutative(self):
        a, b = self._snap(2, 5, (1, 0, 2), 7), self._snap(3, 4, (0, 4, 1), 11)
        assert self._absorbed(a, b) == self._absorbed(b, a)

    def test_merge_is_associative(self):
        a = self._snap(1, 1, (1, 0, 0), 1)
        b = self._snap(2, 9, (0, 1, 0), 2)
        c = self._snap(4, 3, (0, 0, 1), 4)
        assert self._absorbed(self._absorbed(a, b), c) == self._absorbed(
            a, self._absorbed(b, c)
        )

    def test_disjoint_names_union(self):
        left = MetricsSnapshot(counters=(("only.left", 1.0),))
        right = MetricsSnapshot(counters=(("only.right", 2.0),))
        merged = self._absorbed(left, right)
        assert merged.counters == (("only.left", 1.0), ("only.right", 2.0))

    def test_mismatched_histogram_edges_rejected(self):
        registry = MetricsRegistry()
        registry.absorb(
            MetricsSnapshot(histograms=(("h", (1.0,), (0, 1), 2.0),))
        )
        with pytest.raises(ObsError):
            registry.absorb(
                MetricsSnapshot(histograms=(("h", (2.0,), (1, 0), 1.0),))
            )


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.counter("c").inc(10)
        NULL_METRICS.gauge("g").set(3.0)
        NULL_METRICS.histogram("h", (1.0,)).observe(0.5)
        assert NULL_METRICS.snapshot() == MetricsSnapshot()
