"""Metrics registry: counters, gauges, fixed-bucket histograms.

Built for the multiprocess experiment pipeline:

- **deterministic ordering** — exports and snapshots list instruments
  sorted by name, never by dict insertion or hash order;
- **mergeable** — :class:`MetricsSnapshot` is a frozen, picklable value
  object, and :meth:`MetricsRegistry.absorb` folds one into a live
  registry (counters and histograms add; gauges keep the maximum), so
  absorbing worker snapshots in any order yields the same result as a
  serial run;
- **cheap when off** — :class:`NullMetricsRegistry` mirrors the API
  with no-ops, and hot paths guard on ``registry.enabled`` exactly like
  the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import ObsError


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """Last-set value (high-water mark under merge)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram.

    ``buckets`` are the upper edges; an observation lands in the first
    bucket whose edge is >= the value, or in the implicit overflow
    bucket past the last edge. Edges are fixed at creation so
    histograms from different processes merge bucket-wise.
    """

    __slots__ = ("name", "buckets", "counts", "total", "sum")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ObsError(f"histogram {name!r} needs >= 1 bucket")
        if list(edges) != sorted(edges):
            raise ObsError(f"histogram {name!r} bucket edges must ascend")
        self.name = name
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    """Picklable, immutable view of a registry's state.

    Everything is plain tuples of builtins, so snapshots cross process
    boundaries (``parallel_map`` outcomes) without custom reducers and
    stay LINT012-clean as members of perf job results.
    """

    counters: Tuple[Tuple[str, float], ...] = ()
    gauges: Tuple[Tuple[str, float], ...] = ()
    histograms: Tuple[
        Tuple[str, Tuple[float, ...], Tuple[int, ...], float], ...
    ] = ()

    def counter_value(self, name: str) -> float:
        for key, value in self.counters:
            if key == name:
                return value
        return 0.0

    def counters_with_prefix(self, prefix: str) -> Tuple[Tuple[str, float], ...]:
        """Counters under a namespace (e.g. ``"perf.simcache."``).

        Robustness tests use this to assert on a whole counter family
        (``pool.*``, ``jobs.*``) at once — sorted by name, like every
        snapshot view.
        """
        return tuple(
            (key, value)
            for key, value in self.counters
            if key.startswith(prefix)
        )


class MetricsRegistry:
    """Get-or-create instrument store with deterministic export order."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, self._gauges, self._histograms)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, self._counters, self._histograms)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, buckets: Sequence[float]) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, self._counters, self._gauges)
            instrument = self._histograms[name] = Histogram(name, buckets)
        elif instrument.buckets != tuple(float(b) for b in buckets):
            raise ObsError(
                f"histogram {name!r} re-registered with different buckets"
            )
        return instrument

    @staticmethod
    def _check_free(name: str, *families: Dict[str, object]) -> None:
        for family in families:
            if name in family:
                raise ObsError(
                    f"metric name {name!r} already used by another "
                    "instrument kind"
                )

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Frozen copy of the current state, sorted by name."""
        return MetricsSnapshot(
            counters=tuple(
                (name, c.value) for name, c in sorted(self._counters.items())
            ),
            gauges=tuple(
                (name, g.value) for name, g in sorted(self._gauges.items())
            ),
            histograms=tuple(
                (name, h.buckets, tuple(h.counts), h.sum)
                for name, h in sorted(self._histograms.items())
            ),
        )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker's snapshot into this live registry.

        The one merge rule for metrics: counters and histogram buckets
        add, gauges keep the maximum, so absorbing snapshots in any
        order gives the same registry. The persistent worker pool uses
        it to ship per-chunk snapshots back into the coordinator's
        session, so counters under the pool path equal the serial path
        exactly.
        """
        for name, value in snapshot.counters:
            self.counter(name).inc(value)
        for name, value in snapshot.gauges:
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, edges, counts, total_sum in snapshot.histograms:
            hist = self.histogram(name, edges)
            for i, count in enumerate(counts):
                hist.counts[i] += count
            hist.total += sum(counts)
            hist.sum += total_sum


class NullMetricsRegistry:
    """Disabled registry: instruments accept writes and drop them."""

    enabled = False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets: Sequence[float]) -> "_NullHistogram":
        return _NULL_HISTOGRAM

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        pass


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram()

NULL_METRICS = NullMetricsRegistry()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_METRICS",
    "NullMetricsRegistry",
]
