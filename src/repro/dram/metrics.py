"""Aggregate statistics of a DRAM simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.errors import AnalysisError


@dataclass
class DramMetrics:
    """Tallies of one simulation run, built once after its event loop.

    ``latencies_ns`` lists every dispatched request's queueing latency
    in dispatch order, and ``sum_queue_latency_ns`` is their running sum
    in that order. The engine adds as it goes, left to right as
    :func:`repro.units.left_sum` does, rather than calling ``sum()``,
    which rounds differently from Python 3.12 on.
    """

    row_hits: int = 0
    sum_queue_latency_ns: float = 0.0
    latencies_ns: List[float] = field(default_factory=list)

    @property
    def dispatches(self) -> int:
        return len(self.latencies_ns)

    def latency_percentile(self, q: float) -> float:
        """The q-th latency percentile in ns (q in [0, 100])."""
        return self.latency_percentiles((q,))[0]

    def latency_percentiles(self, qs: Sequence[float]) -> Tuple[float, ...]:
        """:meth:`latency_percentile` of each q, from one sort."""
        for q in qs:
            if not 0 <= q <= 100:
                raise AnalysisError(f"percentile must be in [0, 100], got {q}")
        if not self.latencies_ns:
            return tuple(0.0 for _ in qs)
        ordered = sorted(self.latencies_ns)
        last = len(ordered) - 1
        return tuple(
            ordered[min(int(round(q / 100.0 * last)), last)] for q in qs
        )

    @property
    def row_hit_rate(self) -> float:
        dispatches = self.dispatches
        return self.row_hits / dispatches if dispatches else 0.0

    @property
    def mean_latency_ns(self) -> float:
        dispatches = self.dispatches
        return self.sum_queue_latency_ns / dispatches if dispatches else 0.0

    def effective_bw_gbps(self, elapsed_ns: float) -> float:
        if elapsed_ns <= 0:
            return 0.0
        # 64 bytes per request; bytes per ns == GB/s
        return 64 * self.dispatches / elapsed_ns


def unfairness_index(slowdowns: Iterable[float]) -> float:
    """Max-over-min slowdown across cores (Kim et al.'s metric).

    1.0 is perfectly fair; the fairness-control literature the paper
    builds on (ATLAS/TCM) optimizes exactly this ratio. Slowdowns are
    standalone-time over co-run-time inverses, i.e. ``1 / RS``.
    """
    values = [s for s in slowdowns if s > 0]
    if not values:
        raise AnalysisError("need at least one positive slowdown")
    return max(values) / min(values)
