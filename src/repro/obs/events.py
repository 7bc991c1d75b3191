"""Leaf datatypes of the observability layer: events and spans.

Every record carries *simulated* time (or, for harness records, seconds
relative to the observability session's start measured through the
sanctioned :class:`repro.perf.timing.Stopwatch`) — never a raw host
clock reading, so traced runs stay reproducible and the determinism
rule (LINT011) holds for instrumented code.

Times are always expressed in **seconds** regardless of the emitting
engine's native unit; the DRAM instrumentation converts its nanosecond
timeline at the emit site. Exporters convert to the target format's
unit (Chrome trace uses microseconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple, Union

ArgValue = Union[str, int, float, bool, None]

#: Logical timeline a record belongs to. ``sim`` records carry simulated
#: time from an engine; ``harness`` records carry session-relative wall
#: time from the experiment pipeline. Exporters keep the two on separate
#: Chrome-trace process rows so the timelines never visually interleave.
SIM_CLOCK = "sim"
HARNESS_CLOCK = "harness"


@dataclass(frozen=True)
class Event:
    """One instantaneous occurrence on a track.

    Attributes
    ----------
    name:
        What happened (``"resolve"``, ``"req.enqueue"`` ...).
    time:
        When it happened, in seconds on its clock domain.
    track:
        The timeline row the event belongs to (a PU name, a DRAM
        channel, an experiment name).
    category:
        Dot-free grouping label used by exporters and filters
        (``"soc"``, ``"dram"``, ``"experiment"``).
    args:
        Small, JSON-representable payload (sorted on export).
    clock:
        ``"sim"`` or ``"harness"`` (see module docstring).
    """

    name: str
    time: float
    track: str
    category: str = "event"
    args: Tuple[Tuple[str, ArgValue], ...] = ()
    clock: str = SIM_CLOCK


@dataclass(frozen=True)
class Span:
    """One completed interval on a track (closed spans only).

    Open spans live as :class:`repro.obs.tracer.ActiveSpan` handles and
    become :class:`Span` records when closed.
    """

    name: str
    start: float
    end: float
    track: str
    category: str = "span"
    args: Tuple[Tuple[str, ArgValue], ...] = ()
    clock: str = SIM_CLOCK
    depth: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def freeze_args(args: Mapping[str, ArgValue]) -> Tuple[Tuple[str, ArgValue], ...]:
    """Deterministic, hashable rendering of an args mapping."""
    return tuple(sorted(args.items()))


@dataclass
class TraceBuffer:
    """Append-only storage a tracer writes into.

    Split from the tracer so exporters and tests can consume a plain
    data object with no behaviour attached.
    """

    events: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events) + len(self.spans)


__all__ = [
    "ArgValue",
    "Event",
    "HARNESS_CLOCK",
    "SIM_CLOCK",
    "Span",
    "TraceBuffer",
    "freeze_args",
]
