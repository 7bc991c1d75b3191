"""Memory request records."""

from __future__ import annotations

from typing import Optional


class Request:
    """One 64-byte read transaction in flight.

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): the
    event loop builds one per access, so the record stays small and its
    attributes cheap. Equality is identity; ``req_id`` is unique.

    Attributes
    ----------
    req_id:
        Monotonic id (also the FCFS tiebreaker).
    core:
        Issuing core index.
    channel / bank / row:
        Decoded address coordinates.
    arrival_ns:
        Time the request entered the controller queue.
    completion_ns:
        Time data was returned to the core (set at dispatch).
    row_hit:
        Whether the access hit the open row (set at dispatch).
    """

    __slots__ = (
        "req_id", "core", "channel", "bank", "row", "arrival_ns",
        "is_write", "completion_ns", "row_hit",
    )

    def __init__(
        self,
        req_id: int,
        core: int,
        channel: int,
        bank: int,
        row: int,
        arrival_ns: float,
        is_write: bool = False,
    ) -> None:
        self.req_id = req_id
        self.core = core
        self.channel = channel
        self.bank = bank
        self.row = row
        self.arrival_ns = arrival_ns
        self.is_write = is_write
        self.completion_ns: Optional[float] = None
        self.row_hit: Optional[bool] = None

    def __repr__(self) -> str:
        return (
            f"Request(req_id={self.req_id}, core={self.core}, "
            f"channel={self.channel}, bank={self.bank}, row={self.row}, "
            f"arrival_ns={self.arrival_ns!r}, is_write={self.is_write})"
        )
