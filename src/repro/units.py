"""Unit helpers and conventions used across the library.

Conventions
-----------
- Bandwidth is expressed in **GB/s** (decimal gigabytes, i.e. 1e9 bytes/s),
  matching the paper's figures and tables.
- Time is expressed in **seconds**.
- Relative speed is a fraction in ``[0, 1]`` inside the library; the
  reporting layer renders it as a percentage to match the paper.
- Frequencies are expressed in **MHz** (the paper quotes PU and memory
  clocks in MHz).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import UnitsError

GIGA = 1e9

REL_TOL = 1e-9
"""Default relative tolerance for float comparisons (:func:`approx_eq`)."""

CACHELINE_BYTES = 64
"""Size of a memory transaction (one cacheline), in bytes."""


def bytes_to_gb(n_bytes: float) -> float:
    """Convert a byte count to decimal gigabytes."""
    return n_bytes / GIGA


def gb_to_bytes(n_gb: float) -> float:
    """Convert decimal gigabytes to bytes."""
    return n_gb * GIGA


def bandwidth_gbps(n_bytes: float, seconds: float) -> float:
    """Bandwidth in GB/s for ``n_bytes`` transferred over ``seconds``.

    Raises
    ------
    UnitsError
        If ``seconds`` is not positive.
    """
    if seconds <= 0:
        raise UnitsError(f"seconds must be positive, got {seconds!r}")
    return n_bytes / seconds / GIGA


def as_percent(fraction: float, digits: int = 1) -> str:
    """Render a ``[0, 1]`` fraction as a percentage string, paper-style."""
    return f"{fraction * 100:.{digits}f}%"


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the inclusive range ``[lo, hi]``."""
    if lo > hi:
        raise UnitsError(f"empty clamp range [{lo}, {hi}]")
    return max(lo, min(hi, value))


def left_sum(terms: Iterable[float]) -> float:
    """Add ``terms`` from left to right, starting at ``0``.

    This is the arithmetic of the built-in ``sum()`` before Python 3.12.
    From 3.12, ``sum()`` compensates float rounding and can give a
    different last bit for three or more floats, so model code sums
    floats with this helper to give the same bits on every supported
    Python. Sums of integer counts may keep ``sum()``.
    """
    total: float = 0  # an int, as sum()'s start, for the same bits
    for term in terms:
        total += term
    return total


def approx_eq(
    a: float,
    b: float,
    rel_tol: float = REL_TOL,
    abs_tol: float = 0.0,
) -> bool:
    """Tolerance-based float equality (the LINT004 alternative to ``==``).

    A thin :func:`math.isclose` wrapper so model code states its
    tolerance explicitly instead of comparing floats exactly.
    """
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
