"""Exception hierarchy for the repro library.

Every error raised on a public code path derives from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A spec or configuration object is internally inconsistent."""


class CalibrationError(ReproError):
    """Model construction could not extract parameters from measurements."""


class SimulationError(ReproError):
    """A simulator reached an invalid internal state."""


class JobFailedError(SimulationError):
    """A :func:`repro.perf.parallel_map` job raised.

    Carries the failing job's index and label so a sweep of hundreds of
    jobs reports *which* one died; the worker pool survives the failure.
    ``__cause__`` holds the original exception on the serial path; on
    the process-pool path the original traceback text is embedded in
    the message instead (exceptions do not always pickle).
    """

    def __init__(self, message: str, index: int, label: str) -> None:
        super().__init__(message)
        self.index = index
        self.label = label


class WorkloadError(ReproError):
    """A workload definition is malformed or references an unknown kernel."""


class PredictionError(ReproError):
    """A slowdown model was asked for a prediction it cannot produce."""


class UnitsError(ReproError, ValueError):
    """A unit conversion or range helper received an invalid value.

    Also derives :class:`ValueError` so callers that predate the
    hierarchy (and idiomatic ``except ValueError`` argument checks)
    keep working.
    """


class AnalysisError(ReproError, ValueError):
    """A reporting/statistics helper received inconsistent data.

    Also derives :class:`ValueError` for backward compatibility with
    callers that catch the builtin.
    """


class UnknownKeyError(ReproError, KeyError):
    """A registry lookup (runner, workload, PU, figure) missed.

    Also derives :class:`KeyError` so callers with idiomatic
    ``except KeyError`` around dict-style lookups keep working. Note
    ``str()`` of a ``KeyError`` quotes its argument; messages here are
    full sentences, so renderers should prefer ``exc.args[0]``.
    """


class LintError(ReproError):
    """The static-analysis pass was misused (unknown rule, bad path)."""


class ObsError(ReproError):
    """The observability layer was misused or an export failed validation."""
