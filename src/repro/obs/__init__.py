"""Observability layer: tracing, metrics, and run provenance.

``repro.obs`` makes the simulators inspectable without perturbing them:

- :mod:`repro.obs.tracer` — structured events and spans with a
  :class:`NullTracer` default, so instrumented hot paths pay one
  ``if tracer.enabled`` check when tracing is off;
- :mod:`repro.obs.metrics` — counters/gauges/histograms with
  deterministic ordering and multiprocess snapshot absorption;
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``about:tracing``), JSONL/CSV dumps, and terminal summary tables;
- :mod:`repro.obs.manifest` — run-provenance manifests (config hash,
  code version, machine spec) attached to experiment outputs;
- :mod:`repro.obs.runtime` — process-wide session management so cached
  engines pick tracing up without constructor threading;
- :mod:`repro.obs.stitch` — cross-process trace stitching: worker pool
  buffers grouped into one process row per worker;

Invariants: traced and untraced runs are bit-identical (asserted by
the determinism harness), and every record carries simulated time —
never a raw host-clock value.

The names below are bound on first access (PEP 562): the simulators
import :mod:`repro.obs.runtime` on every run, and that must not load
the exporters, the stitcher or the manifest.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # The same names, for type checkers (``X as X`` re-exports them
    # under mypy --strict); tests/test_import_closure.py keeps this
    # block and the table below equal.
    from repro.obs.events import (
        Event as Event,
        Span as Span,
        TraceBuffer as TraceBuffer,
    )
    from repro.obs.export import (
        ensure_valid_chrome_trace as ensure_valid_chrome_trace,
        hit_rates_table as hit_rates_table,
        metrics_table as metrics_table,
        summary_table as summary_table,
        to_chrome_trace as to_chrome_trace,
        to_csv as to_csv,
        to_jsonl as to_jsonl,
        validate_chrome_trace as validate_chrome_trace,
        write_chrome_trace as write_chrome_trace,
    )
    from repro.obs.stitch import (
        StitchedWorker as StitchedWorker,
        WorkerTrace as WorkerTrace,
        align_workers as align_workers,
        merged_buffer as merged_buffer,
    )
    from repro.obs.manifest import (
        RunManifest as RunManifest,
        build_manifest as build_manifest,
        config_hash as config_hash,
    )
    from repro.obs.metrics import (
        Counter as Counter,
        Gauge as Gauge,
        Histogram as Histogram,
        MetricsRegistry as MetricsRegistry,
        MetricsSnapshot as MetricsSnapshot,
        NULL_METRICS as NULL_METRICS,
        NullMetricsRegistry as NullMetricsRegistry,
    )
    from repro.obs.runtime import (
        ObsSession as ObsSession,
        activate as activate,
        active as active,
        deactivate as deactivate,
        session as session,
        tracer_for as tracer_for,
    )
    from repro.obs.tracer import (
        NULL_TRACER as NULL_TRACER,
        NullTracer as NullTracer,
        Tracer as Tracer,
    )

#: Each defining module and the public names it contributes (LINT018
#: resolves every entry to its definition).
_LAZY_EXPORTS = {
    "repro.obs.events": ("Event", "Span", "TraceBuffer"),
    "repro.obs.export": (
        "ensure_valid_chrome_trace",
        "hit_rates_table",
        "metrics_table",
        "summary_table",
        "to_chrome_trace",
        "to_csv",
        "to_jsonl",
        "validate_chrome_trace",
        "write_chrome_trace",
    ),
    "repro.obs.stitch": (
        "StitchedWorker",
        "WorkerTrace",
        "align_workers",
        "merged_buffer",
    ),
    "repro.obs.manifest": ("RunManifest", "build_manifest", "config_hash"),
    "repro.obs.metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "MetricsSnapshot",
        "NULL_METRICS",
        "NullMetricsRegistry",
    ),
    "repro.obs.runtime": (
        "ObsSession",
        "activate",
        "active",
        "deactivate",
        "session",
        "tracer_for",
    ),
    "repro.obs.tracer": ("NULL_TRACER", "NullTracer", "Tracer"),
}

__all__ = sorted(name for names in _LAZY_EXPORTS.values() for name in names)


def __getattr__(name: str) -> object:
    for module, names in _LAZY_EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(import_module(module), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
