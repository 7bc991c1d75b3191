"""The zero-perturbation contract: tracing must not change results.

Runs the ``repro.lint.determinism`` SoC co-run and DRAM simulation
twice — untraced, then under a full trace+metrics session — and
requires the result payloads to be identical down to canonical-JSON
bytes. The traced runs must also actually record something, so a
silently-unhooked tracer cannot pass as "no perturbation". The
scenarios reach every obs-guarded branch of both simulators
(``tests/obs/test_guarded_branches.py``).
"""

from __future__ import annotations

from repro.lint.determinism import canonical_json, dram_scenario, soc_scenario
from repro.obs import runtime as obs_runtime


class TestBitIdentity:
    def test_soc_corun_identical_when_traced(self):
        untraced = canonical_json(soc_scenario())
        with obs_runtime.session(trace=True, metrics=True) as sess:
            traced = canonical_json(soc_scenario())
            assert len(sess.tracer.buffer) > 0, "SoC hooks did not fire"
        assert traced == untraced

    def test_dram_run_identical_when_traced(self):
        untraced = canonical_json(dram_scenario())
        with obs_runtime.session(trace=True, metrics=True) as sess:
            traced = canonical_json(dram_scenario())
            assert len(sess.tracer.buffer) > 0, "DRAM hooks did not fire"
        assert traced == untraced

    def test_metrics_only_session_is_also_invisible(self):
        untraced = canonical_json(dram_scenario())
        with obs_runtime.session(trace=False, metrics=True) as sess:
            observed = canonical_json(dram_scenario())
            assert sess.metrics.snapshot().counter_value("dram.requests") > 0
        assert observed == untraced


class TestTracedContentShape:
    def test_soc_trace_carries_epoch_spans_and_grants(self):
        with obs_runtime.session(trace=True) as sess:
            soc_scenario()
            spans = {s.name for s in sess.tracer.buffer.spans}
            events = {e.name for e in sess.tracer.buffer.events}
        assert "corun" in spans
        assert "epoch" in spans
        assert "grant" in events
        assert "kernel.finished" in events
        assert "phase.transition" in events

    def test_dram_trace_carries_request_lifecycle(self):
        with obs_runtime.session(trace=True) as sess:
            result = dram_scenario()["result"]
            buffer = sess.tracer.buffer
        req_spans = [s for s in buffer.spans if s.name == "req"]
        enqueues = [e for e in buffer.events if e.name == "req.enqueue"]
        selects = [e for e in buffer.events if e.name == "sched.select"]
        issued = sum(core["issued"] for core in result["cores"])
        assert len(enqueues) == issued
        assert len(req_spans) == len(selects)
        assert any(e.name == "refresh" for e in buffer.events)
        outcomes = {dict(s.args)["outcome"] for s in req_spans}
        assert outcomes <= {"hit", "miss", "conflict"}
        for span in req_spans[:10]:
            assert span.end >= span.start  # completion after arrival
