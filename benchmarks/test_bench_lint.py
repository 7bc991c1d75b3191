"""Lint benchmark: full-tree wall time, cached and uncached, per rule.

Times an all-rule lint of the installed ``repro`` package three
ways — cold (no cache), cache-priming, and cache-warm — plus a per-rule
wall-time breakdown from the engine's ``--profile`` plumbing. Asserts
the tree is clean, that the warm cached run beats the cold run, and
that no single rule dominates the budget pathologically. Records the
numbers in ``benchmarks/results/lint.txt`` and machine-readable
``lint.json``.

Kept out of tier-1 (``testpaths = tests``); run explicitly with
``pytest benchmarks/test_bench_lint.py``.
"""

import time
from pathlib import Path

import repro
from repro.lint.cache import LintCache
from repro.lint.engine import iter_python_files, lint_files

PACKAGE_ROOT = Path(repro.__file__).parent


def _timed_lint(files, cache=None, profile=None):
    start = time.perf_counter()
    findings = lint_files(files, cache=cache, profile=profile)
    return findings, time.perf_counter() - start


def test_bench_lint_full_tree(save_report, tmp_path):
    files = list(iter_python_files([str(PACKAGE_ROOT)]))
    assert len(files) > 80

    profile = {}
    findings, cold_s = _timed_lint(files, profile=profile)
    assert findings == []  # the self-clean invariant, at full scale

    cache = LintCache(tmp_path / ".lint-cache")
    _, prime_s = _timed_lint(files, cache=cache)
    warm_cache = LintCache(tmp_path / ".lint-cache")
    warm_findings, warm_s = _timed_lint(files, cache=warm_cache)
    assert warm_findings == []
    assert warm_cache.hits == len(files)
    assert warm_s < cold_s

    by_cost = sorted(profile.items(), key=lambda kv: -kv[1])
    total_rule_s = sum(profile.values()) or 1e-9
    lines = [
        "pccs lint benchmark — full repro tree "
        f"({len(files)} files, {len(profile)} rules)",
        f"cold (no cache):   {cold_s:8.3f} s",
        f"cache priming:     {prime_s:8.3f} s",
        f"cache warm:        {warm_s:8.3f} s "
        f"({cold_s / warm_s:5.1f}x vs cold)",
        "",
        "per-rule wall time (cold run):",
    ]
    lines += [
        f"  {rule_id}  {seconds:7.3f} s  "
        f"({100 * seconds / total_rule_s:5.1f}%)"
        for rule_id, seconds in by_cost
    ]
    save_report(
        "lint",
        "\n".join(lines),
        seconds=cold_s,
        speedup=cold_s / warm_s,
        baseline="cold uncached lint",
        files=len(files),
        cached_seconds=warm_s,
        per_rule_seconds={k: round(v, 6) for k, v in profile.items()},
    )
