"""``repro.lint`` — simulator-invariant checker.

A from-scratch static-analysis engine whose rules encode this repo's
own bug classes (see ``DESIGN.md`` §2.9–2.10). The per-file rules
(LINT001, LINT004, LINT005, LINT007, LINT011–013) catch
nondeterministic iteration in scheduler selection loops, exact float
comparison in solver code, mutable default arguments, raises that
bypass the :mod:`repro.errors` hierarchy, any call that yields a
nondeterministic value (wall clock, module-level or unseeded RNG, OS
entropy), unpicklable members on parallel jobs — followed through the
module call graph (:mod:`repro.lint.callgraph`) — and ``print`` in
model code. The module-graph rules (LINT017, LINT018) build the import
graph (:mod:`repro.lint.importgraph`), check it against the repo's
declared ``architecture.toml`` layer contract and find code
unreachable from the declared roots (:mod:`repro.lint.deadcode`).
LINT019 propagates per-function raise sets
(:mod:`repro.lint.effects`) through the whole-program call graph and
verifies that only :mod:`repro.errors` types escape the public/CLI
boundary (see ``DESIGN.md`` §2.13–2.14).

Public surface:

- :class:`Finding` — one (file, line, rule, message) record;
- :func:`lint_paths` / :func:`lint_files` — lint trees or explicit
  file lists, optionally through a :class:`LintCache`;
- :func:`lint_source` — lint one source string (fixture-friendly);
- :data:`ALL_RULE_IDS` / :func:`rule_table` / :func:`explain_rule` —
  the rule registry and its self-documentation;
- :func:`render_text` / :func:`render_json` / :func:`render_sarif` —
  the ``--format`` renderers;
- :mod:`repro.lint.determinism` — the dynamic harness: fixed scenarios
  whose output must not change with PYTHONHASHSEED or with tracing.
"""

from repro.lint.cache import LintCache
from repro.lint.engine import Finding, lint_files, lint_paths, lint_source
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint.rules import ALL_RULE_IDS, explain_rule, rule_table

__all__ = [
    "ALL_RULE_IDS",
    "Finding",
    "LintCache",
    "explain_rule",
    "lint_files",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_table",
]
