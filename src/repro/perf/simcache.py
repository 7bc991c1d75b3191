"""Content-addressed on-disk cache of simulation results.

The experiment pipeline is pure: a job's result is a function of its
declared inputs (SoC spec, kernel spec, sweep levels) and of the code
that simulates them. That makes results safely memoizable — a cache
entry is keyed by the sha256 of

1. the job's **declared signature** (``job.signature()``: a canonical
   string over the full input value objects, not just their names),
2. the **code fingerprint**: sha256 over every ``repro`` source file
   plus the package version and the git HEAD (read subprocess-free via
   :func:`repro.obs.manifest.code_version`), so editing any module —
   committed or not — invalidates every entry, and
3. the cache **schema version**.

There are no mtime heuristics and no partial keys: either the bytes of
the inputs and the bytes of the code both match, or the entry is a
miss. Entries are pickles under a sharded directory (git-object style,
first two hex chars), written atomically (``tmp`` + ``replace``) so a
killed run never leaves a truncated entry behind. Tmp names embed the
writer's pid plus a per-process monotonic counter, so concurrent pooled
writers can never collide on (and ``replace`` each other's) the same
tmp path; tmp files orphaned by a killed writer are swept when a cache
opens on the directory. The cache is advisory in *both* directions:
corrupt, truncated, or schema-mismatched entries count as
invalidations and are recomputed and overwritten, and a store that
fails at the OS level (disk full, read-only directory) degrades to
"not cached" — counted as a store failure, never a crashed sweep.

Hit/miss/store/invalidation counts live on the cache object and are
mirrored into the active observability session's metrics registry
(``perf.simcache.*``), so ``--metrics`` runs report them alongside the
engine counters.

Bit-identity contract: a cache hit returns the unpickled result value
object, which compares (and renders) byte-identically to a fresh
computation — asserted by ``tests/perf/test_simcache.py`` on whole
experiment artifacts.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
from pathlib import Path
from typing import Any, Optional, Tuple, Union

CACHE_DIR_NAME = ".sim-cache"
CACHE_SCHEMA_VERSION = 1

_CODE_FINGERPRINT: Optional[str] = None

_ACTIVE: Optional["SimCache"] = None

#: Per-process monotonic suffix for tmp names. Together with the pid it
#: makes every in-flight tmp path unique across the whole pool — two
#: caches in two workers can never ``replace`` each other's
#: partially-written blob into the store.
_TMP_COUNTER = itertools.count()

#: Fork-safety declaration (LINT016): all three globals are deliberately
#: per-process. The fingerprint is a deterministic pure function of the
#: source tree (every process computes the same string), the active
#: cache is re-installed inside each worker by ``ExperimentJob.run`` —
#: the processes converge on the same on-disk store, never on shared
#: memory — and the tmp counter only ever pairs with this process's own
#: pid, so a forked child restarting at 0 is still unique.
_PROCESS_LOCAL_STATE = ("_ACTIVE", "_CODE_FINGERPRINT", "_TMP_COUNTER")


def _tmp_writer_pid(name: str) -> Optional[int]:
    """The writer pid embedded in a tmp filename, if parseable."""
    marker = ".tmp-"
    start = name.find(marker)
    if start < 0:
        return None
    parts = name[start + len(marker) :].split("-")
    try:
        return int(parts[0])
    except (IndexError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` currently exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM)
    return True


def code_fingerprint() -> str:
    """sha256 over every ``repro`` source plus the code version.

    Computed once per process. Hashing the sources (not just the git
    HEAD) means uncommitted edits invalidate the cache too — the
    key-hygiene lesson from :mod:`repro.lint.cache`.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        from repro.obs.manifest import code_version

        package_dir = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        digest.update(code_version().encode("utf-8"))
        for path in sorted(package_dir.rglob("*.py")):
            digest.update(str(path.relative_to(package_dir)).encode("utf-8"))
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


class SimCache:
    """Content-addressed result store under ``directory``."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        self.store_failures = 0
        self.tmp_swept = 0
        self._fingerprint = code_fingerprint()
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove tmp files orphaned by killed writers.

        A writer that dies between ``write_bytes`` and ``replace``
        leaves its tmp behind forever (the unique names mean no later
        store overwrites it). Tmp paths embedding a pid that is still
        alive belong to a concurrent writer and are left alone.
        """
        for tmp in sorted(self.directory.glob("*/*.tmp*")):
            pid = _tmp_writer_pid(tmp.name)
            if pid is not None and pid != os.getpid() and _pid_alive(pid):
                continue
            try:
                tmp.unlink()
            except OSError:
                continue
            self.tmp_swept += 1

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key_for_signature(self, signature: str) -> str:
        """Cache key for a declared signature string."""
        digest = hashlib.sha256()
        digest.update(f"v{CACHE_SCHEMA_VERSION}".encode("utf-8"))
        digest.update(self._fingerprint.encode("utf-8"))
        digest.update(signature.encode("utf-8"))
        return digest.hexdigest()

    def key_for(self, job: object) -> Optional[str]:
        """Cache key for a job, or ``None`` when the job is uncacheable.

        A job opts in by exposing ``signature()`` returning a canonical
        string over its full inputs; jobs with side effects or
        undeclared inputs return ``None`` (or omit the method).
        """
        method = getattr(job, "signature", None)
        if method is None:
            return None
        signature = method()
        if signature is None:
            return None
        return self.key_for_signature(signature)

    def _entry_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key[2:]}.pkl"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(True, result)`` on a hit, ``(False, None)`` otherwise."""
        entry = self._entry_path(key)
        try:
            raw = entry.read_bytes()
        except OSError:
            self.misses += 1
            self._mirror("misses")
            return False, None
        try:
            payload = pickle.loads(raw)
        except Exception:  # noqa: BLE001 - any corruption is a recompute
            payload = None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_SCHEMA_VERSION
            or payload.get("key") != key
            or "result" not in payload
        ):
            # Stale, foreign, or corrupt entry: invalidate and recompute.
            self.invalidations += 1
            self.misses += 1
            self._mirror("invalidations")
            self._mirror("misses")
            return False, None
        self.hits += 1
        self._mirror("hits")
        return True, payload["result"]

    def store(self, key: str, result: Any) -> bool:
        """Persist ``result`` under ``key``.

        Returns ``False`` without raising when the result is
        unpicklable *or* the filesystem refuses the write (disk full,
        read-only directory): the cache is advisory, so a failed store
        degrades to "not cached" — counted in ``store_failures`` — and
        the sweep's own result is unaffected. The tmp file is unlinked
        on failure rather than leaked.
        """
        entry = self._entry_path(key)
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "key": key,
            "result": result,
        }
        try:
            blob = pickle.dumps(payload)
        except Exception:  # noqa: BLE001 - uncacheable result, not an error
            return False
        tmp: Optional[Path] = None
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            # pid + per-process counter: unique across every concurrent
            # writer in the pool (id(self) was not — see tests).
            tmp = entry.parent / (
                f"{entry.stem}.tmp-{os.getpid()}-{next(_TMP_COUNTER)}"
            )
            tmp.write_bytes(blob)
            tmp.replace(entry)
        except OSError:
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass
            self.store_failures += 1
            self._mirror("store_failures")
            return False
        self.stores += 1
        self._mirror("stores")
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _mirror(self, which: str) -> None:
        """Increment the matching counter on the active obs session."""
        from repro.obs import runtime as obs_runtime

        metrics = obs_runtime.active().metrics
        if metrics.enabled:
            metrics.counter(f"perf.simcache.{which}").inc()

    def stats_line(self) -> str:
        line = (
            f"sim-cache: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), {self.invalidations} "
            f"invalidation(s)"
        )
        if self.store_failures:
            line += f", {self.store_failures} store failure(s)"
        if self.tmp_swept:
            line += f", {self.tmp_swept} stale tmp swept"
        return line + f" under {self.directory}"


# ----------------------------------------------------------------------
# Process-global active cache (the ``--sim-cache`` flag)
# ----------------------------------------------------------------------
def activate_sim_cache(directory: Union[str, Path]) -> SimCache:
    """Create and install the process-global cache (idempotent per dir)."""
    global _ACTIVE
    if _ACTIVE is None or _ACTIVE.directory != Path(directory):
        _ACTIVE = SimCache(directory)
    return _ACTIVE


def set_sim_cache(cache: Optional[SimCache]) -> Optional[SimCache]:
    """Install ``cache`` (or ``None`` to disable); returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    return previous


def active_sim_cache() -> Optional[SimCache]:
    """The process-global cache consulted by ``parallel_map`` (or None)."""
    return _ACTIVE


__all__ = [
    "CACHE_DIR_NAME",
    "CACHE_SCHEMA_VERSION",
    "SimCache",
    "activate_sim_cache",
    "active_sim_cache",
    "code_fingerprint",
    "set_sim_cache",
]
