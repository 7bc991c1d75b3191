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
miss.

On disk the cache is a directory of append-only **segment files**
(``<pid>-<n>.pkl``), one per writing :class:`SimCache` and process.
Each store appends one record to its own segment with a single
``write``: a header (key and payload lengths), the key, then the
pickled ``{version, key, result}`` payload. A lookup serves from an
in-memory index of complete records; on a miss it first indexes
whatever any segment gained since its last scan, so a store made by
any process is visible to every later lookup. Creating a file costs
far more than appending to one, which is why the layout has one file
per writer rather than one per entry.

Crash semantics: a record cut short (a writer killed mid-``write``,
or a short write on a full disk) is never indexed or served, and
nothing is ever appended after it — a killed writer writes no more, a
failed write makes the next store start a new segment, and a cache
inherited across ``fork`` checks the writer pid and opens a segment of
its own. The cache is advisory in *both* directions: a complete record
that fails to unpickle or carries another key or schema version counts
as an invalidation and is dropped from the index, and the lookup falls
back to the key's other complete records before it misses (so one
damaged record never hides a good one, whichever segment it sits in);
a store that fails at the OS level (disk full, read-only directory)
degrades to "not cached" — counted as a store failure, never a crashed
sweep.

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
import os
import pickle
import struct
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

CACHE_DIR_NAME = ".sim-cache"
CACHE_SCHEMA_VERSION = 2

#: Both globals are deliberately per-process. The fingerprint is a
#: deterministic pure function of the source tree (every process
#: computes the same string), and the active cache serves the process
#: that calls ``parallel_map``, which looks jobs up and stores their
#: results itself; a forked worker that stored through an inherited
#: cache would open a segment of its own.
_CODE_FINGERPRINT: Optional[str] = None

_ACTIVE: Optional["SimCache"] = None

#: Record header: key length, payload length (little-endian).
_HEADER = struct.Struct("<IQ")

#: Suffix of segment files; a scan reads no other file.
_SEGMENT_SUFFIX = ".pkl"


def _record(key: str, blob: bytes) -> bytes:
    """One on-disk record: header, key, pickled payload."""
    key_bytes = key.encode("utf-8")
    return _HEADER.pack(len(key_bytes), len(blob)) + key_bytes + blob


def _records(data: bytes) -> Iterator[Tuple[str, bytes, int]]:
    """``(key, payload, end offset)`` of each complete record in ``data``.

    Stops at the first record cut short, so a torn tail is never read.
    """
    pos = 0
    while pos + _HEADER.size <= len(data):
        key_len, blob_len = _HEADER.unpack_from(data, pos)
        key_end = pos + _HEADER.size + key_len
        end = key_end + blob_len
        if end > len(data):
            return
        key = data[pos + _HEADER.size : key_end].decode("utf-8", "replace")
        yield key, data[key_end:end], end
        pos = end


def _result_of(blob: bytes, key: str) -> Tuple[bool, Any]:
    """``(True, result)`` if ``blob`` is an intact current record of
    ``key``; ``(False, None)`` if it is stale, foreign or corrupt."""
    try:
        payload = pickle.loads(blob)
    except Exception:  # noqa: BLE001 - any corruption is a recompute
        return False, None
    if (
        isinstance(payload, dict)
        and payload.get("version") == CACHE_SCHEMA_VERSION
        and payload.get("key") == key
        and "result" in payload
    ):
        return True, payload["result"]
    return False, None


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
        self._fingerprint = code_fingerprint()
        #: Payloads of the complete records seen for each key, in scan
        #: order; lookups try the last one first.
        self._index: Dict[str, List[bytes]] = {}
        #: Bytes of each segment (by path) already indexed or written.
        self._scanned: Dict[str, int] = {}
        #: This cache's own segment and the pid that created it; a
        #: store from any other pid (a forked child) opens a new one.
        self._segment = ""
        self._writer_pid: Optional[int] = None

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

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        """Index the complete records appended to any segment since the
        last scan; a record still cut short is left for a later one."""
        try:
            names = sorted(
                name
                for name in os.listdir(self.directory)
                if name.endswith(_SEGMENT_SUFFIX)
            )
        except OSError:
            return  # no directory yet: nothing stored
        for name in names:
            path = os.path.join(self.directory, name)
            start = self._scanned.get(path, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(start)
                    data = handle.read()
            except OSError:
                continue
            consumed = 0
            for key, blob, consumed in _records(data):
                self._index.setdefault(key, []).append(blob)
            self._scanned[path] = start + consumed

    def _segment_fd(self) -> int:
        """An append fd on this cache's own segment, created on first
        use in each process: a cache inherited across ``fork`` never
        appends to its parent's file."""
        pid = os.getpid()
        if self._writer_pid == pid:
            return os.open(self._segment, os.O_WRONLY | os.O_APPEND)
        self.directory.mkdir(parents=True, exist_ok=True)
        n = 0
        while True:
            path = os.path.join(self.directory, f"{pid}-{n}{_SEGMENT_SUFFIX}")
            try:
                fd = os.open(
                    path,
                    os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL,
                    0o644,
                )
            except FileExistsError:  # another cache here, or a reused pid
                n += 1
                continue
            self._segment, self._writer_pid = path, pid
            self._scanned[path] = 0
            return fd

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(True, result)`` on a hit, ``(False, None)`` otherwise.

        A stale, foreign or corrupt record is dropped and the key's
        next older record tried; a lookup that drops any counts one
        invalidation.
        """
        blobs = self._index.get(key)
        if not blobs:
            self._scan()
            blobs = self._index.get(key, [])
        found, result, dropped = False, None, False
        while blobs and not found:
            found, result = _result_of(blobs[-1], key)
            if not found:
                blobs.pop()
                dropped = True
        if dropped:
            self.invalidations += 1
            self._mirror("invalidations")
        if not found:
            self.misses += 1
            self._mirror("misses")
            return False, None
        del blobs[:-1]  # older copies are never needed again
        self.hits += 1
        self._mirror("hits")
        return True, result

    def store(self, key: str, result: Any) -> bool:
        """Persist ``result`` under ``key``.

        Returns ``False`` without raising when the result is
        unpicklable *or* the filesystem refuses the write (disk full,
        read-only directory): the cache is advisory, so a failed store
        degrades to "not cached" — counted in ``store_failures`` — and
        the sweep's own result is unaffected.
        """
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "key": key,
            "result": result,
        }
        try:
            blob = pickle.dumps(payload)
        except Exception:  # noqa: BLE001 - uncacheable result, not an error
            return False
        record = _record(key, blob)
        try:
            fd = self._segment_fd()
            try:
                written = os.write(fd, record)
            finally:
                os.close(fd)
        except OSError:
            written = 0
        if written != len(record):
            # Part of the record may be on disk: the next store starts a
            # new segment, so nothing is appended after a record cut short.
            self._writer_pid = None
            self.store_failures += 1
            self._mirror("store_failures")
            return False
        self._scanned[self._segment] += len(record)
        self._index.setdefault(key, []).append(blob)
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
