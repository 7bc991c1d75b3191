"""The content-addressed simulation cache: keys, recovery, bit-identity."""

import dataclasses
import filecmp
import pickle
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.perf.simcache as simcache_module

from repro.dram.system import CMPSystem
from repro.experiments import common
from repro.perf import parallel_map, shutdown_pool
from repro.perf.jobs import DramRunJob, PressureSweepJob
from repro.perf.simcache import (
    CACHE_SCHEMA_VERSION,
    SimCache,
    activate_sim_cache,
    active_sim_cache,
    set_sim_cache,
)
from repro.soc import configs
from repro.soc.spec import PUType
from repro.workloads.rodinia import rodinia_kernel


@dataclass(frozen=True)
class CountingJob:
    """Cacheable job that tallies real executions in a side-band file."""

    value: int
    tally_path: str

    def describe(self) -> str:
        return f"counting:{self.value}"

    def signature(self) -> str:
        return repr(("counting.v1", self.value))

    def run(self) -> int:
        with open(self.tally_path, "a") as handle:
            handle.write("x\n")
        return self.value * 10


def _tally(path) -> int:
    return len(path.read_text().splitlines()) if path.exists() else 0


@pytest.fixture(autouse=True)
def _no_leaked_cache():
    previous = set_sim_cache(None)
    yield
    set_sim_cache(previous)


def _sweep_variants():
    job = PressureSweepJob(
        "xavier-agx", rodinia_kernel("cfd", PUType.GPU), "gpu", (1.0, 2.0)
    )
    return job, {
        "soc_name": ["snapdragon-855"],
        "kernel": [rodinia_kernel("bfs", PUType.GPU)],
        "pu_name": ["cpu"],
        "levels": [(1.0, 2.5), (1.0,)],
        "pressure_pu": ["cpu"],
    }


def _dram_variants():
    cores = tuple(CMPSystem().group_configs(40.0, 2, 100))
    job = DramRunJob("frfcfs", 0, cores, frozenset({1}))
    return job, {
        "policy": ["atlas"],
        "seed": [1],
        "cores": [
            cores[:1],
            (dataclasses.replace(cores[0], mshr=8),) + cores[1:],
            (dataclasses.replace(cores[0], demand_gbps=30.0),) + cores[1:],
        ],
        "stop_cores": [None, frozenset({0}), frozenset({0, 1})],
    }


#: For each job type: a job and, per field, values that differ from it.
_FIELD_VARIANTS = {
    PressureSweepJob: _sweep_variants,
    DramRunJob: _dram_variants,
}


class TestKeys:
    def test_same_inputs_same_key(self, tmp_path):
        cache = SimCache(tmp_path)
        kernel = rodinia_kernel("cfd", PUType.GPU)
        a = PressureSweepJob("xavier-agx", kernel, "gpu", (1.0, 2.0))
        b = PressureSweepJob("xavier-agx", kernel, "gpu", (1.0, 2.0))
        assert cache.key_for(a) == cache.key_for(b)

    def test_any_input_changes_the_key(self, tmp_path):
        cache = SimCache(tmp_path)
        kernel = rodinia_kernel("cfd", PUType.GPU)
        base = PressureSweepJob("xavier-agx", kernel, "gpu", (1.0, 2.0))
        variants = [
            PressureSweepJob("snapdragon-855", kernel, "gpu", (1.0, 2.0)),
            PressureSweepJob("xavier-agx", kernel, "cpu", (1.0, 2.0)),
            PressureSweepJob("xavier-agx", kernel, "gpu", (1.0, 2.5)),
            PressureSweepJob(
                "xavier-agx",
                rodinia_kernel("bfs", PUType.GPU),
                "gpu",
                (1.0, 2.0),
            ),
        ]
        keys = {cache.key_for(job) for job in variants}
        assert cache.key_for(base) not in keys
        assert len(keys) == len(variants)

    def test_code_fingerprint_invalidates(self, tmp_path, monkeypatch):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        assert cache.store(key, {"answer": 42})
        assert cache.lookup(key) == (True, {"answer": 42})
        # Simulate a code edit: the process-wide fingerprint changes and
        # a new cache (same directory) must miss every old entry.
        monkeypatch.setattr(
            simcache_module, "_CODE_FINGERPRINT", "deadbeef" * 8
        )
        stale = SimCache(tmp_path)
        new_key = stale.key_for_signature("sig")
        assert new_key != key
        assert stale.lookup(new_key) == (False, None)

    def test_signature_none_is_uncacheable(self, tmp_path):
        @dataclass(frozen=True)
        class SideEffectJob:
            def signature(self):
                return None

            def run(self):
                return 1

        cache = SimCache(tmp_path)
        assert cache.key_for(SideEffectJob()) is None

    def test_jobs_without_signature_are_uncacheable(self, tmp_path):
        cache = SimCache(tmp_path)
        assert cache.key_for(object()) is None

    @pytest.mark.parametrize("job_type", [PressureSweepJob, DramRunJob])
    def test_replacing_any_field_changes_the_signature(self, job_type):
        """The runtime twin of LINT014: every declared field is an input,
        so a job that differs in any one field gets another key."""
        job, variants = _FIELD_VARIANTS[job_type]()
        fields = [field.name for field in dataclasses.fields(job_type)]
        assert sorted(variants) == sorted(fields)
        for name, values in variants.items():
            for value in values:
                other = dataclasses.replace(job, **{name: value})
                assert other.signature() != job.signature(), (name, value)

    def test_memoised_spec_text_keeps_every_key(self, tmp_path, monkeypatch):
        """Sweep and calibration signatures hash the SoC spec's ``repr``,
        memoised per name: on both SoCs, a memo miss and a memo hit give
        the key of the spec built afresh, byte for byte."""
        monkeypatch.setattr(configs, "_SPEC_TEXT", {})
        cache = SimCache(tmp_path)
        kernel = rodinia_kernel("cfd", PUType.GPU)
        for soc in configs.available_socs():
            spec = repr(configs.soc_by_name(soc))
            job = PressureSweepJob(soc, kernel, "gpu", (0.0, 25.0))
            sweep = repr(
                (
                    "pressure_sweep.v1", soc, spec, repr(kernel), "gpu",
                    (0.0, 25.0), None,
                )
            )
            calibration = repr(("calibration.v1", soc, spec, "gpu"))
            for _ in range(2):
                assert cache.key_for(job) == cache.key_for_signature(sweep)
                assert common._calibration_signature(soc, "gpu") == calibration


def _segments(directory):
    return sorted(Path(directory).glob("*.pkl"))


def _append_foreign_record(directory, key, blob):
    """Append one complete record to a segment no cache object owns."""
    with open(Path(directory) / "foreign-0.pkl", "ab") as handle:
        handle.write(simcache_module._record(key, blob))


def _record_count(directory) -> int:
    return sum(
        len(list(simcache_module._records(path.read_bytes())))
        for path in _segments(directory)
    )


class TestRecovery:
    def test_corrupt_entry_is_recomputed_and_overwritten(self, tmp_path):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        _append_foreign_record(tmp_path, key, b"not a pickle at all")
        assert cache.lookup(key) == (False, None)
        assert cache.invalidations == 1
        assert cache.store(key, [1, 2, 3])
        assert cache.lookup(key) == (True, [1, 2, 3])
        # Another process never serves the damaged record, and it does
        # not hide the good one either: the damaged record's segment
        # sorts after the good one's, so a fresh scan indexes it last.
        fresh = SimCache(tmp_path)
        assert fresh.lookup(key) == (True, [1, 2, 3])
        assert fresh.lookup(key) == (True, [1, 2, 3])
        assert (fresh.misses, fresh.stores) == (0, 0)
        assert fresh.invalidations == 1

    def test_truncated_entry_tolerated(self, tmp_path):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        assert cache.store(key, {"a": 1})
        (segment,) = _segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-7])
        fresh = SimCache(tmp_path)
        assert fresh.lookup(key) == (False, None)
        assert fresh.invalidations == 0  # a cut-short record is not indexed

    def test_schema_version_mismatch_invalidates(self, tmp_path):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        other = cache.key_for_signature("other")
        for payload_version, payload_key in (
            (CACHE_SCHEMA_VERSION + 1, key),
            (CACHE_SCHEMA_VERSION, other),
        ):
            _append_foreign_record(
                tmp_path,
                key,
                pickle.dumps(
                    {
                        "version": payload_version,
                        "key": payload_key,
                        "result": 5,
                    }
                ),
            )
            assert SimCache(tmp_path).lookup(key) == (False, None)
        assert cache.lookup(key) == (False, None)
        assert cache.invalidations == 1

    def test_unpicklable_result_is_skipped_not_fatal(self, tmp_path):
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        assert cache.store(key, lambda: None) is False
        assert cache.stores == 0


def _hammer_store(directory, key, payload, rounds):
    """Child-process body for the concurrent-writer regression test."""
    cache = SimCache(directory)
    for _ in range(rounds):
        cache.store(key, payload)


class TestConcurrentWriters:
    def test_same_key_from_many_processes_never_tears(self, tmp_path):
        """Every writer appends whole records to a segment of its own,
        so however the stores interleave, each record on disk is one
        writer's complete payload and every segment parses to its end.
        """
        import multiprocessing

        directory = tmp_path / "cache"
        probe = SimCache(directory)
        key = probe.key_for_signature("contended")
        payload = {"blob": list(range(5000))}
        workers = [
            multiprocessing.Process(
                target=_hammer_store, args=(directory, key, payload, 25)
            )
            for _ in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        fresh = SimCache(directory)
        assert fresh.lookup(key) == (True, payload)
        assert fresh.invalidations == 0
        segments = _segments(directory)
        assert len(segments) == 4
        for segment in segments:
            data = segment.read_bytes()
            ends = [end for _, _, end in simcache_module._records(data)]
            assert len(ends) == 25 and ends[-1] == len(data)

    def test_each_cache_appends_to_its_own_segment(self, tmp_path):
        """Two caches in one process never share a segment, and each
        sees the other's stores."""
        first, second = SimCache(tmp_path), SimCache(tmp_path)
        a, b = first.key_for_signature("a"), first.key_for_signature("b")
        assert first.store(a, 1) and second.store(b, 2)
        assert first.store(a, 1)
        counts = sorted(
            len(list(simcache_module._records(path.read_bytes())))
            for path in _segments(tmp_path)
        )
        assert counts == [1, 2]
        assert first.lookup(b) == (True, 2)
        assert second.lookup(a) == (True, 1)


class TestStoreFailureDegradation:
    def test_oserror_store_degrades_to_not_cached(self, tmp_path):
        """Disk trouble must cost the cache entry, never the sweep.

        chmod tricks do not block root, so the OSError is forced with a
        regular file squatting on the cache-directory path: ``mkdir``
        fails with EEXIST/ENOTDIR on every platform and uid.
        """
        squatted = tmp_path / "cache"
        squatted.write_text("file where the cache directory goes")
        cache = SimCache(squatted)
        key = cache.key_for_signature("sig")
        assert cache.store(key, [1, 2]) is False
        assert cache.store_failures == 1
        assert cache.stores == 0
        assert cache.lookup(key) == (False, None)  # simply not cached
        assert "store failure" in cache.stats_line()

    def test_short_write_leaves_no_torn_record(self, tmp_path, monkeypatch):
        """A write cut short (disk full) is a failed store, and the next
        store starts a new segment instead of appending after it."""
        write = simcache_module.os.write

        def half_write(fd, data):
            return write(fd, data[: len(data) // 2])

        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        monkeypatch.setattr(simcache_module.os, "write", half_write)
        assert cache.store(key, {"a": 1}) is False
        monkeypatch.undo()
        assert cache.store_failures == 1
        assert cache.store(key, {"a": 1})
        assert [
            len(list(simcache_module._records(path.read_bytes())))
            for path in _segments(tmp_path)
        ] == [0, 1]
        fresh = SimCache(tmp_path)
        assert fresh.lookup(key) == (True, {"a": 1})
        assert fresh.invalidations == 0


class TestKilledWriter:
    def test_torn_tail_never_served(self, tmp_path):
        """A writer killed mid-``write`` leaves a record cut short: it is
        never indexed, and the records before it are still served."""
        cache = SimCache(tmp_path)
        keep = cache.key_for_signature("keep")
        torn = cache.key_for_signature("torn")
        assert cache.store(keep, "kept") and cache.store(torn, "torn")
        (segment,) = _segments(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 10])
        resumed = SimCache(tmp_path)
        assert resumed.lookup(keep) == (True, "kept")
        assert resumed.lookup(torn) == (False, None)
        assert resumed.invalidations == 0
        assert resumed.store(torn, "torn")  # recomputed into a new segment
        assert len(_segments(tmp_path)) == 2
        assert SimCache(tmp_path).lookup(torn) == (True, "torn")

    def test_in_flight_record_served_once_complete(self, tmp_path):
        """A record another process is still writing is a miss until its
        last byte lands, then a hit for the same cache object."""
        cache = SimCache(tmp_path)
        key = cache.key_for_signature("sig")
        record = simcache_module._record(
            key,
            pickle.dumps(
                {"version": CACHE_SCHEMA_VERSION, "key": key, "result": 9}
            ),
        )
        segment = tmp_path / "writer-0.pkl"
        segment.write_bytes(record[:20])
        assert cache.lookup(key) == (False, None)
        segment.write_bytes(record)
        assert cache.lookup(key) == (True, 9)
        assert (cache.hits, cache.misses, cache.invalidations) == (1, 1, 0)


def _value(k: int):
    """The one result ever stored under key ``k`` (content addressing)."""
    return {"k": k, "blob": list(range(40 * k))}


def _store_in_child(cache, keys):
    for key, k in keys:
        cache.store(key, _value(k))


class TestSegmentStoreModel:
    """The segment store against a dict model.

    Each example interleaves stores, lookups, reopenings and tail
    truncations across 2-3 caches on one directory, plus one forked
    writer that stores through a cache it inherited. A truncation cuts
    a segment anywhere, as a writer killed mid-``write`` would, and the
    segment's writer is replaced by a fresh cache (a killed writer
    writes no more). The model holds, per segment, the key and end
    offset of each record.
    """

    KEYS = 6
    #: Stores and lookups weighted twice as heavily as the rest.
    OPS = ("store", "store", "lookup", "lookup", "reopen", "truncate")

    @settings(
        derandomize=True,
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        caches=st.integers(2, 3),
        ops=st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, 2),
                st.integers(0, KEYS - 1),
                st.integers(0, 10**6),
            ),
            min_size=10,
            max_size=40,
        ),
        fork_at=st.integers(0, 40),
        fork_keys=st.lists(st.integers(0, KEYS - 1), min_size=1, max_size=3),
    )
    def test_matches_dict_model(self, caches, ops, fork_at, fork_keys):
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            self._check(Path(directory), caches, ops, fork_at, fork_keys)

    def _check(self, directory, n, ops, fork_at, fork_keys):
        import multiprocessing

        live = [SimCache(directory) for _ in range(n)]
        keys = [
            live[0].key_for_signature(f"model:{k}") for k in range(self.KEYS)
        ]
        records = {}  # segment name -> [(k, end offset)]
        lookups = {id(cache): 0 for cache in live}
        retired = []

        def on_disk(k):
            return any(k == rk for seg in records.values() for rk, _ in seg)

        def replace_cache(i):
            retired.append(live[i])
            live[i] = SimCache(directory)
            lookups[id(live[i])] = 0

        for step, (op, i, k, cut) in enumerate(ops + [("end", 0, 0, 0)]):
            if step == fork_at % (len(ops) + 1):
                before = {
                    p.name: p.stat().st_size for p in _segments(directory)
                }
                parent = live[fork_at % n]
                child = multiprocessing.get_context("fork").Process(
                    target=_store_in_child,
                    args=(parent, [(keys[fk], fk) for fk in fork_keys]),
                )
                child.start()
                child.join(timeout=60)
                assert child.exitcode == 0
                (name,) = {p.name for p in _segments(directory)} - set(before)
                ends = [
                    end
                    for _, _, end in simcache_module._records(
                        (directory / name).read_bytes()
                    )
                ]
                assert len(ends) == len(fork_keys)  # every child store whole
                records[name] = list(zip(fork_keys, ends))
                assert {  # no other segment, the parent's included, grew
                    p.name: p.stat().st_size
                    for p in _segments(directory)
                    if p.name != name
                } == before
            i %= n
            cache = live[i]
            if op == "store":
                assert cache.store(keys[k], _value(k))
                seg = Path(cache._segment).name
                size = (directory / seg).stat().st_size
                records.setdefault(seg, []).append((k, size))
            elif op == "lookup":
                lookups[id(cache)] += 1
                found, value = cache.lookup(keys[k])
                if found:
                    assert value == _value(k)  # never wrong or torn
                else:
                    assert not on_disk(k)  # every complete record is seen
            elif op == "reopen":
                replace_cache(i)
            elif op == "truncate" and records:
                seg = sorted(records)[cut % len(records)]
                size = (directory / seg).stat().st_size
                new_size = cut % (size + 1)
                with open(directory / seg, "r+b") as handle:
                    handle.truncate(new_size)
                records[seg] = [
                    (rk, end) for rk, end in records[seg] if end <= new_size
                ]
                for j, other in enumerate(live):
                    if Path(other._segment).name == seg:
                        replace_cache(j)
        for cache in live + retired:
            assert cache.hits + cache.misses == lookups[id(cache)]
            assert cache.invalidations == 0


class TestParallelMapIntegration:
    def test_hits_skip_execution(self, tmp_path):
        tally = tmp_path / "tally.txt"
        jobs = [CountingJob(i, str(tally)) for i in range(4)]
        activate_sim_cache(tmp_path / "cache")
        cache = active_sim_cache()
        first = parallel_map(jobs, max_workers=1)
        assert first == [0, 10, 20, 30]
        assert _tally(tally) == 4
        assert (cache.misses, cache.stores, cache.hits) == (4, 4, 0)
        second = parallel_map(jobs, max_workers=1)
        assert second == first
        assert _tally(tally) == 4  # nothing re-executed
        assert cache.hits == 4

    def test_partial_hits_execute_only_misses(self, tmp_path):
        tally = tmp_path / "tally.txt"
        activate_sim_cache(tmp_path / "cache")
        parallel_map(
            [CountingJob(i, str(tally)) for i in range(2)], max_workers=1
        )
        results = parallel_map(
            [CountingJob(i, str(tally)) for i in range(4)], max_workers=1
        )
        assert results == [0, 10, 20, 30]
        assert _tally(tally) == 4  # 2 cold + 2 new, 2 served from disk

    def test_no_cache_active_is_a_no_op(self, tmp_path):
        tally = tmp_path / "tally.txt"
        jobs = [CountingJob(i, str(tally)) for i in range(2)]
        assert active_sim_cache() is None
        parallel_map(jobs, max_workers=1)
        parallel_map(jobs, max_workers=1)
        assert _tally(tally) == 4  # every call re-executes


class TestCalibrationCaching:
    def test_params_cached_and_identical(self, tmp_path):
        common.clear_caches()
        cold = common.pccs_params_for("xavier-agx", "gpu")
        activate_sim_cache(tmp_path / "cache")
        cache = active_sim_cache()
        common.clear_caches()
        stored = common.pccs_params_for("xavier-agx", "gpu")
        assert stored == cold
        assert cache.stores == 1 and cache.hits == 0
        common.clear_caches()
        warm = common.pccs_params_for("xavier-agx", "gpu")
        assert warm == cold
        assert cache.hits == 1


class TestRunnerStatsLine:
    def test_pooled_experiments_counted_once(self, tmp_path, capsys):
        """Under ``--jobs N`` the sweeps run on the pool, but every
        lookup and store happens in the coordinator: the runner's line
        counts each one once, and a warm re-run is served from disk."""
        from repro.experiments.runner import main

        cache_dir = tmp_path / "cache"
        argv = ["fig8", "fig9", "--jobs", "2", "--sim-cache", str(cache_dir)]
        lines = []
        for _ in range(2):  # cold, then warm
            shutdown_pool()  # no worker keeps results in memory
            common.clear_caches()
            assert main(argv) == 0
            lines.append(capsys.readouterr().err)
        shutdown_pool()
        stored = _record_count(cache_dir)
        assert stored > 0
        cold, warm = lines
        assert f": 0 hit(s), {stored} miss(es), {stored} store(s)" in cold
        assert f": {stored} hit(s), 0 miss(es), 0 store(s)" in warm


class TestArtifactBitIdentity:
    def test_runner_sim_cache_byte_identical_artifacts(
        self, tmp_path, capsys
    ):
        """Cold serial, cold-cached, and warm-cached runs of two
        experiments must write byte-identical files."""
        from repro.experiments.runner import main

        names = ["fig9", "fig2"]
        plain_dir = tmp_path / "plain"
        cold_dir = tmp_path / "cold"
        warm_dir = tmp_path / "warm"
        cache_dir = str(tmp_path / "cache")
        common.clear_caches()
        assert main(names + ["--out", str(plain_dir), "--csv"]) == 0
        common.clear_caches()
        assert (
            main(
                names
                + ["--out", str(cold_dir), "--csv", "--sim-cache", cache_dir]
            )
            == 0
        )
        common.clear_caches()
        assert (
            main(
                names
                + ["--out", str(warm_dir), "--csv", "--sim-cache", cache_dir]
            )
            == 0
        )
        capsys.readouterr()
        files = sorted(p.name for p in plain_dir.iterdir())
        assert files == sorted(p.name for p in cold_dir.iterdir())
        assert files == sorted(p.name for p in warm_dir.iterdir())
        for other in (cold_dir, warm_dir):
            match, mismatch, errors = filecmp.cmpfiles(
                plain_dir, other, files, shallow=False
            )
            assert mismatch == [] and errors == []
            assert sorted(match) == files

    def test_pool_plus_cache_byte_identical_artifacts(
        self, tmp_path, capsys
    ):
        """--jobs 2 --sim-cache (pool + cache together) matches serial."""
        from repro.experiments.runner import main

        names = ["fig9"]
        plain_dir = tmp_path / "plain"
        fast_dir = tmp_path / "fast"
        common.clear_caches()
        assert main(names + ["--out", str(plain_dir)]) == 0
        common.clear_caches()
        assert (
            main(
                names
                + [
                    "--out",
                    str(fast_dir),
                    "--jobs",
                    "2",
                    "--sim-cache",
                    str(tmp_path / "cache"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        shutdown_pool()
        assert (plain_dir / "fig9.txt").read_bytes() == (
            fast_dir / "fig9.txt"
        ).read_bytes()
