"""Content-addressed results cache (``repro.experiments.cache``)."""

from pathlib import Path

import pytest

from repro.experiments import (
    ResultsCache,
    cell_key,
    combine_digests,
    instance_digest,
    solver_digest,
)
from repro.experiments.cache import cell_key_for_payload
from repro.generators import small_random_problem
from repro.io import problem_to_dict


class TestDigests:
    def test_equal_instances_hash_equal(self):
        assert instance_digest(small_random_problem(1)) == instance_digest(
            small_random_problem(1)
        )

    def test_different_instances_hash_different(self):
        assert instance_digest(small_random_problem(1)) != instance_digest(
            small_random_problem(2)
        )

    def test_solver_digest_ignores_name(self):
        a = {"name": "fast", "objective": "period", "method": "auto"}
        b = {"name": "renamed", "objective": "period", "method": "auto"}
        c = {"name": "fast", "objective": "latency", "method": "auto"}
        assert solver_digest(a) == solver_digest(b)
        assert solver_digest(a) != solver_digest(c)

    def test_cell_key_is_combine_of_the_two_digests(self):
        # The runner precomputes the digests and combines them itself;
        # this pins the two paths to the same key format.
        problem = small_random_problem(1)
        solver = {"name": "a", "objective": "period"}
        assert cell_key(problem, solver) == combine_digests(
            instance_digest(problem), solver_digest(solver)
        )

    @pytest.mark.parametrize("name", ["registry", "auto", "exact", "heuristic"])
    def test_method_and_strategy_spellings_share_a_key(self, name):
        payload = problem_to_dict(small_random_problem(1))
        by_method = cell_key_for_payload(payload, {"method": name})
        assert by_method == cell_key_for_payload(payload, {"strategy": name})
        if name == "registry":
            assert by_method == cell_key_for_payload(payload, {})

    def test_cell_key_depends_on_both_parts(self):
        p1, p2 = small_random_problem(1), small_random_problem(2)
        s1 = {"name": "a", "objective": "period"}
        s2 = {"name": "a", "objective": "latency"}
        keys = {
            cell_key(p1, s1),
            cell_key(p1, s2),
            cell_key(p2, s1),
            cell_key(p2, s2),
        }
        assert len(keys) == 4


class TestResultsCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultsCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert "0" * 64 not in cache

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultsCache(tmp_path)
        key = "ab" + "0" * 62
        record = {"status": "ok", "objective": 1.5}
        cache.put(key, record)
        assert key in cache
        assert cache.get(key) == record
        assert list(cache.keys()) == [key]
        assert len(cache) == 1

    def test_two_level_fanout(self, tmp_path):
        cache = ResultsCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {})
        assert cache.path(key) == tmp_path / "cd" / f"{key}.json"
        assert cache.path(key).exists()

    def test_overwrite(self, tmp_path):
        cache = ResultsCache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(key, {"v": 1})
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultsCache(tmp_path)
        key = "aa" + "3" * 62
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"truncated": ')  # simulates a pre-atomic crash
        assert cache.get(key) is None
        assert not path.exists()

    def test_len_counts_the_directory_once_then_tracks_writes(
        self, tmp_path, monkeypatch
    ):
        ResultsCache(tmp_path).put("00" + "5" * 62, {"i": 0})
        corrupt = "01" + "5" * 62  # left on disk by a crash
        ResultsCache(tmp_path).path(corrupt).parent.mkdir(parents=True)
        ResultsCache(tmp_path).path(corrupt).write_text("{")
        cache = ResultsCache(tmp_path)
        globs = []
        real_glob = Path.glob

        def counting_glob(self, pattern):
            globs.append(pattern)
            return real_glob(self, pattern)

        monkeypatch.setattr(Path, "glob", counting_glob)
        counts = [len(cache)]
        cache.put("02" + "5" * 62, {"i": 2})  # new key
        counts.append(len(cache))
        cache.put("02" + "5" * 62, {"i": 3})  # repeated key
        counts.append(len(cache))
        assert cache.get(corrupt) is None  # removed as a miss
        counts.append(len(cache))
        assert len(globs) == 1
        monkeypatch.undo()
        assert counts == [2, 3, 3, 2]
        assert len(cache) == sum(1 for _ in tmp_path.glob("*/*.json"))

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultsCache(tmp_path)
        for i in range(5):
            cache.put(f"{i:02d}" + "4" * 62, {"i": i})
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_empty_cache_iterates_nothing(self, tmp_path):
        cache = ResultsCache(tmp_path / "never-created")
        assert list(cache.keys()) == []
        assert len(cache) == 0


class TestMemoLRU:
    def test_hit_avoids_disk_read(self, tmp_path):
        cache = ResultsCache(tmp_path)
        key = "ab" + "6" * 62
        cache.put(key, {"v": 1})  # put memoizes
        cache.path(key).unlink()  # remove the disk entry entirely
        assert cache.get(key) == {"v": 1}  # still answered by the memo
        assert cache.memo_hits == 1
        assert cache.memo_misses == 0

    def test_get_populates_memo(self, tmp_path):
        key = "ab" + "7" * 62
        ResultsCache(tmp_path).put(key, {"v": 2})
        cache = ResultsCache(tmp_path)  # fresh instance, cold memo
        assert cache.get(key) == {"v": 2}
        assert (cache.memo_hits, cache.memo_misses) == (0, 1)
        assert cache.get(key) == {"v": 2}
        assert (cache.memo_hits, cache.memo_misses) == (1, 1)

    def test_contains_consults_memo(self, tmp_path):
        cache = ResultsCache(tmp_path)
        key = "ab" + "8" * 62
        cache.put(key, {"v": 3})
        cache.path(key).unlink()
        assert key in cache

    def test_lru_eviction_at_capacity(self, tmp_path):
        cache = ResultsCache(tmp_path, memo_entries=2)
        keys = [f"{i:02d}" + "9" * 62 for i in range(3)]
        for i, key in enumerate(keys[:2]):
            cache.put(key, {"i": i})
        cache.get(keys[0])  # refresh key 0: key 1 becomes LRU
        cache.put(keys[2], {"i": 2})  # evicts key 1
        assert keys[1] not in cache._memo
        assert keys[0] in cache._memo and keys[2] in cache._memo
        # The evicted key still resolves from disk (memo miss).
        misses = cache.memo_misses
        assert cache.get(keys[1]) == {"i": 1}
        assert cache.memo_misses == misses + 1

    def test_memo_entries_zero_disables(self, tmp_path):
        cache = ResultsCache(tmp_path, memo_entries=0)
        key = "ab" + "a" * 62
        cache.put(key, {"v": 4})
        assert cache._memo == {}
        assert cache.get(key) == {"v": 4}
        assert cache.memo_hits == 0
        assert cache.memo_misses == 1
        cache.path(key).unlink()
        assert cache.get(key) is None  # nothing cached in-process

    def test_corrupt_entry_not_memoized(self, tmp_path):
        cache = ResultsCache(tmp_path)
        key = "aa" + "b" * 62
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"truncated": ')
        assert cache.get(key) is None
        assert key not in cache._memo


def _hammer_put(args):
    """Concurrent-writer worker: repeatedly write distinct records under
    one shared key (module-level so it crosses the process pool)."""
    root, key, writer, n = args
    cache = ResultsCache(root)
    for i in range(n):
        cache.put(key, {"writer": writer, "i": i, "pad": "x" * 512})
    return writer


class TestConcurrentWriters:
    KEY = "ab" + "5" * 62

    def test_same_key_puts_from_many_processes_never_corrupt(self, tmp_path):
        """Regression: racing same-key writers must never leave a
        corrupt/partial entry — every read during and after the storm
        parses and equals one of the written records."""
        from concurrent.futures import ProcessPoolExecutor

        cache = ResultsCache(tmp_path)
        writers = 4
        with ProcessPoolExecutor(max_workers=writers) as pool:
            futures = [
                pool.submit(_hammer_put, (str(tmp_path), self.KEY, w, 25))
                for w in range(writers)
            ]
            # Read continuously until every writer has finished, so the
            # probes genuinely overlap the write storm.
            while not all(f.done() for f in futures):
                record = cache.get(self.KEY)
                if record is not None:
                    assert set(record) == {"writer", "i", "pad"}
            assert sorted(f.result() for f in futures) == list(range(writers))
        final = cache.get(self.KEY)
        assert final is not None and final["writer"] in range(writers)
        # The O_EXCL per-writer temp names never collide into leftovers.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_same_key_puts_from_many_threads(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        cache = ResultsCache(tmp_path)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(
                pool.map(
                    lambda w: _hammer_put((str(tmp_path), self.KEY, w, 25)),
                    range(8),
                )
            )
        assert cache.get(self.KEY) is not None
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_interrupted_write_leaves_no_entry(self, tmp_path):
        class Unserializable:
            pass

        import pytest as _pytest

        cache = ResultsCache(tmp_path)
        with _pytest.raises(TypeError):
            cache.put(self.KEY, {"bad": Unserializable()})
        assert cache.get(self.KEY) is None
        assert list(tmp_path.rglob("*.tmp")) == []
