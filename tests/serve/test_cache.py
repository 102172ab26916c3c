"""ResultCache: round trips, LRU byte budget, disk tier, counters."""

import pickle

import pytest

from repro.apps import HelloWorld
from repro.core import RuntimeConfig
from repro.errors import ConfigError
from repro.exec import JobSpec, execute, spec_hash
from repro.serve import PICKLE_PROTOCOL, ResultCache, canonical_payload


def _spec(npes=4, **kw):
    kw.setdefault("config", RuntimeConfig.proposed())
    kw.setdefault("ppn", 2)
    return JobSpec(app=HelloWorld(), npes=npes, **kw)


@pytest.fixture
def filled():
    """A memory-only cache with one executed spec inside."""
    cache = ResultCache()
    spec = _spec()
    result = execute(spec)
    cache.put(spec, result)
    return cache, spec, result


class TestRoundTrip:
    def test_get_returns_equal_result(self, filled):
        cache, spec, result = filled
        assert cache.get(spec) == result

    def test_get_bytes_is_the_canonical_pickle(self, filled):
        cache, spec, result = filled
        payload = cache.get_bytes(spec)
        assert payload == canonical_payload(result)
        # The canonical form is a loadable pickle of the same result.
        assert pickle.loads(payload) == result

    def test_get_returns_a_fresh_object_graph(self, filled):
        cache, spec, _ = filled
        assert cache.get(spec) is not cache.get(spec)

    def test_lookup_by_hash_string(self, filled):
        cache, spec, result = filled
        assert cache.get(spec_hash(spec)) == result

    def test_contains_has_no_counter_side_effects(self, filled):
        cache, spec, _ = filled
        before = cache.stats()
        assert spec in cache
        assert _spec(npes=16) not in cache
        after = cache.stats()
        assert after["hits_memory"] == before["hits_memory"]
        assert after["misses"] == before["misses"]

    def test_miss_returns_none_and_counts(self, filled):
        cache, _, _ = filled
        assert cache.get(_spec(npes=16)) is None
        assert cache.stats()["misses"] == 1

    def test_metadata_is_queryable(self, filled):
        cache, spec, result = filled
        meta = cache.metadata(spec)
        assert meta["app"] == "hello"
        assert meta["npes"] == 4
        assert meta["wall_time_us"] == result.wall_time_us
        assert meta["size"] > 0

    def test_bad_key_type_raises(self, filled):
        cache, _, _ = filled
        with pytest.raises(ConfigError):
            cache.get(42)

    def test_put_is_idempotent(self, filled):
        cache, spec, result = filled
        cache.put(spec, result)
        assert len(cache) == 1
        assert cache.stats()["stores"] == 1


class TestMemoryBudget:
    def test_lru_eviction_under_byte_budget(self):
        specs = [_spec(npes=n) for n in (2, 4, 8)]
        results = [execute(s) for s in specs]
        payloads = [canonical_payload(r) for r in results]
        # Budget for exactly two resident payloads.
        budget = len(payloads[1]) + len(payloads[2])
        cache = ResultCache(memory_budget=budget)
        for spec, result in zip(specs, results):
            cache.put(spec, result)
        # The first entry was least recently used: evicted, and since
        # there is no disk tier it leaves the cache entirely.
        assert cache.get(specs[0]) is None
        assert cache.get(specs[1]) == results[1]
        assert cache.get(specs[2]) == results[2]
        assert cache.stats()["evictions_memory"] >= 1

    def test_get_refreshes_lru_order(self):
        specs = [_spec(npes=n) for n in (2, 4, 8)]
        results = [execute(s) for s in specs]
        payloads = [canonical_payload(r) for r in results]
        # Budget sized so specs 0 and 2 fit together but all three
        # cannot: one eviction on the third put.
        cache = ResultCache(memory_budget=len(payloads[0])
                            + len(payloads[2]))
        cache.put(specs[0], results[0])
        cache.put(specs[1], results[1])
        # Touch spec 0 so spec 1 becomes the LRU victim.
        assert cache.get(specs[0]) is not None
        cache.put(specs[2], results[2])
        assert cache.get(specs[0]) is not None
        assert cache.get(specs[1]) is None

    def test_oversized_payload_is_skipped_not_churned(self):
        cache = ResultCache(memory_budget=16)
        spec = _spec()
        cache.put(spec, execute(spec))
        assert cache.get(spec) is None
        assert cache.stats()["evictions_memory"] == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            ResultCache(memory_budget=-1)


class TestDiskTier:
    def test_write_through_and_warm_restart(self, tmp_path):
        spec = _spec()
        result = execute(spec)
        cache = ResultCache(path=tmp_path)
        cache.put(spec, result)
        # A fresh instance on the same path starts warm.
        warm = ResultCache(path=tmp_path)
        assert warm.contains(spec)
        assert warm.get(spec) == result
        assert warm.get_bytes(spec) == canonical_payload(result)

    def test_memory_eviction_falls_back_to_disk(self, tmp_path):
        spec = _spec()
        result = execute(spec)
        cache = ResultCache(path=tmp_path)
        cache.put(spec, result)
        assert cache.evict_memory() == 1
        assert cache.contains(spec)
        assert cache.get(spec) == result
        assert cache.stats()["hits_disk"] == 1
        # The disk hit promoted the entry back into memory.
        assert cache.get(spec) == result
        assert cache.stats()["hits_memory"] == 1

    def test_disk_budget_evicts_oldest_written(self, tmp_path):
        specs = [_spec(npes=n) for n in (2, 4, 8)]
        results = [execute(s) for s in specs]
        sizes = [len(canonical_payload(r)) for r in results]
        cache = ResultCache(path=tmp_path, disk_budget=sizes[1] + sizes[2])
        for spec, result in zip(specs, results):
            cache.put(spec, result)
        cache.evict_memory()
        assert not cache.contains(specs[0])
        assert cache.get(specs[1]) == results[1]
        assert cache.get(specs[2]) == results[2]
        assert cache.stats()["evictions_disk"] >= 1

    def test_vanished_object_file_is_a_clean_miss(self, tmp_path):
        spec = _spec()
        cache = ResultCache(path=tmp_path)
        key = cache.put(spec, execute(spec))
        cache.evict_memory()
        # Simulate external cleanup of the object store.
        cache._object_path(key).unlink()
        assert cache.get(spec) is None
        assert not cache.contains(spec)

    def test_corrupt_index_raises_config_error(self, tmp_path):
        (tmp_path / "index.json").write_text("{not json")
        with pytest.raises(ConfigError):
            ResultCache(path=tmp_path)


class TestEnumeration:
    def test_hashes_and_entries(self, filled):
        cache, spec, _ = filled
        assert cache.hashes() == [spec_hash(spec)]
        (entry,) = cache.entries()
        assert entry["hash"] == spec_hash(spec)
        assert entry["npes"] == 4
        assert len(cache) == 1

    def test_counters_reach_the_registry(self, filled):
        cache, spec, _ = filled
        cache.get(spec)
        stats = cache.stats()
        assert stats["hits_memory"] == 1
        assert stats["stores"] == 1
        assert stats["memory_bytes"] == len(cache.get_bytes(spec))
