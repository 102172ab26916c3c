"""Cache-hit exactness: a hit IS the fresh run, byte for byte.

The content-addressed cache's whole claim is that answering from cache
loses nothing: the returned ``JobResult`` — counters, StartupReport,
per-app results, telemetry — pickles to exactly the bytes a fresh
``execute(spec)`` would produce.  These tests pin that byte-identity

* for results produced in-process,
* for results produced across a **process boundary** (the PR-4 pool's
  workers, driven directly since a single-core host would clamp
  ``run_sweep`` to the serial path),
* and after a **memory-evict / disk-refill cycle**, where the payload
  has round-tripped through the object store on disk.
"""

import multiprocessing

import pytest

from repro.apps import HelloWorld
from repro.core import RuntimeConfig
from repro.exec import JobSpec, execute
from repro.exec import pool as pool_mod
from repro.faults import FaultPlan, UDFault
from repro.serve import ResultCache, canonical_payload

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="needs fork start method")


def _grid():
    lossy = FaultPlan(name="loss5", ud=(UDFault("drop", prob=0.05),))
    base = dict(app=HelloWorld(), npes=8, testbed="A", ppn=2)
    return [
        JobSpec(config=RuntimeConfig.current(), **base),
        JobSpec(config=RuntimeConfig.proposed(), **base),
        JobSpec(config=RuntimeConfig.proposed(fault_plan=lossy), **base),
        JobSpec(config=RuntimeConfig.proposed(observe=True), **base),
    ]


def _fresh_bytes(spec):
    return canonical_payload(execute(spec))


class TestInProcess:
    def test_hit_bytes_equal_fresh_run(self):
        cache = ResultCache()
        for spec in _grid():
            cache.put(spec, execute(spec))
        for spec in _grid():
            assert cache.get_bytes(spec) == _fresh_bytes(spec)

    def test_hit_object_equals_fresh_run(self):
        cache = ResultCache()
        spec = _grid()[3]  # the observe=True spec: telemetry payload
        cache.put(spec, execute(spec))
        hit = cache.get(spec)
        fresh = execute(spec)
        assert hit == fresh
        assert hit.telemetry is not None


@needs_fork
class TestAcrossProcessBoundary:
    def test_worker_results_cache_byte_identical(self):
        # Results computed in pool workers cross a pickle boundary
        # before they reach the cache; the bytes must still match an
        # in-process fresh run exactly.
        specs = _grid()
        results = pool_mod._run_parallel(specs, 2)
        cache = ResultCache()
        for spec, result in zip(specs, results):
            cache.put(spec, result)
        for spec in specs:
            assert cache.get_bytes(spec) == _fresh_bytes(spec)


class TestEvictRefillCycle:
    def test_bytes_survive_disk_round_trip(self, tmp_path):
        cache = ResultCache(path=tmp_path)
        specs = _grid()
        for spec in specs:
            cache.put(spec, execute(spec))
        assert cache.evict_memory() == len(specs)
        for spec in specs:
            # Served from disk, promoted back to memory...
            assert cache.get_bytes(spec) == _fresh_bytes(spec)
            # ...and the promoted copy is byte-identical too.
            assert cache.get_bytes(spec) == _fresh_bytes(spec)
        stats = cache.stats()
        assert stats["hits_disk"] == len(specs)
        assert stats["hits_memory"] == len(specs)

    def test_bytes_survive_process_restart(self, tmp_path):
        spec = _grid()[2]  # the fault-injected spec
        first = ResultCache(path=tmp_path)
        first.put(spec, execute(spec))
        # A brand-new cache instance (as a new process would build).
        reborn = ResultCache(path=tmp_path)
        assert reborn.get_bytes(spec) == _fresh_bytes(spec)
        assert reborn.get(spec) == execute(spec)
