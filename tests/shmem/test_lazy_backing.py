"""The lazy-backing contract: only data movement materialises a buffer.

A PE's heap backing is allocated as a pending size and turned into a
real array on first access.  A startup that moves no data must leave
every backing pending; registering the heap must not touch it.
"""

from repro.apps import HelloWorld
from repro.core import Job, RuntimeConfig

from .conftest import FuncApp


def _materialised(job):
    """Ranks whose MemoryManager holds at least one real buffer."""
    return [
        pe.rank for pe in job.pes
        if any(buf.__class__ is not int for buf in pe.ctx.mm._buffers.values())
    ]


class TestLazyBacking:
    def test_startup_only_job_materialises_nothing(self):
        job = Job(npes=64, config=RuntimeConfig.proposed())
        result = job.run(HelloWorld())
        assert result.app_results[0] == "Hello from PE 0 of 64"
        assert _materialised(job) == []

    def test_one_put_materialises_only_the_target(self):
        def prog(pe):
            addr = pe.shmalloc(8)
            if pe.mype == 0:
                yield from pe.put(1, addr, b"lazyheap")
            return addr

        job = Job(npes=4, config=RuntimeConfig.proposed())
        result = job.run(FuncApp(prog))
        assert _materialised(job) == [1]
        assert job.pes[1].heap.read(result.app_results[1], 8) == b"lazyheap"
