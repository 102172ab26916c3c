"""Pinned runs: seven fixed simulations whose results are compared
exactly, with no tolerance.

Simulated time and the kernel's event counts do not depend on the host,
so any drift here is a change to what the simulator computes: a cost
model, a protocol step, a tie-break order.  Host time is measured by
``perfbench/`` instead.  A change that moves a pin on purpose updates
the value in the same commit and says why.

The five exact-engine cases pin ``sim_time_us`` plus the
``KernelProfile`` counts ``events_scheduled`` and ``events_dispatched``.
The two fig5 scale points run the analytical phase models
(``macro=True``), which schedule no events, so they pin
``sim_time_us`` alone.
"""

import pytest

from repro.apps import HelloWorld
from repro.apps.heat2d import Heat2D
from repro.bench.microbench import PutLatency
from repro.cluster import cluster_a, cluster_b
from repro.core import Job, RuntimeConfig
from repro.sim import KernelProfile


def _startup(npes, config=None, macro=None):
    job = Job(npes=npes, config=config or RuntimeConfig.proposed(),
              cluster=cluster_b(npes, ppn=32), macro=macro)
    return job, HelloWorld()


def _heat2d():
    job = Job(npes=64, config=RuntimeConfig.proposed(),
              cluster=cluster_a(64, ppn=8))
    return job, Heat2D(n=64, iters=10, check_every=5)


def _put_latency():
    job = Job(npes=2, config=RuntimeConfig.proposed(heap_backing_kb=2048),
              cluster=cluster_a(2, ppn=1))
    return job, PutLatency(sizes=[8, 4096, 65536], iterations=200)


@pytest.mark.parametrize("build, sim_time_us, events", [
    pytest.param(lambda: _startup(512), 1505826.5370909602, 27395,
                 id="startup_hello_512"),
    pytest.param(lambda: _startup(1024), 1506358.3352187488, 55791,
                 id="startup_hello_1024"),
    pytest.param(lambda: _startup(512, RuntimeConfig.current()),
                 2138859.558408337, 38436, id="startup_hello_current_512"),
    pytest.param(_heat2d, 1219856.2537276996, 25413, id="heat2d_64pe"),
    pytest.param(_put_latency, 1134084.6762671894, 3103,
                 id="fig6_put_latency"),
])
def test_exact_engine_run_is_pinned(build, sim_time_us, events):
    job, app = build()
    prof = KernelProfile().attach(job.sim)
    result = job.run(app)
    assert result.wall_time_us == sim_time_us
    assert prof.events_scheduled == events
    assert prof.events_dispatched == events


@pytest.mark.parametrize("npes, sim_time_us", [
    pytest.param(262144, 28953031.23576632, id="fig5_scale_262144_macro"),
    pytest.param(1048576, 132447796.76309694, id="fig5_scale_1048576_macro"),
])
def test_macro_scale_point_is_pinned(npes, sim_time_us):
    job, app = _startup(npes, macro=True)
    result = job.run(app)
    assert job.sim is None
    assert result.wall_time_us == sim_time_us
