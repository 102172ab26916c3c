"""Macro-vs-exact equivalence: the analytical phase layer's contract.

``Job(macro=True)`` replaces the per-PE generator swarm with closed
forms for the on-demand design corner, the only one it models.  The
contract is that at 128 and 512 PEs, on both cluster presets and both
schedulers, the macro layer reproduces the exact DES's:

* ``StartupReport`` (per-phase means and totals) — bit for bit;
* ``app_done_us`` and per-PE ``app_results``;
* the deterministic startup counters.

The full counters dict, ``wall_time_us`` and the ``ResourceReport``
cross the finalize path, where the exact engine draws UD-loss
randomness and per-PE resource snapshots can catch connect traffic
from early-finishing nodes' finalize barriers — they are *modeled*
(lossless closed forms) rather than asserted (see
``repro.shmem.models``).  Every other corner is refused.

A final test pins the other direction: with macro mode off (the
default), the 128-PE golden event trace stays byte-identical — the
macro layer must be a pure add-on, invisible to the exact engine.
"""

from pathlib import Path

import pytest

from repro.apps import HelloWorld
from repro.cluster import cluster_a, cluster_b
from repro.core import Job, RuntimeConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.plan import UDFault
from repro.gasnet import LifecyclePolicy

GOLDEN = Path(__file__).parent.parent / "data" / "golden_trace_ondemand_128.txt"

CLUSTERS = {"A": cluster_a, "B": cluster_b}
CONFIGS = {"ondemand": RuntimeConfig.proposed}

#: Startup-path counters that must match the exact engine exactly (the
#: finalize counters are modeled, so the assertion is restricted to
#: this set).
STARTUP_COUNTERS = (
    "pmi.iallgathers",
    "pmi.tree_messages",
    "pmi.tree_bytes",
    "verbs.ud_qp_created",
    "verbs.mr_registered",
    "shmem.intranode_barriers",
    "shmem.start_pes_done",
)

_cache = {}


def _run(npes, testbed, corner, scheduler, macro):
    """Run (and memoize) one job; exact runs dominate the suite cost."""
    key = (npes, testbed, corner, scheduler, macro)
    if key not in _cache:
        job = Job(
            npes=npes,
            config=CONFIGS[corner](),
            cluster=CLUSTERS[testbed](npes),
            scheduler=scheduler,
            macro=macro,
        )
        _cache[key] = job.run(HelloWorld())
    return _cache[key]


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
@pytest.mark.parametrize("testbed", ["A", "B"])
@pytest.mark.parametrize("corner", ["ondemand"])
@pytest.mark.parametrize("npes", [128, 512])
def test_macro_matches_exact(npes, corner, testbed, scheduler):
    exact = _run(npes, testbed, corner, scheduler, macro=False)
    macro = _run(npes, testbed, corner, scheduler, macro=True)

    assert macro.macro is True and exact.macro is False
    # The whole StartupReport dataclass: phase means (insertion order
    # included, via dict equality), mean/min/max totals.
    assert macro.startup == exact.startup
    assert macro.app_done_us == exact.app_done_us
    assert macro.app_results == exact.app_results

    for name in STARTUP_COUNTERS:
        if name == "pmi.tree_bytes" and name not in macro.counters:
            # Single-node clusters have no daemon tree; not hit at
            # these sizes, but keep the contract explicit.
            continue
        assert macro.counters.get(name) == exact.counters.get(name), name
    assert macro.counters["shmem.intranode_barriers"] == 2 * npes
    assert macro.counters["shmem.start_pes_done"] == npes


@pytest.mark.parametrize("corner", ["ondemand"])
def test_macro_via_config_flag(corner):
    """``RuntimeConfig.macro_phases`` is the config-driven spelling."""
    config = CONFIGS[corner](macro_phases=True)
    job = Job(npes=128, config=config, cluster=cluster_b(128))
    result = job.run(HelloWorld())
    assert result.macro is True
    assert result.startup == _run(128, "B", corner, "calendar", False).startup


def test_macro_arg_overrides_config_flag():
    config = RuntimeConfig.proposed(macro_phases=True)
    job = Job(npes=8, config=config, cluster=cluster_b(8), macro=False)
    assert job.macro is False and job.sim is not None


def test_golden_trace_byte_identical_with_macro_off():
    """Macro mode off (the default): the exact engine's 128-PE golden
    trace is untouched — the macro layer is invisible unless asked for.
    A macro job runs first in the same process to catch global-state
    leaks (rng, counters, gc tuning)."""
    Job(npes=128, config=RuntimeConfig.proposed(),
        cluster=cluster_b(128, ppn=16), macro=True).run(HelloWorld())
    job = Job(npes=128, config=RuntimeConfig.proposed(),
              cluster=cluster_b(128, ppn=16), trace=True)
    job.run(HelloWorld())
    got = job.tracer.formatted()
    want = GOLDEN.read_text().splitlines()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"trace diverges at line {i + 1}:\n  got:  {g}\n  want: {w}"
    assert len(got) == len(want)


# ----------------------------------------------------------------------
# guard rails: what macro mode refuses to pretend it can do
# ----------------------------------------------------------------------
def _macro_job(**kwargs):
    return Job(npes=8, config=kwargs.pop("config", RuntimeConfig.proposed()),
               cluster=cluster_b(8), macro=True, **kwargs)


def test_macro_rejects_trace():
    with pytest.raises(ConfigError, match="trace"):
        _macro_job(trace=True)


def test_macro_rejects_faults():
    plan = FaultPlan(ud=(UDFault("drop", prob=0.1),))
    with pytest.raises(ConfigError, match="fault"):
        _macro_job(faults=plan)


def test_macro_rejects_observe():
    with pytest.raises(ConfigError, match="flight recorder"):
        _macro_job(observe=True)


def test_macro_rejects_check():
    with pytest.raises(ConfigError, match="sanitizer"):
        _macro_job(check=True)


def test_macro_rejects_lifecycle():
    config = RuntimeConfig.proposed(lifecycle=LifecyclePolicy(enabled=True))
    with pytest.raises(ConfigError, match="lifecycle"):
        _macro_job(config=config)


def test_macro_rejects_ablation_corners():
    # D1: piggybacking off is an ablation, not a design corner.
    with pytest.raises(ConfigError, match="D1"):
        _macro_job(config=RuntimeConfig.proposed(piggyback_segments=False))
    # A mixed-axis ablation (on-demand connections, blocking PMI).
    with pytest.raises(ConfigError, match="design corners"):
        _macro_job(config=RuntimeConfig.proposed(pmi_mode="blocking"))
    # The static baseline corner: run it on the exact engine.
    with pytest.raises(ConfigError, match="use the exact engine"):
        _macro_job(config=RuntimeConfig.current())


def test_macro_requires_macro_profile():
    class NoProfile:
        def run(self, pe):
            yield 0.0

    with pytest.raises(ConfigError, match="macro_profile"):
        _macro_job().run(NoProfile())
