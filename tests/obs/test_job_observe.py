"""Job-level observability wiring: opt-in, passivity, telemetry shape."""

import pytest

from repro.apps import ChurnWorkload, HelloWorld
from repro.cluster import cluster_a
from repro.core import Job, RuntimeConfig
from repro.gasnet import LifecyclePolicy
from repro.obs import Observability, series_peak
from repro.sim import Counters


def _job(observe=None, config=None, npes=8, ppn=2):
    return Job(
        npes=npes,
        config=config or RuntimeConfig.proposed(),
        cluster=cluster_a(npes, ppn=ppn),
        observe=observe,
    )


def test_observation_is_off_by_default():
    job = _job()
    assert job.obs is None
    assert type(job.counters) is Counters
    result = job.run(HelloWorld())
    assert result.telemetry is None


def test_observe_true_installs_the_recorder_everywhere():
    job = _job(observe=True)
    assert isinstance(job.obs, Observability)
    assert type(job.counters) is Counters
    assert job.obs.counters is job.counters
    assert job.fabric.obs is job.obs
    assert job.network.obs is job.obs
    assert job.pmi_domain.obs is job.obs
    assert all(h.obs is job.obs for h in job.hcas)
    assert all(c.obs is job.obs for c in job.pmi)
    assert all(p.obs is job.obs for p in job.pes)


def test_config_observe_flag_and_arg_override():
    cfg = RuntimeConfig.proposed().evolve(observe=True)
    assert _job(config=cfg).obs is not None
    # The explicit constructor argument wins over the config flag.
    assert _job(observe=False, config=cfg).obs is None


def test_telemetry_shape_and_expected_series():
    job = _job(observe=True)
    result = job.run(HelloWorld())
    tele = result.telemetry
    assert tele["spans"]["count"] > 0
    assert tele["spans"]["dropped"] == 0
    hists = tele["metrics"]["histograms"]
    # On-demand startup on a 4-node cluster must record handshake RTTs,
    # per-node QP-cache misses and the per-PE start_pes distribution.
    assert hists["conduit.handshake_rtt_us"]["count"] > 0
    assert hists["conduit.handshake_rtt_us"]["min"] > 0.0
    assert hists["shmem.start_pes_us"]["count"] == job.npes
    assert any(k.startswith("hca.qp_cache_miss_penalty_us") for k in hists)
    # Telemetry reports the job's one counter dict, key-sorted.
    assert tele["metrics"]["counters"]["conduit.connect_requests"] > 0
    assert tele["metrics"]["counters"] == dict(sorted(result.counters.items()))


def test_expected_span_families_are_recorded():
    job = _job(observe=True)
    job.run(HelloWorld())
    spans = job.obs.spans
    assert len(spans.by_name("shmem.start_pes")) == job.npes
    assert spans.by_name("conduit.connect")
    assert spans.by_name("conduit.serve")
    assert spans.by_name("pmi.iallgather")
    assert spans.by_name("pmi.tree_send")
    assert spans.by_name("rc.first_delivery")
    # Every recorded span was closed by the end of the run except the
    # PMI collective spans whose completion callback may still be
    # pending — by job end even those are closed.
    assert all(not s.open for s in spans)


def test_fence_histogram_under_current_design():
    job = _job(observe=True, config=RuntimeConfig.current())
    result = job.run(HelloWorld())
    hists = result.telemetry["metrics"]["histograms"]
    assert hists["pmi.fence_us"]["count"] > 0


def test_observation_is_passive():
    # The recorder must not perturb the simulation: byte-identical
    # wall clock and counters with and without it.
    base = _job(observe=False).run(HelloWorld())
    seen = _job(observe=True).run(HelloWorld())
    assert seen.wall_time_us == base.wall_time_us
    assert seen.app_done_us == base.app_done_us
    assert seen.counters == base.counters
    assert seen.startup.phase_means == base.startup.phase_means


class _ZeroLengthPut:
    """PE 0 puts zero bytes to PE 1: a count that adds 0."""

    def run(self, pe):
        buf = pe.shmalloc(8)
        yield from pe.barrier_all()
        if pe.mype == 0:
            yield from pe.put(1, buf, b"")
        yield from pe.barrier_all()


@pytest.mark.parametrize("observe", [True, {"timeline": True}])
def test_observation_never_changes_counters(observe):
    base = _job(observe=False, npes=2, ppn=1).run(_ZeroLengthPut())
    assert base.counters["conduit.put_bytes"] == 0
    assert "conduit.put_bytes" in base.counters
    seen = _job(observe=observe, npes=2, ppn=1).run(_ZeroLengthPut())
    assert seen.counters == base.counters
    assert seen.telemetry["metrics"]["counters"] == dict(
        sorted(seen.counters.items())
    )


# ----------------------------------------------------------------------
# eviction/reconnect churn under observation (the hardest case: the
# lifecycle reaper drives counters from timer context while the sampler
# reads them)
# ----------------------------------------------------------------------
def _churn_job(observe, npes=16):
    policy = LifecyclePolicy(policy="lru")
    return Job(
        npes=npes,
        config=RuntimeConfig.proposed(lifecycle=policy),
        cluster=cluster_a(npes, ppn=2),
        observe=observe,
    )


def _churn_app():
    return ChurnWorkload(epochs=3, partners=3, requests=4,
                         idle_gap_us=30_000.0)


class TestChurnObservationMatrix:
    """Observed and unobserved churn runs are the same simulation."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            "off": _churn_job(observe=False).run(_churn_app()),
            "on": _churn_job(observe=True).run(_churn_app()),
            "timeline": _churn_job(
                observe={"timeline": True}).run(_churn_app()),
        }

    def test_the_workload_actually_churns(self, runs):
        base = runs["off"]
        assert base.counters["conduit.evictions"] > 0
        assert base.counters["conduit.reconnects"] > 0

    @pytest.mark.parametrize("mode", ["on", "timeline"])
    def test_flat_counters_identical_under_observation(self, runs, mode):
        # Observed runs count exactly like unobserved ones — including
        # the eviction/reconnect/drain counters the reaper drives from
        # timer context.
        assert runs[mode].counters == runs["off"].counters

    @pytest.mark.parametrize("mode", ["on", "timeline"])
    def test_simulated_time_identical_under_observation(self, runs, mode):
        assert runs[mode].wall_time_us == runs["off"].wall_time_us
        assert runs[mode].app_done_us == runs["off"].app_done_us

    def test_eviction_counters_reach_the_registry(self, runs):
        metrics = runs["on"].telemetry["metrics"]
        flat = runs["off"].counters
        assert metrics["counters"]["conduit.evictions"] == (
            flat["conduit.evictions"]
        )
        assert metrics["counters"] == dict(sorted(flat.items()))
        assert "conduit.reconnect_latency_us" in metrics["histograms"]

    def test_timeline_peak_matches_scalar_peak(self, runs):
        result = runs["timeline"]
        scalar_peak = max(
            r["peak_connections"] for r in result.app_results
        )
        buf = result.telemetry["timeline"]["series"][
            "conduit.peak_connections"
        ]
        assert series_peak(buf) == scalar_peak
        # Cumulative probes end at the flat counter values.
        evict_buf = result.telemetry["timeline"]["series"][
            "conduit.evictions"
        ]
        assert evict_buf["kind"] == "counter"
        assert evict_buf["last"][-1] == result.counters["conduit.evictions"]
