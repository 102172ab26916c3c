"""Unit tests for RuntimeConfig and the Job launcher."""

import pytest

from repro.apps import HelloWorld
from repro.cluster import cluster_a
from repro.core import Job, RuntimeConfig
from repro.errors import ConfigError


class TestRuntimeConfig:
    def test_presets(self):
        cur = RuntimeConfig.current()
        assert (cur.connection_mode, cur.pmi_mode, cur.barrier_mode) == (
            "static", "blocking", "global",
        )
        prop = RuntimeConfig.proposed()
        assert (prop.connection_mode, prop.pmi_mode, prop.barrier_mode) == (
            "ondemand", "nonblocking", "intranode",
        )

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(connection_mode="lazy")
        with pytest.raises(ConfigError):
            RuntimeConfig(pmi_mode="sometimes")
        with pytest.raises(ConfigError):
            RuntimeConfig(barrier_mode="none")
        with pytest.raises(ConfigError):
            RuntimeConfig(heap_mb=0)
        with pytest.raises(ConfigError):
            RuntimeConfig(heap_backing_kb=0)

    def test_evolve_keeps_validation(self):
        with pytest.raises(ConfigError):
            RuntimeConfig.proposed().evolve(connection_mode="bogus")

    def test_label(self):
        assert RuntimeConfig.current().label == "static+blocking+global"


class TestJob:
    def test_invalid_npes(self):
        with pytest.raises(ConfigError):
            Job(npes=0)

    def test_cluster_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Job(npes=8, cluster=cluster_a(16))

    def test_single_pe_job_runs(self):
        result = Job(npes=1, config=RuntimeConfig.proposed()).run(HelloWorld())
        assert result.app_results == ["Hello from PE 0 of 1"]
        assert result.wall_time_us > 0

    def test_result_fields_consistent(self):
        result = Job(npes=8, config=RuntimeConfig.proposed()).run(HelloWorld())
        assert result.npes == 8
        assert result.config_label == "ondemand+nonblocking+intranode"
        assert result.app_done_us <= result.wall_time_us
        assert result.startup.max_us >= result.startup.mean_us
        assert result.wall_time_s == pytest.approx(result.wall_time_us / 1e6)
        assert set(result.startup.phase_means) >= {
            "Connection Setup", "PMI Exchange", "Memory Registration",
            "Shared Memory Setup", "Other",
        }

    def test_same_seed_same_results(self):
        a = Job(npes=8, config=RuntimeConfig.proposed(seed=5)).run(HelloWorld())
        b = Job(npes=8, config=RuntimeConfig.proposed(seed=5)).run(HelloWorld())
        assert a.wall_time_us == b.wall_time_us
        assert a.startup.mean_us == b.startup.mean_us

    def test_different_seed_different_skew(self):
        a = Job(npes=8, config=RuntimeConfig.proposed(seed=5)).run(HelloWorld())
        b = Job(npes=8, config=RuntimeConfig.proposed(seed=6)).run(HelloWorld())
        assert a.wall_time_us != b.wall_time_us

    def test_static_endpoint_accounting(self):
        result = Job(npes=16, config=RuntimeConfig.current()).run(HelloWorld())
        # Static design: N RC QPs + 1 UD QP per process.
        assert result.resources.mean_rc_qps == 16
        assert result.resources.mean_endpoints == 17
        # QP memory follows.
        assert result.resources.mean_qp_memory_bytes > 16 * 80_000

    def test_ondemand_endpoint_accounting(self):
        result = Job(npes=16, config=RuntimeConfig.proposed()).run(HelloWorld())
        assert result.resources.mean_endpoints < 5


class TestReportGuards:
    def test_startup_report_from_no_pes_rejected(self):
        from repro.core.metrics import StartupReport

        with pytest.raises(ConfigError, match="0 PEs"):
            StartupReport.from_pes([])

    def test_resource_report_from_no_pes_rejected(self):
        from repro.core.metrics import ResourceReport

        with pytest.raises(ConfigError, match="0 PEs"):
            ResourceReport.from_pes([])
