"""One options pipeline: RuntimeConfig coerces, folds and validates the
opt-ins (observe, faults, check, lifecycle, macro) once, and every
layer above it — ``Job`` keyword overrides, ``JobSpec``, the runner
helpers — resolves through ``config.evolve``.

The precedence rule under test: an explicit value, ``False`` included,
wins over the config; ``None`` means "not set".
"""

import pytest

from repro.apps import HelloWorld
from repro.bench.runner import job_spec, run_job
from repro.check import CheckPlan
from repro.cluster import cluster_b
from repro.core import Job, RuntimeConfig
from repro.errors import ConfigError
from repro.exec import JobSpec, execute
from repro.faults import FaultPlan, UDFault
from repro.gasnet import LifecyclePolicy

LOSSY = FaultPlan(name="loss", ud=(UDFault("drop", prob=0.1),))


def _job(config, **overrides):
    return Job(npes=8, config=config, cluster=cluster_b(8, ppn=4),
               **overrides)


def _spec(config):
    return JobSpec(app=HelloWorld(), npes=8, config=config, testbed="B",
                   ppn=4)


# ----------------------------------------------------------------------
# an explicit False switches a config-level opt-in off, on every path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field, job_kwarg, is_on", [
    ("observe", "observe", lambda result: result.telemetry is not None),
    ("macro_phases", "macro", lambda result: result.macro),
])
def test_explicit_false_switches_a_config_opt_in_off(field, job_kwarg, is_on):
    cfg = RuntimeConfig.proposed(**{field: True})
    off = RuntimeConfig.proposed()
    assert is_on(execute(_spec(cfg)))
    assert not is_on(_job(cfg, **{job_kwarg: False}).run(HelloWorld()))
    assert not is_on(execute(_spec(cfg.evolve(**{field: False}))))
    # The runner helpers once read observe=False as "unset", so the
    # config's observe=True still ran and named the run.
    spec = job_spec(HelloWorld(), 8, cfg, testbed="B", ppn=4,
                    **{field: False})
    assert spec.identity == _spec(off).identity
    assert not is_on(run_job(HelloWorld(), 8, cfg, testbed="B", ppn=4,
                             **{field: False}))


def test_overrides_resolve_in_one_evolve():
    # Switching observe off and macro on together must not trip the
    # macro guard rail on the intermediate observe=True config.
    job = _job(RuntimeConfig.proposed(observe=True), macro=True,
               observe=False)
    assert job.macro is True


# ----------------------------------------------------------------------
# RuntimeConfig folds do-nothing opt-ins to their "off" form
# ----------------------------------------------------------------------
class TestFolding:
    def test_empty_fault_plan_folds_to_none(self):
        assert RuntimeConfig.proposed(fault_plan=FaultPlan()).fault_plan is None
        assert RuntimeConfig.proposed(fault_plan={}).fault_plan is None

    def test_empty_check_plan_folds_to_none(self):
        off = CheckPlan(ib=False, memory=False, pmi=False, conduit=False,
                        lifecycle=False)
        assert RuntimeConfig.proposed(check=off).check is None

    def test_disabled_lifecycle_folds_to_none(self):
        cfg = RuntimeConfig.proposed(lifecycle=LifecyclePolicy(enabled=False))
        assert cfg.lifecycle is None

    def test_static_lifecycle_folds_to_none(self):
        assert RuntimeConfig.current(lifecycle={}).lifecycle is None

    def test_folded_spellings_compare_equal(self):
        assert RuntimeConfig.proposed(fault_plan=FaultPlan(name="x"),
                                      check=False) == RuntimeConfig.proposed()


# ----------------------------------------------------------------------
# macro guard rails live in RuntimeConfig
# ----------------------------------------------------------------------
class TestMacroGuardRails:
    @pytest.mark.parametrize("overrides, match", [
        ({"fault_plan": LOSSY}, "cannot inject faults"),
        ({"observe": True}, "no flight recorder"),
        ({"check": True}, "cannot run the sanitizer"),
        ({"lifecycle": LifecyclePolicy()}, "connection lifecycle"),
    ])
    def test_config_rejects_macro_with(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            RuntimeConfig.proposed(macro_phases=True, **overrides)

    def test_static_lifecycle_is_no_conflict(self):
        # The static conduit never installs a policy, so it folds away.
        cfg = RuntimeConfig.current(macro_phases=True,
                                    lifecycle=LifecyclePolicy())
        assert cfg.lifecycle is None


# ----------------------------------------------------------------------
# bad scalars fail at construction, not deep inside the run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field, value", [
    ("heap_mb", float("nan")),
    ("heap_mb", float("inf")),
    ("heap_mb", "256"),
    ("heap_backing_kb", 1.5),
    ("heap_backing_kb", True),
    ("seed", 1.5),
    ("seed", -1),
    ("piggyback_segments", "no"),
    ("macro_phases", 1),
])
def test_bad_scalar_is_a_one_line_config_error(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be") as exc:
        RuntimeConfig.proposed(**{field: value})
    assert "\n" not in str(exc.value)
