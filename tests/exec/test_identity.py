"""JobSpec identity: aliasing matrix, distinctness, bugfixes.

Three families of property:

* **Aliasing** — trivially different spellings of the *same effective
  run* that ``RuntimeConfig`` or ``JobSpec`` fold at construction must
  share an identity (dict vs pre-sorted tuple overrides, ``check=True``
  vs ``CheckPlan()``, ``observe={"timeline": True}`` vs an explicit
  ``TimelineConfig``, a ``job_spec`` seed override vs the config seed,
  empty plans vs absent plans, and any ``label``).
* **Distinctness** — two specs differing in *any* semantic field must
  never share an identity; this pins the historical bugs where
  ``faults`` and ``cost_overrides`` silently vanished from a spec's
  name, and perturbs every ``RuntimeConfig`` field so a new field can
  never be left out of the digest.
* **Bugfix regressions** — ``SweepError`` names specs collision-free,
  non-plain app parameters fail at construction (so naming a failed
  spec cannot raise), and unhashable ``cost_overrides`` values fail at
  construction with a one-line ``ConfigError`` instead of a deep
  ``lru_cache`` TypeError.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.apps import HelloWorld, NasEP
from repro.bench.runner import job_spec
from repro.check import CheckPlan
from repro.core import RuntimeConfig
from repro.errors import ConfigError
from repro.exec import JobSpec, SweepError, execute, run_sweep, spec_identity
from repro.faults import FaultPlan, UDFault
from repro.gasnet import LifecyclePolicy
from repro.obs.timeline import TimelineConfig


def _spec(**kw):
    kw.setdefault("app", HelloWorld())
    kw.setdefault("npes", 8)
    kw.setdefault("config", RuntimeConfig.proposed())
    return JobSpec(**kw)


def _cfg(**overrides):
    return _spec(config=RuntimeConfig.proposed().evolve(**overrides))


LOSSY = FaultPlan(name="loss", ud=(UDFault("drop", prob=0.1),))


# ----------------------------------------------------------------------
# aliasing: same effective run, same identity
# ----------------------------------------------------------------------
class TestAliasing:
    def test_label_is_not_hashed(self):
        assert spec_identity(_spec(label="run-A")) == spec_identity(
            _spec(label="totally-different"))
        assert spec_identity(_spec(label="run-A")) == spec_identity(_spec())

    def test_dict_and_sorted_tuple_overrides_alias(self):
        as_dict = _spec(cost_overrides={"qp_cache_entries": 8,
                                        "poll_cq_us": 0.2})
        as_tuple = _spec(cost_overrides=(("poll_cq_us", 0.2),
                                         ("qp_cache_entries", 8)))
        assert spec_identity(as_dict) == spec_identity(as_tuple)

    def test_int_and_float_override_values_alias_like_json(self):
        # json canonicalisation: 8 and 8.0 are distinct (int vs float),
        # but 0.2 spelled twice is identical.
        a = _spec(cost_overrides={"poll_cq_us": 0.2})
        b = _spec(cost_overrides=(("poll_cq_us", 0.2),))
        assert spec_identity(a) == spec_identity(b)

    def test_check_true_aliases_default_plan(self):
        assert spec_identity(_cfg(check=True)) == spec_identity(
            _cfg(check=CheckPlan()))

    def test_check_in_config_aliases_check_on_spec(self):
        on_spec = job_spec(HelloWorld(), 8, RuntimeConfig.proposed(),
                           check=CheckPlan())
        in_config = _spec(config=RuntimeConfig.proposed(check=CheckPlan()))
        assert spec_identity(on_spec) == spec_identity(in_config)

    def test_observe_dict_aliases_timeline_config(self):
        as_dict = _cfg(observe={"timeline": True})
        as_config = _cfg(observe={"timeline": TimelineConfig()})
        assert spec_identity(as_dict) == spec_identity(as_config)

    def test_observe_interval_dict_aliases_explicit_config(self):
        as_dict = _cfg(observe={"timeline": {"interval_us": 500.0}})
        as_config = _cfg(
            observe={"timeline": TimelineConfig(interval_us=500.0)})
        assert spec_identity(as_dict) == spec_identity(as_config)

    def test_spec_seed_aliases_config_seed(self):
        via_spec = job_spec(HelloWorld(), 8, RuntimeConfig.proposed(), seed=7)
        via_config = _spec(config=RuntimeConfig.proposed(seed=7))
        assert spec_identity(via_spec) == spec_identity(via_config)

    def test_empty_fault_plan_aliases_absent(self):
        assert spec_identity(_cfg(fault_plan=FaultPlan(name="noop"))) == spec_identity(
            _cfg(fault_plan=None))

    def test_empty_overrides_alias_absent(self):
        assert _spec(cost_overrides={}) == _spec(cost_overrides=None)
        assert spec_identity(_spec(cost_overrides=())) == spec_identity(
            _spec(cost_overrides=None))

    def test_disabled_lifecycle_aliases_absent(self):
        enabled_off = RuntimeConfig.proposed(
            lifecycle=LifecyclePolicy(enabled=False))
        assert spec_identity(_spec(config=enabled_off)) == spec_identity(
            _spec(config=RuntimeConfig.proposed()))

    def test_lifecycle_under_static_mode_aliases_absent(self):
        static = RuntimeConfig.current()
        static_with = RuntimeConfig.current(lifecycle=LifecyclePolicy())
        assert static.connection_mode == "static"
        assert spec_identity(_spec(config=static_with)) == spec_identity(
            _spec(config=static))

    def test_aliased_specs_produce_equal_results(self):
        # The folding rules are only sound if the aliased spellings
        # really do run identically; spot-check one non-trivial pair.
        via_spec = job_spec(HelloWorld(), 4, RuntimeConfig.proposed(),
                            ppn=2, seed=7)
        via_config = _spec(npes=4, ppn=2,
                           config=RuntimeConfig.proposed(seed=7))
        assert spec_identity(via_spec) == spec_identity(via_config)
        assert execute(via_spec) == execute(via_config)


# ----------------------------------------------------------------------
# distinctness: any semantic difference, different identity
# ----------------------------------------------------------------------
class TestDistinctness:
    def test_faults_only_difference_changes_the_hash(self):
        # Two specs differing ONLY in faults must never share an
        # identity.
        assert spec_identity(_spec()) != spec_identity(
            _cfg(fault_plan=LOSSY))

    def test_cost_overrides_only_difference_changes_the_hash(self):
        assert spec_identity(_spec()) != spec_identity(
            _spec(cost_overrides={"qp_cache_entries": 8}))

    def test_semantic_field_matrix(self):
        variants = [
            _spec(),
            _spec(npes=16),
            _spec(config=RuntimeConfig.current()),
            _spec(testbed="B"),
            _spec(ppn=4),
            _cfg(seed=99),
            _cfg(observe=True),
            _cfg(observe={"timeline": True}),
            _cfg(fault_plan=LOSSY),
            _cfg(check=True),
            _spec(cost_overrides={"qp_cache_entries": 8}),
            _spec(cost_overrides={"qp_cache_entries": 16}),
            _cfg(macro_phases=True),
            _spec(app=NasEP()),
        ]
        identities = [spec_identity(s) for s in variants]
        assert len(set(identities)) == len(variants)

    def test_fault_probability_changes_the_hash(self):
        a = _cfg(fault_plan=LOSSY)
        b = _cfg(fault_plan=FaultPlan(name="loss",
                                      ud=(UDFault("drop", prob=0.2),)))
        assert spec_identity(a) != spec_identity(b)

    def test_app_params_change_the_hash(self):
        assert spec_identity(_spec(app=NasEP(real_pairs=100))) != spec_identity(
            _spec(app=NasEP(real_pairs=200)))


#: One changed value per RuntimeConfig field, each opt-in in its enabled
#: form.  Keyed by field name: a new field without an entry here fails
#: test_every_field_is_perturbed.
PERTURBATIONS = {
    "connection_mode": [{"connection_mode": "static"}],
    "pmi_mode": [{"pmi_mode": "blocking"}],
    "barrier_mode": [{"barrier_mode": "global"}],
    "piggyback_segments": [{"piggyback_segments": False}],
    "heap_mb": [{"heap_mb": 128.0}],
    "heap_backing_kb": [{"heap_backing_kb": 32}],
    "seed": [{"seed": 1}],
    "observe": [{"observe": True}, {"observe": {"timeline": True}}],
    "fault_plan": [{"fault_plan": LOSSY}],
    "check": [{"check": True}],
    "lifecycle": [{"lifecycle": LifecyclePolicy()}],
    "macro_phases": [{"macro_phases": True}],
}


class TestEveryConfigField:
    def test_every_field_is_perturbed(self):
        names = {f.name for f in dataclasses.fields(RuntimeConfig)}
        assert names == set(PERTURBATIONS)

    @pytest.mark.parametrize("overrides", [
        pytest.param(o, id=f"{name}-{i}")
        for name, variants in PERTURBATIONS.items()
        for i, o in enumerate(variants)
    ])
    def test_perturbing_a_field_changes_the_hash(self, overrides):
        base = _spec()
        perturbed = _cfg(**overrides)
        (name,) = overrides
        assert getattr(perturbed.config, name) != getattr(base.config, name)
        assert spec_identity(perturbed) != spec_identity(base)

    @pytest.mark.parametrize("overrides, tag", [
        ({"observe": True}, "obs"),
        ({"observe": {"timeline": True}}, "obs-tl"),
        ({"fault_plan": LOSSY}, "faults"),
        ({"check": True}, "check"),
        ({"lifecycle": LifecyclePolicy()}, "lifecycle"),
        ({"macro_phases": True}, "macro"),
        ({"seed": 7}, "seed7"),
    ])
    def test_config_opt_ins_show_in_the_description(self, overrides, tag):
        spec = _cfg(**overrides)
        part = f"-{tag}-"
        assert part in f"{spec.identity.split('#')[0]}-"
        assert part not in f"{_spec().identity.split('#')[0]}-"


# ----------------------------------------------------------------------
# identity mechanics
# ----------------------------------------------------------------------
class TestCanonicalForm:
    def test_hash_survives_pickling(self):
        spec = _spec(config=RuntimeConfig.proposed(seed=3, observe=True),
                     cost_overrides={"qp_cache_entries": 8})
        clone = pickle.loads(pickle.dumps(spec))
        assert spec_identity(clone) == spec_identity(spec) == clone.identity

    def test_hash_is_hex_sha256(self):
        description, digest = spec_identity(_spec()).split("#")
        assert description == "hello-n8-ondemand+nonblocking+intranode-tbA"
        assert len(digest) == 12
        assert int(digest, 16) >= 0


# ----------------------------------------------------------------------
# bugfix regressions
# ----------------------------------------------------------------------
class _Tagged(HelloWorld):
    """An app holding a parameter that may not be plain data."""

    def __init__(self, tags):
        self.tags = tags


class _Retags(HelloWorld):
    """Replaces its plain parameter with a set mid-run, then fails."""

    def __init__(self):
        self.tags = ["a"]

    def run(self, pe):
        self.tags = {"a"}
        yield pe.sim.timeout(1.0)
        raise ValueError("kaboom")


class TestSweepErrorIdentity:
    def test_error_names_are_collision_free(self):
        # Historically SweepError named a spec by its label when set,
        # which shadowed the derived identity — two different failing
        # specs with the same label were indistinguishable in the error
        # text.
        a = _spec(label="point")
        b = _spec(label="point",
                  config=RuntimeConfig.proposed(fault_plan=LOSSY))
        err_a = SweepError(a, ValueError("x"))
        err_b = SweepError(b, ValueError("x"))
        assert str(err_a) != str(err_b)
        # The label is still shown for the human...
        assert "point" in str(err_a)
        # ...but the collision-free identity is always present.
        assert spec_identity(a).rsplit("#", 1)[1] in str(err_a)
        assert spec_identity(b).rsplit("#", 1)[1] in str(err_b)

    def test_identity_property_matches_function(self):
        spec = _cfg(seed=5)
        assert spec.identity == spec_identity(spec)

    @pytest.mark.parametrize("tags", [{"a"}, np.arange(3), float("nan")],
                             ids=["set", "ndarray", "nan"])
    def test_non_plain_app_param_fails_at_construction(self, tags):
        # Such a spec used to build and run; naming it in SweepError
        # then raised this ConfigError in place of the job's own error.
        match = r"^JobSpec identity: app\.tags"
        with pytest.raises(ConfigError, match=match) as info:
            _spec(app=_Tagged(tags))
        assert "\n" not in str(info.value)

    def test_naming_a_failed_spec_never_hides_its_error(self):
        spec = _spec(npes=4, ppn=2, app=_Retags())
        with pytest.raises(SweepError) as info:
            run_sweep([spec], max_workers=1)
        assert isinstance(info.value.cause.cause, ValueError)
        assert spec.identity in str(info.value)


class TestUnhashableOverrides:
    def test_list_value_fails_fast_with_config_error(self):
        # Historically this exploded much later inside _custom_cluster's
        # lru_cache with an opaque "unhashable type: 'list'" TypeError.
        with pytest.raises(ConfigError, match="cost_overrides"):
            _spec(cost_overrides={"qp_cache_entries": [1, 2]})

    def test_dict_value_fails_fast(self):
        with pytest.raises(ConfigError, match="hashable"):
            _spec(cost_overrides={"qp_cache_entries": {"a": 1}})

    def test_non_string_key_fails_fast(self):
        with pytest.raises(ConfigError, match="cost_overrides"):
            _spec(cost_overrides={3: 1.0})

    def test_malformed_tuple_entries_fail_fast(self):
        with pytest.raises(ConfigError, match="pairs"):
            _spec(cost_overrides=(("a", 1, 2),))

    def test_valid_overrides_still_run(self):
        result = run_sweep(
            [_spec(npes=4, ppn=2,
                   cost_overrides={"launch_skew_us": 9_000.0})])
        assert result[0].npes == 4
