"""JobSpec: validation, normalisation, identity, pickling, seed handling."""

import pickle

import pytest

from repro.apps import HelloWorld
from repro.core import RuntimeConfig
from repro.errors import ConfigError
from repro.exec import JobSpec, execute


def _spec(**kw):
    kw.setdefault("app", HelloWorld())
    kw.setdefault("npes", 8)
    kw.setdefault("config", RuntimeConfig.proposed())
    return JobSpec(**kw)


class TestValidation:
    def test_npes_must_be_positive(self):
        with pytest.raises(ConfigError):
            _spec(npes=0)

    def test_testbed_must_be_known(self):
        with pytest.raises(ConfigError):
            _spec(testbed="C")

    def test_ppn_must_be_positive(self):
        with pytest.raises(ConfigError):
            _spec(ppn=0)

    def test_misspelt_cost_field_fails_at_construction(self):
        # Without the check the spec builds, hashes, and only fails at
        # run time with a TypeError from CostModel.evolve.
        with pytest.raises(ConfigError, match="'qp_cache_entriez'") as info:
            _spec(cost_overrides={"qp_cache_entriez": 8})
        assert "\n" not in str(info.value)


# ----------------------------------------------------------------------
# bad scalars fail at construction, not deep inside the run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field, value", [
    ("npes", 4.5),
    ("npes", True),
    ("npes", "8"),
    ("ppn", 2.5),
    ("ppn", True),
    ("ppn", "2"),
    ("config", {"seed": 1}),
    ("config", None),
])
def test_bad_scalar_is_a_one_line_config_error(field, value):
    with pytest.raises(ConfigError, match=f"^JobSpec.{field} must be") as exc:
        _spec(**{field: value})
    assert "\n" not in str(exc.value)


class TestNormalisation:
    def test_cost_overrides_mapping_becomes_sorted_tuple(self):
        spec = _spec(cost_overrides={"qp_cache_entries": 8,
                                     "poll_cq_us": 0.2})
        assert spec.cost_overrides == (("poll_cq_us", 0.2),
                                       ("qp_cache_entries", 8))

    def test_spec_with_overrides_is_hashable(self):
        spec = _spec(cost_overrides={"qp_cache_entries": 8})
        assert hash(spec) == hash(_spec(cost_overrides=(
            ("qp_cache_entries", 8),)))


class TestKey:
    """The spec's one name, :attr:`JobSpec.identity`."""

    def test_default_key_encodes_the_point(self):
        spec = _spec(npes=32, testbed="B", ppn=16)
        assert spec.identity.startswith(
            "hello-n32-ondemand+nonblocking+intranode-tbB-ppn16#")

    def test_seed_and_observe_show_up(self):
        spec = _spec(config=RuntimeConfig.proposed(seed=7, observe=True))
        assert "-seed7-obs#" in spec.identity


class TestPickling:
    def test_round_trip_equality(self):
        spec = _spec(npes=16, testbed="B",
                     config=RuntimeConfig.proposed(seed=3, observe=True),
                     cost_overrides={"qp_cache_entries": 32})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.identity == spec.identity


class TestExecute:
    def test_same_spec_is_deterministic(self):
        a = execute(_spec(npes=4, ppn=2))
        b = execute(_spec(npes=4, ppn=2))
        assert a == b

    def test_seed_override_changes_the_run(self):
        base = execute(_spec(npes=4, ppn=2))
        reseeded = execute(_spec(npes=4, ppn=2,
                                 config=RuntimeConfig.proposed(seed=999)))
        # Launch skew is drawn from the job RNG, so a different seed
        # moves the reported wall time.
        assert reseeded.wall_time_us != base.wall_time_us

    def test_cost_overrides_reach_the_cluster(self):
        slow = _spec(npes=4, ppn=2,
                     cost_overrides={"launch_skew_us": 50_000.0})
        assert execute(slow).wall_time_us > execute(
            _spec(npes=4, ppn=2)).wall_time_us
