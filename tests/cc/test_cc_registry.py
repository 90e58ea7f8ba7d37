"""Tests for the concurrency control registry and CCSpec resolution."""

import pickle

import pytest

from repro.cc import (
    ISOLATION_LEVELS,
    CCSpec,
    ConcurrencyControl,
    TimestampCertification,
    TwoPhaseLocking,
    cc_family,
    cc_kinds,
    cc_level,
    resolve_cc,
)
from repro.cc.registry import SCHEMES
from repro.sim.engine import Simulator


class TestCCSpec:
    def test_make_sorts_options(self):
        left = CCSpec.make("two_phase_locking", victim_policy="oldest")
        right = CCSpec(kind="two_phase_locking",
                       options=(("victim_policy", "oldest"),))
        assert left == right
        assert hash(left) == hash(right)

    def test_build_constructs_fresh_instances(self):
        sim = Simulator()
        spec = CCSpec.make("timestamp_cert")
        first = spec.build(sim)
        second = spec.build(sim)
        assert isinstance(first, TimestampCertification)
        assert first is not second

    def test_build_passes_options(self):
        sim = Simulator()
        scheme = CCSpec.make("two_phase_locking", victim_policy="oldest").build(sim)
        assert isinstance(scheme, TwoPhaseLocking)
        assert scheme.victim_policy == "oldest"

    def test_unknown_kind_raises_with_listing(self):
        with pytest.raises(KeyError, match="timestamp_cert"):
            CCSpec.make("three_phase_locking").build(Simulator())

    def test_specs_pickle_roundtrip(self):
        spec = CCSpec.make("two_phase_locking", victim_policy="fewest_locks")
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestRegistry:
    def test_builtin_kinds_present(self):
        kinds = cc_kinds()
        assert "timestamp_cert" in kinds
        assert "two_phase_locking" in kinds

    @pytest.mark.parametrize("kind", sorted(SCHEMES))
    def test_every_scheme_row_is_valid(self, kind):
        """The checks a registration decorator used to make at import time,
        now made over the table's rows."""
        scheme_class, family, level = SCHEMES[kind]
        assert family in ("optimistic", "locking", "multiversion")
        assert level in ISOLATION_LEVELS
        assert (cc_family(kind), cc_level(kind)) == (family, level)
        scheme = CCSpec.make(kind).build(Simulator())
        assert type(scheme) is scheme_class
        assert isinstance(scheme, ConcurrencyControl)

    def test_unknown_kind_lookups_list_the_kinds(self):
        for lookup in (cc_family, cc_level):
            with pytest.raises(KeyError, match="two_phase_locking"):
                lookup("three_phase_locking")


class TestResolveCC:
    def test_none_means_system_default(self):
        assert resolve_cc(None, Simulator()) is None

    def test_spec_resolves_via_registry(self):
        scheme = resolve_cc(CCSpec.make("two_phase_locking"), Simulator())
        assert isinstance(scheme, TwoPhaseLocking)

    def test_ready_instances_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError, match="built fresh"):
            resolve_cc(TimestampCertification(sim), sim)

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="CCSpec"):
            resolve_cc("timestamp_cert", Simulator())


def _controller_factory(params):
    from repro.core.static import NoControl

    return NoControl(upper_bound=params.n_terminals)


class TestRunSpecCCValidation:
    def _stationary_cell(self, **fields):
        from repro.experiments.config import (
            ExperimentScale,
            default_system_params,
        )
        from repro.runner.specs import RunSpec

        return RunSpec(kind="stationary", cell_id="x",
                       params=default_system_params(),
                       scale=ExperimentScale.smoke(), **fields)

    @pytest.mark.parametrize("cc", ["timestamp_cert", TimestampCertification],
                             ids=["string", "callable"])
    def test_runspec_rejects_non_spec_cc(self, cc):
        with pytest.raises(TypeError, match="cc must be None or a CCSpec"):
            self._stationary_cell(cc=cc)

    @pytest.mark.parametrize("controller", ["parabola", _controller_factory],
                             ids=["string", "callable"])
    def test_runspec_rejects_non_spec_controller(self, controller):
        with pytest.raises(TypeError,
                           match="controller must be None or a ControllerSpec"):
            self._stationary_cell(controller=controller)
