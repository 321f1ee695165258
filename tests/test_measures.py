import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11pct import measures, pct, systems
from su11pct.errors import ConvergenceError, ParameterError

from conftest import CONSTANT_SPECS, DEFORMED_SPECS


def test_rule_construction():
    rule = measures.quadrature_rule(measures.family_measure("ho"), 1)
    assert rule.nodes.size == 128
    assert np.all(rule.nodes > 0)
    assert np.all(rule.weights > 0)
    rule = measures.quadrature_rule(measures.family_measure("morse"), 3)
    assert rule.nodes.size == 64 * 2**3
    with pytest.raises(ParameterError):
        measures.quadrature_rule(measures.family_measure("ho"), 0)
    with pytest.raises(ParameterError):
        measures.quadrature_rule(measures.family_measure("ho"), 13)


@settings(max_examples=15, deadline=None)
@given(level=st.integers(min_value=1, max_value=8))
def test_rule_nodes_positive_weights(level):
    for family in ("ho", "morse", "coulomb"):
        meas = measures.family_measure(family)
        rule = measures.quadrature_rule(meas, level)
        assert rule.nodes.size == 64 * 2**level
        assert np.all(rule.weights > 0)
        lo, hi = systems.FAMILIES[family].domain
        assert np.all(rule.nodes > lo) and np.all(rule.nodes < hi)


def test_exponential_integral_at_level4():
    meas = measures.family_measure("ho")
    rule = measures.quadrature_rule(meas, 4)
    est = float(np.sum(np.exp(-rule.nodes) * rule.weights))
    assert est == pytest.approx(1.0, abs=1e-10)


def test_divergent_integrand_reports_nonconvergence():
    meas = measures.family_measure("morse")
    one = lambda x: np.ones_like(x)
    with pytest.raises(ConvergenceError) as err:
        measures.inner_product(meas, one, one)
    assert err.value.estimates is not None


def test_normalization_and_orthogonality_constant_ho():
    spec = systems.OscillatorSpec(1.0, 0.0)
    meas = measures.family_measure("ho")
    s0, s1 = systems.bound_state(spec, 0), systems.bound_state(spec, 1)
    assert measures.inner_product(meas, s0, s0) == pytest.approx(1.0, abs=1e-9)
    assert measures.inner_product(meas, s0, s1) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("spec", CONSTANT_SPECS.values(), ids=lambda s: s.family)
@pytest.mark.parametrize("n", [167, 200])
def test_top_degree_states_normalize(spec, n):
    meas = measures.family_measure(spec.family)
    assert abs(measures.norm(meas, systems.bound_state(spec, n)) - 1.0) <= 1e-10


def test_morse_modified_product_normalizes():
    spec = systems.MorseSpec(0.25, 0.25)
    meas = measures.family_measure("morse")
    s0 = systems.bound_state(spec, 0)
    assert measures.inner_product(meas, s0, s0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("family", ["ho", "morse", "coulomb"])
def test_gram_matrices_near_identity(family, alpha):
    if alpha == 0.0:
        spec = CONSTANT_SPECS[family]
    elif family == "ho":
        spec = systems.OscillatorSpec(1.0, 0.0, alpha)
    elif family == "morse":
        spec = systems.MorseSpec(1.0, 0.75, alpha)
    else:
        spec = systems.CoulombSpec(0.5, 3.0, alpha)
    meas = measures.family_measure(family)
    states = [systems.bound_state(spec, n) for n in range(6)]
    gram = measures.gram_matrix(meas, states)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-7


def test_coulomb_measure_integrable_near_half_angular():
    # |chi|^2 / R ~ R^(2 Lcal + 1) near zero stays integrable for Lcal > -1/2
    with pytest.warns(UserWarning, match="Lcal"):
        spec = systems.CoulombSpec(-0.4, 1.0)
    meas = measures.family_measure("coulomb")
    s0 = systems.bound_state(spec, 0)
    assert measures.inner_product(meas, s0, s0) == pytest.approx(1.0, abs=1e-8)


def test_pushforward_preserves_inner_products():
    # the map between any two distinct families is unitary between their measures
    pairs = list(itertools.permutations(("ho", "morse", "coulomb"), 2))
    for alpha in (0.0, 0.3):
        ho = systems.OscillatorSpec(1.0, 0.0, alpha)
        mo, _ = pct.map_parameters(ho, 0, "morse")
        specs = {"ho": ho, "morse": mo, "coulomb": pct.map_parameters(mo, 0, "coulomb")[0]}
        for source, target in pairs:
            mapping = pct.mapping(source, target)
            states = [systems.bound_state(specs[source], n) for n in range(4)]
            mapped = [pct.map_state(mapping, st) for st in states]
            src, tgt = measures.family_measure(source), measures.family_measure(target)
            for i in range(4):
                for j in range(i, 4):
                    base = measures.inner_product(src, states[i], states[j])
                    val = measures.inner_product(tgt, mapped[i], mapped[j])
                    assert val == pytest.approx(base, abs=1e-8)


def test_rule_cache_keeps_each_weight():
    # a freed weight function's id can come back for a new one, which must
    # still get a rule of its own
    for _ in range(20):
        old = measures.Measure("ho", lambda p: np.exp(-p))
        measures.quadrature_rule(old, 4)
        del old
        new = measures.Measure("ho", lambda p: np.exp(-2.0 * p))
        rule = measures.quadrature_rule(new, 4)
        assert float(np.sum(rule.weights)) == pytest.approx(0.5, abs=1e-10)


def test_inner_product_deterministic():
    spec = systems.MorseSpec(1.0, 0.75, 0.3)
    meas = measures.family_measure("morse")
    s2 = systems.bound_state(spec, 2)
    vals = {measures.inner_product(meas, s2, s2) for _ in range(3)}
    assert len(vals) == 1


@pytest.mark.parametrize("family", ["ho", "morse", "coulomb"])
def test_levels_nest(family):
    meas = measures.family_measure(family)
    for level in range(1, measures.MAX_LEVEL):
        coarse = measures.quadrature_rule(meas, level).nodes
        fine = measures.quadrature_rule(meas, level + 1).nodes
        assert np.array_equal(coarse, fine[1::2])


class _Counted:
    """A state that records the points of every evaluation."""

    def __init__(self, state):
        self.state = state
        self.calls = []

    def __call__(self, points):
        self.calls.append(np.array(points))
        return self.state(points)


@pytest.mark.parametrize("family", ["ho", "morse", "coulomb"])
def test_gram_matrix_evaluates_each_state_once_per_level(family):
    spec = DEFORMED_SPECS[family]
    meas = measures.family_measure(family)
    states = [_Counted(systems.bound_state(spec, n)) for n in range(6)]
    gram = measures.gram_matrix(meas, states)
    for st in states:
        # one call per level, each on the nodes the level adds, so together
        # the calls cover the last level's nodes once
        top = measures.START_LEVEL + len(st.calls) - 1
        seen = np.sort(np.concatenate(st.calls))
        assert np.array_equal(seen, np.sort(measures.quadrature_rule(meas, top).nodes))
    for i in range(6):
        for j in range(i, 6):
            pair = measures.inner_product(meas, states[i].state, states[j].state)
            assert gram[i, j] == gram[j, i] == pair


def test_measure_arguments_are_checked():
    with pytest.raises(ParameterError, match="unknown family 'bogus'"):
        measures.family_measure("bogus")
    # the quadrature transform follows from the family's domain, so a
    # measure needs a known family
    with pytest.raises(ParameterError, match="unknown family 'bogus'"):
        measures.Measure("bogus", lambda p: np.ones_like(p))
