import math
import warnings

import numpy as np
import pytest

from su11pct import measures, operators, pct, systems
from su11pct.errors import DomainError, ParameterError

from conftest import CONSTANT_SPECS


def test_oscillator_energy_constant_mass():
    spec = systems.OscillatorSpec(1.0, 0.0)
    assert systems.energy(spec, 0) == pytest.approx(1.5, abs=1e-15)
    assert systems.energy(spec, 3) == pytest.approx(7.5, abs=1e-15)


def test_oscillator_energy_deformed_quadratic():
    spec = systems.OscillatorSpec(math.sqrt(3.0), 0.0, 1.0)
    assert systems.energy(spec, 0) == pytest.approx(5.5, abs=1e-12)
    assert systems.energy(spec, 1) == pytest.approx(19.5, abs=1e-12)


def test_morse_fixed_energy():
    spec = systems.MorseSpec(0.25, 0.25)
    for n in range(4):
        assert systems.energy(spec, n) == -0.0625


def test_spec_validation():
    with pytest.raises(ParameterError):
        systems.OscillatorSpec(-1.0, 0.0)
    with pytest.raises(ParameterError):
        systems.OscillatorSpec(1.0, -0.75)
    with pytest.raises(ParameterError):
        systems.MorseSpec(0.0, 1.0)
    with pytest.raises(ParameterError):
        systems.CoulombSpec(0.0, -1.0)
    with pytest.raises(ParameterError):
        # no normalizable lowest state: (2A0+1)B below the deformation scale
        systems.MorseSpec(0.05, 0.1, 2.0)
    with pytest.raises(ParameterError):
        # deformed Coulomb needs Z0 > alpha (Lcal + 1)
        systems.CoulombSpec(0.0, 0.5, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        systems.OscillatorSpec(1.0, 0.3)
    assert any("integer" in str(w.message) for w in caught)


def test_morse_spec_consistency():
    # constant mass: A0 = sqrt(|epsilon|)
    spec = systems.MorseSpec(0.7, 0.4)
    assert spec.sqrt_eps == pytest.approx(math.sqrt(-spec.epsilon), abs=1e-15)
    # deformed: the two routes to the Coulomb angular constant agree
    for spec in (systems.MorseSpec(1.0, 0.75, 0.3), systems.MorseSpec(2.0, 0.5, 0.7)):
        lcal_a = spec.sqrt_eps - 0.5
        lam = spec.lam_abs
        lcal_b = ((2.0 * spec.A0 + 1.0) * spec.B - 2.0 * lam) / (2.0 * lam)
        assert lcal_a == pytest.approx(lcal_b, abs=1e-12)
        assert lcal_a * (lcal_a + 1.0) == pytest.approx(
            -spec.epsilon - 0.25, abs=1e-12
        )


def test_derived_scale_identities():
    # 4 sqrt|E| + alpha = 4 lam_M - alpha and Z0 = lam_M (Lcal + 1)
    for A0, B, a in [(0.25, 0.25, 0.0), (1.0, 0.75, 0.3), (2.0, 0.5, 0.8)]:
        morse = systems.MorseSpec(A0, B, a)
        coul, _ = pct.map_parameters(morse, 0, "coulomb")
        assert 4.0 * coul.sqrt_energy + a == pytest.approx(
            4.0 * morse.lam_abs - a, abs=1e-12
        )
        assert coul.Z0 == pytest.approx(coul.lam_abs * (coul.Lcal + 1.0), abs=1e-12)


def test_constant_mass_norm_transport():
    # the Morse normalization equals the oscillator one under the parameter map
    for n in range(6):
        for omega, L in [(1.0, 0.0), (2.0, 1.5), (0.5, 2.0)]:
            ho = systems.OscillatorSpec(omega, L)
            mo, _ = pct.map_parameters(ho, n, "morse")
            co, _ = pct.map_parameters(mo, n, "coulomb")
            n_ho = systems.bound_state(ho, n).norm_coeff
            n_mo = systems.bound_state(mo, n).norm_coeff
            n_co = systems.bound_state(co, n).norm_coeff
            assert n_mo == pytest.approx(n_ho, rel=1e-13)
            assert n_co == pytest.approx(n_ho, rel=1e-13)


def test_bound_state_example_values():
    # oscillator ground state at r = 1
    st = systems.bound_state(systems.OscillatorSpec(1.0, 0.0), 0)
    norm = 0.89324384173800233
    assert st.norm_coeff == pytest.approx(norm, rel=1e-14)
    assert st(1.0) == pytest.approx(norm * math.exp(-0.25), rel=1e-13)
    # Morse ground state at x = 0: value N e^-B, slope N e^-B (B - A0)
    st = systems.bound_state(systems.MorseSpec(0.25, 0.25), 0)
    v, d1, _ = st.evaluator(0.0)
    assert v == pytest.approx(st.norm_coeff * math.exp(-0.25), rel=1e-14)
    assert d1 == pytest.approx(v * (-0.25 + 0.25), abs=1e-15)


def test_polynomial_factor_trivial_at_n0(family_spec):
    # n = 0 states carry a degree-0 polynomial: value = norm * power * exp
    st = systems.bound_state(family_spec, 0)
    parts = st._parts
    p = 1.3
    expected = st.norm_coeff * math.exp(parts.h_and_y(np.asarray(p), 0)[0][0]) * p**parts.power
    assert st(p) == pytest.approx(float(expected), rel=1e-13)


def test_sign_convention_alternates_for_constant_mass():
    spec = systems.OscillatorSpec(1.0, 0.0)
    signs = [math.copysign(1.0, systems.bound_state(spec, n).norm_coeff) for n in range(4)]
    assert signs == [1.0, -1.0, 1.0, -1.0]
    # deformed normalization constants are positive
    spec = systems.OscillatorSpec(1.0, 0.0, 0.3)
    assert all(systems.bound_state(spec, n).norm_coeff > 0 for n in range(4))


def test_state_decays_at_boundaries(family_spec):
    st = systems.bound_state(family_spec, 5)
    # the last two far points lie past the overflow of p*p or e^-x
    if family_spec.family == "morse":
        far = np.array([-35.0, 250.0, -720.0, -1e4])
        bulk = np.linspace(-5.0, 25.0, 200)
    else:
        far = np.array([1e-12, 1e7, 1e155, 1e300])
        bulk = np.linspace(0.5, 20.0, 200)
    peak = np.max(np.abs(st(bulk)))
    assert np.all(np.abs(st(far)) < 1e-10 * peak)
    for order in (2, 4):
        assert all(np.all(d == 0.0) for d in st.derivs(far[2:], order))


def test_state_derivatives_match_finite_differences(family_spec):
    st = systems.bound_state(family_spec, 4)
    pts = np.array([0.7, 1.2, 2.5]) if family_spec.family != "morse" else np.array([-1.0, 0.5, 3.0])
    h = 3e-4
    v, d1, d2 = st.evaluator(pts)
    s = [st(pts + k * h) for k in (-2, -1, 0, 1, 2)]
    fd1 = (-s[4] + 8 * s[3] - 8 * s[1] + s[0]) / (12 * h)
    fd2 = (-s[4] + 16 * s[3] - 30 * s[2] + 16 * s[1] - s[0]) / (12 * h**2)
    scale = np.maximum(1.0, np.abs(v))
    assert np.all(np.abs(d1 - fd1) < 1e-6 * scale)
    assert np.all(np.abs(d2 - fd2) < 1e-6 * scale)


def test_energy_continuity_alpha_to_zero():
    for family in ("ho", "morse", "coulomb"):
        base = CONSTANT_SPECS[family]
        if family == "ho":
            tiny = systems.OscillatorSpec(base.omega, base.L, 1e-6)
        elif family == "morse":
            tiny = systems.MorseSpec(base.A0, base.B, 1e-6)
        else:
            tiny = systems.CoulombSpec(base.Lcal, base.Z0, 1e-6)
        for n in range(6):
            e0 = systems.energy(base, n)
            ea = systems.energy(tiny, n)
            assert abs(ea - e0) < 1e-4 * (1.0 + abs(e0))


def test_mass_and_potential_values():
    m, _, _, _, _ = systems.mass_and_potential(systems.OscillatorSpec(1.0, 0.0), 0, 2.7)
    assert m == 1.0
    m, _, f, f1, _ = systems.mass_and_potential(
        systems.CoulombSpec(0.0, 1.0, 0.1), 0, 10.0
    )
    assert f == pytest.approx(2.0, abs=1e-15)
    assert m == pytest.approx(0.25, abs=1e-15)
    spec = systems.OscillatorSpec(math.sqrt(3.0), 0.0, 1.0)
    _, v_eff, _, _, _ = systems.mass_and_potential(spec, 0, 1.0)
    assert v_eff == pytest.approx(-2.25, abs=1e-14)


def test_mass_and_potential_domain_error():
    with pytest.raises(DomainError):
        systems.mass_and_potential(systems.OscillatorSpec(1.0, 0.0), 0, -1.0)
    with pytest.raises(DomainError):
        systems.bound_state(systems.CoulombSpec(0.0, 1.0), 0).derivs(0.0)


def test_nan_point_raises_domain_error(family_spec):
    st = systems.bound_state(family_spec, 1)
    with pytest.raises(DomainError):
        st(math.nan)
    with pytest.raises(DomainError):
        st.derivs(np.array([1.0, math.nan]))
    with pytest.raises(DomainError):
        operators.eigen_residual(family_spec, 1, np.array([1.0, math.nan, 2.0]))


def test_member_couplings():
    mo = systems.MorseSpec(0.25, 0.25)
    assert [systems.member_coupling(mo, n) for n in range(3)] == [0.25, 1.25, 2.25]
    co = systems.CoulombSpec(0.0, 1.0, 0.1)
    assert systems.member_coupling(co, 1) == pytest.approx(2.1, abs=1e-14)
    with pytest.raises(ParameterError):
        systems.member_coupling(systems.OscillatorSpec(1.0, 0.0), 1)


def test_fixed_spectrum_morse_constant():
    levels = systems.spectrum_fixed_potential("morse", (2.5, 1.0), 0.0, 10)
    assert [e for _, e in levels] == pytest.approx([-6.25, -2.25, -0.25], abs=1e-14)
    # integer A_bar drops the zero-energy edge state
    levels = systems.spectrum_fixed_potential("morse", (2.0, 1.0), 0.0, 10)
    assert [e for _, e in levels] == pytest.approx([-4.0, -1.0], abs=1e-14)


def test_fixed_spectrum_coulomb_constant():
    levels = systems.spectrum_fixed_potential("coulomb", (1.0, 0.0), 0.0, 3)
    assert [e for _, e in levels] == pytest.approx([-1.0, -0.25, -1.0 / 9.0], rel=1e-14)


def test_fixed_spectrum_morse_alpha_continuity():
    levels = systems.spectrum_fixed_potential("morse", (2.5, 1.0), 1e-8, 10)
    assert len(levels) == 3
    for (_, e), ref in zip(levels, [-6.25, -2.25, -0.25]):
        assert abs(e - ref) < 1e-6


def test_fixed_spectrum_deformed_values():
    levels = systems.spectrum_fixed_potential("morse", (2.5, 1.0), 0.1, 10)
    assert [e for _, e in levels] == pytest.approx(
        [-5.5401280430723468, -1.4225979914188918, -0.01886894597306672], rel=1e-13
    )
    levels = systems.spectrum_fixed_potential("coulomb", (1.0, 0.0), 0.1, 10)
    assert [e for _, e in levels] == pytest.approx(
        [-0.9025, -0.16, -0.033611111111111111, -0.0025], rel=1e-13
    )
    assert len(levels) == 4  # deformation leaves a finite level count


def test_fixed_spectrum_truncation_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        levels = systems.spectrum_fixed_potential("morse", (2.5, 0.6), 0.45, 10)
    assert len(levels) < 3
    assert any("suppresses" in str(w.message) for w in caught)


def test_fixed_spectrum_errors():
    with pytest.raises(ParameterError):
        systems.spectrum_fixed_potential("morse", (-1.0, 1.0), 0.0, 5)
    with pytest.raises(ParameterError):
        systems.spectrum_fixed_potential("coulomb", (0.0, 0.0), 0.0, 5)
    with pytest.raises(ParameterError):
        systems.spectrum_fixed_potential("morse", (2.5, 1.0), 0.0, 0)
    with pytest.raises(ParameterError):
        systems.spectrum_fixed_potential("ho", (1.0, 0.0), 0.0, 5)


def test_states_normalized_under_family_measures(family_spec):
    meas = measures.family_measure(family_spec.family)
    for n in (0, 2, 5):
        st = systems.bound_state(family_spec, n)
        assert measures.inner_product(meas, st, st) == pytest.approx(1.0, abs=1e-9)
