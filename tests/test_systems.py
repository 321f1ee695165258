import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from su11pct import measures, operators, pct, specfun, systems
from su11pct.errors import DomainError, ParameterError

from conftest import ALL_SPECS, CONSTANT_SPECS


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


def test_bound_state_degree_limit():
    spec = systems.OscillatorSpec(1.0, 0.0, 0.3)
    assert systems.bound_state(spec, specfun.MAX_DEGREE).n == specfun.MAX_DEGREE
    with pytest.raises(ParameterError):
        systems.bound_state(spec, specfun.MAX_DEGREE + 1)


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


def _reference_v_eff(spec, n, p, exp=np.exp):
    """The effective potentials written out per family, as a reference."""
    a = spec.alpha
    if spec.family == "ho":
        ll = spec.L * (spec.L + 1.0)
        return (ll / (p * p) if ll else 0.0) + 0.25 * (spec.omega**2 - 8.0 * a * a) * p * p - a
    if spec.family == "morse":
        q = exp(-p)
        A_n = systems.member_coupling(spec, n)
        return (spec.B**2 - 0.75 * a * a) * q * q - (spec.B * (2.0 * A_n + 1.0) + 0.5 * a) * q
    ll = spec.Lcal * (spec.Lcal + 1.0)
    return (ll / (p * p) if ll else 0.0) - 2.0 * systems.member_coupling(spec, n) / p - 0.25 * a * a


def test_v_eff_matches_reference_formulas(family_spec):
    for n in range(4):
        p = operators.default_residual_grid(family_spec, n)
        if family_spec.family != "morse":
            p = np.append(p, 1e-300)  # L = 0, where p * p underflows
        v = systems.mass_and_potential(family_spec, n, p)[1]
        ref = _reference_v_eff(family_spec, n, p)
        assert np.all(np.abs(v - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))), n


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


@pytest.mark.parametrize(
    "family,lo,hi", [("ho", 1e-3, 50.0), ("morse", -5.0, 20.0), ("coulomb", 1e-3, 50.0)]
)
def test_family_coordinate_rows(family, lo, hi):
    # from_x and to_x are inverse maps to the Morse coordinate x = -ln g,
    # and sigma equals the constant g g''/g'^2
    fam = systems.FAMILIES[family]
    q = fam.spacing(lo, hi, 40)
    x, x1, x2 = fam.to_x(q)
    g = fam.g(q)
    assert np.allclose(x, -np.log(g[0]), rtol=1e-14, atol=1e-14)
    assert np.allclose(fam.sigma, g[0] * g[2] / g[1] ** 2, rtol=1e-14, atol=0.0)
    back, b1, b2 = fam.from_x(x)
    assert np.allclose(back, q, rtol=1e-13, atol=0.0)
    assert np.allclose(b1 * x1, 1.0, rtol=1e-13, atol=0.0)
    # second derivative of the identity q(x(q)) = q
    assert np.allclose(b2 * x1 * x1, -b1 * x2, rtol=1e-13, atol=0.0)


def _mp_closed_form(spec, n):
    """psi_n of the module docstring, sign * q^m * exp(log_norm + h) * P_n(y), in mpmath."""
    fam = systems.FAMILIES[spec.family]
    m = mp.mpf(fam.power(spec))
    lg = mp.loggamma
    if spec.deformed:
        pa, pb = (mp.mpf(v) for v in fam.jacobi(spec))
        alpha = mp.mpf(spec.alpha)
        log_norm = (
            mp.log(2) + (pb + 1) * mp.log(alpha) + lg(n + 1) + mp.log(2 * n + pa + pb + 1)
            + lg(n + pa + pb + 1) - lg(n + pa + 1) - lg(n + pb + 1)
        ) / 2
        sign, slope = 1, pb / 2
    else:
        la, c = (mp.mpf(v) for v in fam.laguerre(spec))
        log_norm = (la + 1) / 2 * mp.log(c) + (mp.log(2) + lg(n + 1) - lg(n + la + 1)) / 2
        sign, slope = (-1) ** n, la / 2
    slope = slope if fam.linear else 0

    def psi(q):
        g = {"ho": q * q, "morse": mp.exp(-q), "coulomb": q}[spec.family]
        if spec.deformed:
            f = 1 + alpha * g
            h = -(pa + pb + 2) / 2 * mp.log(f)
            poly = mp.jacobi(n, pa, pb, 1 - 2 / f)
        else:
            h = -c * g / 2
            poly = mp.laguerre(n, la, c * g)
        return sign * q**m * mp.exp(log_norm + h - slope * q) * poly

    return psi


REFERENCE_SPECS = ALL_SPECS + [
    systems.OscillatorSpec(1.3, 1.0, 0.4),
    systems.CoulombSpec(1.0, 2.0, 0.2),
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: f"{s.family}-a{s.alpha}")
def test_derivative_stack_matches_mpmath(spec):
    # orders 0-4 against mpmath's differentiation of the closed form at 40 digits
    with mp.workdps(40):
        for n in (0, 4, 12):
            pts = operators.default_residual_grid(spec, n, count=7)
            got = np.array(systems.bound_state(spec, n).derivs(pts, 4))
            psi = _mp_closed_form(spec, n)
            ref = np.array(
                [[float(d) for d in mp.diffs(psi, mp.mpf(p), 4)] for p in pts]
            ).T
            for k in range(5):
                peak = np.max(np.abs(ref[k]))
                assert np.max(np.abs(got[k] - ref[k])) <= 1e-12 * peak, (n, k)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: f"{s.family}-a{s.alpha}")
def test_potential_stack_matches_mpmath(spec):
    # orders 0-3 of the slot potential against mpmath's differentiation of
    # the reference formulas; the generators consume up to order 2
    with mp.workdps(40):
        for n in (0, 3):
            pts = operators.default_residual_grid(spec, n, count=7)
            slots = systems.FAMILIES[spec.family].slots(spec, n)
            got = np.array(systems.potential(spec, slots, pts, 3))

            def v_mp(q):
                return _reference_v_eff(spec, n, q, mp.exp)

            ref = np.array(
                [[float(d) for d in mp.diffs(v_mp, mp.mpf(p), 3)] for p in pts]
            ).T
            for k in range(4):
                peak = np.max(np.abs(ref[k]))
                assert np.max(np.abs(got[k] - ref[k])) <= 1e-12 * max(peak, 1.0), (n, k)
