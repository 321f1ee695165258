import dataclasses
import gc
import itertools
import math
import warnings
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from su11pct import algebra, cli, measures, operators, pct, specfun, systems
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


SPEC_PARAMS = [
    (systems.OscillatorSpec, dict(omega=1.0, L=0.0, alpha=0.3)),
    (systems.MorseSpec, dict(A0=1.0, B=0.75, alpha=0.3)),
    (systems.CoulombSpec, dict(Lcal=0.0, Z0=1.0, alpha=0.1)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, params", SPEC_PARAMS, ids=lambda a: getattr(a, "__name__", ""))
def test_non_finite_spec_parameters_raise(cls, params, bad):
    for name in params:
        with pytest.raises(ParameterError) as err:
            cls(**{**params, name: bad})
        assert str(err.value) == f"{name} must be finite, got {bad}"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: systems.OscillatorSpec(0.0, 0.0), "omega must be positive, got 0.0"),
        (lambda: systems.OscillatorSpec(1.0, -0.75), "L must be >= -1/2, got -0.75"),
        (lambda: systems.OscillatorSpec(1.0, 0.0, -0.1), "alpha must be non-negative, got -0.1"),
        (lambda: systems.MorseSpec(0.0, 1.0), "A0 must be positive, got 0.0"),
        (lambda: systems.MorseSpec(1.0, -1.0), "B must be positive, got -1.0"),
        (lambda: systems.MorseSpec(1.0, 1.0, -0.1), "alpha must be non-negative, got -0.1"),
        (lambda: systems.CoulombSpec(-0.5, 1.0), "Lcal must be > -1/2, got -0.5"),
        (lambda: systems.CoulombSpec(0.0, 0.0), "Z0 must be positive, got 0.0"),
        (lambda: systems.CoulombSpec(0.0, 1.0, -0.1), "alpha must be non-negative, got -0.1"),
    ],
)
def test_out_of_range_spec_messages(make, message):
    with pytest.raises(ParameterError) as err:
        make()
    assert str(err.value) == message


def test_quantum_numbers_are_non_negative_ints():
    ho, mo = systems.OscillatorSpec(1.0, 0.0), systems.MorseSpec(1.0, 0.5)
    for bad in (1.5, 2.0, -1, -3):
        with pytest.raises(ParameterError):
            systems.energy(ho, bad)
        with pytest.raises(ParameterError):
            systems.member_coupling(mo, bad + 1.0)
        with pytest.raises(ParameterError):
            pct.map_parameters(ho, bad, "morse")
    with pytest.raises(ParameterError, match="^quantum number must be non-negative$"):
        systems.energy(ho, -1)
    with pytest.raises(ParameterError, match="^member index must be non-negative$"):
        systems.member_coupling(mo, -2)
    with pytest.raises(ParameterError, match="^member index must be non-negative$"):
        pct.map_parameters(ho, -2, "coulomb")
    assert systems.energy(ho, np.int64(2)) == systems.energy(ho, 2)
    assert systems.member_coupling(mo, np.int32(2)) == systems.member_coupling(mo, 2)
    assert pct.map_parameters(ho, np.int64(3), "morse") == pct.map_parameters(ho, 3, "morse")


def test_bound_state_degree_limit():
    spec = systems.OscillatorSpec(1.0, 0.0, 0.3)
    assert systems.bound_state(spec, specfun.MAX_DEGREE).n == specfun.MAX_DEGREE
    with pytest.raises(ParameterError):
        systems.bound_state(spec, specfun.MAX_DEGREE + 1)


def test_morse_spec_consistency():
    # constant mass: A0 = sqrt(|epsilon|)
    spec = systems.MorseSpec(0.7, 0.4)
    assert spec.A0 == pytest.approx(math.sqrt(-systems.energy(spec, 0)), abs=1e-15)
    # deformed: the two routes to the Coulomb angular constant agree
    for spec in (systems.MorseSpec(1.0, 0.75, 0.3), systems.MorseSpec(2.0, 0.5, 0.7)):
        lcal_a = 0.5 * systems.invariants(spec)[0] - 0.5  # sqrt|epsilon| - 1/2
        lam = spec.lam_abs
        lcal_b = ((2.0 * spec.A0 + 1.0) * spec.B - 2.0 * lam) / (2.0 * lam)
        assert lcal_a == pytest.approx(lcal_b, abs=1e-12)
        assert lcal_a * (lcal_a + 1.0) == pytest.approx(
            -systems.energy(spec, 0) - 0.25, abs=1e-12
        )


def test_derived_scale_identities():
    # 4 sqrt|E| + alpha = 4 lam_M - alpha and Z0 = lam_M (Lcal + 1)
    for A0, B, a in [(0.25, 0.25, 0.0), (1.0, 0.75, 0.3), (2.0, 0.5, 0.8)]:
        morse = systems.MorseSpec(A0, B, a)
        coul, _ = pct.map_parameters(morse, 0, "coulomb")
        assert 4.0 * math.sqrt(-systems.energy(coul, 0)) + a == pytest.approx(
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
    p = 1.3
    expected = st.norm_coeff * math.exp(st.h_and_y(np.asarray(p), 0)[0][0]) * p**st.power
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
    for co in (systems.CoulombSpec(0.0, 1.0), systems.CoulombSpec(1.5, 0.7)):
        for n in range(5):  # the linear law to the bit at constant mass
            assert systems.member_coupling(co, n) == co.Z0 * (n + co.Lcal + 1.0) / (co.Lcal + 1.0)
    with pytest.raises(ParameterError):
        systems.member_coupling(systems.OscillatorSpec(1.0, 0.0), 1)


@settings(max_examples=300)
@given(
    st.floats(-0.49, 5.0),
    st.floats(0.01, 50.0),
    st.floats(0.0, 1.0),
)
def test_coulomb_member_zero_is_the_spec_charge(lcal, z0, share):
    # Z0 (0 + Lcal + 1)/(Lcal + 1) misses Z0 in the last bit for about one spec in eleven
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        spec = systems.CoulombSpec(lcal, z0, 0.9 * share * z0 / (lcal + 1.0))
    assert systems.member_coupling(spec, 0) == spec.Z0


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


def test_fixed_spectrum_error_branches():
    with pytest.raises(ParameterError, match="^Lcal must be > -1/2$"):
        systems.spectrum_fixed_potential("coulomb", (1.0, -0.5), 0.0, 3)
    with pytest.raises(ParameterError, match="^alpha must be non-negative$"):
        systems.spectrum_fixed_potential("morse", (2.0, 1.0), -0.1, 3)
    # a non-integer count ended in a bare TypeError
    with pytest.raises(ParameterError, match="^max_count must be at least 1$"):
        systems.spectrum_fixed_potential("morse", (2.5, 1.0), 0.0, 2.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fixed_spectrum_rejects_non_finite_parameters(bad):
    for family, params in (("morse", (2.0, 1.0)), ("coulomb", (1.0, 0.0))):
        for changed in ((bad, params[1]), (params[0], bad)):
            with pytest.raises(ParameterError):
                systems.spectrum_fixed_potential(family, changed, 0.0, 3)
        with pytest.raises(ParameterError):
            systems.spectrum_fixed_potential(family, params, bad, 3)


def test_states_normalized_under_family_measures(family_spec):
    meas = measures.family_measure(family_spec.family)
    for n in (0, 2, 5):
        st = systems.bound_state(family_spec, n)
        assert measures.inner_product(meas, st, st) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family", sorted(systems.FAMILIES))
def test_x_nodes_are_even_in_x(family):
    # on the line x = q; on a half-line even steps in x are a constant ratio in q
    fam = systems.FAMILIES[family]
    for lo, hi in (fam.probe, (-5.0, 20.0) if family == "morse" else (1e-3, 50.0)):
        q = fam.q_of_x(fam.x_nodes(lo, hi, 200))
        assert abs(q[0] - lo) <= 1e-15 * abs(lo) and abs(q[-1] - hi) <= 1e-15 * abs(hi)
        if family == "morse":
            assert np.array_equal(q, np.linspace(lo, hi, 200))
        else:
            ratio = q[1:] / q[:-1]
            assert np.allclose(ratio, ratio[0], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "family,lo,hi", [("ho", 1e-3, 50.0), ("morse", -5.0, 20.0), ("coulomb", 1e-3, 50.0)]
)
def test_family_coordinate_rows(family, lo, hi):
    # from_x and to_x are inverse maps to the Morse coordinate x = -ln g,
    # and sigma equals the constant g g''/g'^2
    fam = systems.FAMILIES[family]
    q = fam.q_of_x(fam.x_nodes(lo, hi, 40))
    x, x1, x2 = fam.to_x(q)
    g = tuple(fam.g(q))
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
        pa, pb = (mp.mpf(v) for v in systems.jacobi_params(spec))
        alpha = mp.mpf(spec.alpha)
        log_norm = (
            mp.log(2) + (pb + 1) * mp.log(alpha) + lg(n + 1) + mp.log(2 * n + pa + pb + 1)
            + lg(n + pa + pb + 1) - lg(n + pa + 1) - lg(n + pb + 1)
        ) / 2
        sign, slope = 1, pb / 2
    else:
        pb, w = systems.invariants(spec)
        la, c = mp.mpf(pb), mp.mpf(w) / 2
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


@st.composite
def _specs(draw, alphas=st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e))):
    """A spec of any of the six kinds, alpha = 0 or log-uniform in [1e-8, 1] by default."""
    family = draw(st.sampled_from(["ho", "morse", "coulomb"]))
    alpha = draw(alphas)
    half = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    try:
        if family == "ho":
            return systems.OscillatorSpec(draw(st.floats(0.2, 5.0)), draw(half), alpha)
        if family == "morse":
            return systems.MorseSpec(draw(st.floats(0.1, 8.0)), draw(st.floats(0.1, 3.0)), alpha)
        return systems.CoulombSpec(draw(half), draw(st.floats(0.2, 6.0)), alpha)
    except ParameterError:  # a deformed well without a lowest state
        assume(False)


@settings(max_examples=300, deadline=None)
@given(spec=_specs(), n=st.integers(0, 60))
def test_level_law(spec, n):
    fam = systems.FAMILIES[spec.family]
    j, c = fam.energy_slot
    s, a = 0.5 * (1.0 - fam.sigma), spec.alpha
    pb, w = systems.invariants(spec)
    e = systems.energy(spec, n)
    slots = fam.slots(spec, n)
    if j != 1:
        # potential algebra: member n's level n is the hierarchy's one energy
        e0 = systems.energy(spec, 0)
        assert systems.level(spec.family, slots, a, n)[2] == pytest.approx(e0, rel=1e-12)
        # member_coupling's a1(n) is the one the law asks of b1 = a1 + 2 s (s - 1) alpha
        b1 = -0.25 * (w * (2 * n + pb + 1) + a * (4 * n * n + 2 * n + 3 + pb * (4 * n + 1)))
        assert slots[1] == pytest.approx(b1 - 2 * s * (s - 1) * a, rel=1e-12)
    # (w/2) mu_n = -b1 - 5 alpha/8, the energy in its slot
    a1 = slots[1] - (c * e if j == 1 else 0.0)
    b1 = a1 + 2 * s * (s - 1) * a
    mu = algebra.unirrep(algebra.generator_set(spec)).mu_of_n(n)
    assert 0.5 * w * mu == pytest.approx(-b1 - 0.625 * a, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(A=st.floats(0.01, 20.0), B=st.floats(0.05, 5.0))
def test_constant_mass_morse_well_holds_ceil_A_levels(A, B):
    assert len(systems.spectrum_fixed_potential("morse", (A, B), 0.0, 25)) == math.ceil(A)


@settings(max_examples=240, deadline=None)
@given(spec=_specs(alphas=st.floats(-8.0, -3.0).map(lambda e: 10.0**e)), n=st.integers(0, 40))
def test_states_stay_accurate_as_alpha_goes_to_zero(spec, n):
    # the deformed state tends to the constant-mass one with no loss of digits:
    # at the tolerances of the verification report, however small alpha is
    assert operators.eigen_residual(spec, n, operators.default_residual_grid(spec, n)) <= 1e-9
    meas = measures.family_measure(spec.family)
    assert abs(measures.norm(meas, systems.bound_state(spec, n)) - 1.0) <= 1e-10


@pytest.mark.parametrize("spec", CONSTANT_SPECS.values(), ids=lambda s: s.family)
def test_derivative_stack_is_continuous_at_alpha_zero(spec):
    tiny = dataclasses.replace(spec, alpha=1e-12)
    for n in (0, 3, 12):
        pts = operators.default_residual_grid(spec, n)
        at_zero = systems.bound_state(spec, n).derivs(pts, 4)
        near_zero = systems.bound_state(tiny, n).derivs(pts, 4)
        for k, (d0, d1) in enumerate(zip(at_zero, near_zero)):
            assert np.max(np.abs(d1 - d0)) <= 1e-9 * np.max(np.abs(d0)), (n, k)


# the six specs of ``su11pct verify --all``
BATTERY = cli.VERIFY_ALL_SPECS


@pytest.mark.parametrize("spec", BATTERY, ids=lambda s: f"{s.family}-a{s.alpha}")
def test_derivative_stack_finite_on_quadrature_nodes(spec):
    # a state is 0 where its exponential factor underflows, also where the
    # polynomial overflows there (n = 200 at constant mass used to give NaN)
    nodes = measures.quadrature_rule(measures.family_measure(spec.family), 8).nodes
    for n in (0, 1, 5, 40, 150, 167, 200):
        stack = np.array(systems.bound_state(spec, n).derivs(nodes, 4))
        assert np.all(np.isfinite(stack)), n


def test_deformed_oscillator_derivatives_finite_where_r_squared_overflows():
    # the battery's deformed oscillator, where g = r^2 overflows
    r = np.geomspace(6.7e153, 1.3e154, 201)
    stack = systems.bound_state(systems.OscillatorSpec(2.0, 0.0, 1.0), 40).derivs(r, 4)
    for k in (2, 3, 4):
        assert np.all(np.isfinite(stack[k])), k


@pytest.mark.parametrize(
    "spec, q",
    [
        (systems.OscillatorSpec(1.0, 1.0), 1e-200),
        (systems.CoulombSpec(2.0, 1.0), 1e-150),
        (systems.OscillatorSpec(1.0, 3.0), 1e-100),
        (systems.OscillatorSpec(1.0, 1.0, 0.3), 1e-200),
        (systems.CoulombSpec(2.0, 1.0, 0.1), 1e-150),
        (systems.OscillatorSpec(1.0, 3.0, 0.3), 1e-100),
    ],
    ids=lambda v: f"{v.family}-a{v.alpha}" if isinstance(v, systems._Spec) else f"{v:g}",
)
def test_derivative_of_the_power_order_is_constant_near_the_origin(spec, q):
    # psi = c q^m (1 + O(q)), so d^m psi tends to m! c: it stays O(1) where
    # psi itself underflows
    m = int(systems.FAMILIES[spec.family].power(spec))
    for n in (0, 3):
        st = systems.bound_state(spec, n)
        ref = st.derivs(1e-30, m)[m]
        assert st.derivs(q, m)[m] == pytest.approx(ref, rel=1e-13), n


# ---------------------------------------------------------------------------
# remembered stacks and shared states
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [-1, 5, 1.5, "2", None])
def test_derivs_order_must_be_an_integer_in_range(order):
    st = systems.bound_state(systems.OscillatorSpec(1.0, 0.0), 2)
    for point in (0.7, np.linspace(0.5, 2.0, 5)):
        with pytest.raises(ParameterError):
            st.derivs(point, order)


def test_remembered_stacks_equal_fresh_ones(family_spec):
    n = 3
    fam = systems.FAMILIES[family_spec.family]
    probe = fam.q_of_x(fam.x_nodes(*fam.probe, operators.PROBE_COUNT))
    grids = (operators.default_residual_grid(family_spec, n), probe)
    # served as prefixes of the order-4 stack, or computed again at a higher order
    for pts, orders in itertools.product(grids, ((4, 3, 2, 1, 0), (0, 2, 4))):
        st = systems.BoundState(family_spec, n)
        asked = [st.derivs(pts, order) for order in orders]
        for order, stack in zip(orders, asked):
            fresh = systems.BoundState(family_spec, n).derivs(pts, order)
            assert len(stack) == len(fresh) == order + 1
            for a, b in zip(stack, fresh):
                assert np.array_equal(a, b, equal_nan=True)


def test_served_stacks_are_read_only():
    st = systems.bound_state(systems.MorseSpec(1.0, 0.75, 0.3), 2)
    pts = np.linspace(-1.0, 3.0, 9)
    for stack in (st.derivs(pts, 4), st.derivs(pts, 1)):
        for a in stack:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
    v = st(pts).copy()  # a copy may be modified
    v[0] = 1.0
    assert st(pts)[0] != 1.0


def test_a_state_remembers_its_last_four_points_arrays(monkeypatch):
    calls = []
    stacks = specfun.jacobi_derivs
    monkeypatch.setattr(
        specfun, "jacobi_derivs", lambda *args: calls.append(args[0]) or stacks(*args)
    )
    st = systems.BoundState(systems.CoulombSpec(0.0, 1.0, 0.1), 2)
    arrays = [np.linspace(0.5, 2.0 + k, 7) for k in range(10)]
    for pts in arrays:
        st(pts)
    assert len(calls) == 10
    for pts in reversed(arrays):  # the last four are remembered, the rest not
        st(pts)
    assert len(calls) == 10 + 6


def test_a_scalar_point_gives_floats_and_is_remembered_nowhere():
    spec = systems.OscillatorSpec(1.0, 0.5, 0.3)
    st = systems.BoundState(spec, 2)
    for k in range(systems.MEMO_SIZE):
        st.derivs(np.linspace(0.5, 2.0 + k, 7), 4)
    held = [key for key, _ in st._memo]
    gs = algebra.generator_set(spec)
    outputs = [algebra.apply_generator(gs, which, st) for which in (algebra.ZERO, algebra.PLUS)]
    mapped = pct.map_state(pct.mapping("ho", "morse"), st)
    functions = (st, *outputs, mapped, operators.zero_function())
    for fn in functions:
        assert [type(x) for x in fn.derivs(0.7, 2)] == [float] * 3
        assert type(fn(0.7)) is float
    # nothing remembered, by the outputs or by the state they evaluate
    assert all(fn._memo == () for fn in functions[1:])
    assert [key for key, _ in st._memo] == held
    for fn in functions:  # the values of the one-point array
        assert fn.derivs(0.7, 2) == tuple(float(a[0]) for a in fn.derivs(np.array([0.7]), 2))


def test_a_scalar_point_outside_the_domain_is_named_as_the_scalar():
    spec = systems.OscillatorSpec(1.0, 0.0)
    st = systems.bound_state(spec, 1)
    gs = algebra.generator_set(spec)
    outputs = [algebra.apply_generator(gs, which, st) for which in (algebra.ZERO, algebra.PLUS)]
    for fn in (st, *outputs):
        with pytest.raises(DomainError) as err:
            fn(-1.0)
        assert str(err.value) == "point -1.0 outside open domain (0.0, inf)"
    with pytest.raises(DomainError) as err:
        st(np.array([-1.0]))
    assert str(err.value) == "point -1.0 (entry 0 of 1) outside open domain (0.0, inf)"


def test_an_array_outside_the_domain_names_its_first_bad_entry():
    # the whole array was printed, and numpy summarises a long one with "..."
    spec = systems.OscillatorSpec(1.0, 0.0)
    for pts, shown in (
        (np.array([0.5, 2.0, -1.0, -2.0]), "-1.0 (entry 2 of 4)"),
        (np.array([[0.5, math.nan], [0.0, 1.0]]), "nan (entry 1 of 4)"),
        (np.linspace(3.0, -1.0, 5001), "0.0 (entry 3750 of 5001)"),
    ):
        with pytest.raises(DomainError) as err:
            systems.check_point(spec, pts)
        assert str(err.value) == f"point {shown} outside open domain (0.0, inf)"


def test_points_changed_in_place_are_evaluated_anew():
    st = systems.bound_state(systems.OscillatorSpec(1.0, 0.5, 0.3), 1)
    pts = np.linspace(0.5, 2.0, 6)
    before = st.derivs(pts, 2)
    pts *= 1.5
    after = st.derivs(pts, 2)
    fresh = systems.BoundState(st.spec, 1).derivs(pts, 2)
    for a, b, c in zip(before, after, fresh):
        assert not np.array_equal(a, b)
        assert np.array_equal(b, c)


def test_bound_state_shares_the_live_state():
    spec = systems.OscillatorSpec(1.25, 0.5, 0.2)
    st = systems.bound_state(spec, 2)
    assert systems.bound_state(spec, 2) is st
    assert systems.bound_state(dataclasses.replace(spec), np.int64(2)) is st
    assert systems.bound_state(spec, 3) is not st
    gone = weakref.ref(st)
    del st
    gc.collect()
    assert gone() is None  # bound_state keeps no state alive
    fresh = systems.bound_state(spec, 2)
    assert fresh is systems.bound_state(spec, 2)
    assert fresh.n == 2 and fresh.spec == spec


def test_an_equal_spec_with_int_fields_gives_the_same_floats():
    pts = np.linspace(0.2, 4.0, 25)
    for floats, ints in (
        (systems.OscillatorSpec(2.0, 1.0, 1.0), systems.OscillatorSpec(2, 1, 1)),
        (systems.MorseSpec(3.0, 1.0), systems.MorseSpec(3, 1)),
        (systems.CoulombSpec(1.0, 3.0, 1.0), systems.CoulombSpec(1, 3, 1)),
    ):
        held = systems.bound_state(floats, 2)
        shared = systems.bound_state(ints, 2)
        assert shared is held
        own = systems.BoundState(ints, 2)
        assert (own.energy, own.norm_coeff) == (held.energy, held.norm_coeff)
        for a, b in zip(shared.derivs(pts, 4), own.derivs(pts, 4)):
            assert np.array_equal(a, b)


def _block_grids(family):
    """A grid over the family's probe window and one over [1e-300, 1e300]
    ([-700, 1500] for Morse), each of 2 BLOCK + 7 points: the last block is ragged."""
    fam = systems.FAMILIES[family]
    count = 2 * systems.BLOCK + 7
    wide = (-700.0, 1500.0) if family == "morse" else (1e-300, 1e300)
    return fam.q_of_x(fam.x_nodes(*fam.probe, count)), fam.q_of_x(fam.x_nodes(*wide, count))


def test_stacks_by_blocks_equal_the_one_shot_stacks(family_spec, monkeypatch):
    n = 12
    grids = _block_grids(family_spec.family)
    blocked = [[systems.BoundState(family_spec, n).derivs(pts, k) for k in range(5)] for pts in grids]
    # a 2-d points array, C-ordered and transposed, gives the flat stacks laid out alike
    square, index = grids[0].reshape(5, -1), np.arange(grids[0].size).reshape(5, -1)
    for pts, at in ((square, index), (square.T, index.T)):
        stack = systems.BoundState(family_spec, n).derivs(pts, 4)
        for a, b in zip(stack, blocked[0][4]):
            assert np.array_equal(a, b[at], equal_nan=True)
    monkeypatch.setattr(systems, "BLOCK", 10**9)  # one block: the stack of the whole array
    for pts, stacks in zip(grids, blocked):
        for order, stack in enumerate(stacks):
            one_shot = systems.BoundState(family_spec, n).derivs(pts, order)
            assert len(stack) == len(one_shot) == order + 1
            for a, b in zip(stack, one_shot):
                assert a.shape == pts.shape
                assert np.array_equal(a, b, equal_nan=True)


def test_a_bad_point_in_the_last_block_raises_before_any_stack(family_spec, monkeypatch):
    calls = []
    monkeypatch.setattr(specfun, "jacobi_derivs", lambda *args: calls.append(args))
    for bad in (math.nan, systems.FAMILIES[family_spec.family].domain[0]):
        pts = _block_grids(family_spec.family)[0]
        pts[-1] = bad
        with pytest.raises(DomainError) as want:
            systems.check_point(family_spec, pts)
        with pytest.raises(DomainError) as got:
            systems.BoundState(family_spec, 2).derivs(pts, 2)
        assert str(got.value) == str(want.value)
    assert calls == []


def test_served_stacks_share_no_memory(family_spec):
    # on a window where no point is dead, so no zeroing pass copies the stack
    lo, hi = (-1.0, 3.0) if family_spec.family == "morse" else (0.5, 3.0)
    fam = systems.FAMILIES[family_spec.family]
    for count in (50, 2 * systems.BLOCK + 7):
        pts = fam.q_of_x(fam.x_nodes(lo, hi, count))
        stack = systems.BoundState(family_spec, 3).derivs(pts, 4)
        assert np.all(stack[0] != 0.0)
        for i, a in enumerate(stack):
            assert not a.flags.writeable
            assert not np.shares_memory(a, pts)
            assert not any(np.shares_memory(a, b) for b in stack[i + 1 :])
