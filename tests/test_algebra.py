import math

import numpy as np
import pytest

from su11pct import algebra, measures, pct, systems
from su11pct.errors import NotApplicableError, ParameterError

from conftest import CONSTANT_SPECS, DEFORMED_SPECS

PDM_HO = systems.OscillatorSpec(math.sqrt(3.0), 0.0, 1.0)


def test_zero_generator_is_scaled_hamiltonian_constant_ho():
    spec = CONSTANT_SPECS["ho"]
    gs = algebra.generator_set(spec)
    for n in (0, 2, 5):
        st = systems.bound_state(spec, n)
        pts = algebra.pointwise_grid(spec, n, count=50)
        out = algebra.apply_generator(gs, "zero", st)
        expected = systems.energy(spec, n) / (2.0 * spec.omega)
        assert np.max(np.abs(out(pts) - expected * st(pts))) < 1e-11


def test_minus_annihilates_lowest_state_constant_ho():
    spec = CONSTANT_SPECS["ho"]
    gs = algebra.generator_set(spec)
    st = systems.bound_state(spec, 0)
    pts = algebra.pointwise_grid(spec, 0, count=60)
    out = algebra.apply_generator(gs, "minus", st)
    assert np.max(np.abs(out(pts))) < 1e-9 * np.max(np.abs(st(pts)))


def test_ladder_examples():
    gs = algebra.generator_set(CONSTANT_SPECS["ho"])
    assert algebra.ladder_coefficient(gs, 0, "plus") == pytest.approx(
        math.sqrt(1.5), rel=1e-14
    )
    assert algebra.ladder_coefficient(gs, 0, "minus") == 0.0
    gs = algebra.generator_set(CONSTANT_SPECS["morse"])
    assert algebra.ladder_coefficient(gs, 1, "plus") == pytest.approx(
        math.sqrt(5.0), rel=1e-14
    )
    gs = algebra.generator_set(PDM_HO)
    assert algebra.ladder_coefficient(gs, 0, "plus") == pytest.approx(
        (2.0 / 3.0) * math.sqrt(7.5), rel=1e-13
    )
    gs = algebra.generator_set(DEFORMED_SPECS["coulomb"])
    assert algebra.ladder_coefficient(gs, 0, "plus") == pytest.approx(
        1.4862950508912247, rel=1e-13
    )
    gs = algebra.generator_set(DEFORMED_SPECS["morse"])
    assert algebra.ladder_coefficient(gs, 0, "plus") == pytest.approx(
        1.9017327307742311, rel=1e-13
    )
    with pytest.raises(ParameterError):
        algebra.ladder_coefficient(gs, -1, "plus")
    with pytest.raises(ParameterError):
        algebra.ladder_coefficient(gs, 0, "up")


def test_plus_action_is_pointwise_multiple_of_next_state(family_spec):
    gs = algebra.generator_set(family_spec)
    for n in (0, 2, 4):
        st = systems.bound_state(family_spec, n)
        nxt = systems.bound_state(family_spec, n + 1)
        pts = algebra.pointwise_grid(family_spec, n, count=60)
        # far points past the overflow of the coefficients, where the state is 0
        pts = np.append(pts, [-800.0, -1e4] if family_spec.family == "morse" else [1e155, 1e300])
        out = algebra.apply_generator(gs, "plus", st)
        c = algebra.ladder_coefficient(gs, n, "plus")
        assert np.max(np.abs(out(pts) - c * nxt(pts))) < 1e-9 * np.max(np.abs(nxt(pts)))


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_oscillator_generators_at_tiny_r(alpha):
    # r^2 underflows below r ~ 1.5e-154 while psi ~ r stays representable, so
    # the check is relative to psi_n at each point
    spec = systems.OscillatorSpec(2.0, 0.0, alpha)
    gs = algebra.generator_set(spec)
    mu = algebra.unirrep(gs).mu_of_n
    pts = np.array([1e-300, 1e-200])
    states = [systems.bound_state(spec, n) for n in range(5)]
    for n in range(4):
        psi = states[n](pts)
        assert np.all(psi != 0.0)
        expected = {
            "zero": mu(n) * psi,
            "plus": algebra.ladder_coefficient(gs, n, "plus") * states[n + 1](pts),
            "minus": algebra.ladder_coefficient(gs, n, "minus") * states[n - 1](pts)
            if n
            else 0.0 * psi,
        }
        for which, want in expected.items():
            out = algebra.apply_generator(gs, which, states[n])(pts)
            assert np.all(np.abs(out - want) <= 1e-12 * np.abs(psi)), (which, n, out, want)


def test_matrix_elements_match_closed_forms(family_spec):
    gs = algebra.generator_set(family_spec)
    for n in range(6):
        for direction in ("plus", "minus"):
            closed = algebra.ladder_coefficient(gs, n, direction)
            numeric = algebra.matrix_element_numeric(gs, n, direction)
            assert abs(numeric - closed) < 1e-7


def test_minus_matrix_element_at_lowest_state(family_spec):
    gs = algebra.generator_set(family_spec)
    assert abs(algebra.matrix_element_numeric(gs, 0, "minus")) < 1e-8


def test_annihilation_all_families(family_spec):
    gs = algebra.generator_set(family_spec)
    assert algebra.annihilation_residual(gs) < 1e-8


def test_deformed_minus_short_circuits_to_zero():
    gs = algebra.generator_set(PDM_HO)
    st = systems.bound_state(PDM_HO, 0)
    out = algebra.apply_generator(gs, "minus", st)
    pts = np.linspace(0.2, 8.0, 25)
    assert np.all(out(pts) == 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        *CONSTANT_SPECS.values(),
        *DEFORMED_SPECS.values(),
        systems.OscillatorSpec(2.0, 0.0, 1.0),
        systems.OscillatorSpec(1.3, 1.0, 0.4),
        systems.MorseSpec(3.0, 1.2, 0.5),
        systems.CoulombSpec(1.0, 2.0, 0.2),
        systems.CoulombSpec(2.5, 4.0, 0.3),
    ],
    ids=str,
)
def test_hierarchy_slot_is_the_weight(spec):
    # K0 = (2 g/(w g'^2)) (H - shift) with the member-free slot gamma, so on
    # psi_n it is (2/w) (gamma - a1(n)): the n-dependent slot a1(n) of the
    # member potential (the oscillator's energy E_n/4) is gamma - (w/2) mu_n
    gs = algebra.generator_set(spec)
    w, mu = gs.w_const, algebra.unirrep(gs).mu_of_n
    a = spec.alpha
    for n in range(40):
        if spec.family == "ho":
            slot, gamma = -0.25 * a - 0.25 * systems.energy(spec, n), -0.25 * a
        elif spec.family == "morse":
            slot = -(spec.B * (2.0 * systems.member_coupling(spec, n) + 1.0) + 0.5 * a)
            gamma = -0.625 * a
        else:
            slot, gamma = -2.0 * systems.member_coupling(spec, n), -0.125 * a
        assert slot == pytest.approx(gamma - 0.5 * w * mu(n), rel=1e-12), n


def test_unirrep_examples():
    uni = algebra.unirrep(algebra.generator_set(CONSTANT_SPECS["ho"]))
    assert uni.k == pytest.approx(0.75, abs=1e-15)
    assert uni.casimir == pytest.approx(-0.1875, abs=1e-15)
    # mapped Morse member shares the unirrep data
    uni_m = algebra.unirrep(algebra.generator_set(CONSTANT_SPECS["morse"]))
    assert uni_m.k == pytest.approx(0.75, abs=1e-14)
    assert uni_m.casimir == pytest.approx(-0.1875, abs=1e-14)
    uni_d = algebra.unirrep(algebra.generator_set(PDM_HO))
    assert uni_d.casimir == pytest.approx(-0.0625, abs=1e-14)


def test_constant_mass_unirrep_structure(family_spec):
    if family_spec.deformed:
        return
    uni = algebra.unirrep(algebra.generator_set(family_spec))
    for n in range(8):
        assert uni.mu_of_n(n) == pytest.approx(uni.k + n, abs=1e-12)
    assert uni.casimir == pytest.approx(uni.k * (uni.k - 1.0), abs=1e-12)


def test_pct_invariance_of_algebraic_data():
    # one mapped chain shares k, mu_n, Casimir and ladder coefficients
    ho = systems.OscillatorSpec(1.0, 0.0)
    mo, _ = pct.map_parameters(ho, 0, "morse")
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    sets = [algebra.generator_set(s) for s in (ho, mo, co)]
    unis = [algebra.unirrep(g) for g in sets]
    for uni in unis[1:]:
        assert uni.k == pytest.approx(unis[0].k, abs=1e-12)
        assert uni.casimir == pytest.approx(unis[0].casimir, abs=1e-12)
        for n in range(6):
            assert uni.mu_of_n(n) == pytest.approx(unis[0].mu_of_n(n), abs=1e-12)
    for n in range(6):
        for direction in ("plus", "minus"):
            ref = algebra.ladder_coefficient(sets[0], n, direction)
            for g in sets[1:]:
                assert algebra.ladder_coefficient(g, n, direction) == pytest.approx(
                    ref, abs=1e-12
                )


def test_pct_invariance_of_deformed_data():
    ho = systems.OscillatorSpec(1.0, 0.0, 0.3)
    mo, _ = pct.map_parameters(ho, 0, "morse")
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    sets = [algebra.generator_set(s) for s in (ho, mo, co)]
    unis = [algebra.unirrep(g) for g in sets]
    deltas = [algebra.delta_spectrum(g) for g in sets]
    for i in (1, 2):
        assert unis[i].casimir == pytest.approx(unis[0].casimir, rel=1e-12)
        for n in range(5):
            assert unis[i].mu_of_n(n) == pytest.approx(unis[0].mu_of_n(n), rel=1e-12)
            assert deltas[i].delta_of_n(n) == pytest.approx(
                deltas[0].delta_of_n(n), rel=1e-12
            )
            for direction in ("plus", "minus"):
                assert algebra.ladder_coefficient(sets[i], n, direction) == pytest.approx(
                    algebra.ladder_coefficient(sets[0], n, direction), abs=1e-12
                )


def _algebra_data(gs):
    uni = algebra.unirrep(gs)
    data = [uni.k, uni.casimir] + [uni.mu_of_n(n) for n in range(6)]
    data += [algebra.ladder_coefficient(gs, n, d) for n in range(6) for d in ("plus", "minus")]
    if gs.deformed:
        data += [algebra.delta_spectrum(gs).delta_of_n(n) for n in range(6)]
    return data


@pytest.mark.parametrize("pa, pb", [(2.3, 2.0), (7.7, 4.0)])
def test_equal_polynomial_parameters_give_one_algebra(pa, pb):
    # the oscillator's spectrum-generating algebra and the Morse and Coulomb
    # potential algebras coincide at equal Jacobi parameters (pa, pb) of the
    # deformed states, and at equal Laguerre parameter la = pb at alpha = 0
    a = 0.5
    lam = 0.5 * a * (pa + 1.0)  # |lam_M|, and Z0/(Lcal+1) on the Coulomb side
    b = 0.5 * a * math.sqrt(pa * pa - 1.0)
    deformed = (
        systems.OscillatorSpec(a * math.sqrt(4.0 * pa * pa - 1.0), pb - 0.5, a),
        systems.MorseSpec(0.5 * ((pb + 1.0) * lam / b - 1.0), b, a),
        systems.CoulombSpec(0.5 * (pb - 1.0), 0.5 * (pb + 1.0) * lam, a),
    )
    constant = (
        systems.OscillatorSpec(1.7, pb - 0.5),
        systems.MorseSpec(0.5 * pb, 0.6),
        systems.CoulombSpec(0.5 * (pb - 1.0), 2.2),
    )
    for specs in (deformed, constant):
        ref = _algebra_data(algebra.generator_set(specs[0]))
        for spec in specs[1:]:
            data = _algebra_data(algebra.generator_set(spec))
            assert data == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_delta_examples_and_routes():
    gs = algebra.generator_set(PDM_HO)
    assert algebra.delta_eigenvalue(gs, 0) == pytest.approx(2.5, abs=1e-12)
    assert algebra.delta_eigenvalue(gs, 1) == pytest.approx(4.5, abs=1e-12)
    closed = algebra.delta_spectrum(gs).delta_of_n
    for n in range(11):
        assert algebra.delta_eigenvalue(gs, n) == pytest.approx(closed(n), abs=1e-10)
        assert closed(n + 1) - closed(n) == pytest.approx(2.0, abs=1e-12)


def test_delta_routes_agree_all_deformed():
    for spec in DEFORMED_SPECS.values():
        gs = algebra.generator_set(spec)
        closed = algebra.delta_spectrum(gs).delta_of_n
        for n in range(8):
            assert algebra.delta_eigenvalue(gs, n) == pytest.approx(closed(n), rel=1e-12)


def test_delta_requires_deformation():
    gs = algebra.generator_set(CONSTANT_SPECS["ho"])
    with pytest.raises(NotApplicableError):
        algebra.delta_eigenvalue(gs, 0)
    with pytest.raises(NotApplicableError):
        algebra.delta_spectrum(gs)


def test_commutator_scalars_constant(family_spec):
    if family_spec.deformed:
        return
    recs = algebra.commutator_residuals(
        algebra.generator_set(family_spec), 10, pointwise_n_max=-1
    )
    assert max(r.value for r in recs) < 1e-10


def test_commutator_deformed_example():
    gs = algebra.generator_set(PDM_HO)
    uni = algebra.unirrep(gs)
    spacing = uni.mu_of_n(1) - uni.mu_of_n(0)
    assert spacing == pytest.approx(14.0 / 6.0, abs=1e-13)
    ratio = 2 * gs.alpha / gs.w_const
    d0 = algebra.delta_spectrum(gs).delta_of_n(0)
    assert ratio * (d0 + 1.0) == pytest.approx(spacing, abs=1e-13)


def test_commutator_residuals_deformed(family_spec):
    if not family_spec.deformed:
        return
    recs = algebra.commutator_residuals(algebra.generator_set(family_spec), 5)
    assert max(r.value for r in recs) < 1e-7


def test_commutator_requires_positive_nmax():
    with pytest.raises(ParameterError):
        algebra.commutator_residuals(algebra.generator_set(CONSTANT_SPECS["ho"]), 0)


def test_quantum_numbers_and_counts_must_be_integers():
    # each of these returned a number or ended in a bare TypeError
    gs = algebra.generator_set(systems.OscillatorSpec(1.0, 0.0, 0.3))
    for bad in (1.5, math.nan, -3):
        with pytest.raises(ParameterError, match="^n must be non-negative$"):
            algebra.ladder_coefficient(gs, bad, "plus")
        with pytest.raises(ParameterError, match="^n must be non-negative$"):
            algebra.delta_eigenvalue(gs, bad)
    with pytest.raises(ParameterError, match="^n_max must be at least 1$"):
        algebra.commutator_residuals(gs, 2.5)
    with pytest.raises(ParameterError, match="^pointwise_n_max must be at least -1$"):
        algebra.commutator_residuals(gs, 2, pointwise_n_max=0.5)
    assert algebra.ladder_coefficient(gs, np.int64(1), "plus") == algebra.ladder_coefficient(
        gs, 1, "plus"
    )
    assert algebra.delta_eigenvalue(gs, np.int32(2)) == algebra.delta_eigenvalue(gs, 2)


def test_casimir_action_pointwise(family_spec):
    gs = algebra.generator_set(family_spec)
    uni = algebra.unirrep(gs)
    for n in range(9):
        st = systems.bound_state(family_spec, n)
        pts = algebra.pointwise_grid(family_spec, n, count=60)
        vals = algebra.casimir_apply(gs, st, pts)
        resid = np.max(np.abs(vals - uni.casimir * st(pts))) / np.max(np.abs(st(pts)))
        assert resid < 1e-7


def test_hermiticity_pairing(family_spec):
    # <psi_{n+1}, K+ psi_n> = <K- psi_{n+1}, psi_n> under the family measure
    gs = algebra.generator_set(family_spec)
    meas = measures.family_measure(family_spec.family)
    for n in (0, 2, 4):
        up = systems.bound_state(family_spec, n + 1)
        dn = systems.bound_state(family_spec, n)
        lhs = measures.inner_product(meas, up, algebra.apply_generator(gs, "plus", dn))
        rhs = measures.inner_product(meas, dn, algebra.apply_generator(gs, "minus", up))
        assert abs(lhs - rhs) < 1e-7


def test_zero_generator_hermitian_under_family_measure(family_spec):
    gs = algebra.generator_set(family_spec)
    meas = measures.family_measure(family_spec.family)
    for m, n in [(0, 1), (1, 3)]:
        sm = systems.bound_state(family_spec, m)
        sn = systems.bound_state(family_spec, n)
        lhs = measures.inner_product(meas, sm, algebra.apply_generator(gs, "zero", sn))
        rhs = measures.inner_product(meas, sn, algebra.apply_generator(gs, "zero", sm))
        assert abs(lhs - rhs) < 1e-8


def test_alpha_to_zero_limits():
    for family, make in (
        ("ho", lambda a: systems.OscillatorSpec(1.0, 0.0, a)),
        ("morse", lambda a: systems.MorseSpec(1.0, 0.75, a)),
        ("coulomb", lambda a: systems.CoulombSpec(0.0, 1.0, a)),
    ):
        gs_tiny = algebra.generator_set(make(1e-6))
        gs_zero = algebra.generator_set(make(0.0))
        for n in range(6):
            for direction in ("plus", "minus"):
                c_tiny = algebra.ladder_coefficient(gs_tiny, n, direction)
                c_zero = algebra.ladder_coefficient(gs_zero, n, direction)
                assert abs(c_tiny - c_zero) < 1e-4 * max(1.0, abs(c_zero))
        # deformed generator action converges to the constant-mass action
        st_tiny = systems.bound_state(make(1e-6), 1)
        st_zero = systems.bound_state(make(0.0), 1)
        pts = algebra.pointwise_grid(make(0.0), 1, count=40)
        act_tiny = algebra.apply_generator(gs_tiny, "plus", st_tiny)(pts)
        act_zero = algebra.apply_generator(gs_zero, "plus", st_zero)(pts)
        scale = np.max(np.abs(act_zero))
        assert np.max(np.abs(act_tiny - act_zero)) < 1e-4 * scale


TINY_ALPHA_FAMILIES = {
    "ho": lambda a: systems.OscillatorSpec(1.0, 0.5, a),
    "morse": lambda a: systems.MorseSpec(1.0, 0.75, a),
    "coulomb": lambda a: systems.CoulombSpec(0.5, 1.0, a),
}


@pytest.mark.parametrize("make", TINY_ALPHA_FAMILIES.values(), ids=TINY_ALPHA_FAMILIES)
def test_ladders_continuous_at_alpha_zero(make):
    # one core for both mass kinds: at alpha = 1e-12 no term of order
    # 1/alpha is left to cancel, so value, d1 and d2 of K+- psi_n match the
    # constant-mass action to rounding
    gs_tiny, gs_zero = algebra.generator_set(make(1e-12)), algebra.generator_set(make(0.0))
    for n in range(4):
        pts = algebra.pointwise_grid(make(0.0), n)
        st_tiny = systems.bound_state(make(1e-12), n)
        st_zero = systems.bound_state(make(0.0), n)
        for which in ("plus", "minus"):
            tiny = algebra.apply_generator(gs_tiny, which, st_tiny).derivs(pts, 2)
            zero = algebra.apply_generator(gs_zero, which, st_zero).derivs(pts, 2)
            for order, (t, z) in enumerate(zip(tiny, zero)):
                scale = max(1.0, np.max(np.abs(z)))
                assert np.max(np.abs(t - z)) <= 1e-9 * scale, (n, which, order)


@pytest.mark.parametrize(
    "spec", [CONSTANT_SPECS["morse"], DEFORMED_SPECS["morse"]], ids=lambda s: f"a{s.alpha}"
)
def test_morse_ladders_far_on_the_soft_side(spec):
    # psi_1 is 1e-11 to 1e-253 here; the first-order core carries no gauge
    # e^x, which overflows past x of about 710
    gs = algebra.generator_set(spec)
    x = np.array([100.0, 400.0, 720.0, 800.0])
    state = systems.bound_state(spec, 1)
    for which, m in (("plus", 2), ("minus", 0)):
        want = algebra.ladder_coefficient(gs, 1, which) * systems.bound_state(spec, m)(x)
        out = algebra.apply_generator(gs, which, state)(x)
        assert np.all(np.abs(out - want) <= 1e-12 * np.abs(want)), (which, out, want)


@pytest.mark.parametrize(
    "spec",
    [
        systems.OscillatorSpec(1.0, 1.0),
        systems.OscillatorSpec(1.0, 1.0, 0.5),
        systems.CoulombSpec(2.0, 1.0, 0.1),
    ],
    ids=lambda s: f"{s.family}-a{s.alpha}",
)
def test_generators_read_zero_where_the_state_underflows_at_the_origin(spec):
    # psi underflows to 0 while psi^(m) is O(1) and L(L + 1)/r^2 overflows;
    # every generator maps psi to a multiple of a state, so 0, not inf * 0
    gs = algebra.generator_set(spec)
    r = np.array([1e-300, 1e-200])
    for n in (0, 3):
        state = systems.bound_state(spec, n)
        assert np.all(state(r) == 0.0)
        for which in ("zero", "plus", "minus"):
            assert np.all(algebra.apply_generator(gs, which, state)(r) == 0.0), (n, which)
        assert np.all(algebra.casimir_apply(gs, state, r) == 0.0), n


def test_apply_generator_rejects_foreign_state():
    gs = algebra.generator_set(CONSTANT_SPECS["ho"])
    st = systems.bound_state(PDM_HO, 0)
    with pytest.raises(ParameterError):
        algebra.apply_generator(gs, "plus", st)
    with pytest.raises(ParameterError):
        algebra.apply_generator(gs, "sideways", systems.bound_state(CONSTANT_SPECS["ho"], 0))


def test_generator_set_constants_are_read_once_and_keep_equality(family_spec):
    gs = algebra.GeneratorSet(family_spec)
    pb, w = systems.invariants(family_spec)
    assert (gs.w_const, gs.pb_eps) == (w, (pb, family_spec.alpha / w))
    assert gs.__dict__["invariants"] == (pb, w)  # remembered on first use
    fresh = algebra.GeneratorSet(family_spec)
    assert gs == fresh and hash(gs) == hash(fresh)
