"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from su11pct import algebra, measures, operators, oracle, pct, systems

ALPHAS = (0.0, 0.05, 0.3, 1.0)


def _family_spec(family, alpha):
    if family == "ho":
        return systems.OscillatorSpec(math.sqrt(3.0), 0.0, alpha)
    if family == "morse":
        return systems.MorseSpec(1.0, 0.75, alpha)
    return systems.CoulombSpec(0.5, 3.0, alpha)


def _report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, detail


def test_criterion_1_eigen_residuals():
    """Hpsi = Epsi on interior grids for all six families, n <= 8."""
    tol = 1e-9
    worst = 0.0
    for family in ("ho", "morse", "coulomb"):
        for alpha in ALPHAS:
            spec = _family_spec(family, alpha)
            for n in range(9):
                grid = operators.default_residual_grid(spec, n)
                worst = max(worst, operators.eigen_residual(spec, n, grid))
    _report(1, worst < tol, f"max eigen-residual {worst:.3e} (tolerance {tol})")


def test_criterion_2_orthonormality():
    """6x6 Gram matrices stay within 1e-7 of the identity."""
    tol = 1e-7
    worst = 0.0
    for family in ("ho", "morse", "coulomb"):
        for alpha in (0.0, 0.3):
            spec = _family_spec(family, alpha)
            meas = measures.family_measure(family)
            states = [systems.bound_state(spec, n) for n in range(6)]
            gram = measures.gram_matrix(meas, states)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(6)))))
    _report(2, worst < tol, f"max Gram deviation {worst:.3e} (tolerance {tol})")


def test_criterion_3_ladder_equivalence():
    """Quadrature matrix elements match closed ladder coefficients."""
    tol, ann_tol = 1e-7, 1e-8
    worst = 0.0
    worst_ann = 0.0
    for family in ("ho", "morse", "coulomb"):
        for alpha in (0.0, 0.3):
            spec = _family_spec(family, alpha)
            gs = algebra.generator_set(spec)
            for n in range(6):
                for direction in ("plus", "minus"):
                    closed = algebra.ladder_coefficient(gs, n, direction)
                    numeric = algebra.matrix_element_numeric(gs, n, direction)
                    worst = max(worst, abs(numeric - closed))
            worst_ann = max(worst_ann, algebra.annihilation_residual(gs))
    _report(
        3,
        worst < tol and worst_ann < ann_tol,
        f"max |matrix element - closed form| {worst:.3e} (tol {tol}), "
        f"max annihilation {worst_ann:.3e} (tol {ann_tol})",
    )


def test_criterion_4_commutators_and_casimir():
    """Structure relations: exact scalars (constant) and deformed identities."""
    tol_const, tol_def = 1e-10, 1e-7
    worst_const = worst_def = 0.0
    for family in ("ho", "morse", "coulomb"):
        spec = _family_spec(family, 0.0)
        recs = algebra.commutator_residuals(algebra.generator_set(spec), 10, pointwise_n_max=-1)
        worst_const = max(worst_const, max(r.value for r in recs))
        spec = _family_spec(family, 0.3)
        gs = algebra.generator_set(spec)
        recs = algebra.commutator_residuals(gs, 5, pointwise_n_max=2)
        worst_def = max(worst_def, max(r.value for r in recs))
        uni = algebra.unirrep(gs)
        for n in range(6):
            st = systems.bound_state(spec, n)
            pts = algebra.pointwise_grid(spec, n, count=80)
            vals = algebra.casimir_apply(gs, st, pts)
            resid = np.max(np.abs(vals - uni.casimir * st(pts))) / np.max(np.abs(st(pts)))
            worst_def = max(worst_def, float(resid))
    _report(
        4,
        worst_const < tol_const and worst_def < tol_def,
        f"constant-mass scalar residual {worst_const:.3e} (tol {tol_const}), "
        f"deformed residual {worst_def:.3e} (tol {tol_def})",
    )


def test_criterion_5_pct_round_trips():
    """Mapped states equal direct closed forms; generators conjugate."""
    worst_const = worst_def = worst_conj = 0.0
    for alpha, tol in ((0.0, 1e-12), (0.3, 1e-9)):
        ho = systems.OscillatorSpec(1.0, 0.0, alpha)
        mo, _ = pct.map_parameters(ho, 0, "morse")
        co, _ = pct.map_parameters(mo, 0, "coulomb")
        x = np.linspace(-8.0, 25.0, 100)
        r_grid = np.geomspace(0.02, 40.0, 100)
        worst = 0.0
        for n in range(6):
            st = systems.bound_state(ho, n)
            stm = systems.bound_state(mo, n)
            worst = max(
                worst,
                float(np.max(np.abs(pct.map_state(pct.mapping("ho", "morse"), st)(x) - stm(x)))),
                float(np.max(np.abs(
                    pct.map_state(pct.mapping("morse", "coulomb"), stm)(r_grid)
                    - systems.bound_state(co, n)(r_grid)
                ))),
                float(np.max(np.abs(
                    pct.map_state(pct.mapping("ho", "coulomb"), st)(r_grid)
                    - systems.bound_state(co, n)(r_grid)
                ))),
            )
        if alpha == 0.0:
            worst_const = worst
        else:
            worst_def = worst
        # generator conjugation M_i = e^(x/4) K_i e^(-x/4), N_i = sqrt(R) M_i / sqrt(R)
        gs_ho, gs_mo, gs_co = (algebra.generator_set(s) for s in (ho, mo, co))
        n = 2
        st = systems.bound_state(ho, n)
        stm = systems.bound_state(mo, n)
        xg = np.linspace(-6.0, 14.0, 80)
        rg = np.geomspace(0.05, 30.0, 80)
        mapped = pct.map_state(pct.mapping("ho", "morse"), st)
        mapped_c = pct.map_state(pct.mapping("morse", "coulomb"), stm)
        for which in ("zero", "plus", "minus"):
            lhs = algebra.apply_generator_fn(gs_mo, which, mapped, n)(xg)
            rhs = np.exp(0.25 * xg) * algebra.apply_generator(gs_ho, which, st)(
                np.exp(-0.5 * xg)
            )
            worst_conj = max(worst_conj, float(np.max(np.abs(lhs - rhs))))
            lhs = algebra.apply_generator_fn(gs_co, which, mapped_c, n)(rg)
            rhs = np.sqrt(rg) * algebra.apply_generator(gs_mo, which, stm)(-np.log(rg))
            worst_conj = max(worst_conj, float(np.max(np.abs(lhs - rhs))))
    _report(
        5,
        worst_const < 1e-12 and worst_def < 1e-9 and worst_conj < 1e-9,
        f"constant-mass map deviation {worst_const:.3e} (tol 1e-12), deformed "
        f"{worst_def:.3e} (tol 1e-9), conjugation {worst_conj:.3e} (tol 1e-9)",
    )


def test_criterion_6_fixed_potential_spectra():
    """Closed-form fixed spectra, finite deformed Coulomb count, oracle match."""
    ok = True
    details = []

    levels = systems.spectrum_fixed_potential("morse", (2.5, 1.0), 0.0, 12)
    ok &= [e for _, e in levels] == pytest.approx([-6.25, -2.25, -0.25], abs=1e-12)
    dh = oracle.discretize(systems.MorseSpec(2.5, 1.0), 0, oracle.GridSpec(-6.0, 25.0, 4000))
    num = oracle.lowest_eigenvalues(dh, 3, 1e-9)
    diff = max(abs(a - b) for a, b in zip(num, [e for _, e in levels]))
    ok &= diff < 5e-4
    details.append(f"morse oracle diff {diff:.2e}")

    levels = systems.spectrum_fixed_potential("coulomb", (1.0, 0.0), 0.0, 12)
    ok &= len(levels) == 12  # infinite family, truncated by the request only
    ok &= [e for _, e in levels[:3]] == pytest.approx(
        [-1.0, -0.25, -1.0 / 9.0], rel=1e-12
    )
    dh = oracle.discretize(
        systems.CoulombSpec(0.0, 1.0), 0, oracle.GridSpec(1e-6, 45.0, 16000)
    )
    num = oracle.lowest_eigenvalues(dh, 3, 1e-9)
    diff = max(abs(a - b) for a, b in zip(num, [e for _, e in levels]))
    ok &= diff < 5e-4
    details.append(f"coulomb oracle diff {diff:.2e}")

    levels = systems.spectrum_fixed_potential("morse", (2.5, 1.0), 0.1, 12)
    ok &= [e for _, e in levels] == pytest.approx(
        [-5.5401280430723468, -1.4225979914188918, -0.01886894597306672], rel=1e-12
    )
    spec = systems.MorseSpec(2.5, 1.0, 0.1)
    dh = oracle.discretize(spec, 0, oracle.default_grid(spec, 0, count=8000, k=3))
    num = oracle.lowest_eigenvalues(dh, 3, 1e-9)
    diff = max(abs(a - b) for a, b in zip(num, [e for _, e in levels]))
    ok &= diff < 2e-3
    details.append(f"deformed morse oracle diff {diff:.2e}")

    levels = systems.spectrum_fixed_potential("coulomb", (1.0, 0.0), 0.1, 12)
    ok &= len(levels) == 4  # the deformation leaves a finite count
    ok &= [e for _, e in levels] == pytest.approx(
        [-0.9025, -0.16, -0.033611111111111111, -0.0025], rel=1e-12
    )
    spec = systems.CoulombSpec(0.0, 1.0, 0.1)
    dh = oracle.discretize(spec, 0, oracle.GridSpec(1e-6, 200.0, 48000))
    num = oracle.lowest_eigenvalues(dh, 3, 1e-9)
    diff = max(abs(a - b) for a, b in zip(num, [e for _, e in levels[:3]]))
    ok &= diff < 2e-3
    details.append(f"deformed coulomb oracle diff {diff:.2e}, finite count 4")

    _report(6, bool(ok), "; ".join(details))


def test_criterion_7_constant_mass_limits():
    """alpha -> 0: energies, ladder coefficients and actions converge."""
    tol = 1e-4
    worst = 0.0
    for family in ("ho", "morse", "coulomb"):
        tiny = _family_spec(family, 1e-6)
        base = _family_spec(family, 0.0)
        gs_tiny, gs_base = algebra.generator_set(tiny), algebra.generator_set(base)
        for n in range(6):
            e_t, e_b = systems.energy(tiny, n), systems.energy(base, n)
            worst = max(worst, abs(e_t - e_b) / (1.0 + abs(e_b)))
            for direction in ("plus", "minus"):
                c_t = algebra.ladder_coefficient(gs_tiny, n, direction)
                c_b = algebra.ladder_coefficient(gs_base, n, direction)
                worst = max(worst, abs(c_t - c_b) / max(1.0, abs(c_b)))
        st_t = systems.bound_state(tiny, 1)
        st_b = systems.bound_state(base, 1)
        pts = algebra.pointwise_grid(base, 1, count=50)
        for which in ("zero", "plus", "minus"):
            a_t = algebra.apply_generator(gs_tiny, which, st_t)(pts)
            a_b = algebra.apply_generator(gs_base, which, st_b)(pts)
            scale = max(1.0, float(np.max(np.abs(a_b))))
            worst = max(worst, float(np.max(np.abs(a_t - a_b))) / scale)
    _report(7, worst < tol, f"max relative drift at alpha=1e-6: {worst:.3e} (tol {tol})")


def test_criterion_8_oracle_richardson():
    """Halving h cuts the lowest-level error ~4x for every family."""
    cases = [
        (systems.OscillatorSpec(1.0, 0.0), oracle.GridSpec(1e-4, 20.0, 1000)),
        (systems.OscillatorSpec(1.0, 0.0, 0.3), oracle.GridSpec(1e-6, 60.0, 2000)),
        (systems.MorseSpec(2.5, 1.0), oracle.GridSpec(-6.0, 25.0, 1000)),
        (systems.MorseSpec(2.5, 1.0, 0.1), oracle.GridSpec(-6.0, 40.0, 1000)),
        (systems.CoulombSpec(1.0, 1.0), oracle.GridSpec(1e-6, 40.0, 2000)),
        (systems.CoulombSpec(1.0, 2.0, 0.1), oracle.GridSpec(1e-6, 30.0, 2000)),
    ]
    ratios = []
    ok = True
    for spec, base in cases:
        q_min, q_max, count = base.q_min, base.q_max, base.count
        grids = [oracle.GridSpec(q_min, q_max, (count - 1) * k + 1) for k in (1, 2, 4)]
        es = [oracle.lowest_eigenvalues(oracle.discretize(spec, 0, g), 1, 1e-11)[0] for g in grids]
        ratio = (es[0] - es[1]) / (es[1] - es[2])
        ratios.append(f"{spec.family}(a={spec.alpha}): {ratio:.2f}")
        ok &= 3.5 <= ratio <= 4.5
    _report(8, bool(ok), "Richardson ratios " + ", ".join(ratios))
