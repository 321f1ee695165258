import math
import re

import numpy as np
import pytest

from su11pct import algebra, measures, operators, systems
from su11pct.errors import DomainError, NotApplicableError, ParameterError

from conftest import gaussian_bump


def test_apply_pi_reduces_to_plain_derivative_at_alpha_zero():
    spec = systems.OscillatorSpec(1.0, 0.0)
    fn = gaussian_bump(2.0, 0.5)
    a, _ = operators.apply_pi(spec, fn, 2.3)
    assert a == pytest.approx(fn.derivs(2.3, 1)[1], abs=1e-15)


def test_apply_pi_coulomb_example():
    # f = 2, f' = alpha = 0.1 at R = 10: a = f d1 + (f'/2) v = 0.05 for v=1, d1=0
    spec = systems.CoulombSpec(0.0, 1.0, 0.1)

    def flat(p, order):
        p = np.asarray(p, dtype=float)
        one = np.ones_like(p)
        return tuple([one] + [0.0 * p for _ in range(order)])

    fn = operators.SmoothFunction(flat, max_order=4)
    a, _ = operators.apply_pi(spec, fn, 10.0)
    assert a == pytest.approx(0.05, abs=1e-15)


def test_pi_squared_positive_expectation():
    spec = systems.OscillatorSpec(math.sqrt(3.0), 0.0, 1.0)
    state = systems.bound_state(spec, 0)
    meas = measures.family_measure("ho")

    def pi_state_value(r):
        return operators.apply_pi(spec, state, r)[0]

    sq = measures.inner_product(meas, pi_state_value, pi_state_value)
    direct = measures.inner_product(
        meas, state, lambda r: operators.apply_pi_squared(spec, state, r)
    )
    assert sq >= 0.0
    assert direct == pytest.approx(sq, rel=1e-8)


def test_pi_squared_matches_expanded_form(family_spec):
    # double application of pi equals the closed expansion on smooth bumps
    if family_spec.family == "morse":
        pts, bump = np.linspace(-2, 4, 13), gaussian_bump(1.0, 0.9)
    else:
        pts, bump = np.linspace(0.5, 5, 13), gaussian_bump(2.0, 0.6)
    lhs = operators.apply_pi_squared(family_spec, bump, pts)
    f, f1, f2, _, _ = systems.deforming(family_spec, pts)
    v, d1, d2 = bump.derivs(pts, 2)
    rhs = -f * f * d2 - 2.0 * f * f1 * d1 - (0.5 * f * f2 + 0.25 * f1 * f1) * v
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_hamiltonian_on_constant_function_morse():
    spec = systems.MorseSpec(0.25, 0.25)

    def flat(p, order):
        p = np.asarray(p, dtype=float)
        one = np.ones_like(p)
        return tuple([one] + [0.0 * p for _ in range(order)])

    fn = operators.SmoothFunction(flat, max_order=4)
    val = operators.apply_hamiltonian(spec, 0, fn, 0.0)
    assert val == pytest.approx(-0.3125, abs=1e-15)


def test_eigen_relation_pointwise():
    spec = systems.OscillatorSpec(1.0, 0.0)
    st = systems.bound_state(spec, 0)
    assert operators.apply_hamiltonian(spec, 0, st, 0.7) == pytest.approx(
        1.5 * st(0.7), abs=1e-11
    )
    spec = systems.CoulombSpec(0.0, 1.0, 0.1)
    st = systems.bound_state(spec, 0)
    assert operators.apply_hamiltonian(spec, 0, st, 3.0) == pytest.approx(
        systems.energy(spec, 0) * st(3.0), abs=1e-10
    )


def test_eigen_residual_suite(family_spec):
    # the far points lie past the overflow of the potential, where the state is 0
    far = [-800.0, -1e4] if family_spec.family == "morse" else [1e155, 1e300]
    # near the half-line origin r * r underflows; L = 0 and Lcal = 0 have no
    # centrifugal term there
    near = [1e-300, 1e-3, 0.7]
    for n in range(9):
        grid = np.append(operators.default_residual_grid(family_spec, n), far + near)
        assert operators.eigen_residual(family_spec, n, grid) < 1e-9


def test_the_energy_slot_makes_h_minus_e_one_flux_operator(family_spec):
    # E_n enters its slot as a_j - c E_n, and c times that slot's basis is 1, so
    # the flux operator of these slots is H - E_n up to rounding.  Against
    # max |psi_n|, the eigen-residual's scale, the worst of these 24 cases
    # measures 1.3e-14 (the deformed oscillator at n = 3); the bound is 1e-13
    for n in range(4):
        state = systems.bound_state(family_spec, n)
        grid = operators.default_residual_grid(family_spec, n)
        slots = systems.slots_at_energy(family_spec, n)
        one = operators.flux_operator(family_spec, slots).apply(state)(grid)
        two = operators.apply_hamiltonian(family_spec, n, state, grid) - state.energy * state(grid)
        assert np.max(np.abs(one - two)) <= 1e-13 * np.max(np.abs(state(grid))), n


def test_eigen_residual_detects_energy_shift():
    spec = systems.OscillatorSpec(1.0, 0.0)
    st = systems.bound_state(spec, 2)
    grid = operators.default_residual_grid(spec, 2)
    h = operators.apply_hamiltonian(spec, 2, st, grid)
    v = st(grid)
    shifted = np.max(np.abs(h - (st.energy + 1e-3) * v)) / np.max(np.abs(v))
    assert shifted >= 1e-3 * np.min(np.abs(v)) / np.max(np.abs(v))
    assert shifted == pytest.approx(1e-3, rel=1e-5)


def test_eigen_residual_empty_grid():
    with pytest.raises(ParameterError):
        operators.eigen_residual(systems.OscillatorSpec(1.0, 0.0), 0, [])


@pytest.mark.parametrize(
    "spec, grid",
    [
        (systems.OscillatorSpec(1.0, 0.0), [1e3, 2e3]),
        (systems.MorseSpec(1.0, 0.5), [-200.0, -150.0]),
    ],
)
def test_eigen_residual_on_a_grid_where_the_state_is_zero(spec, grid):
    # psi_0 underflows to 0 at every point: 0/0 returned a silent nan
    with pytest.raises(NotApplicableError, match="^psi_0 is 0 on the whole residual grid$"):
        operators.eigen_residual(spec, 0, grid)


def test_domain_error_on_outside_point():
    spec = systems.CoulombSpec(0.0, 1.0)
    st = systems.bound_state(spec, 0)
    with pytest.raises(DomainError):
        operators.apply_hamiltonian(spec, 0, st, -2.0)
    # the constant-mass zero generator checks the point for any input function
    for spec, bad in ((systems.OscillatorSpec(1.0, 0.0), -1.0), (spec, 0.0)):
        gs = algebra.GeneratorSet(spec)
        out = algebra.apply_generator_fn(gs, algebra.ZERO, gaussian_bump(1.0, 0.5), 0)
        with pytest.raises(DomainError):
            out(bad)


def test_hamiltonian_hermitian_under_plain_measure(family_spec):
    # H is symmetric in the flat L2 sense (dr, dx, dR); the weighted family
    # products make the gauged zero generator, not H itself, symmetric
    meas = measures.family_measure(family_spec.family)
    flat = measures.Measure(family_spec.family, lambda p: np.ones_like(p))
    for m, n in [(0, 1), (1, 3), (2, 2)]:
        sm = systems.bound_state(family_spec, m)
        sn = systems.bound_state(family_spec, n)
        lhs = measures.inner_product(
            flat, sm, lambda p: operators.apply_hamiltonian(family_spec, n, sn, p)
        )
        rhs = measures.inner_product(
            flat, sn, lambda p: operators.apply_hamiltonian(family_spec, n, sm, p)
        )
        assert abs(lhs - rhs) < 1e-8


def test_alpha_to_zero_limit_of_hamiltonian():
    tiny = systems.OscillatorSpec(1.0, 0.0, 1e-8)
    base = systems.OscillatorSpec(1.0, 0.0)
    bump = gaussian_bump(2.0, 0.6)
    pts = np.linspace(0.3, 5.0, 40)
    diff = operators.apply_hamiltonian(tiny, 0, bump, pts) - operators.apply_hamiltonian(
        base, 0, bump, pts
    )
    assert np.max(np.abs(diff)) < 1e-6


def test_diff_operator_output_derivatives_match_fd():
    # output d1/d2 of an operator application are analytic; spot-check by FD
    spec = systems.MorseSpec(1.0, 0.75, 0.3)
    st = systems.bound_state(spec, 2)

    def coeffs(p, order):
        p = np.asarray(p, dtype=float)
        q = np.exp(-p)
        z = np.zeros_like(p)
        stacks = ((q, -q, q), (1.0 + 0.0 * p, z, z), (0.5 + z, z, z))
        return tuple(c[: order + 1] for c in stacks)

    op = operators.DiffOperator2(coeffs, order=2)
    out = op.apply(st)
    x = 0.8
    h = 3e-4
    v, d1, d2 = out.derivs(x, 2)
    s = [out(x + k * h) for k in (-2, -1, 0, 1, 2)]
    fd1 = (-s[4] + 8 * s[3] - 8 * s[1] + s[0]) / (12 * h)
    fd2 = (-s[4] + 16 * s[3] - 30 * s[2] + 16 * s[1] - s[0]) / (12 * h**2)
    assert d1 == pytest.approx(fd1, abs=1e-7)
    assert d2 == pytest.approx(fd2, abs=1e-6)


def _generator_outputs(spec, n):
    gs = algebra.generator_set(spec)
    st = systems.BoundState(spec, n)
    return {which: algebra.apply_generator(gs, which, st) for which in ("zero", "plus", "minus")}


def test_function_order_must_be_an_integer_in_range():
    outputs = _generator_outputs(systems.OscillatorSpec(1.0, 0.0, 0.3), 1)
    for fn in (outputs["zero"], outputs["plus"], operators.zero_function()):
        for order in (-1, fn.max_order + 1, 1.5, None):
            for point in (0.7, np.linspace(0.5, 2.0, 5)):
                with pytest.raises(ParameterError):
                    fn.derivs(point, order)


def test_generator_outputs_remember_exact_stacks(family_spec):
    n = 2
    pts = algebra.pointwise_grid(family_spec, n)
    outputs = _generator_outputs(family_spec, n)
    asked = {which: [fn.derivs(pts, k) for k in (2, 1, 0)] for which, fn in outputs.items()}
    for which, stacks in asked.items():
        for k, stack in zip((2, 1, 0), stacks):
            fresh = _generator_outputs(family_spec, n)[which].derivs(pts, k)
            assert len(stack) == len(fresh) == k + 1
            for a, b in zip(stack, fresh):
                assert not a.flags.writeable
                assert np.array_equal(a, b)


def test_a_function_remembers_its_last_four_points_arrays():
    calls = []

    def derivs_fn(p, order):
        calls.append(order)
        return tuple(np.asarray(p, dtype=float) ** (k + 1) for k in range(order + 1))

    fn = operators.SmoothFunction(derivs_fn, max_order=2)
    arrays = [np.linspace(0.0, 1.0 + k, 5) for k in range(10)]
    for pts in arrays:
        fn.derivs(pts, 1)
    assert len(calls) == 10
    for pts in reversed(arrays):
        assert np.array_equal(fn(pts), pts)
    assert len(calls) == 10 + 6
    fn.derivs(arrays[-1], 2)  # a higher order is computed, then served as a prefix
    assert calls[-1] == 2
    assert len(fn.derivs(arrays[-1], 1)) == 2 and len(calls) == 17
    fn.derivs(0.5, 0)  # scalars are not remembered
    fn.derivs(0.5, 0)
    assert len(calls) == 19


def test_apply_needs_the_operator_order_of_derivatives():
    spec = systems.OscillatorSpec(1.0, 0.0)
    op = operators.flux_operator(spec, systems.FAMILIES["ho"].slots(spec, 0))
    first_order = operators.SmoothFunction(lambda p, order: (p, np.ones_like(p))[: order + 1], 1)
    with pytest.raises(ParameterError, match="lacks the required derivatives"):
        op.apply(first_order)


def _coefficient_bytes(stacks, order):
    return [[np.asarray(c).tobytes() for c in stack[: order + 1]] for stack in stacks]


def test_remembered_coefficient_stacks_equal_a_fresh_operators(family_spec):
    slots = systems.FAMILIES[family_spec.family].slots(family_spec, 1)

    def operators_of(gs):
        return (
            algebra._zero_operator(gs),
            algebra._ladder_core(gs, algebra.PLUS, 2, 0.75),
            algebra._ladder_core(gs, algebra.MINUS, 1),
            operators.flux_operator(family_spec, slots),
            operators._pi_operator(family_spec),
        )

    pts = algebra.pointwise_grid(family_spec, 2)
    others = [pts * (1.0 + 0.01 * j) for j in range(1, systems.MEMO_SIZE + 1)]
    # served as prefixes of the order-2 stack, after other arrays, and computed again
    # once the other arrays have pushed it out
    asks = [(pts, 2), (pts, 1), (others[0], 0), (pts, 0)] + [(p, 1) for p in others] + [(pts, 0)]
    held = operators_of(algebra.generator_set(family_spec))
    for index, op in enumerate(held):
        for p, order in asks:
            fresh = operators_of(algebra.GeneratorSet(family_spec))[index]
            want = _coefficient_bytes(fresh._remembered(p, order), order)
            assert _coefficient_bytes(op._remembered(p, order), order) == want


def test_a_long_lived_generator_set_keeps_at_most_memo_size_stacks_per_operator():
    spec = systems.MorseSpec(1.0, 0.75, 0.3)
    gs = algebra.generator_set(spec)
    state = systems.bound_state(spec, 2)
    for j in range(50):
        pts = np.linspace(-1.0, 3.0 + 0.01 * j, 40)
        for which in (algebra.ZERO, algebra.PLUS, algebra.MINUS):
            algebra.apply_generator(gs, which, state)(pts)
    assert len(gs._operators) == 3
    for op in gs._operators.values():
        assert len(op._memo) == systems.MEMO_SIZE
    assert len(state._memo) == systems.MEMO_SIZE


@pytest.mark.parametrize("size", [1, 2])
def test_the_memo_keeps_memo_size_stacks_at_any_size(monkeypatch, size):
    # at MEMO_SIZE = 1 the memo once kept every entry
    monkeypatch.setattr(systems, "MEMO_SIZE", size)
    spec = systems.MorseSpec(1.0, 0.75, 0.3)
    state = systems.BoundState(spec, 2)
    op = algebra._zero_operator(algebra.GeneratorSet(spec))
    for j in range(10):
        pts = np.linspace(-1.0, 3.0 + 0.01 * j, 40)
        state(pts)
        op._remembered(pts, 2)
    for memo in (state._memo, op._memo):
        assert len(memo) == size
        assert memo[-1][0] == (pts.shape, pts.tobytes())


def test_a_support_may_start_at_the_near_probe_end():
    # psi_0 ~ R e^(-kappa R) of this deep deformed well still holds 1e-5 of
    # its peak at R = 1e-6; the residual grids stop there by design
    spec = systems.CoulombSpec(Lcal=0.0, Z0=20.0, alpha=4.0)
    lo, hi = operators.support(spec, 0, operators.RESIDUAL_FLOOR)
    assert lo == operators._PROBES["coulomb"][0] and hi < 10.0


@pytest.mark.parametrize("omega, end", [(1e-14, "upper"), (1e14, "lower")])
def test_a_state_peaking_at_a_probe_end_has_no_support(omega, end):
    # psi_0 peaks at sqrt(2/omega), past the probe's 1e6 or below its 1e-6;
    # scanned, it gave [10, 1e6] and (1e-6, 1.21e-6) without a word
    spec = systems.OscillatorSpec(omega, 0.0)
    probe = operators._PROBES["ho"]
    at = probe[-1] if end == "upper" else probe[0]
    with pytest.raises(NotApplicableError, match=re.escape(f"state 0 peaks at {at:g}, an end of")):
        operators.support(spec, 0, operators.RESIDUAL_FLOOR)
    with pytest.raises(NotApplicableError):
        algebra.pointwise_grid(spec, 0)
