import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11pct import specfun
from su11pct.errors import DomainError, ParameterError

mp.mp.dps = 40


def mp_laguerre(n, a, y):
    """Direct summation of the explicit polynomial coefficients (40 digits)."""
    total = mp.mpf(0)
    for k in range(n + 1):
        c = (-1) ** k * mp.binomial(n + mp.mpf(a), n - k) / mp.factorial(k)
        total += c * mp.mpf(y) ** k
    return total


def mp_jacobi(n, a, b, t):
    a, b, t = mp.mpf(a), mp.mpf(b), mp.mpf(t)
    total = mp.mpf(0)
    for k in range(n + 1):
        c = mp.binomial(n + a, n - k) * mp.binomial(n + b, k)
        total += c * ((t - 1) / 2) ** k * ((t + 1) / 2) ** (n - k)
    return total


def jacobi_y(a, t):
    """The argument y = (a+1)(1+t)/2 of `specfun.jacobi_derivs` at the Jacobi argument t."""
    return (a + 1.0) * (1.0 + np.asarray(t, dtype=float)) / 2.0


def test_laguerre_low_orders():
    assert specfun.laguerre(0, 0.5, 3.7) == specfun.PolyEval(1.0, 0.0)
    assert specfun.laguerre(1, 0.5, 2.0).value == pytest.approx(-0.5, abs=1e-15)
    assert specfun.laguerre(2, 0.5, 1.0).value == pytest.approx(-0.125, abs=1e-15)


def test_jacobi_low_orders():
    assert specfun.jacobi(0, 1.3, 0.2, -0.4).value == 1.0
    assert specfun.jacobi(0, 1.3, 0.2, -0.4).d1 == 0.0
    assert specfun.jacobi(1, 1.0, 1.0, 0.0).value == pytest.approx(0.0, abs=1e-15)


def test_jacobi_endpoint_identity():
    # P_n^{(a,b)}(1) = Gamma(n+a+1) / (n! Gamma(a+1))
    val = specfun.jacobi(3, 0.7, 1.1, 1.0).value
    expected = math.exp(
        specfun.log_gamma(3 + 0.7 + 1) - specfun.log_gamma(4.0) - specfun.log_gamma(1.7)
    )
    assert val == pytest.approx(expected, rel=1e-11)
    assert val == pytest.approx(2.8305, rel=1e-11)


def test_laguerre_endpoint_identity():
    for n, a in [(1, 0.3), (4, 1.5), (9, 2.0), (17, 0.25)]:
        val = specfun.laguerre(n, a, 0.0).value
        expected = math.exp(
            specfun.log_gamma(n + a + 1)
            - specfun.log_gamma(n + 1.0)
            - specfun.log_gamma(a + 1.0)
        )
        assert val == pytest.approx(expected, rel=1e-11)


def test_log_gamma_values():
    assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert specfun.log_gamma(5.0) == pytest.approx(3.1780538303479456, abs=1e-13)
    assert specfun.log_gamma(0.5) == pytest.approx(0.57236494292470009, abs=1e-13)


def test_log_gamma_accuracy_sampled():
    # 1e-13 absolute wherever binary64 can represent it; where ln(Gamma)
    # exceeds ~440 a single ulp is already above 1e-13 and only ulp-level
    # accuracy is meaningful
    rng = np.random.default_rng(7)
    for x in rng.uniform(1e-3, 300.0, size=250):
        ref = float(mp.loggamma(mp.mpf(float(x))))
        err = abs(specfun.log_gamma(float(x)) - ref)
        assert err <= max(1e-13, 2.5 * math.ulp(abs(ref)))


def test_domain_and_parameter_errors():
    with pytest.raises(ParameterError):
        specfun.laguerre(-1, 0.5, 1.0)
    with pytest.raises(ParameterError):
        specfun.laguerre(201, 0.5, 1.0)
    with pytest.raises(ParameterError):
        specfun.laguerre(2, -1.0, 1.0)
    with pytest.raises(ParameterError):
        specfun.jacobi(2, -1.2, 0.0, 0.5)
    with pytest.raises(DomainError):
        specfun.jacobi(2, 0.5, 0.5, 1.0001)
    for a, b in [(math.inf, 0.5), (0.5, math.inf)]:
        with pytest.raises(ParameterError):
            specfun.jacobi(2, a, b, 0.3)
    with pytest.raises(DomainError):
        specfun.log_gamma(0.0)
    with pytest.raises(DomainError):
        specfun.log_gamma(-3.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=50),
    a=st.floats(min_value=-0.9, max_value=20.0),
    y=st.floats(min_value=0.0, max_value=80.0),
)
def test_laguerre_recurrence_matches_direct_sum(n, a, y):
    val = specfun.laguerre(n, a, y).value
    ref = float(mp_laguerre(n, a, y))
    assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=50),
    a=st.floats(min_value=-0.9, max_value=15.0),
    b=st.floats(min_value=-0.9, max_value=15.0),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
def test_jacobi_recurrence_matches_direct_sum(n, a, b, t):
    val = specfun.jacobi(n, a, b, t).value
    ref = float(mp_jacobi(n, a, b, t))
    assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    a=st.floats(min_value=-0.5, max_value=10.0),
    y=st.floats(min_value=0.01, max_value=40.0),
)
def test_laguerre_derivative_matches_finite_difference(n, a, y):
    h = 1e-6
    d1 = specfun.laguerre(n, a, y).d1
    fd = (specfun.laguerre(n, a, y + h).value - specfun.laguerre(n, a, y - h).value) / (
        2 * h
    )
    assert abs(d1 - fd) <= 1e-6 * max(1.0, abs(d1))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    a=st.floats(min_value=-0.5, max_value=8.0),
    b=st.floats(min_value=-0.5, max_value=8.0),
    t=st.floats(min_value=-0.99, max_value=0.99),
)
def test_jacobi_derivative_matches_finite_difference(n, a, b, t):
    h = 1e-6
    d1 = specfun.jacobi(n, a, b, t).d1
    fd = (
        specfun.jacobi(n, a, b, t + h).value - specfun.jacobi(n, a, b, t - h).value
    ) / (2 * h)
    assert abs(d1 - fd) <= 1e-6 * max(1.0, abs(d1))


def test_vectorized_evaluation_matches_scalar():
    y = np.linspace(0.0, 30.0, 17)
    vec = specfun.laguerre(6, 1.25, y)
    for i, yi in enumerate(y):
        sc = specfun.laguerre(6, 1.25, float(yi))
        assert vec.value[i] == sc.value
        assert vec.d1[i] == sc.d1
    t = np.linspace(-1.0, 1.0, 17)
    vec = specfun.jacobi(5, 0.75, 1.5, t)
    for i, ti in enumerate(t):
        sc = specfun.jacobi(5, 0.75, 1.5, float(ti))
        assert vec.value[i] == sc.value
        assert vec.d1[i] == sc.d1


def test_derivative_stacks_consistency():
    # the k-th entry of the stack differentiates the (k-1)-th
    y = np.linspace(0.1, 12.0, 9)
    stack = specfun.laguerre_derivs(7, 0.8, y, 4)
    h = 1e-6
    for k in range(1, 5):
        up = specfun.laguerre_derivs(7, 0.8, y + h, k - 1)[k - 1]
        dn = specfun.laguerre_derivs(7, 0.8, y - h, k - 1)[k - 1]
        assert np.max(np.abs(stack[k] - (up - dn) / (2 * h))) < 1e-5
    y = jacobi_y(0.8, np.linspace(-0.9, 0.9, 9))
    stack = specfun.jacobi_derivs(7, 0.8, 1.2, y, 4)
    for k in range(1, 5):
        up = specfun.jacobi_derivs(7, 0.8, 1.2, y + h, k - 1)[k - 1]
        dn = specfun.jacobi_derivs(7, 0.8, 1.2, y - h, k - 1)[k - 1]
        assert np.max(np.abs(stack[k] - (up - dn) / (2 * h))) < 1e-4 * np.max(
            np.abs(stack[k]) + 1.0
        )


BAD_STACK_CALLS = {
    # name: (stack, n, parameters, kmax)
    "jacobi-negative-degree": (specfun.jacobi_derivs, -1, (1.0, 1.0), 0),
    "laguerre-negative-degree": (specfun.laguerre_derivs, -3, (0.5,), 0),
    "jacobi-degree-above-max": (specfun.jacobi_derivs, specfun.MAX_DEGREE + 1, (1.0, 1.0), 0),
    "laguerre-degree-above-max": (specfun.laguerre_derivs, 500, (0.5,), 0),
    "laguerre-parameter-below-minus-one": (specfun.laguerre_derivs, 2, (-3.0,), 0),
    "laguerre-parameter-minus-one": (specfun.laguerre_derivs, 2, (-1.0,), 0),
    "jacobi-a-minus-one": (specfun.jacobi_derivs, 2, (-1.0, 0.5), 0),
    "jacobi-b-below-minus-one": (specfun.jacobi_derivs, 2, (0.5, -1.5), 0),
    "laguerre-float-degree": (specfun.laguerre_derivs, 2.0, (0.5,), 0),
    "jacobi-fractional-degree": (specfun.jacobi_derivs, 2.5, (1.0, 1.0), 0),
    "laguerre-negative-kmax": (specfun.laguerre_derivs, 2, (0.5,), -1),
    "jacobi-negative-kmax": (specfun.jacobi_derivs, 2, (1.0, 1.0), -1),
    "jacobi-float-kmax": (specfun.jacobi_derivs, 2, (1.0, 1.0), 1.0),
}


@pytest.mark.parametrize("case", BAD_STACK_CALLS.values(), ids=BAD_STACK_CALLS.keys())
def test_derivative_stacks_reject_bad_parameters(case):
    stack, n, params, kmax = case
    with pytest.raises(ParameterError):
        stack(n, *params, np.array([0.2]), kmax)


def _stacks(t, kmax=2):
    """Laguerre and Jacobi stacks at n = 0, 1, 7, on |t| (Laguerre) and y of t (Jacobi)."""
    for n in (0, 1, 7):
        yield specfun.laguerre_derivs(n, 0.8, np.abs(t), kmax)
        yield specfun.jacobi_derivs(n, 0.8, 1.2, jacobi_y(0.8, t), kmax)


def test_derivative_stacks_never_write_the_argument():
    # contiguous, strided, offset 2-d and reversed views of one base array
    # reach both stacks; y >= 0 is a valid Laguerre argument as well
    ybase = jacobi_y(0.8, np.linspace(-0.9, 0.9, 31))
    for y in (ybase, ybase[::3], ybase.reshape(31, 1)[5:20], ybase[::-2]):
        y_before = y.copy()
        for n in (0, 1, 7):
            specfun.laguerre_derivs(n, 0.8, y, 3)
            specfun.jacobi_derivs(n, 0.8, 1.2, y, 3)
        assert np.array_equal(y, y_before)
    assert np.array_equal(ybase, jacobi_y(0.8, np.linspace(-0.9, 0.9, 31)))


def test_derivative_stack_entries_share_no_memory():
    y = jacobi_y(0.8, np.linspace(-0.9, 0.9, 31))
    for n in (0, 1, 7):
        for stack in (
            specfun.laguerre_derivs(n, 0.8, y[::3], 3),
            specfun.jacobi_derivs(n, 0.8, 1.2, y[::3], 3),
        ):
            for i, first in enumerate(stack):
                assert not np.shares_memory(first, y)
                for second in stack[i + 1 :]:
                    assert not np.shares_memory(first, second)


def test_derivative_stacks_of_a_scalar_are_numpy_floats():
    for t in (0.3, np.float64(0.3), np.array(0.3)):
        for stack in _stacks(t, kmax=3):
            assert len(stack) == 4
            assert all(type(entry) is np.float64 for entry in stack)
    arrays = list(_stacks(np.linspace(-0.9, 0.9, 5), kmax=3))
    for stack, scalars in zip(arrays, _stacks(-0.45, kmax=3)):
        assert [entry[1] for entry in stack] == scalars


def test_derivative_stacks_of_a_2d_argument_match_flat():
    t = np.linspace(-0.95, 0.95, 24)
    for grid, flat in zip(_stacks(t.reshape(4, 6)), _stacks(t)):
        for entry_grid, entry_flat in zip(grid, flat):
            assert entry_grid.shape == (4, 6)
            assert np.array_equal(entry_grid, entry_flat.reshape(4, 6))


def mp_laguerre_terms(n, a, y):
    """mp_laguerre with each term formed from the one before (faster)."""
    a, y = mp.mpf(a), mp.mpf(y)
    term = total = mp.binomial(n + a, n)
    for k in range(1, n + 1):
        term *= -(n - k + 1) * y / ((k + a) * k)
        total += term
    return total


def mp_jacobi_terms(n, a, b, t):
    """mp_jacobi with each term formed from the one before; needs t > -1."""
    a, b, t = mp.mpf(a), mp.mpf(b), mp.mpf(t)
    u, v = (t - 1) / 2, (t + 1) / 2
    term = total = mp.binomial(n + a, n) * v**n
    for k in range(1, n + 1):
        term *= (n - k + 1) * (n + b - k + 1) * u / ((a + k) * k * v)
        total += term
    return total


HIGH_DEGREE_CASES = {
    # kind: (stack, reference, shift factor c_k, points, weight of entry k,
    #        reference argument of a point, d/dx of the stack's argument)
    "laguerre": (
        specfun.laguerre_derivs,
        mp_laguerre_terms,
        lambda n, params, k: -1,
        lambda n, params: np.linspace(0.0, 4.0 * n + 2.0 * params[0] + 20.0, 17),
        lambda x, params, k: np.exp(-x / 2) * x ** ((params[0] + k) / 2),
        lambda y, params: mp.mpf(y),
        lambda params: 1.0,
    ),
    # jacobi_derivs takes y = (a+1)(1+t)/2, so entry k is d^k/dt^k P_n^(a,b)
    # times (2/(a+1))^k, and the reference is taken at the t of the float y
    "jacobi": (
        specfun.jacobi_derivs,
        mp_jacobi_terms,
        lambda n, params, k: mp.mpf(n + sum(params) + k) / 2,
        lambda n, params: jacobi_y(params[0], np.linspace(-0.995, 0.995, 17)),
        lambda x, params, k: (1 - x) ** ((params[0] + k) / 2) * (1 + x) ** ((params[1] + k) / 2),
        lambda y, params: 2 * mp.mpf(y) / (params[0] + 1) - 1,
        lambda params: (params[0] + 1.0) / 2.0,
    ),
}


def _check_stack_against_mpmath(kind, params, n, orders):
    # d^k/dx^k p_n = c_1 ... c_k p_{n-k} with parameters shifted by k is
    # exact, so the reference differentiates by it too.  The coefficient sums
    # cancel by at most about e^(2n) of the value, so they run with n guard
    # digits above 40.  Errors are relative to the largest value under the
    # weight of the orthogonality measure, which a bound state multiplies by.
    stack, reference, factor, points, weight, ref_arg, dx = HIGH_DEGREE_CASES[kind]
    y = points(n, params)
    got = stack(n, *params, y, max(orders))
    x = np.array([float(ref_arg(yi, params)) for yi in y])
    coeff = mp.mpf(1)
    for k in range(max(orders) + 1):
        if k:
            coeff *= factor(n, params, k)
        if k not in orders:
            continue
        with mp.workdps(40 + n):
            shifted = [p + k for p in params]
            ref = [coeff * reference(n - k, *shifted, ref_arg(yi, params)) for yi in y]
            ref = np.array([float(r) for r in ref])
        w = weight(x, params, k)
        err = np.abs(got[k] * dx(params) ** k - ref) * w
        assert np.max(err) < 1e-12 * np.max(np.abs(ref) * w), k


@pytest.mark.parametrize("n", [100, 150, 200])
@pytest.mark.parametrize(
    "kind, params", [("laguerre", (0.5,)), ("jacobi", (1.5, 0.5)), ("jacobi", (40.0, 2.0))]
)
def test_derivative_stacks_match_mpmath_at_high_degree(kind, params, n):
    _check_stack_against_mpmath(kind, params, n, (0, 1, 2))


@pytest.mark.parametrize("params", [(1.5, 0.5), (40.0, 2.0)])
def test_jacobi_stack_orders_3_and_4_match_mpmath_at_degree_200(params):
    # order 3 starts the stack's second recurrence and order 4 sums its terms
    _check_stack_against_mpmath("jacobi", params, 200, (3, 4))


@pytest.mark.parametrize(
    "n, a, b", [(0, 1.5, 0.5), (3, 1.5, 0.5), (40, 40.0, 2.0), (150, math.inf, 0.5)]
)
def test_stack_values_do_not_depend_on_the_order_or_the_memo(n, a, b):
    # the value is the same recurrence at every kmax, and the derivative
    # weights do not depend on which stack asked for them first
    t = np.linspace(-0.99, 0.99, 23)
    y = jacobi_y(a, t) if math.isfinite(a) else 300.0 * (1.0 + t)
    specfun._weights.cache_clear()
    upward = [specfun.jacobi_derivs(n, a, b, y, kmax) for kmax in range(5)]
    specfun._weights.cache_clear()
    downward = [specfun.jacobi_derivs(n, a, b, y, kmax) for kmax in reversed(range(5))][::-1]
    for up, down in zip(upward, downward):
        assert np.array_equal(up[0], upward[0][0])
        assert all(np.array_equal(u, d) for u, d in zip(up, down))


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("a, b", [(0.75, 1.5), (1.5, 0.5), (40.0, 2.0)])
def test_jacobi_in_t_matches_mpmath_at_high_degree(a, b, n):
    # `jacobi` rounds its argument into y; taken from the far end, that moves
    # t by ulp(a+1)/(a+1), which cost up to 7.7e-13 here, so the bound sits
    # below it.  Errors are weighted as in the stack test above.
    t = np.linspace(-0.995, 0.995, 33)
    got = specfun.jacobi(n, a, b, t)
    for k, values in enumerate(got):
        with mp.workdps(40 + n):
            coeff = mp.mpf(n + a + b + 1) / 2 if k else 1
            ref = [coeff * mp_jacobi_terms(n - k, a + k, b + k, ti) for ti in t]
            ref = np.array([float(r) for r in ref])
        w = (1 - t) ** ((a + k) / 2) * (1 + t) ** ((b + k) / 2)
        assert np.max(np.abs(values - ref) * w) < 3e-13 * np.max(np.abs(ref) * w), k


@pytest.mark.parametrize("n, b", [(0, 0.5), (1, 0.5), (7, 2.0), (60, 0.5), (200, 0.5), (200, 7.0)])
def test_jacobi_stack_at_infinite_a_is_the_signed_laguerre_stack(n, b):
    # Q_n^(inf,b) = (-1)^n L_n^(b), and d^k/dy^k L_n^(b) = (-1)^k L_{n-k}^(b+k);
    # errors are weighted as in the high-degree test
    y = np.linspace(0.0, 4.0 * n + 2.0 * b + 20.0, 9)
    got = specfun.jacobi_derivs(n, math.inf, b, y, 4)
    for k in range(5):
        with mp.workdps(40 + n):
            ref = [(-1) ** (n + k) * mp_laguerre(n - k, b + k, yi) if k <= n else 0 for yi in y]
            ref = np.array([float(r) for r in ref])
        w = np.exp(-y / 2) * y ** ((b + k) / 2)
        assert np.max(np.abs(got[k] - ref) * w) <= 1e-12 * max(np.max(np.abs(ref) * w), 1e-300)


LOG_GAMMA_RATIO_X = [*np.geomspace(0.5, 1e15, 40), 19.99, 20.0, 20.01]


@pytest.mark.parametrize("b", [-0.49, 0.0, 0.5, 1.0, 7.3, 20.0])
def test_log_gamma_ratio_matches_mpmath(b):
    # both sides of the switch from math.lgamma to the Stirling difference at x = 20
    for x in LOG_GAMMA_RATIO_X:
        with mp.workdps(60):
            xm, bm = mp.mpf(float(x)), mp.mpf(b)
            ref = float(mp.loggamma(xm + bm) - mp.loggamma(xm) - bm * mp.log(xm))
        assert abs(specfun.log_gamma_ratio(float(x), b) - ref) <= 1e-13, x
    assert specfun.log_gamma_ratio(math.inf, b) == 0.0



def test_laguerre_refuses_a_negative_argument():
    with pytest.raises(DomainError, match="must be non-negative"):
        specfun.laguerre(2, 0.5, -1.0)
