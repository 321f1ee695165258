"""Jacobi polynomials in a scaled argument, their Laguerre limit, and log-gamma.

Every polynomial of the package is one scaled Jacobi polynomial

    Q_n^(a,b)(y) = P_n^(a,b)(2y/(a+1) - 1),    0 <= y <= a + 1,

whose a -> inf member is (-1)^n L_n^(b)(y) (DLMF 18.7(iii)).  With
eps = 1/(a+1) and m = 2k + b, the upward three-term recurrence in the
degree (DLMF 18.9.2, rewritten in y) is

    2k (1 + (k+b-1) eps)(1 + (m-3) eps) Q_k
        = (1 + (m-2) eps) [2 (1 + (m-1) eps)(1 + (m-3) eps) y
                           - 2(m-1) + (4m - m^2 - 2 - b^2) eps] Q_{k-1}
          - 2 (k+b-1)(1 + (k-2) eps)(1 + (m-1) eps) Q_{k-2}

from Q_0 = 1 and Q_1 = (1 + (b+1) eps) y - (b+1).  At eps = 0 it is the
Laguerre recurrence, so one code path serves every a, and near the
Laguerre limit nothing cancels: the textbook step in t = 2 eps y - 1
rounds away 1 + t where t is near -1, and its bracket
c(c-2) t + a^2 - b^2 cancels two O(a^2) terms.  It is stable for the
moderate degrees (n <= 200) and arguments the bound states require.
Derivatives come from the parameter shift

    d/dy Q_n^(a,b)(y) = (1 + (n+b) eps) Q_{n-1}^(a+1,b+1)((1 + eps) y),

so they inherit the accuracy of the recurrence itself.

The recurrence runs in place on three buffers (``prev``, ``cur`` and a
scratch ``tmp``) the size of its argument, so a step allocates nothing and
divides no array: the per-degree constants are folded into one affine
map of y for ``cur`` and one scalar factor for ``prev``.  A bound state
passes its argument in blocks of at most ``systems.BLOCK`` points, so the
buffers are block-sized and stay in a core's cache, not the size of the
whole points array.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError

MAX_DEGREE = 200


class PolyEval(NamedTuple):
    """Polynomial value and derivative with respect to its argument."""

    value: object
    d1: object


def _check(n, *params):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ParameterError(f"degree must be a non-negative integer, got {n!r}")
    if n > MAX_DEGREE:
        raise ParameterError(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
    if any(p <= -1.0 for p in params):
        raise ParameterError(f"polynomial parameters must exceed -1, got {params}")


def _value(n, a, b, y):
    """Q_n^(a,b)(y) by upward recurrence on three buffers; y is a float array or scalar.

    The result is a new array that no other result shares.
    """
    e = 1.0 / (a + 1.0)
    cur = np.ones_like(y)
    if n == 0:
        return cur
    prev, cur, tmp = cur, np.empty_like(y), np.empty_like(y)
    np.multiply(y, 1.0 + (b + 1.0) * e, out=cur)
    cur -= b + 1.0
    for k in range(2, n + 1):
        # Q_k = (s1 y + s0) Q_{k-1} - s2 Q_{k-2}, the module docstring's step
        m = 2.0 * k + b
        e1, e3 = 1.0 + (m - 1.0) * e, 1.0 + (m - 3.0) * e
        den = 2.0 * k * (1.0 + (k + b - 1.0) * e) * e3
        c = (1.0 + (m - 2.0) * e) / den
        np.multiply(y, 2.0 * c * e1 * e3, out=tmp)
        tmp += c * (-2.0 * (m - 1.0) + (4.0 * m - m * m - 2.0 - b * b) * e)
        tmp *= cur
        prev *= 2.0 * (k + b - 1.0) * (1.0 + (k - 2.0) * e) * e1 / den
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
    return cur


def _stack(n, a, b, y, kmax):
    """[Q, Q', ..., Q^(kmax)] of Q_n^(a,b)(y) by repeated parameter shifts.

    Entry k is prod_{j<=k} (1 + (n+b+j-1) eps) Q_{n-k}^(a+k,b+k)((1 + k eps) y).
    Every entry is a new array, or a numpy float for a 0-d ``y``.
    """
    if not isinstance(kmax, (int, np.integer)) or kmax < 0:
        raise ParameterError(
            f"derivative order must be a non-negative integer, got {kmax!r}"
        )
    y = np.asarray(y, dtype=float)
    e = 1.0 / (a + 1.0)
    out = [_value(n, a, b, y)]
    coeff = 1.0
    for k in range(1, kmax + 1):
        if k > n:
            out.append(np.zeros_like(y))
        else:
            coeff *= 1.0 + (n + b + k - 1.0) * e
            entry = _value(n - k, a + k, b + k, y * (1.0 + k * e) if e else y)
            entry *= coeff
            out.append(entry)
    return [entry[()] for entry in out] if y.ndim == 0 else out


def jacobi_derivs(n, a, b, y, kmax):
    """Stack [Q, Q', ..., Q^(kmax)] of d^k/dy^k Q_n^(a,b)(y).

    Q_n^(a,b)(y) = P_n^(a,b)(2y/(a+1) - 1), and ``a = math.inf`` gives
    (-1)^n L_n^(b)(y) and its derivatives.  Parameters are checked as in
    `jacobi`, save that a may be infinite; the argument is not.
    """
    _check(n, a, b)
    return _stack(n, a, b, y, kmax)


def laguerre_derivs(n, a, y, kmax):
    """Stack [L, L', ..., L^(kmax)] of d^k/dy^k L_n^(a)(y) = (-1)^n d^k/dy^k Q_n^(inf,a)(y).

    Parameters are checked as in `laguerre`; the argument is not.
    """
    _check(n, a)
    stack = _stack(n, math.inf, a, y, kmax)
    return [-entry for entry in stack] if n % 2 else stack


def laguerre(n, a, y):
    """Evaluate the generalized Laguerre polynomial L_n^(a) at y.

    Parameters
    ----------
    n : int
        Degree, 0 <= n <= 200.
    a : float
        Parameter, a > -1.
    y : float or ndarray
        Argument, y >= 0.

    Returns
    -------
    PolyEval
        Value and d/dy, with the same shape as ``y``.
    """
    _check(n, a)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("Laguerre argument must be non-negative")
    sign = -1.0 if n % 2 else 1.0
    value, d1 = (sign * entry for entry in _stack(n, math.inf, a, y, 1))
    if y.ndim == 0:
        return PolyEval(float(value), float(d1))
    return PolyEval(value, d1)


def jacobi(n, a, b, t):
    """Evaluate the Jacobi polynomial P_n^(a,b) at t in [-1, 1].

    Parameters
    ----------
    n : int
        Degree, 0 <= n <= 200.
    a, b : float
        Parameters, both > -1 and finite.
    t : float or ndarray
        Argument in [-1, 1].

    Returns
    -------
    PolyEval
        Value and d/dt, with the same shape as ``t``.
    """
    _check(n, a, b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"Jacobi parameters must be finite, got {(a, b)}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise DomainError("Jacobi argument must lie in [-1, 1]")
    # t = 2y/(a+1) - 1, so d/dt = ((a+1)/2) d/dy.  Rounding y moves t by
    # ulp(y)/(a+1), so each point is taken from its nearer end, by
    # P_n^(a,b)(t) = (-1)^n P_n^(b,a)(-t)
    sign = -1.0 if n % 2 else 1.0
    half_a, half_b = 0.5 * (a + 1.0), 0.5 * (b + 1.0)
    value, d1 = _stack(n, a, b, (1.0 + t) * half_a, 1)
    value_r, d1_r = _stack(n, b, a, (1.0 - t) * half_b, 1)
    value = np.where(t > 0.0, sign * value_r, value)
    d1 = np.where(t > 0.0, -sign * half_b * d1_r, half_a * d1)
    if t.ndim == 0:
        return PolyEval(float(value), float(d1))
    return PolyEval(value, d1)


def log_gamma(x):
    """Natural logarithm of the gamma function for x > 0.

    The result is accurate to a few ulp; in absolute terms that is below
    1e-13 roughly up to x ~ 150, beyond which the size of ln(Gamma(x))
    itself makes the ulp larger than 1e-13.
    """
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)  # B_2j / (2j (2j-1))


def log_gamma_ratio(x, b):
    """R(x, b) = ln Gamma(x+b) - ln Gamma(x) - b ln x for x > 0, x + b > 0; R(inf, b) = 0.

    Below x = 20 it is a difference of `math.lgamma` values.  Above, it is
    (x + b - 1/2) ln(1 + b/x) - b plus the difference of the Stirling
    series (DLMF 5.11.1), which never forms ln Gamma(x): its ulp, 1e-12 at
    x = 1e3, would swamp the difference.  The error is below 1e-13
    absolute for -1/2 < b <= 20.
    """
    if x < 20.0:
        return math.lgamma(x + b) - math.lgamma(x) - b * math.log(x)
    if math.isinf(x):
        return 0.0
    s = x + b
    out = (s - 0.5) * math.log1p(b / x) - b
    for j, c in enumerate(_STIRLING):
        out += c * (s ** (-2 * j - 1) - x ** (-2 * j - 1))
    return out
