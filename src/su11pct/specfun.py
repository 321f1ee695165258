"""Generalized Laguerre and Jacobi polynomials and log-gamma.

Both polynomial families are evaluated with the standard upward three-term
recurrence in the degree (DLMF 18.9(i)), which is stable for the moderate
degrees (n <= 200) and argument ranges the bound-state formulas require.
First derivatives come from the parameter-shift identities

    d/dy L_n^(a)(y)   = -L_{n-1}^(a+1)(y)
    d/dt P_n^(a,b)(t) = (n+a+b+1)/2 * P_{n-1}^(a+1,b+1)(t)

so they inherit the accuracy of the recurrence itself.

The recurrences run in place on three buffers of the argument's shape
(``prev``, ``cur`` and a scratch ``tmp``), so a step allocates nothing and
divides no array: the per-degree constants are folded into one scalar
factor each for ``cur`` and ``prev``.  Only well-conditioned factors are
folded.  The Jacobi bracket ``c(c-2) t + a^2 - b^2`` is still formed as
``t * c(c-2)``, then ``+ a^2``, then ``- b^2``, bit for bit as the textbook
step: for a large parameter ``a`` and ``t`` near -1 (the ``alpha -> 0+``
limit of the deformed families) its two O(a^2) terms cancel to O(a), and
folding it into one affine map of ``t`` rounds that cancellation
differently and worsens the deformed residuals.  The bracket is left for
the rewrite of the recurrence in ``s = 1 + t``.
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


def _check_degree(n):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ParameterError(f"degree must be a non-negative integer, got {n!r}")
    if n > MAX_DEGREE:
        raise ParameterError(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")


def _check_laguerre(n, a):
    _check_degree(n)
    if a <= -1.0:
        raise ParameterError(f"Laguerre parameter must exceed -1, got {a}")


def _check_jacobi(n, a, b):
    _check_degree(n)
    if a <= -1.0 or b <= -1.0:
        raise ParameterError(f"Jacobi parameters must exceed -1, got a={a}, b={b}")


def _laguerre_value(n, a, y):
    """L_n^(a)(y) by upward recurrence on three buffers; y is a float ndarray.

    The result is a new array that no other result shares.
    """
    cur = np.ones_like(y)
    if n == 0:
        return cur
    prev, cur, tmp = cur, np.empty_like(y), np.empty_like(y)
    np.subtract(1.0 + a, y, out=cur)
    for k in range(1, n):
        # L_{k+1} = ((2k+1+a-y) L_k - (k+a) L_{k-1}) / (k+1)
        np.subtract(2.0 * k + 1.0 + a, y, out=tmp)
        tmp *= cur
        tmp *= 1.0 / (k + 1.0)
        prev *= (k + a) / (k + 1.0)
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
    return cur


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
    _check_laguerre(n, a)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("Laguerre argument must be non-negative")
    value = _laguerre_value(n, a, y)
    d1 = -_laguerre_value(n - 1, a + 1.0, y) if n > 0 else np.zeros_like(y)
    if value.ndim == 0:
        return PolyEval(float(value), float(d1))
    return PolyEval(value, d1)


def _jacobi_value(n, a, b, t):
    """P_n^(a,b)(t) by upward recurrence on three buffers; t is a float ndarray.

    The result is a new array that no other result shares.
    """
    cur = np.ones_like(t)
    if n == 0:
        return cur
    prev, cur, tmp = cur, np.empty_like(t), np.empty_like(t)
    np.multiply(0.5 * (a + b + 2.0), t, out=cur)
    cur += 0.5 * (a - b)
    for k in range(2, n + 1):
        # P_k = ((c-1) (c(c-2) t + a^2 - b^2) P_{k-1}
        #        - 2 (k+a-1)(k+b-1) c P_{k-2}) / denom
        c = 2.0 * k + a + b
        denom = 2.0 * k * (k + a + b) * (c - 2.0)
        np.multiply(t, c * (c - 2.0), out=tmp)
        tmp += a * a
        tmp -= b * b
        tmp *= cur
        tmp *= (c - 1.0) / denom
        prev *= 2.0 * (k + a - 1.0) * (k + b - 1.0) * c / denom
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
    return cur


def jacobi(n, a, b, t):
    """Evaluate the Jacobi polynomial P_n^(a,b) at t in [-1, 1].

    Parameters
    ----------
    n : int
        Degree, 0 <= n <= 200.
    a, b : float
        Parameters, both > -1.
    t : float or ndarray
        Argument in [-1, 1].

    Returns
    -------
    PolyEval
        Value and d/dt, with the same shape as ``t``.
    """
    _check_jacobi(n, a, b)
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise DomainError("Jacobi argument must lie in [-1, 1]")
    value = _jacobi_value(n, a, b, t)
    if n > 0:
        d1 = 0.5 * (n + a + b + 1.0) * _jacobi_value(n - 1, a + 1.0, b + 1.0, t)
    else:
        d1 = np.zeros_like(t)
    if value.ndim == 0:
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


def _shift_stack(value, n, params, x, kmax, factor):
    """[p, p', ..., p^(kmax)] of p(x) = value(n, *params, x) by parameter shifts.

    Uses d^k/dx^k p_n^(params) = factor(1) ... factor(k) p_{n-k}^(params+k).
    Every entry is a new array, or a numpy float for a 0-d ``x``.
    """
    if not isinstance(kmax, (int, np.integer)) or kmax < 0:
        raise ParameterError(
            f"derivative order must be a non-negative integer, got {kmax!r}"
        )
    x = np.asarray(x, dtype=float)
    out = [value(n, *params, x)]
    coeff = 1.0
    for k in range(1, kmax + 1):
        coeff *= factor(k)
        if k > n:
            out.append(np.zeros_like(x))
        else:
            entry = value(n - k, *(p + k for p in params), x)
            entry *= coeff
            out.append(entry)
    return [entry[()] for entry in out] if x.ndim == 0 else out


def laguerre_derivs(n, a, y, kmax):
    """Stack [L, L', ..., L^(kmax)] of d^k/dy^k L_n^(a)(y).

    Repeated parameter shifts give d^k/dy^k L_n^(a) = (-1)^k L_{n-k}^(a+k).
    Parameters are checked as in `laguerre`; the argument is not.
    """
    _check_laguerre(n, a)
    return _shift_stack(_laguerre_value, n, (a,), y, kmax, lambda k: -1.0)


def jacobi_derivs(n, a, b, t, kmax):
    """Stack [P, P', ..., P^(kmax)] of d^k/dt^k P_n^(a,b)(t).

    Repeated parameter shifts give
    d^k/dt^k P_n^(a,b) = 2^-k (n+a+b+1)_k P_{n-k}^(a+k,b+k).
    Parameters are checked as in `jacobi`; the argument is not.
    """
    _check_jacobi(n, a, b)
    return _shift_stack(
        _jacobi_value, n, (a, b), t, kmax, lambda k: 0.5 * (n + a + b + k)
    )
