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

so entry k of a stack is c_k Q_{n-k}^(a+k,b+k)((1 + k eps) y), with
c_k = prod_{j<=k} (1 + (n+b+j-1) eps).  That polynomial is a weighted sum
of the terms Q_j^(a,b)(y), j <= n - k, which the value's recurrence forms
anyway, on the same y.  Its weights are connection coefficients, built
from two first-order shifts per order (DLMF 18.9.5, and its mirror in a
by P_n^(a,b)(-t) = (-1)^n P_n^(b,a)(t)).  With p_m = Q_m^(a,b)(y):

    b -> b+1:  (1 + (m+b) eps) x_m = (1 + (2m+b) eps) p_m - (1 + (m-1) eps) x_{m-1}
    a -> a+1:  (1 + (m+b) eps) z_m = (1 + (2m+b) eps) p_m + (m+b) eps z_{m-1}

where x_m = Q_m^(a,b+1)(y), z_m = Q_m^(a+1,b)((1 + eps) y), and at eps = 0
the a-shift is z = p, the Laguerre limit.  One order is the b-shift, then
the a-shift at (a, b+1).  The weights of c_k Q_{n-k}^(a+k,b+k) are the
adjoint of that chain: one backward scalar pass per shift, last shift
first, O(k n) scalars, remembered per (n, a, b, k).  A sum of the base
terms loses accuracy about as n^(k-1) from order 3 on: summed from
Q_j^(inf,b), order 4 at n = 60 reads 3.8e-12 against a 1e-12 weighted
bound.  So every third entry, 0, 3, ..., runs its own recurrence at
(a+k, b+k) on (1 + k eps) y, and the two entries after it are sums of
that recurrence's terms.  A stack of order
up to 2 runs one recurrence, and one of order 3 or 4 runs two.

The recurrence runs in place on three buffers (``prev``, ``cur`` and a
scratch ``tmp``) the size of its argument, so a step allocates nothing and
divides no array: the per-degree constants are folded into one affine
map of y for ``cur`` and one scalar factor for ``prev``.  Each sum adds
one buffer, and takes its product w_j Q_j in ``tmp``, which is free
between steps.  A bound state passes its argument in blocks of at most
``systems.BLOCK`` points, so the buffers are block-sized and stay in a
core's cache, not the size of the whole points array.
"""

import functools
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


def _value(n, a, b, y, weights=()):
    """Q_n^(a,b)(y), n >= 1, by upward recurrence on three buffers, then sum_j w_j Q_j^(a,b)(y)
    for each w in ``weights``; y is a float array or scalar.

    Every w has from 2 to n entries, so no sum reads Q_n.  The results are
    new arrays that no other result shares.
    """
    e = 1.0 / (a + 1.0)
    cur = np.empty_like(y)
    np.multiply(y, 1.0 + (b + 1.0) * e, out=cur)
    cur -= b + 1.0
    if n == 1:
        return [cur]
    prev, tmp = np.ones_like(y), np.empty_like(y)
    sums = []
    for w in weights:
        total = np.multiply(cur, w[1], out=np.empty_like(y))
        total += w[0]
        sums.append(total)
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
        # tmp is free until the next step overwrites it
        for total, w in zip(sums, weights):
            if k < len(w):
                np.multiply(cur, w[k], out=tmp)
                total += tmp
    return [cur, *sums]


def _adjoint(v, e, beta, raise_a):
    """u with sum_m v_m x_m = sum_m u_m p_m, for x the p of one parameter raised by one.

    The first-order shift is (1 + (m+beta) e) x_m = (1 + (2m+beta) e) p_m + B_m x_{m-1},
    with B_m = (m+beta) e when a is raised and -(1 + (m-1) e) when b is.
    """
    u = list(v)
    carry = 0.0
    for m in range(len(v) - 1, 0, -1):
        carry += v[m]
        d = 1.0 + (m + beta) * e
        u[m] = carry * (1.0 + (2.0 * m + beta) * e) / d
        carry *= ((m + beta) * e if raise_a else -(1.0 + (m - 1.0) * e)) / d
    u[0] = v[0] + carry
    return u


def _coefficients(n, b, e, kmax):
    """c_k = prod_{j<=k} (1 + (n+b+j-1) eps), k = 0..kmax, as the product runs."""
    out = [1.0]
    for k in range(1, kmax + 1):
        out.append(out[-1] * (1.0 + (n + b + k - 1.0) * e))
    return out


@functools.lru_cache(maxsize=64)
def _weights(n, a, b, k):
    """w_j with d^k/dy^k Q_n^(a,b)(y) = sum_j w_j Q_j^(a+g,b+g)((1 + g eps) y), g = k - k mod 3.

    Entry k is c_k Q_{n-k}^(a+k,b+k); writing that in the basis of entry
    g's family undoes, last first, the shifts b -> b+1 and a -> a+1 of
    each order from g to k.  A tuple of n - k + 1 floats.
    """
    g = k - k % 3
    w = [0.0] * (n - k) + [_coefficients(n, b, 1.0 / (a + 1.0), k)[k]]
    for s in range(k - 1, g - 1, -1):
        e = 1.0 / (a + s + 1.0)
        w = _adjoint(w, e, b + s + 1.0, True)
        w = _adjoint(w, e, b + s, False)
    return tuple(w)


def _stack(n, a, b, y, kmax):
    """[Q, Q', ..., Q^(kmax)] of Q_n^(a,b)(y): one recurrence per three entries.

    Entry k is c_k Q_{n-k}^(a+k,b+k)((1 + k eps) y).  Entries 0, 3, ...
    run their own recurrence; the two after each are `_weights` sums of
    its terms, and an entry of degree 0 is the constant c_k.  Every entry
    is a new array, or a numpy float for a 0-d ``y``.
    """
    if not isinstance(kmax, (int, np.integer)) or kmax < 0:
        raise ParameterError(
            f"derivative order must be a non-negative integer, got {kmax!r}"
        )
    y = np.asarray(y, dtype=float)
    e = 1.0 / (a + 1.0)
    coeff = _coefficients(n, b, e, min(kmax, n))
    out = []
    for g in range(0, len(coeff), 3):
        if g == n:
            out.append(np.full_like(y, coeff[g]))
            break
        end = min(g + 3, len(coeff))
        sums = [_weights(n, a, b, k) for k in range(g + 1, min(end, n))]
        group = _value(n - g, a + g, b + g, y * (1.0 + g * e) if g and e else y, sums)
        if g:
            group[0] *= coeff[g]
        if end > n:
            group.append(np.full_like(y, coeff[n]))
        out += group
    if kmax > n:
        out += [np.zeros_like(y) for _ in range(kmax - n)]
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
