"""Pointwise action of kinetic operators and Hamiltonians.

Operators act on functions supplied with analytic derivatives (closed-form
bound states or mapped states), never on grid discretizations; grids enter
only when residuals or inner products are evaluated.

The deformed kinetic term is used in its expanded real form

    pi^2 = -f^2 d^2 - 2 f f' d - (f f''/2 + f'^2/4),

which follows from squaring pi = -i sqrt(f) (d/dq) sqrt(f).  With the raw
member potential it is the flux form -d f^2 d + v, and ``flux_operator``
-f^2 d^2 - 2 f f' d + v - shift is every Hamiltonian and, gauged, the
zero generator.

The imaginary unit is never materialized: pi is reported through the real
first-order ``DiffOperator2`` a = f d + f'/2, (pi fn) = -i a(fn).
"""

import numpy as np

from . import systems
from .errors import ParameterError


class SmoothFunction:
    """A function with analytic derivatives.

    ``derivs(p, order)`` returns ``(value, d1, ..., d_order)`` with
    ``order <= max_order``; calling the object returns the plain value and
    ``evaluator`` the (value, d1, d2) triple.
    """

    def __init__(self, derivs_fn, max_order=2):
        self._derivs_fn = derivs_fn
        self.max_order = max_order

    def derivs(self, point, order=2):
        if order > self.max_order:
            raise ParameterError(
                f"function supports derivatives up to order {self.max_order}"
            )
        return self._derivs_fn(point, order)

    def evaluator(self, point):
        return self.derivs(point, 2)

    def __call__(self, point):
        return self.derivs(point, 0)[0]


def zero_function():
    """The identically zero function with derivatives of every order."""

    def derivs_fn(point, order):
        z = np.zeros_like(np.asarray(point, dtype=float))
        if z.ndim == 0:
            return tuple(0.0 for _ in range(order + 1))
        return tuple(z.copy() for _ in range(order + 1))

    return SmoothFunction(derivs_fn, max_order=99)


def _vanishing_far_out(stack, compute):
    """compute(), set to 0 wherever every entry of the input stack is exactly 0.

    Far out a coefficient or potential may overflow to inf while the state
    underflows to 0; the operator's value there is 0, not inf * 0 = NaN.
    """
    if np.asarray(stack[0]).all():
        return compute()
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    zero = np.logical_and.reduce([np.asarray(s) == 0.0 for s in stack])
    return tuple(np.where(zero, 0.0, v)[()] for v in values)


class DiffOperator2:
    """Operator c0(p) + c1(p) d/dp [+ c2(p) d^2/dp^2] with smooth coefficients.

    ``coeffs(p, order)`` returns c0, ..., c_k (k = ``self.order``, 1 or 2)
    as derivative stacks (c, c', ..., c^(order)) at p, in one call; a stack
    may stop early where the rest of its derivatives vanish.  The
    output of ``apply`` carries the derivatives sum_i leibniz(c_i, d^i fn)
    (``systems.leibniz``), so operators compose twice on bound states.
    """

    def __init__(self, coeffs, order=2):
        self.coeffs = coeffs
        self.order = order  # 1 for first-order operators (no c2)

    def apply(self, fn):
        out_max = min(2, fn.max_order - self.order)
        if out_max < 0:
            raise ParameterError("input function lacks the required derivatives")

        def derivs_fn(point, order):
            d = fn.derivs(point, order + self.order)
            return _vanishing_far_out(d, lambda: combine(point, order, d))

        def combine(point, order, d):
            terms = [
                systems.leibniz(c, d[i:], order)
                for i, c in enumerate(self.coeffs(point, order))
            ]
            return tuple(sum(column) for column in zip(*terms))

        return SmoothFunction(derivs_fn, max_order=out_max)


def _pi_operator(spec):
    """a = f d + f'/2, with (pi fn) = -i a(fn)."""

    def coeffs(p, order):
        f = systems.deforming(spec, p)
        return ([0.5 * fk for fk in f[1 : order + 2]], f[: order + 1])

    return DiffOperator2(coeffs, order=1)


def apply_pi(spec, fn, point):
    """Deformed momentum action, reported without the imaginary unit.

    Returns the pair ``(a, da)`` where (pi fn)(point) = -i * a with
    a = f*fn' + (f'/2)*fn, and da is the derivative of the function a at
    the same point.
    """
    return _pi_operator(spec).apply(fn).derivs(point, 1)


def apply_pi_squared(spec, fn, point):
    """(pi^2 fn)(point) = -a(a(fn))(point): two momentum applications."""
    op = _pi_operator(spec)
    return -op.apply(op.apply(fn))(point)


def flux_operator(spec, slots, shift=0.0):
    """-f^2 d^2 - 2 f f' d + v - shift, with v = ``systems.potential`` of the slots."""

    def coeffs(p, order):
        p = np.asarray(p, dtype=float)
        f = systems.deforming(spec, p)
        c0 = systems.potential(spec, slots, p, order)
        c0[0] = c0[0] - shift
        c1 = [-2.0 * c for c in systems.leibniz(f, f[1:], order)]
        return (c0, c1, [-c for c in systems.leibniz(f, f, order)])

    return DiffOperator2(coeffs, order=2)


def apply_hamiltonian(spec, member_n, fn, point):
    """(H fn)(point) for the member_n Hamiltonian: the flux operator of its slots."""
    return flux_operator(spec, systems.FAMILIES[spec.family].slots(spec, member_n)).apply(fn)(point)


def eigen_residual(spec, n, grid):
    """sup over the grid of |H psi_n - E_n psi_n| / max |psi_n|."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ParameterError("residual grid must not be empty")
    state = systems.bound_state(spec, n)
    h = apply_hamiltonian(spec, n, state, grid)
    v = state(grid)
    scale = np.max(np.abs(v))
    return float(np.max(np.abs(h - state.energy * v)) / scale)


def default_residual_grid(spec, n, count=200, rel_floor=1e-5):
    """Interior grid covering where |psi_n| is at least rel_floor of its peak.

    Half-line families get geometric spacing (their states live over several
    decades), the Morse line a uniform one.  The floor keeps the grid away
    from the extreme edges where high-order derivative assembly of composed
    operators loses digits to cancellation.
    """
    return support_grid(spec, n, count, rel_floor)


def support(spec, n, rel_floor, weight=None, probe_count=6001):
    """Probe interval (lo, hi) where the n-th state carries its weight.

    The family's probe interval is scanned on probe_count points, spaced
    like its grids; kept are the points where |psi_n|, or
    weight * psi_n^2 when a measure weight is given, reaches rel_floor of
    its peak.
    """
    fam = systems.FAMILIES[spec.family]
    probe = fam.spacing(*fam.probe, probe_count)
    with np.errstate(over="ignore"):
        v = systems.bound_state(spec, n)(probe)
        v = np.abs(v) if weight is None else weight(probe) * v**2
    v = np.where(np.isfinite(v), v, 0.0)
    keep = np.nonzero(v >= rel_floor * np.max(v))[0]
    return probe[keep[0]], probe[keep[-1]]


def support_grid(spec, n, count, rel_floor, weight=None):
    """count points over the support interval, spaced like the family's grids."""
    return systems.FAMILIES[spec.family].spacing(*support(spec, n, rel_floor, weight), count)
