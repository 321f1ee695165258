"""Pointwise action of kinetic operators and Hamiltonians.

Operators act on functions supplied with analytic derivatives (closed-form
bound states or mapped states), never on grid discretizations; grids enter
only when residuals or inner products are evaluated.

The deformed kinetic term is used in its expanded real form

    pi^2 = -f^2 d^2 - 2 f f' d - (f f''/2 + f'^2/4),

which follows from squaring pi = -i sqrt(f) (d/dq) sqrt(f).  Combined with
the raw member potential this is the flux form -d f^2 d + v_eff, so the
Hamiltonian action reduces to -f^2 d2 - 2 f f' d1 + v_eff * value.

The imaginary unit is never materialized: pi itself is reported through
the real function a = f*fn' + (f'/2)*fn with (pi fn) = -i*a.
"""

import math

import numpy as np

from . import systems
from .errors import ParameterError


class SmoothFunction:
    """A function with analytic derivatives on an interval domain.

    ``derivs(p, order)`` returns ``(value, d1, ..., d_order)`` with
    ``order <= max_order``; calling the object returns the plain value and
    ``evaluator`` the (value, d1, d2) triple.
    """

    def __init__(self, derivs_fn, domain=(-math.inf, math.inf), max_order=2):
        self._derivs_fn = derivs_fn
        self.domain = domain
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


def zero_function(domain=(-math.inf, math.inf)):
    """The identically zero function with derivatives of every order."""

    def derivs_fn(point, order):
        z = np.zeros_like(np.asarray(point, dtype=float))
        if z.ndim == 0:
            return tuple(0.0 for _ in range(order + 1))
        return tuple(z.copy() for _ in range(order + 1))

    return SmoothFunction(derivs_fn, domain=domain, max_order=99)


class DiffOperator2:
    """Operator c0(p) + c1(p) d/dp + c2(p) d^2/dp^2 with smooth coefficients.

    ``coeffs(p, m)`` must return the m-th derivatives (m = 0, 1, 2) of the
    three coefficient functions as a tuple (c0^(m), c1^(m), c2^(m)).  The
    output of ``apply`` again carries analytic derivatives, obtained from
    the Leibniz rule, so operators can be composed twice on bound states.
    """

    def __init__(self, coeffs, order=2):
        self.coeffs = coeffs
        self.order = order  # 1 for first-order operators (c2 identically 0)

    def apply(self, fn, domain):
        out_max = min(2, fn.max_order - self.order)
        if out_max < 0:
            raise ParameterError("input function lacks the required derivatives")

        def derivs_fn(point, order):
            d = fn.derivs(point, order + self.order)
            c0, c1, c2 = self.coeffs(point, 0)
            out = [c0 * d[0] + c1 * d[1] + (c2 * d[2] if self.order == 2 else 0.0)]
            if order >= 1:
                e0, e1, e2 = self.coeffs(point, 1)
                val = e0 * d[0] + (c0 + e1) * d[1] + (c1 + e2) * d[2]
                if self.order == 2:
                    val = val + c2 * d[3]
                out.append(val)
            if order >= 2:
                e0, e1, e2 = self.coeffs(point, 1)
                f0, f1, f2 = self.coeffs(point, 2)
                val = (
                    f0 * d[0]
                    + (2.0 * e0 + f1) * d[1]
                    + (c0 + 2.0 * e1 + f2) * d[2]
                    + (c1 + 2.0 * e2) * d[3]
                )
                if self.order == 2:
                    val = val + c2 * d[4]
                out.append(val)
            return tuple(out)

        return SmoothFunction(derivs_fn, domain=domain, max_order=out_max)


def apply_pi(spec, fn, point):
    """Deformed momentum action, reported without the imaginary unit.

    Returns the pair ``(a, da)`` where (pi fn)(point) = -i * a with
    a = f*fn' + (f'/2)*fn, and da is the derivative of the function a at
    the same point.  Applying pi twice therefore gives
    (pi^2 fn)(point) = -(f*da + (f'/2)*a).
    """
    f, f1, f2, _, _ = systems.deforming(spec, point)
    v, d1, d2 = fn.derivs(point, 2)
    a = f * d1 + 0.5 * f1 * v
    da = f * d2 + 1.5 * f1 * d1 + 0.5 * f2 * v
    return (a, da)


def apply_pi_squared(spec, fn, point):
    """(pi^2 fn)(point) via two momentum applications."""
    f, f1, _, _, _ = systems.deforming(spec, point)
    a, da = apply_pi(spec, fn, point)
    return -(f * da + 0.5 * f1 * a)


def apply_hamiltonian(spec, member_n, fn, point):
    """(H fn)(point) for the member_n Hamiltonian of the family.

    Uses the flux form -f^2 d2 - 2 f f' d1 + v_eff * value, which equals
    pi^2 + v_raw pointwise.
    """
    _, v_eff, f, f1, _ = systems.mass_and_potential(spec, member_n, point)
    v, d1, d2 = fn.derivs(point, 2)
    return -f * f * d2 - 2.0 * f * f1 * d1 + v_eff * v


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
