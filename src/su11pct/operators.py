"""Pointwise action of kinetic operators and Hamiltonians.

Operators act on functions supplied with analytic derivatives (closed-form
bound states or mapped states), never on grid discretizations; grids enter
only when residuals or inner products are evaluated.

The deformed kinetic term is used in its expanded real form

    pi^2 = -f^2 d^2 - 2 f f' d - (f f''/2 + f'^2/4),

which follows from squaring pi = -i sqrt(f) (d/dq) sqrt(f).  With the raw
member potential it is the flux form -d f^2 d + v, and ``flux_operator``
-f^2 d^2 - 2 f f' d + v is every Hamiltonian, H - E_n at the slots of
``systems.slots_at_energy``, and, gauged, the zero generator.

The imaginary unit is never materialized: pi is reported through the real
first-order ``DiffOperator2`` a = f d + f'/2, (pi fn) = -i a(fn).

An operator's output is a ``SmoothFunction``, which remembers its stacks
on its last few points arrays by the rule of the ``systems`` module
docstring, so a composed operator evaluates its input once per grid.  The
operator remembers its own coefficient stacks by the same rule, so all
its outputs on one grid share them.  ``support`` keeps each interval on
the state it scanned.
"""

import numpy as np

from . import systems
from .errors import NotApplicableError, ParameterError


class SmoothFunction(systems.Differentiable):
    """A function with analytic derivatives from ``derivs_fn(point, order)``.

    ``derivs(p, order)`` returns ``(value, d1, ..., d_order)`` with
    ``order <= max_order``, remembered like a bound state's (the memo rule
    of the ``systems`` module docstring).
    """

    def __init__(self, derivs_fn, max_order=2):
        self._derivs_fn = derivs_fn
        self.max_order = max_order

    def _stack(self, point, order):
        return self._derivs_fn(point, order)


def zero_function():
    """The identically zero function with derivatives of every order."""

    def derivs_fn(point, order):
        return tuple(np.zeros_like(point) for _ in range(order + 1))

    return SmoothFunction(derivs_fn, max_order=99)


def _vanishing_far_out(stack, compute):
    """compute(), set to 0 where the input's value is exactly 0 and the output 0 or NaN.

    Far out, or at the origin, a coefficient or potential may overflow to
    inf while the state underflows to 0; the operator's value there is 0,
    not inf * 0 = NaN.  Near the origin a state's derivatives outlive its
    value (psi ~ q^m, psi^(j) ~ q^(m-j)), so only the value is tested, and
    a finite nonzero output is kept.
    """
    if stack[0].all():
        return compute()
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    zero = stack[0] == 0.0
    return tuple(np.where(zero & ~(np.abs(v) > 0.0), 0.0, v) for v in values)


class DiffOperator2(systems.Remembered):
    """Operator c0(p) + c1(p) d/dp [+ c2(p) d^2/dp^2] with smooth coefficients.

    ``coeffs(p, order)`` returns c0, ..., c_k (k = ``self.order``, 1 or 2)
    as derivative stacks (c, c', ..., c^(order)) at p, in one call; a stack
    may stop early where the rest of its derivatives vanish.  The
    output of ``apply`` carries the derivatives sum_i leibniz(c_i, d^i fn)
    (``systems.leibniz``), so operators compose twice on bound states.
    ``apply`` reads the coefficients through the operator's memo (the
    ``systems`` module docstring).
    """

    def __init__(self, coeffs, order=2):
        self.coeffs = coeffs
        self.order = order  # 1 for first-order operators (no c2)

    def _compute(self, p, order):
        return self.coeffs(p, order)

    def _prefix(self, stacks, order):
        return tuple(c[: order + 1] for c in stacks)

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
                for i, c in enumerate(self._remembered(point, order))
            ]
            return tuple(systems._sum(column) for column in zip(*terms))

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


def flux_operator(spec, slots):
    """-f^2 d^2 - 2 f f' d + v, with v = ``systems.potential`` of the slots."""

    def coeffs(p, order):
        f = systems.deforming(spec, p)
        c0 = systems.potential(spec, slots, p, order)
        c1 = [-2.0 * c for c in systems.leibniz(f, f[1:], order)]
        return (c0, c1, [-c for c in systems.leibniz(f, f, order)])

    return DiffOperator2(coeffs, order=2)


def apply_hamiltonian(spec, member_n, fn, point):
    """(H fn)(point) for the member_n Hamiltonian: the flux operator of its slots."""
    return flux_operator(spec, systems.FAMILIES[spec.family].slots(spec, member_n)).apply(fn)(point)


def eigen_residual(spec, n, grid):
    """sup over the grid of |(H - E_n) psi_n| / max |psi_n|, H - E_n one flux operator.

    Raises NotApplicableError when psi_n is 0 on the whole grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ParameterError("residual grid must not be empty")
    state = systems.bound_state(spec, n)
    residual = flux_operator(spec, systems.slots_at_energy(spec, n)).apply(state)(grid)
    peak = np.max(np.abs(state(grid)))
    if peak == 0.0:
        raise NotApplicableError(f"psi_{n} is 0 on the whole residual grid")
    return float(np.max(np.abs(residual)) / peak)


# a residual grid covers where |psi_n| reaches this share of its peak
RESIDUAL_FLOOR = 1e-5
# points on which ``support`` scans a family's probe interval
PROBE_COUNT = 6001


def _probe(fam):
    p = fam.q_of_x(fam.x_nodes(*fam.probe, PROBE_COUNT))
    p.flags.writeable = False
    return p


# each family's probe, built once: a state remembers its values on it
_PROBES = {family: _probe(fam) for family, fam in systems.FAMILIES.items()}


def default_residual_grid(spec, n, count=200):
    """Interior grid covering where |psi_n| is at least RESIDUAL_FLOOR of its peak.

    The grid is evenly spaced in the Morse coordinate x: geometric on a
    half-line (its states live over several decades), uniform on the Morse
    line.  The floor keeps the grid away from the extreme edges where
    high-order derivative assembly of composed operators loses digits to
    cancellation.
    """
    return support_grid(spec, n, count, RESIDUAL_FLOOR)


def support(spec, n, rel_floor, weight=None):
    """Probe interval (lo, hi) where the n-th state carries its weight.

    The family's probe interval is scanned on PROBE_COUNT points evenly
    spaced in x, like its grids; kept are the points where |psi_n|, or
    weight * psi_n^2 when a measure weight is given, reaches rel_floor of
    its peak.  The state keeps the interval, keyed by (rel_floor, weight),
    for as long as it lives.  Raises NotApplicableError when the scanned
    values peak at the first or last probe point, or keep rel_floor of
    the peak at the last, where the state may carry weight beyond the
    probe; residual grids stop at the first point by design.
    """
    state = systems.bound_state(spec, n)
    key = (rel_floor, weight)
    if key not in state._supports:
        probe = _PROBES[spec.family]
        with np.errstate(over="ignore"):
            v = state(probe)
            v = np.abs(v) if weight is None else weight(probe) * v**2
        v = np.where(np.isfinite(v), v, 0.0)
        peak = int(np.argmax(v))
        keep = np.nonzero(v >= rel_floor * v[peak])[0]
        if peak == 0 or keep[-1] == v.size - 1:  # the state may carry weight past the probe
            end = f"keeps {rel_floor:g} of it at the far end" if 0 < peak < v.size - 1 else "an end"
            raise NotApplicableError(
                f"state {n} peaks at {probe[peak]:g}, {end} of the probe interval "
                f"[{probe[0]:g}, {probe[-1]:g}], so its support would be clipped"
            )
        state._supports[key] = probe[keep[0]], probe[keep[-1]]
    return state._supports[key]


def support_grid(spec, n, count, rel_floor, weight=None):
    """count points over the support interval, evenly spaced in x."""
    systems._check_index(count, "count must be at least 1", 1)
    fam = systems.FAMILIES[spec.family]
    return fam.q_of_x(fam.x_nodes(*support(spec, n, rel_floor, weight), count))
