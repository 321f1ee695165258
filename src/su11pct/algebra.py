"""su(1,1) and deformed su(1,1) generator actions on bound states.

Three realizations exist per mass kind: the oscillator triple (spectrum
generating, ladder steps change the energy) and the Morse and Coulomb
triples (potential algebras, ladder steps move along the hierarchy at
fixed energy).  The zero generator is a gauged second-order differential
operator proportional to (H - shift); the deformed ladder generators are
first-order shift cores A_[+-] dressed with scalar factors built from the
delta spectrum.

The three realizations are one algebra, and so are the two mass kinds:
its scalar data depend only on the pair (pb, w) of ``systems.invariants``
(pb the second Jacobi parameter, w = alpha (2pa + 1); la and 2c at
constant mass) through pb and eps = alpha/w = 1/(2pa + 1), which is 0 at
constant mass.  With s = 2n + pb + 1 and c-(n) = c+(n - 1) throughout:

    mu_n = s/2 + (eps/2)((2n + 1)(2n + 2pb + 1) + 1/2 - s),
    Casimir = (1 + eps)(1 - 3 eps)(pb^2 - 1)/4 - 9 eps^2/16,
    c+(n) = sqrt((n + 1)(n + pb + 1)(1 + (2n + 1) eps)(1 + (2n + 2pb + 1) eps)),

so at constant mass mu_n = n + (la + 1)/2 and c+(n) = sqrt((n + 1)(n + la + 1)).
Only the deformed delta spectrum delta_n = 2n + pa + pb + 1 reads pa itself.

The operators are formulas in the coordinate function g of
``systems.FAMILIES`` (r^2, e^-x or R) and sigma = g g''/g'^2, which is
constant (1/2, 1 or 0) and is the family's measure exponent.
The zero generator is (2 g/(w g'^2)) (H - shift), w = ``w_const`` and H
the ``operators.flux_operator`` of the slots with a1 set to the member-free
gamma = alpha (k - k^2/2 - 5/8), k = 1 - sigma.  On psi_n it is
(2/w)(gamma - a1(n)), so a member's slot is a1(n) = gamma - (w/2) mu_n:
E_n = 2 w mu_n for the oscillator.  The constant-mass ladders are
K+- = -K0 + (c/2) g -+ ((g/g') d/dq + sigma/2), with y = c g the Laguerre
argument.  The deformed shift core is A_[+-] = c0 + c1 d/dq with
c1 = -16 alpha g/g' and c0 = -8 alpha sigma - 4 alpha (1 -+ delta_n) t
+ 4 alpha (pa^2 - pb^2) / (1 +- delta_n), where t = 1 - 2/f.  One core for
both mass kinds would freeze the constant-mass commutator checks to a sector.
The operators read the linear g/g' from the table's ``g_ratio``, because
the oscillator's g = r^2 underflows below r of about 1.5e-154.

Each operator is an ``operators.DiffOperator2`` whose ``coeffs(p, order)``
returns derivative stacks: the zero generator's are the flux operator's
times the gauge by Leibniz; the shift core's c0 is affine in the stack of
t (``systems.jacobi_argument``).

Spectral-delta convention: delta is a square-root functional of the weight
generator and is never applied as an operator root.  Acting on the bound
state ladder it reduces to the scalar delta_n of the state a factor meets:
the occurrences inside A and the outer factor of the "A on the left" form
see the input state (delta_n), while the outer factor of the "A on the
right" form sees the shifted output (delta_n +- 2).  Both orderings are
implemented; their agreement on eigenstates is exercised by the tests.
The minus action on n = 0 is short-circuited to the zero function before
any singular factor is formed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import measures, operators, systems
from .errors import ParameterError

PLUS, MINUS, ZERO = "plus", "minus", "zero"


@dataclass(frozen=True)
class GeneratorSet:
    """One su(1,1) realization: the family spec plus derived constants."""

    spec: object

    @property
    def family(self):
        return self.spec.family

    @property
    def alpha(self):
        return self.spec.alpha

    @property
    def deformed(self):
        return self.spec.deformed

    @property
    def w_const(self):
        """Structure-relation denominator: alpha (2pa + 1), or 2c at constant mass."""
        return systems.invariants(self.spec)[1]

    @property
    def shift(self):
        """Fixed energy of the Morse/Coulomb hierarchy; 0 for the oscillator."""
        return 0.0 if self.family == "ho" else systems.energy(self.spec, 0)

    @property
    def q_const(self):
        """Numerator pa^2 - pb^2 of the 1/(1 +- delta) term in the shift cores."""
        pa, pb = systems.jacobi_params(self.spec)
        return (pa - pb) * (pa + pb)


def generator_set(spec):
    """The su(1,1) realization attached to a family spec."""
    return GeneratorSet(spec)


@dataclass(frozen=True)
class UnirrepLabel:
    """Lowest weight, weight eigenvalues and Casimir eigenvalue."""

    k: float
    mu_of_n: object
    casimir: float


@dataclass(frozen=True)
class DeltaSpectrum:
    """Closed-form delta eigenvalues 2n + a + b + 1 of a deformed family."""

    delta_of_n: object


def _pb_eps(gs):
    """pb and eps = alpha/w of the realization; eps = 0 at constant mass."""
    pb, w = systems.invariants(gs.spec)
    return pb, gs.alpha / w


def unirrep(gs):
    """Unirrep data of the realization.

    k is always the lowest weight mu(0).  The weights tend to
    n + (pb + 1)/2 as alpha -> 0, where eps = 1/(2pa + 1) goes to 0.
    """
    pb, eps = _pb_eps(gs)
    half = 0.5 * (pb + 1.0)

    def mu(n):
        s = 2.0 * n + pb + 1.0
        return n + half + 0.5 * eps * ((2.0 * n + 1.0) * (2.0 * n + 2.0 * pb + 1.0) + 0.5 - s)

    cas = (1.0 + eps) * (1.0 - 3.0 * eps) * half * (half - 1.0) - 0.5625 * eps * eps
    return UnirrepLabel(k=mu(0), mu_of_n=mu, casimir=cas)


def delta_spectrum(gs):
    """Closed-form delta eigenvalues; requires alpha > 0."""
    pa, pb = systems.jacobi_params(gs.spec)
    base = pa + pb + 1.0
    return DeltaSpectrum(delta_of_n=lambda n: 2.0 * n + base)


def delta_eigenvalue(gs, n):
    """delta_n through the square-root definition on the weight eigenvalue.

    delta_n^2 = 2 (2pa + 1) mu_n + pa^2 + pb^2 - 1/2.  Must agree with the
    closed form of ``delta_spectrum`` to rounding.
    """
    pa, pb = systems.jacobi_params(gs.spec)
    mu = unirrep(gs).mu_of_n(n)
    return math.sqrt(2.0 * (2.0 * pa + 1.0) * mu + pa * pa + pb * pb - 0.5)


def ladder_coefficient(gs, n, direction):
    """Closed-form matrix element of the plus or minus generator at step n."""
    if n < 0:
        raise ParameterError("n must be non-negative")
    if direction not in (PLUS, MINUS):
        raise ParameterError(f"direction must be 'plus' or 'minus', got {direction}")
    if direction == MINUS:
        if n == 0:
            return 0.0
        n -= 1  # c-(n) = c+(n - 1)
    pb, eps = _pb_eps(gs)
    prod = (n + 1.0) * (n + pb + 1.0) * (1.0 + (2.0 * n + 1.0) * eps)
    return math.sqrt(prod * (1.0 + (2.0 * n + 2.0 * pb + 1.0) * eps))


# ---------------------------------------------------------------------------
# operator realizations
# ---------------------------------------------------------------------------


def _zero_operator(gs):
    """(2 g/(w g'^2)) (H - shift), H the flux operator with the member-free a1."""
    w = gs.w_const
    fam = systems.FAMILIES[gs.family]
    k = 1.0 - fam.sigma
    a0, _, a2 = fam.slots(gs.spec, 0)
    gamma = gs.alpha * (k - 0.5 * k * k - 0.625)
    flux = operators.flux_operator(gs.spec, (a0, gamma, a2), gs.shift).coeffs
    slope = 2.0 * (1.0 - 2.0 * fam.sigma) / w

    def coeffs(p, order):
        p = np.asarray(p, dtype=float)
        _, g1, g2 = fam.g(p)[:3]
        # the gauge 2 g/(w g'^2) and its derivatives 2 (1 - 2 sigma)/(w g')
        # and -2 (1 - 2 sigma) g''/(w g'^2)
        gauge = (2.0 / w * fam.g_ratio(p) / g1, slope / g1, -slope * (g2 / g1) / g1)
        return tuple(systems.leibniz(gauge, c, order) for c in flux(p, order))

    return operators.DiffOperator2(coeffs, order=2)


def _const_ladder_operator(gs, direction):
    """K+- = -K0 + (c/2) g -+ ((g/g') d + sigma/2) at constant mass, y = c g."""
    sgn = 1.0 if direction == PLUS else -1.0
    fam = systems.FAMILIES[gs.family]
    half_c = 0.25 * gs.w_const
    zero = _zero_operator(gs).coeffs

    def coeffs(p, order):
        p = np.asarray(p, dtype=float)
        k0, k1, k2 = zero(p, order)
        lin = (fam.g_ratio(p), 1.0 - fam.sigma, 0.0)  # g/g' and its derivatives
        c0 = [half_c * g - k for g, k in zip(fam.g(p), k0)]
        c0[0] = c0[0] - sgn * 0.5 * fam.sigma
        return (c0, [-k - sgn * c for k, c in zip(k1, lin)], [-k for k in k2])

    return operators.DiffOperator2(coeffs, order=2)


def _shift_core_operator(gs, direction, delta_n, scale=1.0):
    """The first-order core A_[+-] with delta frozen to the input eigenvalue."""
    spec, a = gs.spec, gs.alpha
    sgn = 1.0 if direction == PLUS else -1.0
    fam = systems.FAMILIES[gs.family]
    c0_const = -8.0 * a * fam.sigma + 4.0 * a * gs.q_const / (1.0 + sgn * delta_n)
    c1_slope = -16.0 * a * (1.0 - fam.sigma)  # g g''/g'^2 = sigma, so g/g' is linear
    t_coef = -4.0 * a * (1.0 - sgn * delta_n)

    def coeffs(p, order):
        p = np.asarray(p, dtype=float)
        t = systems.jacobi_argument(systems.deforming(spec, p), order)
        c0 = [scale * (c0_const + t_coef * t[0])] + [scale * t_coef * tk for tk in t[1:]]
        return (c0, (scale * (-16.0 * a) * fam.g_ratio(p), scale * c1_slope))

    return operators.DiffOperator2(coeffs, order=1)


def apply_shift_core(gs, direction, state):
    """A_[+-] alone (delta frozen to the state), without outer factors.

    On the lowest state the minus core annihilates; this entry point lets
    that be checked directly since the public minus action short-circuits.
    """
    op = _shift_core_operator(gs, direction, delta_spectrum(gs).delta_of_n(state.n))
    return op.apply(state)


def apply_generator_fn(gs, which, fn, n, ordering="left"):
    """Generator action on a function known to live in the sector of psi_n."""
    if which == ZERO:
        return _zero_operator(gs).apply(fn)
    if which not in (PLUS, MINUS):
        raise ParameterError(f"which must be 'zero', 'plus' or 'minus', got {which}")
    if not gs.deformed:
        return _const_ladder_operator(gs, which).apply(fn)
    if which == MINUS and n == 0:
        return operators.zero_function()
    sgn = 1.0 if which == PLUS else -1.0
    delta_n = delta_spectrum(gs).delta_of_n(n)
    if ordering == "left":
        outer = (delta_n + sgn) * math.sqrt((delta_n + 2.0 * sgn) / delta_n)
    elif ordering == "right":
        d_out = delta_n + 2.0 * sgn
        outer = (d_out - sgn) * math.sqrt(d_out / (d_out - 2.0 * sgn))
    else:
        raise ParameterError(f"ordering must be 'left' or 'right', got {ordering}")
    scale = sgn * (1.0 / (8.0 * gs.w_const)) * outer
    op = _shift_core_operator(gs, which, delta_n, scale=scale)
    return op.apply(fn)


def apply_generator(gs, which, state, ordering="left"):
    """Apply the zero/plus/minus generator to a bound state of the family."""
    if state.spec != gs.spec:
        raise ParameterError("state does not belong to this generator set")
    return apply_generator_fn(gs, which, state, state.n, ordering=ordering)


def matrix_element_numeric(gs, n, direction, rtol=1e-10):
    """<state_{n+-1}, (generator) state_n> under the family measure.

    For the minus direction at n = 0 there is no target state; the norm of
    the generator output is returned instead (zero for an exact
    annihilation).
    """
    meas = measures.family_measure(gs.family)
    state = systems.bound_state(gs.spec, n)
    out = apply_generator(gs, direction, state)
    if direction == MINUS and n == 0:
        return measures.norm(meas, out, rtol)
    target = systems.bound_state(gs.spec, n + (1 if direction == PLUS else -1))
    return measures.inner_product(meas, target, out, rtol)


def casimir_apply(gs, state, points):
    """The displayed Casimir combination applied to a bound state, pointwise.

    -K+ K- + K0^2 - (1 + 2 eps (2n + pb - 3/4)) K0
    - (eps/4)(1 + 2 eps (2n + pb + 1/2)), with eps = alpha/w; at constant
    mass (eps = 0) it is -K+ K- + K0 (K0 - 1).  Deformed, delta is frozen
    per sector as each factor meets its input.
    """
    n = state.n
    minus_out = apply_generator(gs, MINUS, state)
    if n == 0 and gs.deformed:
        pm = np.zeros_like(np.asarray(points, dtype=float))
    else:
        pm = apply_generator_fn(gs, PLUS, minus_out, n - 1)(points)
    zero_out = apply_generator(gs, ZERO, state)
    zz = apply_generator_fn(gs, ZERO, zero_out, n)(points)
    z = zero_out(points)
    v = state(points)
    pb, eps = _pb_eps(gs)
    lin = 1.0 + 2.0 * eps * (2.0 * n + pb - 0.75)
    const = 0.25 * eps * (1.0 + 2.0 * eps * (2.0 * n + pb + 0.5))
    return -pm + zz - lin * z - const * v


def pointwise_grid(spec, n, count=120, density_floor=1e-3):
    """Interior grid for composed-operator identities.

    Covers the region where the measure-weighted density w(p) psi_n(p)^2
    stays above a relative floor.  Double applications consume fourth
    derivatives and gauge factors (e^x, R) that amplify rounding at the
    domain extremes; restricting to where the state carries its norm keeps
    every point well conditioned for all six families.
    """
    weight = measures.family_measure(spec.family).weight
    return operators.support_grid(spec, n, count, density_floor, weight)


@dataclass(frozen=True)
class ResidualRecord:
    """One named scalar identity residual at quantum number n."""

    name: str
    n: int
    value: float


def commutator_residuals(gs, n_max, pointwise_n_max=2):
    """Scalar and pointwise residuals of the structure relations.

    With eps = alpha/w (0 at constant mass): the weight spacings
    mu_{n+-1} - mu_n = +-(1 + 2 eps (2n + pb + 1/2 +- 1)) and the bracket
    c-_n c+_{n-1} - c+_n c-_{n+1} = -(1 + 2 eps (2n + pb + 1/2))(2 mu_n + eps/2),
    which at constant mass read 1 and -2 mu_n.  Pointwise rows apply the
    generators twice and compare against the right sides on a grid.
    """
    if n_max < 1:
        raise ParameterError("n_max must be at least 1")
    mu = unirrep(gs).mu_of_n
    pb, eps = _pb_eps(gs)

    def step(n, sgn):  # mu_{n+sgn} - mu_n = sgn * step
        return 1.0 + 2.0 * eps * (2.0 * n + pb + 0.5 + sgn)

    def bracket(n):
        return -(1.0 + 2.0 * eps * (2.0 * n + pb + 0.5)) * (2.0 * mu(n) + 0.5 * eps)

    recs = []

    def c(n, direction):
        return ladder_coefficient(gs, n, direction)

    for n in range(n_max + 1):
        recs.append(ResidualRecord("mu_spacing_up", n, abs(mu(n + 1) - mu(n) - step(n, 1.0))))
        if n >= 1:
            recs.append(
                ResidualRecord("mu_spacing_down", n, abs(mu(n - 1) - mu(n) + step(n, -1.0)))
            )
        lhs = (c(n, MINUS) * c(n - 1, PLUS) if n >= 1 else 0.0) - c(n, PLUS) * c(n + 1, MINUS)
        recs.append(ResidualRecord("plus_minus_bracket", n, abs(lhs - bracket(n))))

    for n in range(min(pointwise_n_max, n_max) + 1):
        state = systems.bound_state(gs.spec, n)
        pts = pointwise_grid(gs.spec, n)
        scale = float(np.max(np.abs(state(pts))))
        for which, sgn in ((PLUS, 1.0), (MINUS, -1.0)):
            ladder_out = apply_generator(gs, which, state)
            lhs = apply_generator_fn(gs, ZERO, ladder_out, n + int(sgn))(pts)
            zero_out = apply_generator(gs, ZERO, state)
            lhs = lhs - apply_generator_fn(gs, which, zero_out, n)(pts)
            rhs = sgn * step(n, sgn) * ladder_out(pts)
            recs.append(
                ResidualRecord(
                    f"comm_zero_{which}_pointwise",
                    n,
                    float(np.max(np.abs(lhs - rhs)) / scale),
                )
            )
        minus_out = apply_generator(gs, MINUS, state)
        plus_out = apply_generator(gs, PLUS, state)
        pm = (
            apply_generator_fn(gs, PLUS, minus_out, n - 1)(pts)
            if (n >= 1 or not gs.deformed)
            else np.zeros_like(np.asarray(pts, dtype=float))
        )
        mp = apply_generator_fn(gs, MINUS, plus_out, n + 1)(pts)
        rhs = bracket(n) * state(pts)
        recs.append(
            ResidualRecord(
                "comm_plus_minus_pointwise",
                n,
                float(np.max(np.abs(pm - mp - rhs)) / scale),
            )
        )
    return recs


def annihilation_residual(gs, rtol=1e-10):
    """Norm ratio ||minus-action on the lowest state|| / ||lowest state||.

    Constant mass evaluates the full minus generator.  Deformed families
    evaluate the shift core alone (the public minus action is
    short-circuited to zero on n = 0 by construction).
    """
    meas = measures.family_measure(gs.family)
    state = systems.bound_state(gs.spec, 0)
    if gs.deformed:
        out = apply_shift_core(gs, MINUS, state)
    else:
        out = apply_generator(gs, MINUS, state)
    return measures.norm(meas, out, rtol) / measures.norm(meas, state, rtol)
