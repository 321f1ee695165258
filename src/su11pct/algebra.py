"""su(1,1) and deformed su(1,1) generator actions on bound states.

Three realizations exist per mass kind: the oscillator triple (spectrum
generating, ladder steps change the energy) and the Morse and Coulomb
triples (potential algebras, ladder steps move along the hierarchy at
fixed energy).  The zero generator is a gauged second-order differential
operator proportional to (H - E); the ladder generators are one
first-order core dressed with a scalar factor, at both mass kinds.

The three realizations are one algebra, and so are the two mass kinds:
its scalar data depend only on the pair (pb, w) of ``systems.invariants``
(pb the second Jacobi parameter, w = alpha (2pa + 1), with pa = inf at
constant mass) through pb and eps = alpha/w = 1/(2pa + 1), which is 0 at
constant mass.  With s = 2n + pb + 1 and c-(n) = c+(n - 1) throughout:

    mu_n = s/2 + (eps/2)((2n + 1)(2n + 2pb + 1) + 1/2 - s),
    Casimir = (1 + eps)(1 - 3 eps)(pb^2 - 1)/4 - 9 eps^2/16,
    c+(n) = sqrt((n + 1)(n + pb + 1)(1 + (2n + 1) eps)(1 + (2n + 2pb + 1) eps)),

so at constant mass mu_n = n + (pb + 1)/2 and c+(n) = sqrt((n + 1)(n + pb + 1)).
Only the deformed delta spectrum delta_n = 2n + pa + pb + 1 reads pa itself.

The operators are formulas in the coordinate function g of
``systems.FAMILIES`` (r^2, e^-x or R) and sigma = g g''/g'^2, which is
constant (1/2, 1 or 0) and is the family's measure exponent.
The zero generator is (2 g/(w g'^2)) (H - E), w = ``w_const`` and H - E
the ``operators.flux_operator`` of member 0's ``systems.slots_at_energy``
with a1, the oscillator's energy slot, set to the member-free
gamma = alpha (k - k^2/2 - 5/8), k = 1 - sigma.  On psi_n it is
(2/w)(gamma - a1(n)), so a1(n) = gamma - (w/2) mu_n: E_n = 2 w mu_n for
the oscillator.

The ladder generators, at either mass kind, are one first-order core on
the sector of psi_n, written in (pb, w, alpha):

    K+-_n = k_n [b0 + b1 g/f - (g/g') d/dq],
    d_n = alpha delta_n = (w + alpha (4n + 2pb + 1))/2,
    b0 = -sigma/2 + (alpha (1 - pb^2 - s^2) - (w - alpha) s)/(4 (alpha +- d_n)),
    b1 = (+-d_n - alpha)/2,
    k_n = +-(2/w)(d_n +- alpha) sqrt((d_n +- 2 alpha)/d_n),

with s = 2n + pb + 1 as above and g/f = (1 - 1/f)/alpha
(``systems.g_over_f``), which is g at alpha = 0.

Derivation: the deformed shift core of Quesne (J. Phys. A 40 (2007)
13107) is A_[+-] = c0 - 16 alpha (g/g') d/dq with
c0 = -8 alpha sigma + 4 alpha (pa^2 - pb^2)/(1 +- delta_n)
- 4 alpha (1 -+ delta_n) t and t = 1 - 2/f = -1 + 2 alpha g/f.  Over the
common denominator 1 +- delta_n the pa^2 terms cancel analytically,
pa^2 - pb^2 + 1 - delta_n^2 = 1 - pb^2 - s^2 - 2 pa s with
2 alpha pa = w - alpha, so A_[+-] = 16 alpha [b0 + b1 g/f - (g/g') d/dq],
and 16 alpha times the outer factor
+-(delta_n +- 1) sqrt((delta_n +- 2)/delta_n)/(8 w) is k_n.  Nothing of
order 1/alpha is left to cancel.  At alpha = 0, where d_n = w/2 and
k_n = +-1, the core is -mu_n + (w/4) g -+ (sigma/2 + (g/g') d/dq): the
constant-mass K+- = -K0 + (w/4) g -+ ((g/g') d + sigma/2) with K0
replaced by its eigenvalue mu_n.  Freezing the sector loses nothing: every generator
application names the n of the sector its input lives in, and K0 stays
the genuine second-order gauged H, so the commutator and Casimir checks
still compose two different operators.  The operators read the linear
g/g' from the table's ``g_ratio``, because the oscillator's g = r^2
underflows below r of about 1.5e-154.

Each operator is an ``operators.DiffOperator2`` whose ``coeffs(p, order)``
returns derivative stacks: the zero generator's are the flux operator's
times the gauge by Leibniz; the ladder core's c0 is affine in the stack
of g/f.  A realization builds each operator once, the zero generator and
each (direction, n, scale) ladder core, and keeps it on its
``GeneratorSet``, so the coefficient stacks an operator remembers serve
every application on a grid: within one report, all its sections.  The
coefficient closures hold the spec and numbers, never the set, so a set
and what it built are freed as soon as the last caller lets go, with no
cycle for the collector to find.

Spectral-delta convention: delta is a square-root functional of the weight
generator and is never applied as an operator root.  Acting on the bound
state ladder it reduces to the scalar delta_n of the state a factor meets:
the occurrences inside the core and the outer factor of the "A on the
left" form see the input state (delta_n).  The "A on the right" form,
whose outer factor sees the shifted output d = delta_n +- 2, gives the
same scalar: (d -+ 1) sqrt(d/(d -+ 2)) = (delta_n +- 1) sqrt((delta_n +- 2)/delta_n).
The minus action on n = 0 is short-circuited to the zero function before
any singular factor is formed.
"""

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from . import measures, operators, systems
from .errors import ParameterError

PLUS, MINUS, ZERO = "plus", "minus", "zero"


@dataclass(frozen=True)
class GeneratorSet:
    """One su(1,1) realization: the family spec plus derived constants.

    The constants read ``systems.invariants`` once per realization.
    """

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

    @cached_property
    def invariants(self):
        """The pair (pb, w) of ``systems.invariants``."""
        return systems.invariants(self.spec)

    @property
    def w_const(self):
        """Structure-relation denominator: alpha (2pa + 1), or 2c at constant mass."""
        return self.invariants[1]

    @cached_property
    def pb_eps(self):
        """pb and eps = alpha/w of the realization; eps = 0 at constant mass."""
        pb, w = self.invariants
        return pb, self.alpha / w

    @cached_property
    def _operators(self):
        """The operators of ``_kept`` builders made so far, by (builder, arguments)."""
        return {}


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


def unirrep(gs):
    """Unirrep data of the realization.

    k is always the lowest weight mu(0).  The weights tend to
    n + (pb + 1)/2 as alpha -> 0, where eps = 1/(2pa + 1) goes to 0.
    """
    pb, eps = gs.pb_eps
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
    systems._check_index(n, "n must be non-negative")
    pa, pb = systems.jacobi_params(gs.spec)
    mu = unirrep(gs).mu_of_n(n)
    return math.sqrt(2.0 * (2.0 * pa + 1.0) * mu + pa * pa + pb * pb - 0.5)


def ladder_coefficient(gs, n, direction):
    """Closed-form matrix element of the plus or minus generator at step n."""
    systems._check_index(n, "n must be non-negative")
    if direction not in (PLUS, MINUS):
        raise ParameterError(f"direction must be 'plus' or 'minus', got {direction}")
    if direction == MINUS:
        if n == 0:
            return 0.0
        n -= 1  # c-(n) = c+(n - 1)
    pb, eps = gs.pb_eps
    prod = (n + 1.0) * (n + pb + 1.0) * (1.0 + (2.0 * n + 1.0) * eps)
    return math.sqrt(prod * (1.0 + (2.0 * n + 2.0 * pb + 1.0) * eps))


# ---------------------------------------------------------------------------
# operator realizations
# ---------------------------------------------------------------------------


def _kept(build):
    """build(gs, *args), made once per realization and kept on the GeneratorSet.

    So the operator, and the coefficient stacks it remembers, serve every
    section of a report.  An operator's coefficient closure holds the spec
    and numbers, never the set: no reference cycle keeps a set alive.
    """

    @wraps(build)
    def kept(gs, *args):
        key = (build, *args)
        op = gs._operators.get(key)
        if op is None:
            op = gs._operators[key] = build(gs, *args)
        return op

    return kept


@_kept
def _zero_operator(gs):
    """(2 g/(w g'^2)) (H - E), H - E member 0's flux operator with the member-free a1."""
    w = gs.w_const
    fam = systems.FAMILIES[gs.family]
    k = 1.0 - fam.sigma
    a0, _, a2 = systems.slots_at_energy(gs.spec, 0)
    gamma = gs.alpha * (k - 0.5 * k * k - 0.625)
    flux = operators.flux_operator(gs.spec, (a0, gamma, a2)).coeffs
    slope = 2.0 * (1.0 - 2.0 * fam.sigma) / w

    def coeffs(p, order):
        _, g1, g2 = fam.g(p)[:3]
        # the gauge 2 g/(w g'^2) and its derivatives 2 (1 - 2 sigma)/(w g')
        # and -2 (1 - 2 sigma) g''/(w g'^2)
        gauge = (2.0 / w * fam.g_ratio(p) / g1, slope / g1, -slope * (g2 / g1) / g1)
        return tuple(systems.leibniz(gauge, c, order) for c in flux(p, order))

    return operators.DiffOperator2(coeffs, order=2)


def _sector(gs, n):
    """pb, w and d_n = alpha delta_n = (w + alpha (4n + 2pb + 1))/2, w/2 at alpha = 0."""
    pb, w = gs.invariants
    return pb, w, 0.5 * (w + gs.alpha * (4.0 * n + 2.0 * pb + 1.0))


@_kept
def _ladder_core(gs, direction, n, scale=1.0):
    """b0 + b1 g/f - (g/g') d on the sector of psi_n, times scale (k_n in K+-)."""
    pb, w, d = _sector(gs, n)
    spec, a = gs.spec, gs.alpha
    sgn = 1.0 if direction == PLUS else -1.0
    fam = systems.FAMILIES[gs.family]
    s = 2.0 * n + pb + 1.0
    b0 = -0.5 * fam.sigma + (a * (1.0 - pb * pb - s * s) - (w - a) * s) / (4.0 * (a + sgn * d))
    b1 = 0.5 * (sgn * d - a)
    slope = -scale * (1.0 - fam.sigma)  # g g''/g'^2 = sigma, so g/g' is linear

    def coeffs(p, order):
        systems.check_point(spec, p)
        c0, _ = systems.g_over_f(a, fam.g(p)[: order + 1], order, scale * b1)
        c0[0] = c0[0] + scale * b0
        return (c0, (-scale * fam.g_ratio(p), slope))

    return operators.DiffOperator2(coeffs, order=1)


def apply_generator_fn(gs, which, fn, n):
    """Generator action on a function known to live in the sector of psi_n."""
    if which == ZERO:
        return _zero_operator(gs).apply(fn)
    if which not in (PLUS, MINUS):
        raise ParameterError(f"which must be 'zero', 'plus' or 'minus', got {which}")
    if which == MINUS and n == 0:
        return operators.zero_function()
    sgn, a = (1.0 if which == PLUS else -1.0), gs.alpha
    _, w, d = _sector(gs, n)
    k = sgn * (2.0 / w) * (d + sgn * a) * math.sqrt((d + 2.0 * sgn * a) / d)
    return _ladder_core(gs, which, n, k).apply(fn)


def apply_generator(gs, which, state):
    """Apply the zero/plus/minus generator to a bound state of the family."""
    if state.spec != gs.spec:
        raise ParameterError("state does not belong to this generator set")
    return apply_generator_fn(gs, which, state, state.n)


def matrix_element_numeric(gs, n, direction):
    """<state_{n+-1}, (generator) state_n> under the family measure.

    For the minus direction at n = 0 there is no target state; the norm of
    the generator output is returned instead (zero for an exact
    annihilation).
    """
    meas = measures.family_measure(gs.family)
    state = systems.bound_state(gs.spec, n)
    out = apply_generator(gs, direction, state)
    if direction == MINUS and n == 0:
        return measures.norm(meas, out)
    target = systems.bound_state(gs.spec, n + (1 if direction == PLUS else -1))
    return measures.inner_product(meas, target, out)


def casimir_apply(gs, state, points):
    """The displayed Casimir combination applied to a bound state, pointwise.

    -K+ K- + K0^2 - (1 + 2 eps (2n + pb - 3/4)) K0
    - (eps/4)(1 + 2 eps (2n + pb + 1/2)), with eps = alpha/w; at constant
    mass (eps = 0) it is -K+ K- + K0 (K0 - 1).  Each ladder factor is
    frozen to the sector of the input it meets.
    """
    n = state.n
    # K0 K0 first: it asks the state for order 4, whose stack then serves K+ K-
    zero_out = apply_generator(gs, ZERO, state)
    zz = apply_generator_fn(gs, ZERO, zero_out, n)(points)
    minus_out = apply_generator(gs, MINUS, state)
    pm = apply_generator_fn(gs, PLUS, minus_out, n - 1)(points) if n else 0.0
    z = zero_out(points)
    v = state(points)
    pb, eps = gs.pb_eps
    lin = 1.0 + 2.0 * eps * (2.0 * n + pb - 0.75)
    const = 0.25 * eps * (1.0 + 2.0 * eps * (2.0 * n + pb + 0.5))
    return -pm + zz - lin * z - const * v


# a pointwise grid covers where w psi_n^2 reaches this share of its peak
DENSITY_FLOOR = 1e-3


def pointwise_grid(spec, n, count=120):
    """Interior grid for composed-operator identities.

    Covers the region where the measure-weighted density w(p) psi_n(p)^2
    stays above DENSITY_FLOOR of its peak.  Double applications consume
    fourth derivatives and gauge factors (e^x, R) that amplify rounding at
    the domain extremes; restricting to where the state carries its norm
    keeps every point well conditioned for all six families.
    """
    weight = measures.family_measure(spec.family).weight
    return operators.support_grid(spec, n, count, DENSITY_FLOOR, weight)


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
    systems._check_index(n_max, "n_max must be at least 1", 1)
    systems._check_index(pointwise_n_max, "pointwise_n_max must be at least -1", -1)
    mu = unirrep(gs).mu_of_n
    pb, eps = gs.pb_eps

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
        # each output is built once, so its stacks on pts are remembered
        out = {which: apply_generator(gs, which, state) for which in (ZERO, PLUS, MINUS)}
        for which, sgn in ((PLUS, 1.0), (MINUS, -1.0)):
            lhs = apply_generator_fn(gs, ZERO, out[which], n + int(sgn))(pts)
            lhs = lhs - apply_generator_fn(gs, which, out[ZERO], n)(pts)
            rhs = sgn * step(n, sgn) * out[which](pts)
            recs.append(
                ResidualRecord(
                    f"comm_zero_{which}_pointwise",
                    n,
                    float(np.max(np.abs(lhs - rhs)) / scale),
                )
            )
        pm = apply_generator_fn(gs, PLUS, out[MINUS], n - 1)(pts) if n else 0.0
        mp = apply_generator_fn(gs, MINUS, out[PLUS], n + 1)(pts)
        rhs = bracket(n) * state(pts)
        recs.append(
            ResidualRecord(
                "comm_plus_minus_pointwise",
                n,
                float(np.max(np.abs(pm - mp - rhs)) / scale),
            )
        )
    return recs


def annihilation_residual(gs):
    """Norm ratio ||minus core on the lowest state|| / ||lowest state||.

    The core is applied without its factor k_0, because the public minus
    action is short-circuited to zero on n = 0; at constant mass it is the
    minus generator up to sign.
    """
    meas = measures.family_measure(gs.family)
    state = systems.bound_state(gs.spec, 0)
    out = _ladder_core(gs, MINUS, 0).apply(state)
    return measures.norm(meas, out) / measures.norm(meas, state)
