"""su(1,1) and deformed su(1,1) generator actions on bound states.

Three realizations exist per mass kind: the oscillator triple (spectrum
generating, ladder steps change the energy) and the Morse and Coulomb
triples (potential algebras, ladder steps move along the hierarchy at
fixed energy).  The zero generator is a gauged second-order differential
operator proportional to (H - shift); the deformed ladder generators are
first-order shift cores A_[+-] dressed with scalar factors built from the
delta spectrum.

The three realizations are one algebra: its deformed invariants depend
only on the Jacobi parameters (pa, pb) of the states, its constant-mass
ones only on the Laguerre parameter la (``systems`` maps a spec to them).
With d = 2pa + 1 and c-(n) = c+(n - 1) throughout:

    delta_n = 2n + pa + pb + 1,  mu_n = (delta_n^2 - pa^2 - pb^2 + 1/2) / (2d),
    Casimir = ((pa^2 - 1)(pb^2 - 1) - 9/16) / d^2,  alpha/Lam = 2/d,
    c+(n) = (2/d) sqrt((n + 1)(n + pb + 1)(n + pa + 1)(n + pa + pb + 1));
    constant mass: k = (la + 1)/2,  mu_n = n + k,  Casimir = k (k - 1),
    c+(n) = sqrt((n + 1)(n + la + 1)).

The deformed shift core is A_[+-] = c0 + c1 d/dq with c1 = -16 alpha g/g'
and c0 = -8 alpha rho - 4 alpha (1 -+ delta_n) t + 4 alpha (pa^2 - pb^2) /
(1 +- delta_n), where t = 1 - 2/f and rho = g g''/g'^2 is 1/2, 1 or 0 for
g = r^2, e^-x or R.  Coordinate-specific and per family are the gauge and
inner potential of the zero generator and the constant-mass ladder
operators.

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
    def lam(self):
        """Realization constant: lam_HO, |lam_M| or sqrt|E| by family."""
        if self.family == "ho":
            return self.spec.lam
        if self.family == "morse":
            return self.spec.lam_abs
        return self.spec.sqrt_energy

    @property
    def w_const(self):
        """Structure-relation denominator: alpha (2pa + 1), or 2c at constant mass."""
        if self.deformed:
            return self.alpha * (2.0 * systems.jacobi_params(self.spec)[0] + 1.0)
        return 2.0 * systems.laguerre_params(self.spec)[1]

    @property
    def lam_scale(self):
        """Scale dividing alpha in the deformed commutators (w_const / 2)."""
        return 0.5 * self.w_const

    @property
    def ladder_pref(self):
        return 1.0 / (8.0 * self.w_const)

    @property
    def zero_pref(self):
        return (0.5 if self.family == "ho" else 2.0) / self.w_const

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


def unirrep(gs):
    """Unirrep data of the realization.

    k is always the lowest weight mu(0).  The deformed weights tend to
    k + n as alpha -> 0, where pa grows without bound and pb tends to la.
    """
    if not gs.deformed:
        la = systems.laguerre_params(gs.spec)[0]
        k = 0.5 * (la + 1.0)
        return UnirrepLabel(k=k, mu_of_n=lambda n: n + k, casimir=k * (k - 1.0))
    pa, pb = systems.jacobi_params(gs.spec)
    d = 2.0 * pa + 1.0

    def mu(n):
        # (delta_n^2 - pa^2 - pb^2 + 1/2) / (2d), expanded free of cancellation
        return (
            2.0 * pa * (2.0 * n + pb + 1.0)
            + (2.0 * n + 1.0) * (2.0 * n + 2.0 * pb + 1.0)
            + 0.5
        ) / (2.0 * d)

    cas = ((pa - 1.0) * (pa + 1.0) * (pb - 1.0) * (pb + 1.0) - 0.5625) / (d * d)
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
    if not gs.deformed:
        la = systems.laguerre_params(gs.spec)[0]
        return math.sqrt((n + 1.0) * (n + la + 1.0))
    pa, pb = systems.jacobi_params(gs.spec)
    prod = (n + 1.0) * (n + pb + 1.0) * (n + pa + 1.0) * (n + pa + pb + 1.0)
    return 2.0 / (2.0 * pa + 1.0) * math.sqrt(prod)


# ---------------------------------------------------------------------------
# operator realizations
# ---------------------------------------------------------------------------


def _gauge(gs, p):
    """Gauge factor of the zero generator with two derivatives."""
    if gs.family == "ho":
        return 1.0, 0.0, 0.0
    if gs.family == "morse":
        e = np.exp(p)
        return e, e, e
    return p, np.ones_like(p), 0.0 * p


def _inner_potential(gs, p):
    """Member-free potential inside the zero generator, with derivatives."""
    spec, a = gs.spec, gs.alpha
    if gs.family == "ho":
        ll = spec.L * (spec.L + 1.0)
        w2 = spec.omega**2
        return (
            ll / p**2 + 0.25 * w2 * p * p,
            -2.0 * ll / p**3 + 0.5 * w2 * p,
            6.0 * ll / p**4 + 0.5 * w2,
        )
    if gs.family == "morse":
        q = np.exp(-p)
        b2 = spec.B**2
        return (
            b2 * q * q - 0.125 * a * q,
            -2.0 * b2 * q * q + 0.125 * a * q,
            4.0 * b2 * q * q - 0.125 * a * q,
        )
    ll = spec.Lcal * (spec.Lcal + 1.0)
    return (
        ll / p**2 - 0.125 * a / p,
        -2.0 * ll / p**3 + 0.125 * a / p**2,
        6.0 * ll / p**4 - 0.25 * a / p**3,
    )


def _zero_operator(gs):
    pref, shift = gs.zero_pref, gs.shift

    def coeffs(p, m):
        p = np.asarray(p, dtype=float)
        f0, f1, f2, f3, f4 = systems.deforming(gs.spec, p)
        g = _gauge(gs, p)
        u = _inner_potential(gs, p)
        # derivatives 0..2 of c0 = -(f f''/2 + f'^2/4) + u - shift,
        # c1 = -2 f f' and c2 = -f^2, whose derivative is c1
        c0 = (
            -(0.5 * f0 * f2 + 0.25 * f1 * f1) + u[0] - shift,
            -(f1 * f2 + 0.5 * f0 * f3) + u[1],
            -(f2 * f2 + 1.5 * f1 * f3 + 0.5 * f0 * f4) + u[2],
        )
        c1 = (-2.0 * f0 * f1, -2.0 * (f1 * f1 + f0 * f2), -2.0 * (3.0 * f1 * f2 + f0 * f3))
        c2 = (-f0 * f0, c1[0], c1[1])
        binom = ((1.0,), (1.0, 1.0), (1.0, 2.0, 1.0))[m]
        # m-th derivative of pref * gauge * c by Leibniz
        return tuple(
            pref * sum(binom[j] * g[j] * c[m - j] for j in range(m, -1, -1))
            for c in (c0, c1, c2)
        )

    return operators.DiffOperator2(coeffs, order=2)


def _const_ladder_operator(gs, direction):
    spec = gs.spec
    sgn = 1.0 if direction == PLUS else -1.0
    if gs.family == "ho":
        s = 0.5 / spec.omega
        ll = spec.L * (spec.L + 1.0)
        w2 = spec.omega**2

        def coeffs(p, m):
            p = np.asarray(p, dtype=float)
            z = np.zeros_like(p)
            if m == 0:
                return (
                    s * (-ll / p**2 + 0.25 * w2 * p * p) - sgn * 0.25,
                    -sgn * 0.5 * p,
                    s + z,
                )
            if m == 1:
                return (s * (2.0 * ll / p**3 + 0.5 * w2 * p), -sgn * 0.5 + z, z)
            return (s * (-6.0 * ll / p**4 + 0.5 * w2), z, z)

    elif gs.family == "morse":
        s = 0.5 / spec.B
        b2, eps = spec.B**2, spec.epsilon

        def coeffs(p, m):
            p = np.asarray(p, dtype=float)
            e, q = np.exp(p), np.exp(-p)
            z = np.zeros_like(p)
            if m == 0:
                return (s * (b2 * q + eps * e) - sgn * 0.5, sgn + z, s * e)
            if m == 1:
                return (s * (-b2 * q + eps * e), z, s * e)
            return (s * (b2 * q + eps * e), z, s * e)

    else:
        s = 0.5 / spec.sqrt_energy
        ll, en = spec.Lcal * (spec.Lcal + 1.0), spec.energy

        def coeffs(p, m):
            p = np.asarray(p, dtype=float)
            z = np.zeros_like(p)
            if m == 0:
                return (s * (-ll / p - en * p), -sgn * p, s * p)
            if m == 1:
                return (s * (ll / p**2 - en), -sgn + z, s + z)
            return (-2.0 * s * ll / p**3, z, z)

    return operators.DiffOperator2(coeffs, order=2)


def _shift_core_operator(gs, direction, delta_n, scale=1.0):
    """The first-order core A_[+-] with delta frozen to the input eigenvalue."""
    spec, a = gs.spec, gs.alpha
    sgn = 1.0 if direction == PLUS else -1.0
    coord = systems.FAMILIES[gs.family].g
    g1 = coord(np.float64(1.0))
    rho = float(g1[0] * g1[2] / (g1[1] * g1[1]))  # constant, so g/g' is linear
    c0_const = -8.0 * a * rho + 4.0 * a * gs.q_const / (1.0 + sgn * delta_n)
    c1_slope = -16.0 * a * (1.0 - rho)
    t_coef = -4.0 * a * (1.0 - sgn * delta_n)

    def coeffs(p, m):
        p = np.asarray(p, dtype=float)
        f = systems.deforming(spec, p)
        z = np.zeros_like(p)
        if m == 0:
            g = coord(p)
            c0 = c0_const + t_coef * (1.0 - 2.0 / f[0])
            return (scale * c0, scale * (-16.0 * a) * g[0] / g[1], z)
        if m == 1:
            tp = 2.0 * f[1] / f[0] ** 2
            return (scale * t_coef * tp, scale * c1_slope + z, z)
        tpp = 2.0 * f[2] / f[0] ** 2 - 4.0 * f[1] ** 2 / f[0] ** 3
        return (scale * t_coef * tpp, z, z)

    return operators.DiffOperator2(coeffs, order=1)


def apply_shift_core(gs, direction, state):
    """A_[+-] alone (delta frozen to the state), without outer factors.

    On the lowest state the minus core annihilates; this entry point lets
    that be checked directly since the public minus action short-circuits.
    """
    op = _shift_core_operator(gs, direction, delta_spectrum(gs).delta_of_n(state.n))
    return op.apply(state, systems.domain(gs.spec))


def apply_generator_fn(gs, which, fn, n, ordering="left"):
    """Generator action on a function known to live in the sector of psi_n."""
    dom = systems.domain(gs.spec)
    if which == ZERO:
        return _zero_operator(gs).apply(fn, dom)
    if which not in (PLUS, MINUS):
        raise ParameterError(f"which must be 'zero', 'plus' or 'minus', got {which}")
    if not gs.deformed:
        return _const_ladder_operator(gs, which).apply(fn, dom)
    if which == MINUS and n == 0:
        return operators.zero_function(dom)
    sgn = 1.0 if which == PLUS else -1.0
    delta_n = delta_spectrum(gs).delta_of_n(n)
    if ordering == "left":
        outer = (delta_n + sgn) * math.sqrt((delta_n + 2.0 * sgn) / delta_n)
    elif ordering == "right":
        d_out = delta_n + 2.0 * sgn
        outer = (d_out - sgn) * math.sqrt(d_out / (d_out - 2.0 * sgn))
    else:
        raise ParameterError(f"ordering must be 'left' or 'right', got {ordering}")
    scale = sgn * gs.ladder_pref * outer
    op = _shift_core_operator(gs, which, delta_n, scale=scale)
    return op.apply(fn, dom)


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

    Constant mass: -K+ K- + K0 (K0 - 1).  Deformed:
    -K+ K- + K0^2 - (alpha/Lam)(delta_n - 5/4) K0 - ((alpha/Lam)^2 / 8) delta_n,
    with delta frozen per sector as each factor meets its input.
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
    if not gs.deformed:
        return -pm + zz - z
    ratio = gs.alpha / gs.lam_scale
    delta_n = delta_spectrum(gs).delta_of_n(n)
    return -pm + zz - ratio * (delta_n - 1.25) * z - ratio**2 / 8.0 * delta_n * v


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


def commutator_residuals(gs, n_max, pointwise_n_max=2, grid=None):
    """Scalar and pointwise residuals of the structure relations.

    Constant mass: mu_{n+1} - mu_n = 1 and
    c-_n c+_{n-1} - c+_n c-_{n+1} = -2 mu_n.  Deformed: the spacings become
    (alpha/Lam)(delta_n +- 1) and the plus/minus bracket
    -(alpha delta_n/Lam)(2 mu_n + alpha/(4 Lam)).  Pointwise rows apply the
    generators twice and compare against the right sides on a grid.
    """
    if n_max < 1:
        raise ParameterError("n_max must be at least 1")
    mu = unirrep(gs).mu_of_n
    if gs.deformed:
        ratio = gs.alpha / gs.lam_scale
        delta = delta_spectrum(gs).delta_of_n

        def step(n, sgn):  # mu_{n+sgn} - mu_n = sgn * step
            return ratio * (delta(n) + sgn)

        def bracket(n):
            return -ratio * delta(n) * (2.0 * mu(n) + 0.25 * ratio)

    else:

        def step(n, sgn):
            return 1.0

        def bracket(n):
            return -2.0 * mu(n)

    recs = []

    def cplus(n):
        return ladder_coefficient(gs, n, PLUS)

    def cminus(n):
        return ladder_coefficient(gs, n, MINUS)

    for n in range(n_max + 1):
        recs.append(ResidualRecord("mu_spacing_up", n, abs(mu(n + 1) - mu(n) - step(n, 1.0))))
        if n >= 1:
            recs.append(
                ResidualRecord("mu_spacing_down", n, abs(mu(n - 1) - mu(n) + step(n, -1.0)))
            )
        lhs = (cminus(n) * cplus(n - 1) if n >= 1 else 0.0) - cplus(n) * cminus(n + 1)
        recs.append(ResidualRecord("plus_minus_bracket", n, abs(lhs - bracket(n))))

    for n in range(min(pointwise_n_max, n_max) + 1):
        state = systems.bound_state(gs.spec, n)
        pts = grid if grid is not None else pointwise_grid(gs.spec, n)
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
