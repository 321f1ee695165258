"""The six solvable families and their closed-form bound states.

Three potentials (radial harmonic oscillator on r > 0, Morse on the full
line, radial Coulomb on R > 0) in two settings each: constant mass
(``alpha == 0``) and a position-dependent mass M = 1/f^2 built from the
deforming profile f = 1 + alpha g(q) with the coordinate function

    g_ho(r) = r^2,  g_m(x) = e^-x,  g_c(R) = R.

g is the oscillator's r^2 in each family's own coordinate, which the
point canonical transformations preserve; ``FAMILIES`` also holds each
coordinate as a function of the Morse coordinate x = -ln g
(r = e^(-x/2), x, R = e^-x), the exponent sigma (1/2, 1, 0) of the
family measure (1/2) g^(sigma-1) dg, from which ``measures`` and ``pct``
build the measures and maps, and rho = g/g' (r/2, -1, R), which is
linear, rho' = 1 - sigma, because g g''/g'^2 = sigma is constant.

Every bound state is one closed form

    psi_n(q) = sign * q^m * exp(log_norm + h(q)) * P_n(y(q)),

and the families differ only in the data of ``FAMILIES``: g, the
coordinate power m (L + 1, 0, Lcal + 1), Morse's linear exponent term and
the maps from a spec to the parameters of the polynomial P_n:

    family    deformed (pa, pb)                  constant mass (la, c)
    ho        (lam/alpha - 1/2, L + 1/2)         (L + 1/2, omega/2)
    morse     (2 |lam|/alpha - 1, 2 sqrt|eps|)   (2 A0, 2 B)
    coulomb   (2 sqrt|E|/alpha, 2 Lcal + 1)      (2 Lcal + 1, 2 Z0/(Lcal + 1))

Deformed: P_n = Jacobi P_n^(pa,pb)(t), t = 1 - 2/f, h = -((pa + pb + 2)/2) ln f,
sign +1 and log_norm = (1/2)[ln 2 + (pb + 1) ln alpha + lnG(n + 1)
+ ln(2n + pa + pb + 1) + lnG(n + pa + pb + 1) - lnG(n + pa + 1) - lnG(n + pb + 1)].
Constant mass: P_n = Laguerre L_n^(la)(y), y = c g, h = -y/2, sign (-1)^n
and log_norm = ((la + 1)/2) ln c + (1/2)[ln 2 + lnG(n + 1) - lnG(n + la + 1)].
Morse adds -(pb/2) x, or -(la/2) x = -A0 x, to h.  Derivatives up to
fourth order are derivative stacks (value, d1, ..., d_k) combined by two
rules, ``leibniz`` for products and ``chain`` (Faa di Bruno) for
compositions: ln f, t = 1 - 2/f (``jacobi_argument``), e^h and P_n(y) are
compositions and psi_n is the product of q^m, e^h and P_n(y).  The other
modules combine stacks only through these rules, never by differencing.

The point canonical transformations keep alpha and ``invariants(spec)``
= (pb, w), w = alpha (2pa + 1), which is (la, 2c) at constant mass.  With
Lam = (w + alpha)/4, the table's ``spec_of`` inverts the pair: Morse
B = sqrt(Lam (Lam - alpha)), A0 = pb/2 + (pb + 1)(Lam/B - 1)/2 (while
Lam > alpha), Coulomb Lcal = (pb - 1)/2, Z0 = (w + alpha)(pb + 1)/8.

Every member Hamiltonian is the flux form -d f^2 d + v with one potential

    v = (g'/g)^2 (a0 + a1 g + a2 g^2) = a0/rho^2 + a1 g'/rho + a2 g'^2,

built by ``potential`` on the right-hand basis, which never forms g.  The
table's ``slots`` read each spec's own parameters, never ``invariants``,
so the oracle stays independent of the closed forms:

    family    a0               a1                           a2
    ho        L(L + 1)/4       -alpha/4                     omega^2/16 - alpha^2/2
    morse     0                -(B (2 A_n + 1) + alpha/2)   B^2 - 3 alpha^2/4
    coulomb   Lcal(Lcal + 1)   -2 Z_n                       -alpha^2/4

A hierarchy (``member_coupling``) moves only a1.  In x = -ln g,
d/dq = -(1/rho) d/dx and rho^2 H = -(d/dx + 2s) f^2 d/dx + a0 + a1 g + a2 g^2
with s = (1 - sigma)/2: conjugating by g^s leaves Morse's -d/dx f^2 d/dx
and shifts the slots by s^2, 2 s (s - 1) alpha and s (s - 2) alpha^2, and
an energy joins the slot of rho^2 = g/4, 1 or g^2 (a1, a0 or a2).

Units: hbar = 1 and particle mass 1/2, so kinetic terms carry no 1/2m.
"""

import contextvars
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, NotApplicableError, ParameterError

LN2 = math.log(2.0)

# set while a parameter map builds a spec, whose angular constant is rarely
# (half-)integer; the warning is meant for the specs a caller builds
_mapped = contextvars.ContextVar("mapped", default=False)


def _warn_if_not_half_integer(value, name):
    # physically L comes from l + (d-3)/2, hence integer or half-integer;
    # the formulas stay valid for any real value, so only warn
    if abs(2.0 * value - round(2.0 * value)) > 1e-12 and not _mapped.get():
        # stacklevel 4 skips this helper, __post_init__ and the generated __init__
        warnings.warn(
            f"{name} = {value} is not integer or half-integer; formulas remain "
            "valid but the spectrum has no d-dimensional interpretation",
            UserWarning,
            stacklevel=4,
        )


def _mapped_spec(cls, **params):
    """A spec built by a parameter map, without the half-integer warning."""
    token = _mapped.set(True)
    try:
        return cls(**params)
    finally:
        _mapped.reset(token)


class _Spec:
    @property
    def deformed(self):
        return self.alpha > 0


@dataclass(frozen=True)
class OscillatorSpec(_Spec):
    """Radial harmonic oscillator: frequency omega, grand angular momentum L."""

    omega: float
    L: float
    alpha: float = 0.0

    def __post_init__(self):
        if not self.omega > 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if self.L < -0.5:
            raise ParameterError(f"L must be >= -1/2, got {self.L}")
        if self.alpha < 0:
            raise ParameterError(f"alpha must be non-negative, got {self.alpha}")
        _warn_if_not_half_integer(self.L, "L")

    family = "ho"

    @property
    def delta(self):
        """sqrt(omega^2 + alpha^2)."""
        return math.hypot(self.omega, self.alpha)

    @property
    def lam(self):
        """(alpha + sqrt(omega^2 + alpha^2)) / 2; equals omega/2 at alpha = 0."""
        return 0.5 * (self.alpha + self.delta)


@dataclass(frozen=True)
class MorseSpec(_Spec):
    """Morse family: base well depth parameter A0 and range parameter B."""

    A0: float
    B: float
    alpha: float = 0.0

    def __post_init__(self):
        if not self.A0 > 0:
            raise ParameterError(f"A0 must be positive, got {self.A0}")
        if not self.B > 0:
            raise ParameterError(f"B must be positive, got {self.B}")
        if self.alpha < 0:
            raise ParameterError(f"alpha must be non-negative, got {self.alpha}")
        if self.deformed and not self.sqrt_eps > 0:
            raise ParameterError(
                "no normalizable lowest state: (2*A0+1)*B must exceed "
                f"(alpha + sqrt(4B^2+alpha^2))/2, got A0={self.A0}, B={self.B}, "
                f"alpha={self.alpha}"
            )

    family = "morse"

    @property
    def delta(self):
        """sqrt(4 B^2 + alpha^2)."""
        return math.hypot(2.0 * self.B, self.alpha)

    @property
    def lam_abs(self):
        """(alpha + sqrt(4B^2 + alpha^2)) / 2; equals B at alpha = 0."""
        return 0.5 * (self.alpha + self.delta)

    @property
    def sqrt_eps(self):
        """sqrt(|epsilon|); equals A0 at alpha = 0."""
        if self.alpha == 0:
            return self.A0
        return 0.5 * ((2.0 * self.A0 + 1.0) * self.B / self.lam_abs - 1.0)

    @property
    def epsilon(self):
        """The fixed energy shared by all hierarchy members, -sqrt_eps^2."""
        if self.alpha == 0:
            return -self.A0 * self.A0
        return -self.sqrt_eps**2


@dataclass(frozen=True)
class CoulombSpec(_Spec):
    """Radial Coulomb family: angular constant Lcal and base charge Z0."""

    Lcal: float
    Z0: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.Lcal <= -0.5:
            raise ParameterError(f"Lcal must be > -1/2, got {self.Lcal}")
        if not self.Z0 > 0:
            raise ParameterError(f"Z0 must be positive, got {self.Z0}")
        if self.alpha < 0:
            raise ParameterError(f"alpha must be non-negative, got {self.alpha}")
        if self.deformed and self.lam_abs <= self.alpha:
            raise ParameterError(
                f"Z0 must exceed alpha*(Lcal+1) for a deformed Coulomb family, "
                f"got Z0={self.Z0}, Lcal={self.Lcal}, alpha={self.alpha}"
            )
        _warn_if_not_half_integer(self.Lcal, "Lcal")

    family = "coulomb"

    @property
    def lam_abs(self):
        """Z0 / (Lcal + 1), the Morse-side scale of the family."""
        return self.Z0 / (self.Lcal + 1.0)

    @property
    def B(self):
        """Range parameter of the Morse preimage, sqrt(lam*(lam - alpha))."""
        return math.sqrt(self.lam_abs * (self.lam_abs - self.alpha))

    @property
    def sqrt_energy(self):
        """sqrt(|E|) = lam - alpha/2; equals Z0/(Lcal+1) at alpha = 0."""
        return self.lam_abs - 0.5 * self.alpha

    @property
    def energy(self):
        """The fixed energy shared by all hierarchy members."""
        return -self.sqrt_energy**2


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


def _g_morse(p):
    e = np.exp(-p)
    return (e, -e, e, -e, e)


def _exp_derivs(k, x):
    """e^(k x) and its first two derivatives."""
    e = np.exp(k * x)
    return (e, k * e, k * k * e)


def _identity(x):
    return (x, 1.0 + 0.0 * x, 0.0 * x)


def _morse_of(pb, w, alpha):
    lam = 0.25 * (w + alpha)
    if not lam > alpha:
        raise ParameterError(
            f"no Morse image: (w + alpha)/4 = {lam} must exceed alpha = {alpha} "
            "(omega^2 > 3 alpha^2 for an oscillator)"
        )
    B = math.sqrt(lam * (lam - alpha))
    return MorseSpec(A0=0.5 * pb + 0.5 * (pb + 1.0) * (lam / B - 1.0), B=B, alpha=alpha)


def _coulomb_of(pb, w, alpha):
    Z0 = 0.125 * (w + alpha) * (pb + 1.0)
    return _mapped_spec(CoulombSpec, Lcal=0.5 * (pb - 1.0), Z0=Z0, alpha=alpha)


@dataclass(frozen=True)
class Family:
    """What differs between the three families; see the module docstring."""

    domain: tuple  # open coordinate interval
    spacing: object  # np.linspace on the line, np.geomspace on a half-line
    probe: tuple  # interval scanned for where a state lives
    g: object  # q -> (g, g', g'', g''', g''''), with f = 1 + alpha g
    sigma: float  # measure (1/2) g^(sigma-1) dg; equals g g''/g'^2
    g_ratio: object  # q -> g/g', linear since g g''/g'^2 = sigma is constant
    from_x: object  # Morse coordinate x = -ln g -> (q, dq/dx, d2q/dx2)
    to_x: object  # q -> (x, dx/dq, d2x/dq2)
    power: object  # spec -> exponent m of the coordinate power q^m
    linear: bool  # Morse: h carries -(pb/2) x, or -(la/2) x
    jacobi: object  # deformed spec -> (pa, pb)
    laguerre: object  # constant-mass spec -> (la, c)
    slots: object  # (spec, n) -> (a0, a1, a2) of the member-n potential
    spec_of: object = None  # (pb, w, alpha) -> spec, for the families a map ends in


FAMILIES = {
    "ho": Family(
        domain=(0.0, math.inf),
        spacing=np.geomspace,
        probe=(1e-6, 1e6),
        g=lambda p: (p * p, 2.0 * p, 2.0 + 0.0 * p, 0.0 * p, 0.0 * p),
        sigma=0.5,
        g_ratio=lambda r: 0.5 * r,  # never forms r^2, which underflows below 1e-154
        from_x=lambda x: _exp_derivs(-0.5, x),  # r = e^(-x/2)
        to_x=lambda r: (-2.0 * np.log(r), -2.0 / r, 2.0 / (r * r)),
        power=lambda s: s.L + 1.0,
        linear=False,
        jacobi=lambda s: (s.lam / s.alpha - 0.5, s.L + 0.5),
        laguerre=lambda s: (s.L + 0.5, 0.5 * s.omega),
        slots=lambda s, n: (s.L * (s.L + 1) / 4, -s.alpha / 4, s.omega**2 / 16 - s.alpha**2 / 2),
    ),
    "morse": Family(
        domain=(-math.inf, math.inf),
        spacing=np.linspace,
        probe=(-80.0, 300.0),
        g=_g_morse,
        sigma=1.0,
        g_ratio=lambda x: -1.0 + 0.0 * x,
        from_x=_identity,
        to_x=_identity,
        power=lambda s: 0.0,
        linear=True,
        jacobi=lambda s: (2.0 * s.lam_abs / s.alpha - 1.0, 2.0 * s.sqrt_eps),
        laguerre=lambda s: (2.0 * s.A0, 2.0 * s.B),
        slots=lambda s, n: (
            0.0, -s.B * (2 * member_coupling(s, n) + 1) - s.alpha / 2, s.B**2 - 0.75 * s.alpha**2
        ),
        spec_of=_morse_of,
    ),
    "coulomb": Family(
        domain=(0.0, math.inf),
        spacing=np.geomspace,
        probe=(1e-6, 1e6),
        g=lambda p: (p, 1.0 + 0.0 * p, 0.0 * p, 0.0 * p, 0.0 * p),
        sigma=0.0,
        g_ratio=lambda R: R,
        from_x=lambda x: _exp_derivs(-1.0, x),  # R = e^-x
        to_x=lambda R: (-np.log(R), -1.0 / R, 1.0 / (R * R)),
        power=lambda s: s.Lcal + 1.0,
        linear=False,
        jacobi=lambda s: (2.0 * s.sqrt_energy / s.alpha, 2.0 * s.Lcal + 1.0),
        laguerre=lambda s: (2.0 * s.Lcal + 1.0, 2.0 * s.lam_abs),
        slots=lambda s, n: (s.Lcal * (s.Lcal + 1.0), -2.0 * member_coupling(s, n), -s.alpha**2 / 4),
        spec_of=_coulomb_of,
    ),
}


def jacobi_params(spec):
    """Jacobi parameters (pa, pb) of a deformed spec."""
    if not spec.deformed:
        raise NotApplicableError("defined only for deformed families (alpha > 0)")
    return FAMILIES[spec.family].jacobi(spec)


def invariants(spec):
    """The pair (pb, w) that the parameter maps keep, continuous in alpha >= 0.

    Deformed: (pb, alpha (2pa + 1)); constant mass: (la, 2c), the limit of
    the deformed pair as alpha -> 0.  ``FAMILIES[family].spec_of`` inverts
    it for the Morse and Coulomb families.
    """
    if spec.deformed:
        pa, pb = jacobi_params(spec)
        return pb, spec.alpha * (2.0 * pa + 1.0)
    la, c = FAMILIES[spec.family].laguerre(spec)
    return la, 2.0 * c


def check_point(spec, point):
    """Raise DomainError if any evaluation point is NaN or leaves the open domain."""
    lo, hi = FAMILIES[spec.family].domain
    p = np.asarray(point, dtype=float)
    if not np.all((p > lo) & (p < hi)):
        raise DomainError(f"point {point!r} outside open domain ({lo}, {hi})")


def member_coupling(spec, n):
    """The n-th hierarchy member's coupling: A_n for Morse, Z_n for Coulomb.

    Constant mass gives the linear laws A_n = A0 + n and
    Z_n = Z0 (n+Lcal+1)/(Lcal+1); the deformed families acquire a
    quadratic n-dependence.
    """
    if n < 0:
        raise ParameterError("member index must be non-negative")
    if spec.family == "morse":
        if spec.alpha == 0:
            return spec.A0 + float(n)
        lam = spec.lam_abs
        a = spec.alpha
        return (a * n + lam) / lam * spec.A0 + n * (
            2.0 * spec.B**2 + a * spec.B + a * lam * (n + 1.0)
        ) / (2.0 * spec.B * lam)
    if spec.family == "coulomb":
        base = spec.Z0 * (n + spec.Lcal + 1.0) / (spec.Lcal + 1.0)
        if spec.alpha == 0:
            return base
        return base + 0.5 * spec.alpha * n * (n + 2.0 * spec.Lcal + 1.0)
    raise ParameterError("oscillator family has a single Hamiltonian, no coupling")


def energy(spec, n):
    """Energy of the n-th bound state (oscillator) or the fixed family energy.

    The oscillator value alpha*(4n^2 + 4n(L+1) + L + 1) + (4n+2L+3)*lam
    reduces exactly to omega*(2n + L + 3/2) at alpha = 0.  Morse and
    Coulomb hierarchies share one energy independent of n.
    """
    if n < 0:
        raise ParameterError("quantum number must be non-negative")
    if spec.family == "ho":
        L, a = spec.L, spec.alpha
        return a * (4.0 * n * n + 4.0 * n * (L + 1.0) + L + 1.0) + (
            4.0 * n + 2.0 * L + 3.0
        ) * spec.lam
    if spec.family == "morse":
        return spec.epsilon
    return spec.energy


def deforming(spec, point):
    """Deforming profile f = 1 + alpha g and derivatives (f, f', f'', f''', f'''')."""
    check_point(spec, point)
    return _profile(spec, np.asarray(point, dtype=float))


def _profile(spec, p):
    a = spec.alpha
    if a == 0.0:  # f = 1 exactly, also where g overflows
        return (np.ones_like(p),) + (np.zeros_like(p),) * 4
    g = FAMILIES[spec.family].g(p)
    return (1.0 + a * g[0],) + tuple(a * gk for gk in g[1:])


def potential(spec, slots, p, order):
    """Derivatives 0..order (<= 3) of a0/rho^2 + a1 g'/rho + a2 g'^2, slots = (a0, a1, a2).

    Only a nonzero slot's basis stack is built: L = 0 stays finite where
    1/rho^2 overflows.
    """
    fam = FAMILIES[spec.family]
    v = [np.zeros_like(p)] * (order + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rho, g1 = fam.g_ratio(p), fam.g(p)[1:]

        def over_rho(u):  # the quotient rule, with rho' = 1 - sigma and rho'' = 0
            q = [u[0] / rho]
            for m in range(1, order + 1):
                q.append((u[m] - m * (1.0 - fam.sigma) * q[-1]) / rho)
            return q

        unit = [1.0] + [0.0] * order
        for j, a in enumerate(slots):
            if a:
                b = leibniz(g1, g1, order) if j == 2 else over_rho(g1 if j else over_rho(unit))
                v = [vk + a * bk for vk, bk in zip(v, b)]
    return v


def mass_and_potential(spec, n, point):
    """(mass, v_eff, f, f1, f2) at a point; H = -d (1/M) d + v_eff with M = 1/f^2."""
    f, f1, f2, _, _ = deforming(spec, point)
    slots = FAMILIES[spec.family].slots(spec, n)
    v_eff = potential(spec, slots, np.asarray(point, dtype=float), 0)[0]
    return (1.0 / (f * f), v_eff, f, f1, f2)


# ---------------------------------------------------------------------------
# closed-form states
# ---------------------------------------------------------------------------


_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1))


def leibniz(a, b, order):
    """Derivatives 0..order of the product a * b from the stacks a and b.

    ``a`` and ``b`` hold a function and its derivatives (value, d1, ...) as
    arrays or numbers.  ``b`` needs order + 1 entries; ``a`` may stop
    early, and its derivatives past the end are taken as 0.
    """
    return [
        sum((a[j] if c == 1 else c * a[j]) * b[k - j] for j, c in enumerate(_BINOM[k][: len(a)]))
        for k in range(order + 1)
    ]


def chain(outer, inner, order):
    """Derivatives 0..order of F(y(q)) by the Faa di Bruno formula.

    ``outer`` holds F, F', ... taken at y(q) and ``inner`` holds y, y', ...
    (inner[0] is not used).  With outer all ones the k-th entry is
    (d/dq)^k e^y divided by e^y.
    """
    out = [outer[0]]
    if order >= 1:
        y1 = inner[1]
        out.append(outer[1] * y1)
    if order >= 2:
        y2, s = inner[2], y1 * y1
        out.append(outer[1] * y2 + outer[2] * s)
    if order >= 3:
        y3 = inner[3]
        out.append(outer[1] * y3 + 3.0 * outer[2] * y1 * y2 + outer[3] * s * y1)
    if order >= 4:
        out.append(
            outer[1] * inner[4]
            + outer[2] * (4.0 * y1 * y3 + 3.0 * y2 * y2)
            + 6.0 * outer[3] * s * y2
            + outer[4] * s * s
        )
    return out


def _reciprocal(f0, order):
    """Derivatives 0..order of 1/f with respect to f: (-1)^k k! / f^(k+1)."""
    out = [1.0 / f0]
    for k in range(1, order + 1):
        out.append(-k * out[0] * out[-1])
    return out


def jacobi_argument(f, order):
    """Derivatives 0..order of t = 1 - 2/f from the stack (f, f', ..., f'''')."""
    inv = _reciprocal(f[0], order)
    return chain([1.0 - 2.0 * inv[0]] + [-2.0 * w for w in inv[1:]], f, order)


class _ClosedForm:
    """The template sign * q^power * exp(log_norm + h(q)) * P_n(y(q)) of one state.

    The coordinate power is kept out of h: its derivatives are exact
    falling factorials, which avoids catastrophic cancellation of
    1/p^2-sized terms near the origin in high-order derivatives.
    """

    def __init__(self, spec, n):
        fam = FAMILIES[spec.family]
        lg = specfun.log_gamma
        self.spec, self.n = spec, n
        self.power = fam.power(spec)
        if spec.deformed:
            pa, pb = self.params = fam.jacobi(spec)
            self.log_norm = 0.5 * (
                LN2
                + (pb + 1.0) * math.log(spec.alpha)
                + lg(n + 1.0)
                + math.log(2.0 * n + pa + pb + 1.0)
                + lg(n + pa + pb + 1.0)
                - lg(n + pa + 1.0)
                - lg(n + pb + 1.0)
            )
            self.sign = 1.0
            self.exponent = 0.5 * (pa + pb + 2.0)  # h = -exponent * ln f
            top = max(pa, pb)
            self._bound = lg(n + top + 1.0) - lg(n + 1.0) - lg(top + 1.0) + n * LN2 + 150.0
            slope = 0.5 * pb
        else:
            la, c = self.params = fam.laguerre(spec)
            self.log_norm = 0.5 * (la + 1.0) * math.log(c) + 0.5 * (
                LN2 + lg(n + 1.0) - lg(n + la + 1.0)
            )
            self.sign = -1.0 if n % 2 else 1.0
            self.exponent = 0.5  # h = -y/2
            slope = 0.5 * la
        self.slope = slope if fam.linear else 0.0  # h carries -slope * q

    def h_and_y(self, p, order):
        """Derivatives 0..order of the exponent h and the polynomial argument y."""
        if self.spec.deformed:
            f = _profile(self.spec, p)
            # d/df ln f = 1/f
            lf = chain([np.log(f[0])] + _reciprocal(f[0], order - 1), f, order)
            y = jacobi_argument(f, order)
        else:
            g = FAMILIES[self.spec.family].g(p)
            y = lf = [self.params[1] * gk for gk in g[: order + 1]]
        h = [-self.exponent * lk for lk in lf]
        if self.slope:
            h[0] = h[0] - self.slope * p
            if order >= 1:
                h[1] = h[1] - self.slope
        return h, y

    def poly(self, y, order):
        """P_n and its derivatives up to order at y."""
        if self.spec.deformed:
            return specfun.jacobi_derivs(self.n, *self.params, y, order)
        return specfun.laguerre_derivs(self.n, self.params[0], y, order)

    def log_bound(self, abs_y):
        """Log bound on |P_n^(k)(y)| for every k <= 4."""
        if self.spec.deformed:
            return self._bound
        return self.n * np.log1p(abs_y) + 150.0


class BoundState:
    """One closed-form eigenfunction of a family member.

    Attributes mirror the common data of all six families: the quantum
    number ``n``, the ``energy`` it solves the member equation with, the
    signed normalization constant ``norm_coeff`` and an ``evaluator``
    returning (value, d1, d2) at a point.  ``derivs`` extends the
    evaluation to fourth derivatives for operator composition.
    """

    max_order = 4

    def __init__(self, spec, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ParameterError(f"quantum number must be a non-negative int, got {n}")
        if n > specfun.MAX_DEGREE:
            raise ParameterError(f"quantum number {n} exceeds the maximum {specfun.MAX_DEGREE}")
        self.spec = spec
        self.family = spec.family
        self.n = int(n)
        self.energy = energy(spec, n)
        self._parts = _ClosedForm(spec, n)
        self.norm_coeff = self._parts.sign * math.exp(self._parts.log_norm)

    def derivs(self, point, order=2):
        """Value and derivatives (value, d1, ..., d_order) at a point."""
        if order < 0 or order > self.max_order:
            raise ParameterError(f"order must be in [0, {self.max_order}]")
        check_point(self.spec, point)
        p = np.asarray(point, dtype=float)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        form = self._parts
        m = form.power
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h, y = form.h_and_y(p, order)
            lead = log_amp = form.log_norm + h[0]
            if m != 0.0:
                log_amp = lead + m * np.log(p)
                # where p > 1 the power p^m joins the exponent, so that a huge
                # p^m never meets an underflowed e^h
                big = p > 1.0
                lead = np.where(big, log_amp, lead)
            # a NaN sum means p*p or e^-x overflowed, which sends h to -inf
            dead = ~(log_amp + form.log_bound(np.abs(y[0])) >= -745.0)
            poly = form.poly(np.where(dead, 0.0, y[0]), order)
            u0 = form.sign * np.exp(lead)
            u = [u0] + [u0 * b for b in chain((1.0,) * 5, h, order)[1:]]
            # smooth part G = u * P(y)
            out = leibniz(u, chain(poly, y, order), order)
            if m != 0.0:
                # d^j/dp^j p^m = fall_j p^(m-j), with p^m in u0 where p > 1;
                # the stack stops at the first zero fall_j, before p^(m-j)
                # can overflow
                pw, fall = [], 1.0
                for j in range(order + 1):
                    if fall == 0.0:
                        break
                    pw.append(fall * np.where(big, p ** -float(j), p ** (m - j)))
                    fall *= m - j
                out = leibniz(pw, out, order)
            out = [np.where(dead, 0.0, o) for o in out]
        if scalar:
            return tuple(float(o[0]) for o in out)
        return tuple(out)

    def evaluator(self, point):
        """(value, d1, d2) at a point; vectorized over ndarray input."""
        return self.derivs(point, 2)

    def __call__(self, point):
        return self.derivs(point, 0)[0]


def bound_state(spec, n):
    """Closed-form bound state number n of the family defined by spec."""
    return BoundState(spec, n)


# ---------------------------------------------------------------------------
# fixed-potential spectra
# ---------------------------------------------------------------------------


def _positive_root_levels(roots_iter, max_count):
    # keep k while the signed square root of the level stays positive;
    # it decreases strictly, so the energies -s_k^2 increase while kept.
    # Squaring first would hide the sign and admit non-normalizable
    # candidates (confirmed against the finite-difference oracle).
    out = []
    for k, s in roots_iter:
        if len(out) >= max_count or s <= 0:
            break
        out.append((k, -s * s))
    return out


def spectrum_fixed_potential(family, params, alpha, max_count):
    """Bound spectrum of one fixed Morse or Coulomb potential.

    ``params`` is (A_bar, B) for Morse or (Z_bar, Lcal) for Coulomb.  At
    alpha = 0 the Morse well holds ceil(A_bar) levels -(A_bar - k)^2 and
    the Coulomb well infinitely many -(Z_bar/(k+Lcal+1))^2, truncated at
    ``max_count``.  For alpha > 0 a level -s_k^2 is kept while its signed
    root s_k is positive (the associated eigenfunction decays like s_k);
    the deformation can therefore suppress levels, down to a finite
    Coulomb count.
    """
    if max_count < 1:
        raise ParameterError("max_count must be at least 1")
    if alpha < 0:
        raise ParameterError("alpha must be non-negative")
    if family == "morse":
        A_bar, B = params
        if not A_bar > 0 or not B > 0:
            raise ParameterError("Morse parameters must be positive")
        if alpha == 0:
            n_top = min(math.ceil(A_bar) - 1, max_count - 1)
            return [(k, -((A_bar - k) ** 2)) for k in range(n_top + 1)]
        lam = 0.5 * (alpha + math.hypot(2.0 * B, alpha))

        def roots():
            for k in range(max_count):
                num = (2.0 * A_bar + 1.0) * B - alpha * k * k - (2.0 * k + 1.0) * lam
                yield k, num / (2.0 * (alpha * k + lam))

        out = _positive_root_levels(roots(), max_count)
        if len(out) < min(math.ceil(A_bar), max_count):
            warnings.warn(
                f"deformation alpha={alpha} suppresses Morse levels: kept "
                f"{len(out)} of the {math.ceil(A_bar)} constant-mass ones",
                UserWarning,
                stacklevel=2,
            )
        return out
    if family == "coulomb":
        Z_bar, Lcal = params
        if not Z_bar > 0:
            raise ParameterError("Z_bar must be positive")
        if Lcal <= -0.5:
            raise ParameterError("Lcal must be > -1/2")
        if alpha == 0:
            return [
                (k, -((Z_bar / (k + Lcal + 1.0)) ** 2)) for k in range(max_count)
            ]

        def roots():
            for k in range(max_count):
                num = 2.0 * Z_bar - alpha * (k * k + (Lcal + 1.0) * (2.0 * k + 1.0))
                yield k, num / (2.0 * (k + Lcal + 1.0))

        return _positive_root_levels(roots(), max_count)
    raise ParameterError(f"fixed-potential spectra exist for morse/coulomb, not {family}")
