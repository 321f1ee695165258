"""The six solvable families and their closed-form bound states.

Three potentials (radial harmonic oscillator on r > 0, Morse on the full
line, radial Coulomb on R > 0) in two settings each: constant mass
(``alpha == 0``) and a position-dependent mass M = 1/f^2 built from the
deforming profile f = 1 + alpha g(q) with the coordinate function

    g_ho(r) = r^2,  g_m(x) = e^-x,  g_c(R) = R.

g is the oscillator's r^2 in each family's own coordinate, which the
point canonical transformations preserve.  ``FAMILIES`` holds g with its
first four derivatives, the constant ones as numbers; two scalar maps,
each coordinate q as a function of the Morse coordinate x = -ln g
(r = e^(-x/2), x, R = e^-x) and back; the exponent sigma (1/2, 1, 0) of
the family measure (1/2) g^(sigma-1) dg, from which ``measures`` and
``pct`` build the measures and maps; and rho = g/g' (r/2, -1, R), which
is linear, rho' = 1 - sigma, because g g''/g'^2 = sigma is constant.  So
the maps' derivatives (``Family.from_x`` and ``Family.to_x``) are one
formula for all three families:

    dq/dx = -rho,  d2q/dx2 = (1 - sigma) rho,  dx/dq = -1/rho,  d2x/dq2 = (1 - sigma)/rho^2.

Every bound state, at either mass kind, is one closed form

    psi_n(q) = q^m * exp(log_norm + h(q)) * Q_n(y(q)),

and the families differ only in the data of ``FAMILIES``: g, the
coordinate power m (L + 1, 0, Lcal + 1), Morse's linear exponent term,
the member potentials and the slot an energy enters.  Q_n is the scaled
Jacobi polynomial Q_n^(pa,pb)(y) = P_n^(pa,pb)(2y/(pa + 1) - 1) of
``specfun``.  Its parameters come from the pair (pb, w) of the level law
below: pa = (w - alpha)/(2 alpha), which is inf at constant mass, where
Q_n = (-1)^n L_n^(pb).  With eps = 1/(pa + 1) = 2 alpha/(w + alpha),

    y = ((w + alpha)/2) g/f,    h = -((w + alpha (2pb + 3))/4) ln(f)/alpha,
    log_norm = (1/2)[ln 2 + lnG(n + 1) - lnG(n + pb + 1) + (pb + 1) ln((w + alpha)/2)
               + ln(1 + (2n + pb) eps) + pb ln(1 + n eps) + R(n + pa + 1, pb)],

with R(x, b) = lnG(x + b) - lnG(x) - b ln x (``specfun.log_gamma_ratio``),
which is 0 at x = inf.  At alpha = 0 these are the Laguerre state's
y = (w/2) g and h = -y/2.  Morse adds -(pb/2) x to h.  Derivatives up to
fourth order are derivative stacks (value, d1, ..., d_k) combined by two
rules, ``leibniz`` for products and ``chain`` (Faa di Bruno) for
compositions: y and h are functions of g, e^h and Q_n(y) are
compositions and psi_n is the product of q^m, e^h and Q_n(y).  The other
modules combine stacks only through these rules, never by differencing.
A state's stack is 0 exactly where its exponential factor
e^(log_norm + h), which takes q^m into the exponent where q > 1, underflows
or is NaN; everywhere else it is the product as formed.

Every member Hamiltonian is the flux form -d f^2 d + v with one potential

    v = (g'/g)^2 (a0 + a1 g + a2 g^2) = a0/rho^2 + a1 g'/rho + a2 g'^2,

built by ``potential`` on the right-hand basis, which never forms g.  The
table's ``slots`` read each spec's own parameters, never ``level``,
so the oracle stays independent of the closed forms:

    family    a0               a1                           a2
    ho        L(L + 1)/4       -alpha/4                     omega^2/16 - alpha^2/2
    morse     0                -(B (2 A_n + 1) + alpha/2)   B^2 - 3 alpha^2/4
    coulomb   Lcal(Lcal + 1)   -2 Z_n                       -alpha^2/4

A hierarchy (``member_coupling``) moves only a1.  In x = -ln g,
d/dq = -(1/rho) d/dx and rho^2 H = -(d/dx + 2s) f^2 d/dx + a0 + a1 g + a2 g^2
with s = (1 - sigma)/2: conjugating by g^s leaves Morse's -d/dx f^2 d/dx
and the slots b0 = a0 + s^2, b1 = a1 + 2 s (s - 1) alpha and
b2 = a2 + s (s - 2) alpha^2, and an energy E joins the slot of
rho^2 = g/4, 1 or g^2 as a_j - c E, (j, c) = (1, 1/4), (0, 1), (2, 1).
With pb = 2 sqrt(b0) and w = alpha + 4 sqrt(b2 + alpha^2), level n obeys
the one su(1,1) law (``level``)

    -4 b1 = w (2n + pb + 1) + alpha (4n^2 + 2n + 3 + pb (4n + 1)),

which is (w/2) mu_n = -b1 - 5 alpha/8 with the weights mu_n of
``algebra.unirrep``.  It is linear in each of b1, pb and w, and solved
for the one that holds the energy: the oscillator's b1 gives
E = 2 w mu_n (a spectrum-generating algebra), Morse's pb gives
E = -pb^2/4 and Coulomb's w gives E = -((w - alpha)/4)^2 (potential
algebras: member n's level n is the hierarchy's one energy).  A level of
a fixed well exists while that root is positive, pb > 0 or w > alpha.

The point canonical transformations keep alpha and ``invariants(spec)``
= (pb, w).  With Lam = (w + alpha)/4, the table's ``spec_of`` inverts the
pair: Morse B = sqrt(Lam (Lam - alpha)), A0 = pb/2 + (pb + 1)(Lam/B - 1)/2
(while Lam > alpha), Coulomb Lcal = (pb - 1)/2, Z0 = (w + alpha)(pb + 1)/8.

Units: hbar = 1 and particle mass 1/2, so kinetic terms carry no 1/2m.

Remembered stacks.  Every function with analytic derivatives, a
``BoundState`` or an ``operators.SmoothFunction`` (a generator output, a
mapped state), is a ``Differentiable``, and it and every
``operators.DiffOperator2`` are ``Remembered``: one memo, for the
derivative stacks of a function and the coefficient stacks of an
operator alike.  It remembers the stacks it computed on its last
MEMO_SIZE = 4 points arrays, each at the highest order asked, keyed by
the array's shape and bytes, and serves a lower order as a prefix of
that stack, which has the same bits as a stack computed at that order.
So a report that composes K0, K+-, the Casimir and the maps on the same
few states evaluates each state, and each operator's coefficients, once
per grid when it asks the highest order first.  A scalar point is
evaluated as a one-point array and returns floats; nothing is remembered
for it, also by the functions and operators its evaluation calls.  The
function stacks handed out are read-only arrays; copy one to modify it.
The key is a copy of the points, so changing the caller's array in place
after a call gives the new points' values.  The memo is a tuple replaced
whole, never changed in place: threads racing on one function can only
drop an entry and compute a stack again, never serve a stack for other
points or a shorter one than asked.  Outputs are not remembered on the
operator that made them: an output holds its operator, so that would
close a reference cycle.  ``bound_state`` shares the live state of an
equal (spec, n) instead of caching states: nothing is kept once the last
caller lets a state go.

Blocks.  A ``BoundState`` evaluates a points array of more than
BLOCK = 16,384 points block by block, and writes each block's stack into
order + 1 output arrays allocated once.  A stack builds about 20
temporaries; at block size they stay in a core's cache, where on the
whole array they would be faulted in fresh on every call.  Every step is
elementwise, so the stack has the same bits as on the whole array at
once.  The points are checked once, on the whole array, before any block;
smaller arrays, and so scalars, are one block.
"""

import contextvars
import functools
import math
import numbers
import operator
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, NotApplicableError, ParameterError

LN2 = math.log(2.0)

# set while a parameter map builds a spec, whose angular constant is rarely
# (half-)integer; the warning is meant for the specs a caller builds
_mapped = contextvars.ContextVar("mapped", default=False)

# set while ``Differentiable.derivs`` evaluates a scalar point as a one-point
# array: nothing is remembered, and a bad point is named as the scalar
_scalar = contextvars.ContextVar("scalar", default=False)


def _check_finite(spec):
    for name, value in vars(spec).items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _check_index(n, message, lowest=0):
    """Raise ParameterError(message) unless n is an int of at least lowest; numpy integers pass."""
    if not isinstance(n, (int, np.integer)) or n < lowest:
        raise ParameterError(message)


def _check_tol(value):
    """Raise ParameterError unless value is a real number in [1e-12, inf).

    It checks the oracle's ``tol``: a non-number or NaN would fail inside
    the solve, and inf would end it before its first step.
    """
    if not isinstance(value, numbers.Real) or math.isnan(value):
        raise ParameterError(f"tol must be a number, got {value!r}")
    if value < 1e-12:
        raise ParameterError("tol below 1e-12 is not supported")
    if value == math.inf:
        raise ParameterError("tol must be finite, got inf")


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
        _check_finite(self)
        if not self.omega > 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if not self.L >= -0.5:
            raise ParameterError(f"L must be >= -1/2, got {self.L}")
        if not self.alpha >= 0:
            raise ParameterError(f"alpha must be non-negative, got {self.alpha}")
        _warn_if_not_half_integer(self.L, "L")

    family = "ho"


@dataclass(frozen=True)
class MorseSpec(_Spec):
    """Morse family: base well depth parameter A0 and range parameter B."""

    A0: float
    B: float
    alpha: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if not self.A0 > 0:
            raise ParameterError(f"A0 must be positive, got {self.A0}")
        if not self.B > 0:
            raise ParameterError(f"B must be positive, got {self.B}")
        if not self.alpha >= 0:
            raise ParameterError(f"alpha must be non-negative, got {self.alpha}")
        if self.deformed and not invariants(self)[0] > 0:
            raise ParameterError(
                "no normalizable lowest state: (2*A0+1)*B must exceed "
                f"(alpha + sqrt(4B^2+alpha^2))/2, got A0={self.A0}, B={self.B}, "
                f"alpha={self.alpha}"
            )

    family = "morse"

    @property
    def lam_abs(self):
        """(alpha + sqrt(4B^2 + alpha^2)) / 2; equals B at alpha = 0."""
        return 0.5 * (self.alpha + math.hypot(2.0 * self.B, self.alpha))


@dataclass(frozen=True)
class CoulombSpec(_Spec):
    """Radial Coulomb family: angular constant Lcal and base charge Z0."""

    Lcal: float
    Z0: float
    alpha: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if not self.Lcal > -0.5:
            raise ParameterError(f"Lcal must be > -1/2, got {self.Lcal}")
        if not self.Z0 > 0:
            raise ParameterError(f"Z0 must be positive, got {self.Z0}")
        if not self.alpha >= 0:
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


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


# A family's g returns (g, g', g'', g''', g''''); constants are numbers,
# which broadcast, so no array is formed for one.


def _g_morse(x):
    e = np.exp(-x)
    d = -e
    return (e, d, e, d, e)


def _morse_of(pb, w, alpha):
    lam = 0.25 * (w + alpha)
    if not lam > alpha:
        raise ParameterError(
            f"no Morse image: (w + alpha)/4 = {lam} must exceed alpha = {alpha} "
            "(omega^2 > 3 alpha^2 for an oscillator)"
        )
    B = math.sqrt(lam * (lam - alpha))
    return MorseSpec(A0=0.5 * pb + 0.5 * (pb + 1.0) * (lam / B - 1.0), B=B, alpha=alpha)


def _morse_well(A_bar, B, alpha):
    """Slots of the Morse potential with coupling A_bar, and its constant-mass level count."""
    if not A_bar > 0 or not B > 0:
        raise ParameterError("Morse parameters must be positive")
    return (0.0, -B * (2 * A_bar + 1) - alpha / 2, B**2 - 0.75 * alpha**2), math.ceil(A_bar)


def _coulomb_well(Z_bar, Lcal, alpha):
    """Slots of the Coulomb potential with charge Z_bar, and None: at constant
    mass it holds infinitely many levels, and a deformation leaves finitely many."""
    if not Z_bar > 0:
        raise ParameterError("Z_bar must be positive")
    if not Lcal > -0.5:
        raise ParameterError("Lcal must be > -1/2")
    return (Lcal * (Lcal + 1.0), -2.0 * Z_bar, -alpha**2 / 4), None


# the fixed potentials of ``spectrum_fixed_potential``:
# (params, alpha) -> (slots, levels held at constant mass)
_WELLS = {"morse": _morse_well, "coulomb": _coulomb_well}


def _coulomb_of(pb, w, alpha):
    Z0 = 0.125 * (w + alpha) * (pb + 1.0)
    return _mapped_spec(CoulombSpec, Lcal=0.5 * (pb - 1.0), Z0=Z0, alpha=alpha)


@dataclass(frozen=True)
class Family:
    """What differs between the three families (see the module docstring); grids are even in x."""

    domain: tuple  # open coordinate interval
    probe: tuple  # interval scanned for where a state lives
    g: object  # q -> (g, g', g'', g''', g''''), constants as numbers; f = 1 + alpha g
    sigma: float  # measure (1/2) g^(sigma-1) dg; equals g g''/g'^2
    g_ratio: object  # q -> rho = g/g', linear since g g''/g'^2 = sigma is constant
    q_of_x: object  # the coordinate q at the Morse coordinate x = -ln g
    x_of_q: object  # its inverse, x = -ln g(q)
    power: object  # spec -> exponent m of the coordinate power q^m
    linear: bool  # Morse: h carries -(pb/2) x
    slots: object  # (spec, n) -> (a0, a1, a2) of the member-n potential
    energy_slot: tuple  # (j, c): an energy E enters slot a_j as a_j - c E
    spec_of: object = None  # (pb, w, alpha) -> spec, for the families a map ends in

    def x_nodes(self, q_lo, q_hi, count):
        """count x evenly spaced from x(q_lo) to x(q_hi), the rule of every grid."""
        return np.linspace(self.x_of_q(q_lo), self.x_of_q(q_hi), count)

    def from_x(self, x):
        """(q, dq/dx, d2q/dx2) at the Morse coordinate x: dq/dx = -rho, rho' = 1 - sigma."""
        q = self.q_of_x(x)
        rho = self.g_ratio(q)
        return (q, -rho, (1.0 - self.sigma) * rho)

    def to_x(self, q):
        """(x, dx/dq, d2x/dq2) at the point q: dx/dq = -1/rho, d2x/dq2 = (1 - sigma)/rho^2."""
        rho = self.g_ratio(q)
        return (self.x_of_q(q), -1.0 / rho, (1.0 - self.sigma) / (rho * rho))


FAMILIES = {
    "ho": Family(
        domain=(0.0, math.inf),
        probe=(1e-6, 1e6),
        g=lambda r: (r * r, 2.0 * r, 2.0, 0.0, 0.0),
        sigma=0.5,
        g_ratio=lambda r: 0.5 * r,  # never forms r^2, which underflows below 1e-154
        q_of_x=lambda x: np.exp(-0.5 * x),  # r = e^(-x/2)
        x_of_q=lambda r: -2.0 * np.log(r),
        power=lambda s: s.L + 1.0,
        linear=False,
        slots=lambda s, n: (s.L * (s.L + 1) / 4, -s.alpha / 4, s.omega**2 / 16 - s.alpha**2 / 2),
        energy_slot=(1, 0.25),
    ),
    "morse": Family(
        domain=(-math.inf, math.inf),
        probe=(-80.0, 300.0),
        g=_g_morse,
        sigma=1.0,
        g_ratio=lambda x: -1.0,
        q_of_x=lambda x: x,
        x_of_q=lambda x: x,
        power=lambda s: 0.0,
        linear=True,
        slots=lambda s, n: _morse_well(member_coupling(s, n), s.B, s.alpha)[0],
        energy_slot=(0, 1.0),
        spec_of=_morse_of,
    ),
    "coulomb": Family(
        domain=(0.0, math.inf),
        probe=(1e-6, 1e6),
        g=lambda R: (R, 1.0, 0.0, 0.0, 0.0),
        sigma=0.0,
        g_ratio=lambda R: R,
        q_of_x=lambda x: np.exp(-x),  # R = e^-x
        x_of_q=lambda R: -np.log(R),
        power=lambda s: s.Lcal + 1.0,
        linear=False,
        slots=lambda s, n: _coulomb_well(member_coupling(s, n), s.Lcal, s.alpha)[0],
        energy_slot=(2, 1.0),
        spec_of=_coulomb_of,
    ),
}


def level(family, slots, alpha, n):
    """(pb, w, E) of level n of the potential with these slots.

    The su(1,1) law of the module docstring, solved in the Morse frame for
    the one of b1, pb and w whose slot the energy enters.
    """
    fam = FAMILIES[family]
    j, c = fam.energy_slot
    s = 0.5 * (1.0 - fam.sigma)
    b0 = slots[0] + s * s
    b1 = slots[1] + 2.0 * s * (s - 1.0) * alpha
    d2 = slots[2] + (1.0 - s) ** 2 * alpha**2  # b2 + alpha^2
    m, q = alpha * (4.0 * n * n + 2.0 * n + 3.0), alpha * (4.0 * n + 1.0)
    # solve for the unknown in slot j; root is the value the law gives that slot
    if j == 0:
        w = alpha + 4.0 * math.sqrt(d2)
        pb = -(4.0 * b1 + w * (2.0 * n + 1.0) + m) / (w + q)
        root = 0.25 * pb * pb
    elif j == 1:
        pb, w = 2.0 * math.sqrt(b0), alpha + 4.0 * math.sqrt(d2)
        root = -0.25 * (w * (2.0 * n + pb + 1.0) + m + pb * q)
    else:
        pb = 2.0 * math.sqrt(b0)
        w = -(4.0 * b1 + m + pb * q) / (2.0 * n + pb + 1.0)
        root = (0.25 * (w - alpha)) ** 2
    return pb, w, ((b0, b1, d2)[j] - root) / c


def _state_level(spec, n):
    """(pb, w, E) of bound state n.

    The oscillator's energy enters a1, the slot a hierarchy moves, so n
    counts the levels of its one Hamiltonian.  A Morse or Coulomb state n
    is level n of member n, whose energy the hierarchy shares; it is read
    at member 0's level 0, so it is the same float for every n.
    """
    fam = FAMILIES[spec.family]
    k = n if fam.energy_slot[0] == 1 else 0
    return level(spec.family, fam.slots(spec, k), spec.alpha, k)


def jacobi_params(spec):
    """Jacobi parameters (pa, pb) of a deformed spec, pa = (w - alpha)/(2 alpha)."""
    if not spec.deformed:
        raise NotApplicableError("defined only for deformed families (alpha > 0)")
    pb, w = invariants(spec)
    return (w - spec.alpha) / (2.0 * spec.alpha), pb


def invariants(spec):
    """The pair (pb, w) of the level law, which the parameter maps keep.

    Continuous in alpha >= 0, with w = alpha (2pa + 1).
    ``FAMILIES[family].spec_of`` inverts it for the Morse and Coulomb
    families.
    """
    return _state_level(spec, 0)[:2]


def check_point(spec, point):
    """Raise DomainError naming the first point that is NaN or outside the open domain."""
    lo, hi = FAMILIES[spec.family].domain
    p = np.asarray(point, dtype=float)
    # a NaN point makes min and max NaN, which fails both comparisons
    if not (p.size == 0 or (lo < p.min() and p.max() < hi)):
        i = int(np.argmin((lo < p) & (p < hi)))
        where = "" if p.ndim == 0 or _scalar.get() else f" (entry {i} of {p.size})"
        raise DomainError(f"point {float(p.flat[i])!r}{where} outside open domain ({lo}, {hi})")


def member_coupling(spec, n):
    """The n-th hierarchy member's coupling: A_n for Morse, Z_n for Coulomb.

    Constant mass gives the linear laws A_n = A0 + n and
    Z_n = Z0 (n+Lcal+1)/(Lcal+1); the deformed families acquire a
    quadratic n-dependence.
    """
    _check_index(n, "member index must be non-negative")
    if spec.family == "morse":
        if spec.alpha == 0:
            return spec.A0 + float(n)
        lam = spec.lam_abs
        a = spec.alpha
        return (a * n + lam) / lam * spec.A0 + n * (
            2.0 * spec.B**2 + a * spec.B + a * lam * (n + 1.0)
        ) / (2.0 * spec.B * lam)
    if spec.family == "coulomb":
        # member 0 is the spec's own Z0, which the quotient can miss in the last bit
        base = spec.Z0 * (n + spec.Lcal + 1.0) / (spec.Lcal + 1.0) if n else spec.Z0
        return base + 0.5 * spec.alpha * n * (n + 2.0 * spec.Lcal + 1.0)
    raise ParameterError("oscillator family has a single Hamiltonian, no coupling")


def energy(spec, n):
    """Energy of the n-th bound state (oscillator) or the fixed family energy.

    The oscillator's E_n = 2 w mu_n reduces to omega (2n + L + 3/2) at
    alpha = 0.  Morse and Coulomb hierarchies share one energy independent
    of n.
    """
    _check_index(n, "quantum number must be non-negative")
    return _state_level(spec, n)[2]


def deforming(spec, point):
    """Deforming profile f = 1 + alpha g and derivatives (f, f', f'', f''', f'''')."""
    check_point(spec, point)
    p, a = np.asarray(point, dtype=float), spec.alpha
    if a == 0.0:  # f = 1 exactly, also where g overflows
        return (np.ones_like(p),) + (np.zeros_like(p),) * 4
    g = FAMILIES[spec.family].g(p)
    # times ones, a constant entry of g gives an array of the points' shape
    return (1.0 + a * g[0],) + tuple(a * gk * np.ones_like(p) for gk in g[1:])


def potential(spec, slots, p, order):
    """Derivatives 0..order (<= 3) of a0/rho^2 + a1 g'/rho + a2 g'^2, slots = (a0, a1, a2).

    Only a nonzero slot's basis stack is built: L = 0 stays finite where
    1/rho^2 overflows.
    """
    fam = FAMILIES[spec.family]
    v = [np.zeros_like(p)] * (order + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rho, g1 = fam.g_ratio(p), fam.g(p)[1 : order + 2]

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
        _sum((a[j] if c == 1 else c * a[j]) * b[k - j] for j, c in enumerate(_BINOM[k][: len(a)]))
        for k in range(order + 1)
    ]


def _sum(terms):
    """The sum of arrays or numbers from the first term on; ``sum`` would add it to 0."""
    return functools.reduce(operator.add, terms)


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


def g_over_f(alpha, g, order, scale=1.0):
    """Derivatives 0..order of scale g/f, f = 1 + alpha g, from the stack of g.

    As a function of g, g/f = (1 - 1/f)/alpha has k-th derivative
    -alpha^(k-1) times that of 1/f with respect to f; its value is formed as
    g/f where alpha g <= 1, so nothing cancels as alpha -> 0.  At alpha = 0
    it is g itself, also where g overflows.  Returns the stack and the 1/f
    stack in f (None at alpha = 0).
    """
    if alpha == 0.0:
        return [scale * gk for gk in g[: order + 1]], None
    ag = alpha * g[0]
    inv = _reciprocal(1.0 + ag, order)
    v0 = scale * np.where(ag > 1.0, (1.0 - inv[0]) / alpha, g[0] * inv[0])
    dv = [-scale * alpha ** (k - 1) * inv[k] for k in range(1, order + 1)]
    return chain([v0] + dv, g, order), inv


def _exp_ratios(h, order):
    """(d/dq)^k e^h / e^h for k = 1..order: ``chain`` with all outer entries 1,
    written out without its products by 1.0, in the same order of operations."""
    out = []
    if order >= 1:
        h1 = h[1]
        out.append(h1)
    if order >= 2:
        s = h1 * h1
        out.append(h[2] + s)
    if order >= 3:
        out.append(h[3] + 3.0 * h1 * h[2] + s * h1)
    if order >= 4:
        out.append(h[4] + (4.0 * h1 * h[3] + 3.0 * h[2] * h[2]) + 6.0 * s * h[2] + s * s)
    return out


# points arrays whose stacks a function remembers; see the module docstring
MEMO_SIZE = 4

# points a bound state's stack evaluates at once; see the module docstring
BLOCK = 16_384


def _where(mask, if_true, if_false):
    """np.where(mask, if_true(), if_false()); mask is True or False where every entry
    takes one side, and then only that side is formed."""
    if mask is True:
        return if_true()
    if mask is False:
        return if_false()
    return np.where(mask, if_true(), if_false())


class Remembered:
    """What ``_compute(points, order)`` returned on the last MEMO_SIZE points arrays.

    The rule of the module docstring, for every kind of stack: a bound
    state's or a function's (value, d1, ..., d_order), and an
    ``operators.DiffOperator2``'s coefficient stacks.  ``_prefix(result,
    order)`` cuts a result remembered at a higher order down to ``order``.
    """

    _memo = ()  # ((points shape, points bytes), (order, result)), oldest first

    def _prefix(self, result, order):
        return result[: order + 1]

    def _remembered(self, p, order):
        """``_compute(p, order)`` on the float array p, or its remembered prefix."""
        if _scalar.get():  # called while a scalar is evaluated: remember nothing
            return self._compute(p, order)
        key = (p.shape, p.tobytes())
        memo = self._memo
        for known, (top, result) in memo:
            if top >= order and known == key:
                return self._prefix(result, order)
        result = self._compute(p, order)
        kept = tuple(entry for entry in memo if entry[0] != key)
        self._memo = kept[max(len(kept) + 1 - MEMO_SIZE, 0) :] + ((key, (order, result)),)
        return result


class Differentiable(Remembered):
    """A function with analytic derivatives up to ``max_order``.

    ``derivs(point, order)`` returns ``(value, d1, ..., d_order)``;
    calling the object returns the value and ``evaluator`` the
    (value, d1, d2) triple.  A subclass computes a stack in
    ``_stack(points, order)`` on a float array; ``derivs`` evaluates a
    scalar as a one-point array and remembers stacks, both by the rule of
    the module docstring.
    """

    def derivs(self, point, order=2):
        """(value, d1, ..., d_order) at a point: floats at a scalar, else read-only arrays."""
        if not isinstance(order, (int, np.integer)) or not 0 <= order <= self.max_order:
            raise ParameterError(
                f"order must be an integer in [0, {self.max_order}], got {order!r}"
            )
        p = np.asarray(point, dtype=float)
        if p.ndim == 0:
            token = _scalar.set(True)
            try:
                return tuple(float(a[0]) for a in self._stack(p.reshape(1), order))
            finally:
                _scalar.reset(token)
        return self._remembered(p, order)

    def _compute(self, p, order):
        stack = tuple(np.asarray(a) for a in self._stack(p, order))
        for a in stack:
            a.flags.writeable = False
        return stack

    def evaluator(self, point):
        """(value, d1, d2) at a point; vectorized over ndarray input."""
        return self.derivs(point, 2)

    def __call__(self, point):
        return self.derivs(point, 0)[0]


class BoundState(Differentiable):
    """One closed-form eigenfunction q^power * exp(log_norm + h(q)) * Q_n(y(q)).

    Attributes mirror the common data of all six families: the quantum
    number ``n``, the ``energy`` it solves the member equation with and the
    signed normalization constant ``norm_coeff``.  ``derivs`` evaluates up
    to fourth derivatives for operator composition.

    The coordinate power is kept out of h: its derivatives are exact
    falling factorials, which avoids catastrophic cancellation of
    1/p^2-sized terms near the origin in high-order derivatives.
    """

    max_order = 4

    def __init__(self, spec, n):
        _check_index(n, f"quantum number must be a non-negative int, got {n}")
        if n > specfun.MAX_DEGREE:
            raise ParameterError(f"quantum number {n} exceeds the maximum {specfun.MAX_DEGREE}")
        self.spec = spec
        self.family = spec.family
        self.n = n = int(n)
        pb, w, self.energy = _state_level(spec, n)
        fam = FAMILIES[spec.family]
        a = spec.alpha
        lg = specfun.log_gamma
        self.power = fam.power(spec)
        self.scale = 0.5 * (w + a)  # y = scale g/f
        self.rate = 0.25 * (w + a * (2.0 * pb + 3.0))  # h = -rate ln(f)/alpha
        eps = a / self.scale  # 1/(pa + 1)
        pa = (w - a) / (2.0 * a) if a else math.inf
        self.params = pa, pb
        self.log_norm = 0.5 * (
            LN2
            + lg(n + 1.0)
            - lg(n + pb + 1.0)
            + (pb + 1.0) * math.log(self.scale)
            + math.log1p((2.0 * n + pb) * eps)
            + pb * math.log1p(n * eps)
            + specfun.log_gamma_ratio(n + pa + 1.0, pb)
        )
        self.slope = 0.5 * pb if fam.linear else 0.0  # h carries -slope * q
        # the coefficient of L_n = (-1)^n Q_n at constant mass
        sign = -1.0 if a == 0 and n % 2 else 1.0
        self.norm_coeff = sign * math.exp(self.log_norm)
        self._supports = {}  # (rel_floor, weight) -> ``operators.support`` interval

    def h_and_y(self, p, order):
        """Derivatives 0..order of the exponent h and the polynomial argument y."""
        g = FAMILIES[self.family].g(p)[: order + 1]
        a = self.spec.alpha
        y, inv = g_over_f(a, g, order, self.scale)
        if inv is None:  # f = 1: h is linear in g, also where g overflows
            h = [-self.rate * gk for gk in g]
        else:
            # h = -rate ln(f)/alpha as a function of g, whose k-th derivative
            # is alpha^(k-1) times that of ln f with respect to f
            dh = [-self.rate * a ** (k - 1) * inv[k - 1] for k in range(1, order + 1)]
            h = chain([-self.rate * np.log1p(a * g[0]) / a] + dh, g, order)
        if self.slope:
            h[0] = h[0] - self.slope * p
            if order >= 1:
                h[1] = h[1] - self.slope
        return h, y

    def _stack(self, p, order):
        """Value and derivatives (value, d1, ..., d_order) on the points array p.

        Every entry is 0 where the exponential factor u0 = e^(log_norm + h),
        which carries p^m where p > 1, is not positive: where e^h
        underflows, or is NaN because p*p or e^-x overflowed.
        """
        check_point(self.spec, p)
        if p.size <= BLOCK:
            return self._block(p, order)
        # every step is elementwise, so block by block gives the same bits
        out = tuple(np.empty(p.shape) for _ in range(order + 1))
        flat = p.ravel()
        for start in range(0, p.size, BLOCK):
            part = slice(start, start + BLOCK)
            for o, b in zip(out, self._block(flat[part], order)):
                o.reshape(-1)[part] = b
        return out

    def _block(self, p, order):
        """The stack of `_stack` on an array p of at most BLOCK points.

        A pass whose result no entry of p reads is not made: one side of
        the p > 1 split when every point falls on the other, and the
        zeroing when no point is dead.
        """
        m = self.power
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h, y = self.h_and_y(p, order)
            lead = self.log_norm + h[0]
            if m != 0.0:
                # where p > 1 the power p^m joins the exponent, so that a huge
                # p^m never meets an underflowed e^h
                big = p > 1.0
                big = True if big.all() else big if big.any() else False
                lead = _where(big, lambda: lead + m * np.log(p), lambda: lead)
            u0 = np.exp(lead)
            dead = ~(u0 > 0.0)
            poly = specfun.jacobi_derivs(self.n, *self.params, y[0], order)
            u = [u0] + [u0 * b for b in _exp_ratios(h, order)]
            # smooth part G = u * Q(y)
            out = leibniz(u, chain(poly, y, order), order)
            if m != 0.0:
                # d^j/dp^j p^m = fall_j p^(m-j), with p^m in u0 where p > 1;
                # the stack stops at the first zero fall_j, before p^(m-j)
                # can overflow
                pw, fall = [], 1.0
                for j in range(order + 1):
                    if fall == 0.0:
                        break
                    pw.append(fall * _where(big, lambda: p ** -float(j), lambda: p ** (m - j)))
                    fall *= m - j
                out = leibniz(pw, out, order)
            if dead.any():
                out = [np.where(dead, 0.0, o) for o in out]
        return out


# the states some caller holds, by (spec, n); holds none alive itself
_LIVE = weakref.WeakValueDictionary()


def bound_state(spec, n):
    """Closed-form bound state number n of the family defined by spec.

    While a state of an equal (spec, n) is alive, that state is returned,
    with the stacks it remembers.
    """
    key = (spec, n)
    state = _LIVE.get(key)
    if state is None:
        state = _LIVE[key] = BoundState(spec, n)
    return state


# ---------------------------------------------------------------------------
# fixed-potential spectra
# ---------------------------------------------------------------------------


def levels(family, slots, alpha, count):
    """Levels (k, E_k), k < count, of the potential with these slots, while they exist.

    The law's unknown, pb (Morse) or w - alpha (Coulomb), decreases
    strictly in k, and level k exists while it is positive: the state
    decays like it.  The oscillator's levels never end.  Testing the
    energy, its square, would admit non-normalizable candidates (confirmed
    against the finite-difference oracle).
    """
    j = FAMILIES[family].energy_slot[0]
    out = []
    for k in range(count):
        pb, w, e = level(family, slots, alpha, k)
        if (pb, math.inf, w - alpha)[j] <= 0:
            break
        out.append((k, e))
    return out


def slots_at_energy(spec, n):
    """Member n's slots of H - E_n: slot j holds a_j - c E_n, (j, c) = ``energy_slot``."""
    fam = FAMILIES[spec.family]
    j, c = fam.energy_slot
    slots = list(fam.slots(spec, n))
    slots[j] -= c * energy(spec, n)
    return tuple(slots)


def member_levels(spec, n, count):
    """``levels`` of member n's potential: at most count pairs (k, E_k)."""
    return levels(spec.family, FAMILIES[spec.family].slots(spec, n), spec.alpha, count)


def spectrum_fixed_potential(family, params, alpha, max_count):
    """Bound spectrum of one fixed Morse or Coulomb potential.

    ``params`` is (A_bar, B) for Morse or (Z_bar, Lcal) for Coulomb.  At
    alpha = 0 the Morse well holds ceil(A_bar) levels -(A_bar - k)^2 and
    the Coulomb well infinitely many -(Z_bar/(k+Lcal+1))^2, truncated at
    ``max_count``.  A deformation can suppress levels, down to a finite
    Coulomb count; losing constant-mass Morse levels warns.
    """
    _check_index(max_count, "max_count must be at least 1", 1)
    if not all(map(math.isfinite, (*params, alpha))):
        raise ParameterError(f"parameters must be finite, got {params} and alpha = {alpha}")
    if not alpha >= 0:
        raise ParameterError("alpha must be non-negative")
    if family not in _WELLS:
        raise ParameterError(f"fixed-potential spectra exist for morse/coulomb, not {family}")
    slots, held = _WELLS[family](*params, alpha)
    out = levels(family, slots, alpha, max_count)
    if alpha > 0 and held is not None and len(out) < min(held, max_count):
        warnings.warn(
            f"deformation alpha={alpha} suppresses {family.capitalize()} levels: kept "
            f"{len(out)} of the {held} constant-mass ones",
            UserWarning,
            stacklevel=2,
        )
    return out
