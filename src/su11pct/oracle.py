"""Independent finite-difference eigensolver for the six Hamiltonians.

The Hermitian form -d/dq (1/M) d/dq + V_eff is discretized on a grid that
is uniform in the paper's Morse coordinate x = -ln g(q), with q = q(x) and
J = |dq/dx| = |rho| from ``systems.FAMILIES``: on the Morse line x = q and
J = 1; on the half-lines r = e^(-x/2) and R = e^-x, so the grid is uniform
in ln q and the states, which span decades, need only a few thousand
nodes.  In x the eigenproblem reads -d/dx (w/J) d/dx psi + V_eff J psi =
E J psi with w = 1/M.  The second-order flux scheme takes w/J at the x
midpoints over h^2 and V_eff J on the diagonal, with the mass matrix
diag(J); scaling symmetrically by J^(-1/2) gives a symmetric tridiagonal
matrix,

    diag_i = ((w/J)_(i-1/2) + (w/J)_(i+1/2)) / (h^2 J_i) + V_eff(q_i)
    off_i  = -(w/J)_(i+1/2) / (h^2 sqrt(J_i J_(i+1))),

which on the Morse line is exactly the uniform flux scheme.  Its lowest
eigenvalues are bracketed by the Sturm-sequence count (Barth, Martin &
Wilkinson, Numer. Math. 9, 1967) and located by a root finder on the same
sweep (as in Li & Zeng, SIAM J. Sci. Comput. 15, 1994).  As in LAPACK's
dstebz, every count taken brackets all levels at once: count(x) = c puts
levels 1..c below x and the rest at or above it, so each level starts
from the tightest bracket the earlier sweeps left.  The LDL^T sweep that
counts also sums G(x) = sum_j 1/(x - lambda_j), the log-derivative of
det(T - x).  A bracket is bisected, geometrically while its ends differ
in scale, until counts isolate one level in it; then the Newton step
x - 1/G from its end nearer the level, with the levels already found
deflated, converges quadratically.  Before that, ``discretize`` keeps the
member Hamiltonian's closed-form levels on the matrix as seeds: a level's
first sweep is made at its seed, and its second at the Newton step from
that sweep, so a level the closed form and the matrix share takes three
or four sweeps instead of a bisection from the Gershgorin interval.  Only
counts move a bracket, so every level is the midpoint of a counted
bracket narrower than the tolerance, and a seed, which only chooses where
a sweep is made, never decides a level.  The closed forms enter nowhere
else, so the eigenvalues cross-validate the analytic spectra.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import systems
from .errors import ConvergenceError, ParameterError

TAIL = 1e-6  # height, relative to its scale, where a power-law tail is cut
# Lowest start of a half-line default grid, q_min >= max(_Q_FLOOR, _HQ_FLOOR/h)
# in its log step h.  The matrix entries grow as 1/(h q)^2, and the Sturm
# sweep squares the off-diagonal ones, which overflow below q ~ 1e-77/h; as
# L or Lcal nears -1/2 the wall term's start underflows far below that.  In
# a scan of 792 default grids (L and Lcal in [-0.499, -0.4]) _Q_FLOOR gave
# all 322 that overflowed finite matrices and moved 6 of the 470 that
# solved, those that started just below it.  It fits the step of COUNT
# nodes; _HQ_FLOOR/h stays below it there and floors the finer steps of
# grids whose count grows with the energy unit.
_Q_FLOOR = 1e-74
_HQ_FLOOR = 4e-76
PAD = 2.0  # outer padding of the half-line grids
COUNT = 4000  # default node count
MAX_COUNT = 2**20  # most nodes of a grid: 8 MB per float array over it
MORSE_STEP = 0.05  # largest default step on the Morse line
SCALE = 2.0  # ratio of bracket ends past which bisection turns geometric
MAX_LEVELS = 10  # most levels one solve returns
# Energy unit (lam for the oscillator, kappa_0^2 for Coulomb) up to which
# COUNT log nodes hold the constant-mass levels to about 0.4 of 5e-4
LOG_UNIT = {"ho": 1.5, "coulomb": 200.0}


@dataclass(frozen=True)
class GridSpec:
    """Dirichlet grid on [q_min, q_max] with ``count`` nodes.

    ``discretize`` spaces the nodes evenly in the Morse coordinate
    x = -ln g(q) of the spec's family: in q on the Morse line, in ln q on
    a half-line, where q_min must be above 0.
    """

    q_min: float
    q_max: float
    count: int

    def __post_init__(self):
        for name, value in (("q_min", self.q_min), ("q_max", self.q_max)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not self.q_min < self.q_max:
            raise ParameterError("q_min must be below q_max")
        systems._check_index(self.count, "grid needs at least 100 points", 100)
        if self.count > MAX_COUNT:
            raise ParameterError(
                f"a grid of {self.count} nodes is above the limit of {MAX_COUNT}"
            )


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal matrix over the interior grid nodes.

    ``seeds`` are where ``lowest_eigenvalues`` makes its first sweep for
    each level, in order; they choose sweeps only, never a level.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    seeds: tuple = ()


def discretize(spec, member_n, grid):
    """Flux-form discretization of the member_n Hamiltonian on the grid.

    See the module docstring for the matrix; it is symmetric by
    construction with non-positive off-diagonals.  The seeds are the
    Hamiltonian's closed-form levels, up to MAX_LEVELS of them, or fewer
    where its well holds fewer.  Raises DomainError when a grid bound
    leaves the family's open domain, and ParameterError when an entry, or
    the square of an off-diagonal one that the Sturm sweep takes, is not
    finite on the grid.
    """
    systems.check_point(spec, (grid.q_min, grid.q_max))
    seeds = tuple(e for _, e in systems.member_levels(spec, member_n, MAX_LEVELS))
    fam = systems.FAMILIES[spec.family]
    x = fam.x_nodes(grid.q_min, grid.q_max, grid.count)
    h = (x[-1] - x[0]) / (grid.count - 1)
    with np.errstate(all="ignore"):
        q, dq, _ = fam.from_x(0.5 * (x[:-1] + x[1:]))
        w_j = 1.0 / systems.mass_and_potential(spec, member_n, q)[0] / np.abs(dq)
        q, dq, _ = fam.from_x(x[1:-1])
        v = systems.mass_and_potential(spec, member_n, q)[1]
        j = np.broadcast_to(np.abs(dq), q.shape)  # J is the number 1 on the Morse line
        diag = (w_j[:-1] + w_j[1:]) / (h * h) / j + v
        off = -w_j[1:-1] / (h * h) / np.sqrt(j[:-1] * j[1:])
        finite = np.isfinite(diag).all() and np.isfinite(off * off).all()
    if not finite:
        raise ParameterError(
            f"the matrix overflows on the grid [{grid.q_min:g}, {grid.q_max:g}] "
            f"of {grid.count} nodes"
        )
    return DiscreteHamiltonian(diag, off, seeds)


def _count_below(diag, off2, x):
    """Sturm count and log-derivative of det(T - x) in one LDL^T sweep.

    Returns (count, G): count is the number of eigenvalues below x, the
    number of negative pivots d_i, and G = sum_i d_i'/d_i = sum_j
    1/(x - lambda_j).  With q_i = e_i^2/d_(i-1) the pivots are
    d_i = a_i - x - q_i and r_i = d_i'/d_i follows r_i = (q_i r_(i-1) - 1)/d_i.
    A zero pivot is taken as -1e-300, the pivot just above x, and counted.
    Plain Python floats: the recurrence is sequential, and a scalar loop
    beats short-vector numpy calls by an order of magnitude here.
    """
    count = 0
    d = diag[0] - x
    if d <= 0.0:
        count = 1
        if d == 0.0:
            d = -1e-300
    r = -1.0 / d
    g = r
    for di, e2 in zip(islice(diag, 1, None), off2):
        q = e2 / d
        d = di - x - q
        if d <= 0.0:
            count += 1
            if d == 0.0:
                d = -1e-300
        r = (q * r - 1.0) / d
        g += r
    return count, g


def _split(lo, hi, tol):
    """Bisection point of (lo, hi): geometric while the ends differ in scale.

    A bracket across 0 is split at 0, one whose ends differ by more than
    a factor SCALE in magnitude (floored at tol) at their geometric mean,
    and any other at its midpoint.
    """
    if lo < 0.0 < hi:
        return 0.0
    a, b = sorted((max(abs(lo), tol), max(abs(hi), tol)))
    if b > SCALE * a:
        return math.copysign(math.sqrt(a * b), lo + hi)
    return 0.5 * (lo + hi)


def _deflated(sweep, found):
    """(x, G) of an (x, count, G) sweep with the found levels taken out of G."""
    x, _, g = sweep
    return x, g - sum(1.0 / (x - lam) for lam in found)


def _newton(lower, upper, found):
    """Newton step x - 1/G from the swept end of (lower, upper) nearer the level.

    Each end is an (x, count, G) sweep, and G at a start bound, never
    swept, is nan.  With the found levels deflated, the end nearer the
    level is the one with the larger |G|; nan when neither end is swept.
    """
    ends = (_deflated(lower, found), _deflated(upper, found))
    x, g = max(ends, key=lambda e: -1.0 if math.isnan(e[1]) else abs(e[1]))
    return x - 1.0 / g


def lowest_eigenvalues(dh, k, tol=1e-10):
    """The k smallest eigenvalues, each bracketed to width below tol.

    Brackets start from the Gershgorin interval of the matrix, and every
    sweep's count narrows those of all k levels.  Level j's first shift is
    ``dh.seeds[j]`` when that lies inside its bracket, and its second the
    Newton step x - 1/G from that sweep, found levels deflated.  Otherwise
    its bracket is split by ``_split`` until counts isolate level j: j at
    the lower end and j + 1 at the upper, or, for a seeded level, j at the
    lower end while the upper one is still the unswept Gershgorin bound.
    From then on the shift is the ``_newton`` step.  Both estimates are
    moved a quarter of tol toward the far end so that the last two sweeps
    close the bracket.  An estimate that is not finite or leaves the
    bracket, or a ``_newton`` step that lies more than half as far from
    the last shift as that lay from the one before, falls back to
    ``_split``.  A seed only chooses where a sweep is made, so a wrong one
    costs sweeps, never a level.  On the six battery matrices (about 4,000
    rows, k = 2, tol = 1e-9) this takes 6 to 13 sweeps, 52 in all: 3 or 4
    for a level the seed and the matrix share, 9 for the Morse box level
    above a fixed well's one bound level, which has no seed.  At k = 5 it
    takes 16 to 39, 158 in all.  Unseeded, k = 2 takes 18 to 31, and
    bisection alone 58 to 78.  The budget is bisection's, max_iter sweeps
    per level.  Raises ConvergenceError carrying the open brackets of the
    levels still wider than tol when it is spent, or when no float is
    left between the ends.
    """
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= MAX_LEVELS):
        raise ParameterError(f"k must be between 1 and {MAX_LEVELS}")
    systems._check_tol(tol)
    diag = dh.diag
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(dh.offdiag)
    radius[1:] += np.abs(dh.offdiag)
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    dlist = diag.tolist()
    off2 = (dh.offdiag * dh.offdiag).tolist()
    max_iter = max(64, int(math.ceil(math.log2(max((hi - lo) / tol, 2.0)))) + 8)
    # level i lies between the sweeps lower[i] and upper[i], each kept as
    # (x, count, G); counts i and i + 1 at its ends isolate level i.  The
    # Gershgorin ends are not swept: G is nan there, and the count at the
    # upper one is None.
    lower = [(lo, 0, math.nan)] * k
    upper = [(hi, None, math.nan)] * k
    last = math.inf  # the last shift
    sweep = (math.nan, 0, math.nan)  # the last sweep, (x, count, G); none yet
    out = []
    stalled = []
    for j in range(k):
        step = math.inf  # distance of the last shift from the one before
        seeded = j < len(dh.seeds)
        seed = dh.seeds[j] if seeded else math.nan
        for _ in range(max_iter):
            (lo, below, _), (hi, above, _) = lower[j], upper[j]
            if hi - lo < tol:
                break
            lam = math.nan
            try:
                if sweep[0] == seed:  # the Newton step from the seed's sweep, unguarded
                    x0, g0 = _deflated(sweep, out)
                    lam, step = x0 - 1.0 / g0, math.inf
                elif below == j and (above == j + 1 or seeded and above is None):
                    lam = _newton(lower[j], upper[j], out)
            except ZeroDivisionError:
                pass
            if lo < seed < hi:  # the level's first shift
                x = seed
            elif lo < lam < hi and abs(lam - last) <= 0.5 * step:
                # a quarter of tol past the estimate, toward the far end, so
                # that the next sweep or two close the bracket
                x = lam - 0.25 * tol if lam - lo > hi - lam else lam + 0.25 * tol
                if not lo < x < hi:
                    x = lam
            else:
                x = _split(lo, hi, tol)
                if not lo < x < hi:  # no float left between the ends
                    break
            step, last = abs(x - last), x
            sweep = (x, *_count_below(dlist, off2, x))
            c = sweep[1]
            for i in range(min(c, k)):  # levels 0..c-1 lie below x
                if x < upper[i][0]:
                    upper[i] = sweep
            for i in range(c, k):  # the others at or above it
                if x > lower[i][0]:
                    lower[i] = sweep
        lo, hi = lower[j][0], upper[j][0]
        if hi - lo < tol:
            out.append(0.5 * (lo + hi))
        else:
            stalled.append((lo, hi))
    if stalled:
        raise ConvergenceError(
            f"{len(stalled)} of {k} levels not bracketed below tol = {tol:g} "
            f"within {max_iter} sweeps each",
            brackets=stalled,
        )
    return out


def default_grid(spec, member_n=0, count=None, k=3):
    """A grid wide enough for the lowest k levels of the member Hamiltonian.

    Built from the analytic level list and the classically relevant region.
    On the Morse line the wall side stops where V_eff reaches 200x the
    deepest level, or, with a deformed mass, where the wall-side tail
    e^(m x) falls to TAIL; the soft side extends several decay lengths of the shallowest level kept.  The
    half-line grids, uniform in ln q, start where psi ~ (q/l)^m at the
    origin falls to TAIL and a hard wall there shifts the deepest level by
    less than TAIL, with l that level's length (1/sqrt(lam) for the
    oscillator, 1/(2 kappa_0) for Coulomb), but not below _Q_FLOOR or
    _HQ_FLOOR over the log step, reach several decay lengths, or the
    deformed power-law tails r^-(pa+3/2)
    (oscillator) and R^-(kappa/alpha+1/2) (Coulomb) down to TAIL, and are
    padded by PAD, since a log grid pays only ln(q_max/q_min) for reach.
    ``count`` defaults to COUNT nodes.  A long Morse grid gets as many more
    as keep its step at MORSE_STEP, or at 0.1/|e_deep| in a deep well,
    since the error of a level grows as e_deep^2 h^2.  On a half-line grid
    that scales with l the relative error of a level is scale-free, so its
    absolute error grows with the energy unit; past LOG_UNIT the count
    grows as the square root of the unit.  The error of a level also grows
    with its energy, so for k > 3 the count grows by the ratio of the top
    level's energy to the third's; a Coulomb spectrum, which rises toward
    0, keeps its count, and k <= 3 grids do not change.
    """
    systems._check_index(k, "k must be at least 1", 1)
    a = spec.alpha
    # never empty: a valid spec's member-n well holds its level n, so its level 0
    levels = systems.member_levels(spec, member_n, k)
    if spec.family == "morse":
        e_deep, e_shallow = levels[0][1], levels[-1][1]
        slots = systems.FAMILIES["morse"].slots(spec, member_n)
        b2, c = slots[2], -slots[1]
        depth = c * c / (4.0 * max(b2, 1e-12))
        wall = 200.0 * max(abs(e_deep), depth)
        q_wall = (c + math.sqrt(c * c + 4.0 * max(b2, 1e-12) * wall)) / (
            2.0 * max(b2, 1e-12)
        )
        x_min = -math.log(q_wall)
        if a > 0:  # deformed wall side: f^2 and V_eff both grow as e^-2x,
            # leaving a tail e^(m x) past x ~ ln alpha, m^2 - 2m = b2/alpha^2
            m = 1.0 + math.sqrt(1.0 + max(b2, 0.0) / (a * a))
            x_min = min(x_min, math.log(a) + math.log(TAIL) / m)
        x_max = 21.0 / math.sqrt(abs(e_shallow)) + math.log(max(q_wall, 2.0))
        if count is None:
            step = min(MORSE_STEP, 0.1 / abs(e_deep))
            count = max(COUNT, math.ceil((x_max - x_min) / step))
        return GridSpec(x_min, x_max, count)
    if spec.family == "ho":
        lam = 0.5 * systems.invariants(spec)[1]  # (alpha + sqrt(omega^2 + alpha^2))/2
        e_top = systems.energy(spec, k + 2)
        r_max = 2.0 * math.sqrt(e_top) / lam  # twice the turning point
        if a > 0:  # power-law tail r^-(pa+3/2) past r ~ 1/sqrt(alpha)
            power = systems.jacobi_params(spec)[0] + 1.5
            r_max = max(r_max, 1.0 / math.sqrt(a)) * TAIL ** (-1.0 / power)
        unit, length = lam, 1.0 / math.sqrt(lam)  # e^(-lam r^2 / 2)
    else:
        kappa = math.sqrt(abs(levels[min(k, len(levels)) - 1][1]))
        unit = abs(levels[0][1])
        length = 0.5 / math.sqrt(unit)  # e^(-kappa_0 R) = e^(-y/2)
        r_max = 21.0 / kappa
        if a > 0:  # power-law tail R^-(kappa/alpha + 1/2) past R ~ 1/alpha
            r_max = max(r_max, TAIL ** (-1.0 / (kappa / a + 0.5)) / a)
    # psi ~ y^m at the origin, y = q/l in the deepest level's own length l;
    # start where psi falls to TAIL and a wall at y shifts that level, by
    # about unit * y^(2m-1), by less than TAIL
    m = systems.FAMILIES[spec.family].power(spec)
    y_min = TAIL ** (1.0 / m)
    if m > 0.5:
        y_min = min(y_min, (TAIL / unit) ** (1.0 / (2.0 * m - 1.0)))
    if count is None:
        count = max(COUNT, math.ceil(COUNT * math.sqrt(unit / LOG_UNIT[spec.family])))
        if len(levels) > 3:  # a level's error grows with its energy
            count = math.ceil(count * max(1.0, levels[-1][1] / levels[2][1]))
    q_min, q_max = max(length * y_min, _Q_FLOOR), PAD * r_max
    for _ in range(2):  # a higher start shortens the step a little; twice settles it
        q_min = max(q_min, _HQ_FLOOR * (count - 1) / math.log(q_max / q_min))
    return GridSpec(q_min, q_max, count)
