"""Independent finite-difference eigensolver for the six Hamiltonians.

The Hermitian form -d/dq (1/M) d/dq + V_eff is discretized on a grid that
is uniform in a coordinate u, with q = q(u) and J = dq/du.  On a linear
grid u = q and J = 1; on a log grid u = ln q and J = q, which is the
paper's oscillator -> Morse coordinate r = e^(-x/2) up to scale, so the
half-line states, which span decades, need only a few thousand nodes.  In
u the eigenproblem reads -d/du (w/J) d/du psi + V_eff J psi = E J psi with
w = 1/M.  The second-order flux scheme takes w/J at the u midpoints over
h_u^2 and V_eff J on the diagonal, with the mass matrix diag(J); scaling
symmetrically by J^(-1/2) gives a symmetric tridiagonal matrix,

    diag_i = ((w/J)_(i-1/2) + (w/J)_(i+1/2)) / (h_u^2 J_i) + V_eff(q_i)
    off_i  = -(w/J)_(i+1/2) / (h_u^2 sqrt(J_i J_(i+1))),

which on a linear grid is exactly the uniform flux scheme.  Its lowest
eigenvalues are found by bisection on the Sturm-sequence count (Barth,
Martin & Wilkinson, Numer. Math. 9, 1967).  As in LAPACK's dstebz, every
count taken brackets all levels at once: count(x) = c puts levels 1..c
below x and the rest at or above it, so each level starts from the
tightest bracket the earlier sweeps left.  Nothing here touches the
closed-form states, so the eigenvalues cross-validate the analytic
spectra.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import systems
from .errors import ConvergenceError, ParameterError

TAIL = 1e-6  # height, relative to its scale, where a power-law tail is cut
PAD = 2.0  # outer padding of the half-line grids
COUNT = 4000  # default node count
MORSE_STEP = 0.05  # largest default step on the Morse line
# Energy unit (lam for the oscillator, kappa_0^2 for Coulomb) up to which
# COUNT log nodes hold the constant-mass levels to about 0.4 of 5e-4
LOG_UNIT = {"ho": 1.5, "coulomb": 200.0}

# u <-> q maps of the two spacings: (u of q, q of u, J = dq/du of u)
_COORDINATES = {
    np.linspace: (lambda q: q, lambda u: u, np.ones_like),
    np.geomspace: (math.log, np.exp, np.exp),
}


@dataclass(frozen=True)
class GridSpec:
    """Dirichlet grid on [q_min, q_max] with ``count`` nodes.

    ``spacing`` is np.linspace (uniform in q) or np.geomspace (uniform in
    u = ln q, for q_min > 0), as in ``systems.FAMILIES``.
    """

    q_min: float
    q_max: float
    count: int
    spacing: object = np.linspace

    def __post_init__(self):
        if not self.q_min < self.q_max:
            raise ParameterError("q_min must be below q_max")
        if self.count < 100:
            raise ParameterError("grid needs at least 100 points")
        if self.spacing not in _COORDINATES:
            raise ParameterError("spacing must be np.linspace or np.geomspace")
        if self.spacing is np.geomspace and not self.q_min > 0.0:
            raise ParameterError("a geometric grid needs q_min > 0")

    @property
    def u_range(self):
        """End points of the uniform coordinate u."""
        u_of_q = _COORDINATES[self.spacing][0]
        return u_of_q(self.q_min), u_of_q(self.q_max)

    def u_nodes(self):
        """All count nodes in the uniform coordinate u."""
        return np.linspace(*self.u_range, self.count)

    @property
    def step(self):
        """Step h_u of the uniform coordinate."""
        u_lo, u_hi = self.u_range
        return (u_hi - u_lo) / (self.count - 1)

    def refined(self, factor=2):
        """Same interval and spacing with the step divided by ``factor``."""
        return GridSpec(
            self.q_min, self.q_max, (self.count - 1) * factor + 1, self.spacing
        )


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal matrix over the interior grid nodes."""

    diag: np.ndarray
    offdiag: np.ndarray
    grid: GridSpec


def discretize(spec, member_n, grid):
    """Flux-form discretization of the member_n Hamiltonian on the grid.

    See the module docstring for the matrix; it is symmetric by
    construction with non-positive off-diagonals.
    """
    _, q_of_u, jac = _COORDINATES[grid.spacing]
    u = grid.u_nodes()
    h = grid.step
    u_mid = 0.5 * (u[:-1] + u[1:])
    w_j = 1.0 / systems.mass_and_potential(spec, member_n, q_of_u(u_mid))[0] / jac(u_mid)
    v = systems.mass_and_potential(spec, member_n, q_of_u(u[1:-1]))[1]
    j = jac(u[1:-1])
    diag = (w_j[:-1] + w_j[1:]) / (h * h) / j + v
    off = -w_j[1:-1] / (h * h) / np.sqrt(j[:-1] * j[1:])
    return DiscreteHamiltonian(diag, off, grid)


def _count_below(diag, off2, x):
    """Number of eigenvalues below x, by the LDL^T sign count.

    Plain Python floats: the recurrence is sequential, and a scalar loop
    beats short-vector numpy calls by an order of magnitude here.
    """
    count = 0
    d = diag[0] - x
    if d < 0.0:
        count = 1
    for di, e2 in zip(islice(diag, 1, None), off2):
        if d == 0.0:
            d = -1e-300
        d = di - x - e2 / d
        if d < 0.0:
            count += 1
    return count


def lowest_eigenvalues(dh, k, tol=1e-10):
    """The k smallest eigenvalues, each bracketed to width below tol.

    Deterministic bisection on the Sturm count, starting from the
    Gershgorin interval of the grid's unscaled rows, capped above by
    interlacing; every count narrows the brackets of all k levels.
    Raises ConvergenceError carrying the open bracketing intervals if a
    bracket fails to shrink below tol within the iteration budget.
    """
    if not 1 <= k <= 10:
        raise ParameterError("k must be between 1 and 10")
    if tol < 1e-12:
        raise ParameterError("tol below 1e-12 is not supported")
    diag = dh.diag
    bound = np.abs(dh.offdiag)
    # Gershgorin discs of the similar matrix J^(-1/2) T J^(1/2), i.e. of the
    # unscaled rows; any positive scaling gives valid bounds, and this one
    # keeps the lower bound near min V_eff on a log grid.
    d = np.sqrt(_COORDINATES[dh.grid.spacing][2](dh.grid.u_nodes()[1:-1]))
    radius = np.zeros_like(diag)
    radius[:-1] += bound * (d[1:] / d[:-1])
    radius[1:] += bound * (d[:-1] / d[1:])
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    even = diag[::2]  # pairwise non-adjacent rows: a diagonal principal submatrix
    if k <= even.size:  # so by interlacing level k lies below its k-th smallest entry
        hi = min(hi, float(np.partition(even, k - 1)[k - 1]))
    dlist = diag.tolist()
    off2 = (dh.offdiag * dh.offdiag).tolist()
    max_iter = max(64, int(math.ceil(math.log2(max((hi - lo) / tol, 2.0)))) + 8)
    lower = [lo] * k  # level j lies in [lower[j], upper[j]]
    upper = [hi] * k
    out = []
    stalled = []
    for j in range(k):
        for _ in range(max_iter):
            if upper[j] - lower[j] < tol:
                break
            mid = 0.5 * (lower[j] + upper[j])
            c = _count_below(dlist, off2, mid)
            for i in range(min(c, k)):  # levels 0..c-1 lie below mid
                upper[i] = min(upper[i], mid)
            for i in range(c, k):  # the others at or above it
                lower[i] = max(lower[i], mid)
        if upper[j] - lower[j] < tol:
            out.append(0.5 * (lower[j] + upper[j]))
        else:
            stalled.append((lower[j], upper[j]))
    if stalled:
        raise ConvergenceError(
            f"bisection stalled after {max_iter} iterations", brackets=stalled
        )
    return out


def default_grid(spec, member_n=0, count=None, k=3):
    """A grid wide enough for the lowest k levels of the member Hamiltonian.

    Built from the analytic level list and the classically relevant region,
    spaced like the family's grids.  On the Morse line (uniform) the wall
    side stops where V_eff reaches 200x the deepest level, or, with a
    deformed mass, where the wall-side tail e^(m x) falls to TAIL; the soft
    side extends several decay lengths of the shallowest level kept.  The
    half-line grids are geometric: they start where psi ~ (q/l)^m at the
    origin falls to TAIL and a hard wall there shifts the deepest level by
    less than TAIL, with l that level's length (1/sqrt(lam) for the
    oscillator, 1/(2 kappa_0) for Coulomb), reach
    several decay lengths, or the deformed power-law tails r^-(pa+3/2)
    (oscillator) and R^-(kappa/alpha+1/2) (Coulomb) down to TAIL, and are
    padded by PAD, since a log grid pays only ln(q_max/q_min) for reach.
    ``count`` defaults to COUNT nodes.  A long Morse grid gets as many more
    as keep its step at MORSE_STEP, or at 0.1/|e_deep| in a deep well,
    since the error of a level grows as e_deep^2 h^2.  On a half-line grid
    that scales with l the relative error of a level is scale-free, so its
    absolute error grows with the energy unit; past LOG_UNIT the count
    grows as the square root of the unit.
    """
    a = spec.alpha
    if spec.family == "morse":
        a_n = systems.member_coupling(spec, member_n)
        levels = systems.spectrum_fixed_potential(
            "morse", (a_n, spec.B), a, max_count=max(k, 1)
        )
        if not levels:
            raise ParameterError("fixed Morse potential holds no levels")
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
        e_top = systems.energy(spec, k + 2)
        r_max = 2.0 * math.sqrt(e_top) / spec.lam  # twice the turning point
        if a > 0:  # power-law tail r^-(pa+3/2) past r ~ 1/sqrt(alpha)
            power = systems.jacobi_params(spec)[0] + 1.5
            r_max = max(r_max, 1.0 / math.sqrt(a)) * TAIL ** (-1.0 / power)
        unit, length = spec.lam, 1.0 / math.sqrt(spec.lam)  # e^(-lam r^2 / 2)
    else:
        z_n = systems.member_coupling(spec, member_n)
        levels = systems.spectrum_fixed_potential(
            "coulomb", (z_n, spec.Lcal), a, max_count=max(k, 1)
        )
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
    return GridSpec(length * y_min, PAD * r_max, count, np.geomspace)
