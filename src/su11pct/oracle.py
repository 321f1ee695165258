"""Independent finite-difference eigensolver for the six Hamiltonians.

The Hermitian form -d/dq (1/M) d/dq + V_eff is discretized with the
second-order flux scheme using midpoint mass values, giving a symmetric
tridiagonal matrix whose lowest eigenvalues are found by bisection on the
Sturm-sequence count.  Nothing here touches the closed-form states, so the
eigenvalues cross-validate the analytic spectra.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import operators, systems
from .errors import ConvergenceError, ParameterError


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid on [q_min, q_max] with ``count`` nodes."""

    q_min: float
    q_max: float
    count: int

    def __post_init__(self):
        if not self.q_min < self.q_max:
            raise ParameterError("q_min must be below q_max")
        if self.count < 100:
            raise ParameterError("grid needs at least 100 points")

    @property
    def step(self):
        return (self.q_max - self.q_min) / (self.count - 1)

    def refined(self, factor=2):
        """Same interval with the step divided by ``factor``."""
        return GridSpec(self.q_min, self.q_max, (self.count - 1) * factor + 1)


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal matrix over the interior grid nodes."""

    diag: np.ndarray
    offdiag: np.ndarray
    grid: GridSpec


def discretize(spec, member_n, grid):
    """Flux-form discretization of the member_n Hamiltonian on the grid.

    diag_i = (w_{i-1/2} + w_{i+1/2})/h^2 + V_eff(q_i) and
    off_i = -w_{i+1/2}/h^2 with w = 1/M evaluated at midpoints; symmetric
    by construction with non-positive off-diagonals.
    """
    q = np.linspace(grid.q_min, grid.q_max, grid.count)
    h = grid.step
    mid = 0.5 * (q[:-1] + q[1:])
    w = 1.0 / systems.mass_and_potential(spec, member_n, mid)[0]
    v = systems.mass_and_potential(spec, member_n, q[1:-1])[1]
    diag = (w[:-1] + w[1:]) / (h * h) + v
    off = -w[1:-1] / (h * h)
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
    for i in range(1, len(diag)):
        if d == 0.0:
            d = -1e-300
        d = diag[i] - x - off2[i - 1] / d
        if d < 0.0:
            count += 1
    return count


def lowest_eigenvalues(dh, k, tol=1e-10):
    """The k smallest eigenvalues, each bracketed to width below tol.

    Deterministic bisection on the Sturm count; raises ConvergenceError
    carrying the open bracketing intervals if a bracket fails to shrink
    below tol within the iteration budget.
    """
    if not 1 <= k <= 10:
        raise ParameterError("k must be between 1 and 10")
    if tol < 1e-12:
        raise ParameterError("tol below 1e-12 is not supported")
    diag = dh.diag
    bound = np.abs(dh.offdiag)
    radius = np.zeros_like(diag)
    radius[:-1] += bound
    radius[1:] += bound
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    dlist = diag.tolist()
    off2 = (dh.offdiag * dh.offdiag).tolist()
    max_iter = max(64, int(math.ceil(math.log2(max((hi - lo) / tol, 2.0)))) + 8)
    out = []
    stalled = []
    for target in range(1, k + 1):
        a, b = lo, hi
        for _ in range(max_iter):
            mid = 0.5 * (a + b)
            if _count_below(dlist, off2, mid) >= target:
                b = mid
            else:
                a = mid
            if b - a < tol:
                break
        else:
            stalled.append((a, b))
            continue
        out.append(0.5 * (a + b))
        lo = a  # later eigenvalues cannot lie below this bracket
    if stalled:
        raise ConvergenceError(
            f"bisection stalled after {max_iter} iterations", brackets=stalled
        )
    return out


def default_grid(spec, member_n=0, count=4000, k=3):
    """A grid wide enough for the lowest k levels of the member Hamiltonian.

    Built from the analytic level list and the classically relevant region:
    the fast-growing wall side stops where V_eff reaches 60x the deepest
    level, the soft side extends several decay lengths of the shallowest
    level kept.
    """
    a = spec.alpha
    if spec.family == "ho":
        if a == 0:
            e_top = systems.energy(spec, k + 2)
            r_max = 2.0 * math.sqrt(max(2.0 * e_top, 1.0)) / math.sqrt(spec.omega)
            return GridSpec(1e-6, r_max, count)
        # power-law tails: scan the k-th state and pad the slow side
        hi = operators.support(spec, k, 2e-5, probe_count=4001)[1]
        return GridSpec(1e-6, 1.3 * hi, count)
    if spec.family == "morse":
        a_n = systems.member_coupling(spec, member_n)
        levels = systems.spectrum_fixed_potential(
            "morse", (a_n, spec.B), a, max_count=max(k, 1)
        )
        if not levels:
            raise ParameterError("fixed Morse potential holds no levels")
        e_deep, e_shallow = levels[0][1], levels[-1][1]
        b2 = spec.B**2 - 0.75 * a * a
        c = spec.B * (2.0 * a_n + 1.0) + 0.5 * a
        depth = c * c / (4.0 * max(b2, 1e-12))
        wall = 200.0 * max(abs(e_deep), depth)
        q_wall = (c + math.sqrt(c * c + 4.0 * max(b2, 1e-12) * wall)) / (
            2.0 * max(b2, 1e-12)
        )
        x_min = -math.log(q_wall)
        x_max = 21.0 / math.sqrt(abs(e_shallow)) + math.log(max(q_wall, 2.0))
        return GridSpec(x_min, x_max, count)
    z_n = systems.member_coupling(spec, member_n)
    levels = systems.spectrum_fixed_potential(
        "coulomb", (z_n, spec.Lcal), a, max_count=max(k, 1)
    )
    e_shallow = levels[min(k, len(levels)) - 1][1]
    r_max = 21.0 / math.sqrt(abs(e_shallow))
    if a > 0:
        r_max *= 2.0  # deformed tails are power-law, not exponential
    return GridSpec(1e-6, r_max, count)
