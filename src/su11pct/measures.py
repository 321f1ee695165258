"""Family scalar products and deterministic quadrature.

Each family normalizes its states against the measure (1/2) g^(sigma-1) dg
in its coordinate function g (``systems.FAMILIES``: r^2, e^-x, R with
sigma = 1/2, 1, 0):

    oscillator:  integral_0^inf |psi|^2 dr
    Morse:       (1/2) integral_R |phi|^2 e^-x dx
    Coulomb:     (1/2) integral_0^inf |chi|^2 / R dR

The deformed states are normalized under the same measures; the deformed
momentum is symmetric there and the mapping prefactors carry no alpha.

Quadrature is a fixed-transform trapezoid rule whose node count doubles
with the level: the half-line families use the logarithmic stretch
q = e^u on u in [-38, 38], the Morse line uses the symmetric
double-exponential x = sinh(u) on u in [-5, 5].  Level l has the
64 * 2^l nodes u_j = -span + j h, j = 1..64 * 2^l, so the nodes of level l
are exactly the odd-index nodes of level l + 1.  Integrands built from
bound states vanish to double precision at the transformed endpoints, so
refining the level converges at spectral rate and the truncation bias sits
far below ``RTOL``, the one tolerance every product converges to.  The
transform follows from the family's domain in ``systems.FAMILIES``, so a
``Measure`` is a family and a weight.

Because the levels nest, one escalation serves ``inner_product``, ``norm``
and ``gram_matrix``: every distinct function is evaluated once on the
START_LEVEL nodes, each pair's previous-level estimate is twice the sum
over the odd-index entries of the same products, and a refinement
evaluates only the new nodes, and only for functions of a pair that has
not settled yet.

Rules are immutable and summation runs in fixed node order (numpy's
pairwise reduction), so results are deterministic.  ``quadrature_rule``
reads each transform's span, node map and jacobian from one table and is
a ``functools.lru_cache`` keyed by (measure, level): a measure's rules are
built once and keep its weight function alive, and concurrent callers at
worst build an identical rule twice.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import systems
from .errors import ConvergenceError, ParameterError

LOG_SPAN = 38.0
SINH_SPAN = 5.0
BASE_NODES = 64
MAX_LEVEL = 12
START_LEVEL = 4  # first level evaluated; its odd nodes give level 3
RTOL = 1e-10  # a product settles when two levels agree within this; see _products

# lower end of the family's domain -> (span of u, node map q(u), jacobian dq/du):
# the log stretch on a half-line, sinh on the line
_TRANSFORMS = {0.0: (LOG_SPAN, np.exp, np.exp), -math.inf: (SINH_SPAN, np.sinh, np.cosh)}


@dataclass(frozen=True)
class Measure:
    """A weight on a family's coordinate domain, defining its scalar product."""

    family: str
    weight: object = field(repr=False)

    def __post_init__(self):
        if self.family not in systems.FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")


def _weight(family):
    """The weight (1/2) g^(sigma-1) |g'| of the family measure in its coordinate."""
    fam = systems.FAMILIES[family]

    def weight(p):
        g, g1 = fam.g(p)[:2]
        return 0.5 * g ** (fam.sigma - 1.0) * np.abs(g1)

    return weight


# one Measure per family, so its quadrature rules are built once
_MEASURES = {family: Measure(family, _weight(family)) for family in systems.FAMILIES}


def family_measure(family):
    """The scalar-product measure of a family ('ho', 'morse', 'coulomb')."""
    try:
        return _MEASURES[family]
    except KeyError:
        raise ParameterError(f"unknown family {family!r}") from None


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes inside the open domain and positive weights.

    Weights already contain the measure weight and the transform jacobian,
    so an inner product is the plain weighted sum of f*g over the nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray


# keyed by the measure itself, which keeps its weight function alive
@lru_cache(maxsize=None)
def quadrature_rule(measure, level):
    """Trapezoid rule with 64 * 2^level nodes on the transformed variable."""
    if not 1 <= level <= MAX_LEVEL:
        raise ParameterError(f"level must be in [1, {MAX_LEVEL}], got {level}")
    span, node, jac = _TRANSFORMS[systems.FAMILIES[measure.family].domain[0]]
    count = BASE_NODES * 2**level
    # h halves exactly per level, so j h repeats bit for bit at 2j (h/2)
    h = 2.0 * span / count
    u = -span + np.arange(1, count + 1) * h
    nodes = node(u)
    return QuadratureRule(nodes, h * jac(u) * measure.weight(nodes))


def _products(measure, fns, pairs):
    """{(i, j): <fns[i], fns[j]>} for the index pairs, by nested level escalation.

    A pair settles once its estimate at a level and at the level below
    agree within RTOL * max(1, |estimate|); the absolute floor keeps
    orthogonality integrals (true value 0) convergent.  Summation is
    numpy's pairwise reduction in fixed node order, so a pair's value does
    not depend on which other pairs are computed with it.
    """
    values = {}
    settled = {}
    last = {}
    pending = list(pairs)
    for level in range(START_LEVEL, MAX_LEVEL + 1):
        # a module lookup, so a wrapped quadrature_rule sees every level
        rule = quadrature_rule(measure, level)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in sorted({i for pair in pending for i in pair}):
                if i not in values:
                    values[i] = np.asarray(fns[i](rule.nodes), dtype=float)
                    continue
                merged = np.empty(rule.nodes.size)
                merged[1::2] = values[i]  # the previous level's nodes
                merged[0::2] = fns[i](np.ascontiguousarray(rule.nodes[0::2]))
                values[i] = merged
            unsettled = []
            for i, j in pending:
                contrib = values[i] * values[j] * rule.weights
                est = float(np.sum(contrib))
                prev = 2.0 * float(np.sum(contrib[1::2]))
                if abs(est - prev) <= RTOL * max(1.0, abs(est), abs(prev)):
                    settled[i, j] = est
                else:
                    unsettled.append((i, j))
                    last[i, j] = (prev, est)
        if not unsettled:
            return settled
        pending = unsettled
    prev, est = last[pending[0]]
    raise ConvergenceError(
        f"inner product did not settle by level {MAX_LEVEL}: "
        f"last estimates {prev!r} and {est!r}",
        estimates=(prev, est),
    )


def inner_product(measure, f, g):
    """<f, g> under the measure, by nested level escalation until agreement."""
    if f is g:
        return _products(measure, [f], [(0, 0)])[0, 0]
    return _products(measure, [f, g], [(0, 1)])[0, 1]


def norm(measure, f):
    """sqrt(<f, f>) under the measure."""
    return math.sqrt(max(inner_product(measure, f, f), 0.0))


def gram_matrix(measure, states):
    """Matrix of pairwise inner products of a list of states.

    Each state is evaluated once per level, only while one of its pairs
    has not settled; entry (i, j) equals ``inner_product`` of the pair.
    """
    k = len(states)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    products = _products(measure, states, pairs)
    out = np.empty((k, k))
    for (i, j), value in products.items():
        out[i, j] = out[j, i] = value
    return out
