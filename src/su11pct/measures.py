"""Family scalar products and deterministic quadrature.

Each family normalizes its states against the measure (1/2) g^(sigma-1) dg
in its coordinate function g (``systems.FAMILIES``: r^2, e^-x, R with
sigma = 1/2, 1, 0):

    oscillator:  integral_0^inf |psi|^2 dr
    Morse:       (1/2) integral_R |phi|^2 e^-x dx
    Coulomb:     (1/2) integral_0^inf |chi|^2 / R dR

The deformed states are normalized under the same measures; the deformed
momentum is symmetric there and the mapping prefactors carry no alpha.

Quadrature is a fixed-transform midpoint rule whose node count doubles
with the level: the half-line families use the logarithmic stretch
q = e^u on u in [-38, 38], the Morse line uses the symmetric
double-exponential x = sinh(u) on u in [-5, 5].  Integrands built from
bound states vanish to double precision at the transformed endpoints, so
refining the level converges at spectral rate and the truncation bias sits
far below the 1e-10 accuracy target.

Rules are immutable and summation runs in fixed node order (numpy's
pairwise reduction), so results are deterministic; the rule cache is only
ever populated with identical values, safe under concurrent use.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import systems
from .errors import ConvergenceError, ParameterError

LOG_SPAN = 38.0
SINH_SPAN = 5.0
BASE_NODES = 64
MAX_LEVEL = 12


@dataclass(frozen=True)
class Measure:
    """Integration domain and weight defining a family scalar product."""

    family: str
    domain: tuple
    weight: object = field(repr=False)
    transform_id: str = "log"


def _weight(family):
    """The weight (1/2) g^(sigma-1) |g'| of the family measure in its coordinate."""
    fam = systems.FAMILIES[family]

    def weight(p):
        g = fam.g(p)
        return 0.5 * g[0] ** (fam.sigma - 1.0) * np.abs(g[1])

    return weight


# one Measure per family, so its quadrature rules are built once
_MEASURES = {
    family: Measure(
        family,
        fam.domain,
        _weight(family),
        "sinh" if fam.domain[0] == -math.inf else "log",
    )
    for family, fam in systems.FAMILIES.items()
}


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
    transform_id: str


_RULE_CACHE = {}


def quadrature_rule(measure, level):
    """Midpoint rule with 64 * 2^level nodes on the transformed variable."""
    if not 1 <= level <= MAX_LEVEL:
        raise ParameterError(f"level must be in [1, {MAX_LEVEL}], got {level}")
    # keyed by the measure itself, which keeps its weight function alive
    key = (measure, level)
    cached = _RULE_CACHE.get(key)
    if cached is not None:
        return cached
    count = BASE_NODES * 2**level
    if measure.transform_id == "log":
        span = LOG_SPAN
    else:
        span = SINH_SPAN
    h = 2.0 * span / count
    u = -span + (np.arange(count) + 0.5) * h
    if measure.transform_id == "log":
        nodes = np.exp(u)
        jac = nodes
    else:
        nodes = np.sinh(u)
        jac = np.cosh(u)
    rule = QuadratureRule(nodes, h * jac * measure.weight(nodes), measure.transform_id)
    _RULE_CACHE[key] = rule
    return rule


def _values(fn, points):
    if hasattr(fn, "derivs"):
        return fn.derivs(points, 0)[0]
    return np.asarray(fn(points), dtype=float)


def inner_product(measure, f, g, rtol=1e-10):
    """<f, g> under the measure, by level escalation until agreement.

    Levels are refined until two successive estimates agree within
    rtol * max(1, |estimate|); the absolute floor keeps orthogonality
    integrals (true value 0) convergent.  Summation is numpy's pairwise
    reduction in fixed node order, so results are deterministic.
    """
    if rtol < 1e-12:
        raise ParameterError("rtol below 1e-12 is not supported")
    prev = None
    est = None
    for level in range(1, MAX_LEVEL + 1):
        rule = quadrature_rule(measure, level)
        with np.errstate(over="ignore", invalid="ignore"):
            contrib = _values(f, rule.nodes) * _values(g, rule.nodes) * rule.weights
        est = float(np.sum(contrib))
        if prev is not None and abs(est - prev) <= rtol * max(1.0, abs(est), abs(prev)):
            return est
        prev = est
    raise ConvergenceError(
        f"inner product did not settle by level {MAX_LEVEL}: "
        f"last estimates {prev!r} and {est!r}",
        estimates=(prev, est),
    )


def norm(measure, f, rtol=1e-10):
    """sqrt(<f, f>) under the measure."""
    return math.sqrt(max(inner_product(measure, f, f, rtol), 0.0))


def gram_matrix(measure, states, rtol=1e-10):
    """Matrix of pairwise inner products of a list of states."""
    k = len(states)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = inner_product(measure, states[i], states[j], rtol)
    return out
