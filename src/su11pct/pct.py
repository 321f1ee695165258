"""Point canonical transformations between the three families.

The two elementary maps and their composition act on coordinates,
functions and parameters:

    oscillator -> Morse:    r = e^(-x/2),  psi(r) = e^(-x/4) phi(x)
    Morse -> Coulomb:       e^(-x) = R,    phi(x) = R^(-1/2) chi(R)
    oscillator -> Coulomb:  r = sqrt(R),   psi(r) = R^(-1/4) chi(R)

Each map preserves the coordinate function g of ``systems.FAMILIES``
(r^2 = e^-x = R), so its coordinate change is c = g_s^-1 . g_t and
every display above is one formula: psi_s = g_t^((sigma_t - sigma_s)/2)
psi_t, with sigma the exponent of the family measure (1/2) g^(sigma-1) dg
(1/2, 1, 0).  That prefactor makes each map unitary between the two
family measures.

``mapping`` offers this map between every ordered pair of distinct
families, the reverse directions included.  A single source Hamiltonian
maps onto a hierarchy of target Hamiltonians sharing one fixed energy:
the source quantum number n turns into the member index of the
hierarchy.  The parameter maps keep alpha and the pair (pb, w) of
``systems.invariants``, so each step ho -> morse -> coulomb is
FAMILIES[target].spec_of(pb, w, alpha).  Reverse maps invert the
coordinate and function change only; the paper uses the forward
direction throughout, so no parameter inversion is provided.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import operators, systems
from .errors import ParameterError


@dataclass(frozen=True)
class MappingSpec:
    """Executable coordinate/function map between two families.

    ``coord_derivs`` sends a target point to the source point it came from,
    with two derivatives for the chain rule; ``coord_map`` is its value
    alone.  ``inv_prefactor_derivs`` is the reciprocal of the factor
    multiplying the target function in the source display
    (e.g. psi = prefactor * phi), again with two derivatives; ``map_state``
    multiplies by it.
    """

    source_family: str
    target_family: str
    coord_derivs: object = field(repr=False)
    inv_prefactor_derivs: object = field(repr=False)

    def coord_map(self, point):
        """The source point a target point came from."""
        return self.coord_derivs(point)[0]


# every family, in the forward order of the parameter maps
_FORWARD = ("ho", "morse", "coulomb")


def mapping(source_family, target_family):
    """MappingSpec between two distinct families of ``systems.FAMILIES``.

    Built from the two rows of ``systems.FAMILIES``: the coordinate map
    c = g_s^-1 . g_t runs through the Morse coordinate x = -ln g_t, so no
    overflowing g is formed, and the inverse prefactor
    g_t^((sigma_s - sigma_t)/2) = e^(-(sigma_s - sigma_t) x/2) makes the map
    unitary between the two family measures.
    """
    # tuple membership compares, so an unhashable name is refused as well
    if source_family == target_family or not (
        source_family in _FORWARD and target_family in _FORWARD
    ):
        raise ParameterError(f"no mapping from {source_family!r} to {target_family!r}")
    source, target = systems.FAMILIES[source_family], systems.FAMILIES[target_family]
    k = 0.5 * (source.sigma - target.sigma)

    def coord_derivs(point):
        x = target.to_x(point)
        return tuple(systems.chain(source.from_x(x[0]), x, 2))

    def inv_prefactor_derivs(point):
        x = target.to_x(point)
        p = np.exp(-k * x[0])
        return tuple(systems.chain((p, -k * p, k * k * p), x, 2))

    return MappingSpec(source_family, target_family, coord_derivs, inv_prefactor_derivs)


def map_parameters(source, n, target_family):
    """Map a source spec and quantum number to the target spec and member.

    Forward parameter maps only: ho -> morse, morse -> coulomb and their
    composition, each step keeping alpha and ``systems.invariants``.
    Returns ``(target_spec, n)``; n becomes the hierarchy member index on
    the target side.
    """
    i = _FORWARD.index(source.family)
    j = _FORWARD.index(target_family) if target_family in _FORWARD else -1
    if j < i:
        raise ParameterError(f"no parameter map from {source.family!r} to {target_family!r}")
    spec = source
    for family in _FORWARD[i + 1 : j + 1]:
        spec = systems.FAMILIES[family].spec_of(*systems.invariants(spec), spec.alpha)
    systems._check_index(n, "member index must be non-negative")
    return spec, n


def map_state(mapping_spec, state):
    """Transport a function through the map: target(y) = source(c(y)) / prefactor(y).

    Derivatives follow from the chain rule, so the result feeds directly
    into the target-side Hamiltonians and generators.
    """
    coord = mapping_spec.coord_derivs
    invpref = mapping_spec.inv_prefactor_derivs

    def derivs_fn(point, order):
        c = coord(point)
        s = systems.chain(state.derivs(c[0], order), c, order)
        return systems.leibniz(invpref(point), s, order)

    return operators.SmoothFunction(derivs_fn, max_order=2)


class HierarchyMember(NamedTuple):
    """One member of a target hierarchy: index, coupling (A_n or Z_n), energy."""

    n: int
    coupling: float
    energy: float


def hierarchy(source, target_family, n_max):
    """Members 0..n_max of the hierarchy a single source Hamiltonian maps to."""
    systems._check_index(n_max, "n_max must be non-negative")
    target, _ = map_parameters(source, 0, target_family)
    fixed = systems.energy(target, 0)
    return [
        HierarchyMember(n, systems.member_coupling(target, n), fixed)
        for n in range(n_max + 1)
    ]
