"""Point canonical transformations between the three families.

The two elementary maps and their composition act on coordinates,
functions and parameters:

    oscillator -> Morse:    r = e^(-x/2),  psi(r) = e^(-x/4) phi(x)
    Morse -> Coulomb:       e^(-x) = R,    phi(x) = R^(-1/2) chi(R)
    oscillator -> Coulomb:  r = sqrt(R),   psi(r) = R^(-1/4) chi(R)

A single source Hamiltonian maps onto a hierarchy of target Hamiltonians
sharing one fixed energy: the source quantum number n turns into the
member index of the hierarchy.  Parameter maps are exact closed forms.
Reverse maps invert the coordinate and function change only; the paper
uses the forward direction throughout, so no parameter inversion is
provided.
"""

import math
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
    target_domain: tuple = (0.0, math.inf)

    def coord_map(self, point):
        """The source point a target point came from."""
        return self.coord_derivs(point)[0]


def ho_to_morse_map():
    return MappingSpec(
        "ho",
        "morse",
        coord_derivs=lambda x: (
            np.exp(-0.5 * x),
            -0.5 * np.exp(-0.5 * x),
            0.25 * np.exp(-0.5 * x),
        ),
        inv_prefactor_derivs=lambda x: (
            np.exp(0.25 * x),
            0.25 * np.exp(0.25 * x),
            0.0625 * np.exp(0.25 * x),
        ),
        target_domain=(-math.inf, math.inf),
    )


def morse_to_coulomb_map():
    return MappingSpec(
        "morse",
        "coulomb",
        coord_derivs=lambda R: (-np.log(R), -1.0 / R, 1.0 / R**2),
        inv_prefactor_derivs=lambda R: (
            np.sqrt(R),
            0.5 / np.sqrt(R),
            -0.25 * R ** (-1.5),
        ),
    )


def ho_to_coulomb_map():
    return MappingSpec(
        "ho",
        "coulomb",
        coord_derivs=lambda R: (np.sqrt(R), 0.5 / np.sqrt(R), -0.25 * R ** (-1.5)),
        inv_prefactor_derivs=lambda R: (
            R**0.25,
            0.25 * R ** (-0.75),
            -0.1875 * R ** (-1.75),
        ),
    )


def morse_to_ho_map():
    """Inverse coordinate/function change of the oscillator -> Morse map."""
    return MappingSpec(
        "morse",
        "ho",
        coord_derivs=lambda r: (-2.0 * np.log(r), -2.0 / r, 2.0 / r**2),
        inv_prefactor_derivs=lambda r: (
            np.sqrt(r),
            0.5 / np.sqrt(r),
            -0.25 * r ** (-1.5),
        ),
    )


def coulomb_to_morse_map():
    """Inverse coordinate/function change of the Morse -> Coulomb map."""
    return MappingSpec(
        "coulomb",
        "morse",
        coord_derivs=lambda x: (np.exp(-x), -np.exp(-x), np.exp(-x)),
        inv_prefactor_derivs=lambda x: (
            np.exp(0.5 * x),
            0.5 * np.exp(0.5 * x),
            0.25 * np.exp(0.5 * x),
        ),
        target_domain=(-math.inf, math.inf),
    )


_FORWARD = {
    ("ho", "morse"): ho_to_morse_map,
    ("morse", "coulomb"): morse_to_coulomb_map,
    ("ho", "coulomb"): ho_to_coulomb_map,
    ("morse", "ho"): morse_to_ho_map,
    ("coulomb", "morse"): coulomb_to_morse_map,
}


def mapping(source_family, target_family):
    """MappingSpec between two families (see module docstring for the list)."""
    try:
        return _FORWARD[(source_family, target_family)]()
    except KeyError:
        raise ParameterError(
            f"no mapping from {source_family!r} to {target_family!r}"
        ) from None


def map_parameters(source, n, target_family):
    """Map a source spec and quantum number to the target spec and member.

    Forward parameter maps only: ho -> morse, morse -> coulomb and their
    composition.  Returns ``(target_spec, n)``; n becomes the hierarchy
    member index on the target side.
    """
    if target_family == source.family:
        return source, n
    if source.family == "ho" and target_family in ("morse", "coulomb"):
        a, w, L = source.alpha, source.omega, source.L
        if a == 0:
            target = systems.MorseSpec(A0=0.5 * (L + 0.5), B=0.25 * w)
        else:
            disc = w * w - 3.0 * a * a
            if disc <= 0:
                raise ParameterError(
                    "deformed Morse image undefined: omega^2 must exceed "
                    f"3 alpha^2, got omega={w}, alpha={a}"
                )
            B = 0.25 * math.sqrt(disc)
            lam_m = 0.5 * (a + math.hypot(2.0 * B, a))
            A0 = 0.5 * ((2.0 * L + 3.0) * lam_m / (2.0 * B) - 1.0)
            target = systems.MorseSpec(A0=A0, B=B, alpha=a)
        if target_family == "morse":
            return target, n
        return map_parameters(target, n, "coulomb")
    if source.family == "morse" and target_family == "coulomb":
        a, A0, B = source.alpha, source.A0, source.B
        Z0 = B * (A0 + 0.5)
        if a == 0:
            return systems._mapped_spec(systems.CoulombSpec, Lcal=A0 - 0.5, Z0=Z0), n
        lam_m = source.lam_abs
        Lcal = ((2.0 * A0 + 1.0) * B - 2.0 * lam_m) / (2.0 * lam_m)
        return systems._mapped_spec(systems.CoulombSpec, Lcal=Lcal, Z0=Z0, alpha=a), n
    raise ParameterError(
        f"no parameter map from {source.family!r} to {target_family!r}"
    )


def map_state(mapping_spec, state):
    """Transport a function through the map: target(y) = source(c(y)) / prefactor(y).

    Derivatives follow from the chain rule, so the result feeds directly
    into the target-side Hamiltonians and generators.
    """
    coord = mapping_spec.coord_derivs
    invpref = mapping_spec.inv_prefactor_derivs

    def derivs_fn(point, order):
        p = np.asarray(point, dtype=float)
        c0, c1, c2 = coord(p)
        q0, q1, q2 = invpref(p)
        s = state.derivs(c0, order)
        out = [q0 * s[0]]
        if order >= 1:
            out.append(q1 * s[0] + q0 * s[1] * c1)
        if order >= 2:
            out.append(
                q2 * s[0]
                + 2.0 * q1 * s[1] * c1
                + q0 * (s[2] * c1 * c1 + s[1] * c2)
            )
        if np.ndim(point) == 0:
            return tuple(float(np.asarray(o)) for o in out)
        return tuple(out)

    return operators.SmoothFunction(
        derivs_fn, domain=mapping_spec.target_domain, max_order=2
    )


class HierarchyMember(NamedTuple):
    """One member of a target hierarchy: index, coupling (A_n or Z_n), energy."""

    n: int
    coupling: float
    energy: float


def hierarchy(source, target_family, n_max):
    """Members 0..n_max of the hierarchy a single source Hamiltonian maps to."""
    if n_max < 0:
        raise ParameterError("n_max must be non-negative")
    target, _ = map_parameters(source, 0, target_family)
    fixed = systems.energy(target, 0)
    return [
        HierarchyMember(n, systems.member_coupling(target, n), fixed)
        for n in range(n_max + 1)
    ]
