"""Command-line front end emitting deterministic JSON or CSV reports.

All physical inputs are dimensionless (hbar = 1, particle mass 1/2); no
unit conversion is performed.  JSON is the default output; CSV is
available for the tabular subcommands (spectrum, state, hierarchy,
oracle-compare).  Numbers are printed in shortest round-trip form and the
field order is fixed, so reports are byte-stable for identical inputs.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 invalid arguments.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, algebra, measures, operators, oracle, pct, specfun, systems
from .errors import ConvergenceError, DomainError, NotApplicableError, ParameterError

ANALYTIC_TOLS = {
    "eigen_residuals": 1e-9,
    "orthonormality": 1e-7,
    "ladder": 1e-7,
    "annihilation": 1e-8,
    "commutators_constant": 1e-10,
    "commutators_deformed": 1e-7,
    "casimir": 1e-7,
    "mapping_constant": 1e-12,
    "mapping_deformed": 1e-9,
    "conjugation": 1e-9,
}
ORACLE_TOL_CONSTANT = 5e-4
ORACLE_TOL_DEFORMED = 2e-3


@dataclass
class VerificationReport:
    """Named residuals with tolerances and pass flags, grouped in sections."""

    spec_echo: dict
    sections: dict = field(default_factory=dict)

    def add(self, section, name, value, tolerance):
        entry = {
            "name": name,
            "value": float(value),
            "tolerance": float(tolerance),
            "pass": bool(abs(value) <= tolerance),
        }
        self.sections.setdefault(section, []).append(entry)

    @property
    def overall_pass(self):
        return all(e["pass"] for es in self.sections.values() for e in es)

    def to_dict(self):
        return {
            "version": __version__,
            "spec": self.spec_echo,
            "sections": self.sections,
            "overall_pass": self.overall_pass,
        }


# family -> (spec class, its parameter fields in echo order, their CLI flags)
_FAMILY_ARGS = {
    "ho": (systems.OscillatorSpec, ("omega", "L"), ("--omega", "--L")),
    "morse": (systems.MorseSpec, ("A0", "B"), ("--A", "--B")),
    "coulomb": (systems.CoulombSpec, ("Z0", "Lcal"), ("--Z", "--Lcal")),
}


def _fields(spec):
    return {name: getattr(spec, name) for name in _FAMILY_ARGS[spec.family][1]}


def _spec_echo(spec):
    return {"family": spec.family, "alpha": spec.alpha, **_fields(spec)}


def _closed_levels(spec, count):
    """The lowest closed-form levels as (n, energy) pairs.

    The oscillator's own spectrum, or that of the fixed Morse/Coulomb
    potential, which may hold fewer than count levels.
    """
    if spec.family == "ho":
        return [(n, systems.energy(spec, n)) for n in range(count)]
    params = tuple(_fields(spec).values())
    return systems.spectrum_fixed_potential(spec.family, params, spec.alpha, count)


def _check_tol(tol):
    """A tolerance override must be finite and positive: NaN would fail every check
    and print invalid JSON, inf would pass every one."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tolerance must be finite and positive, got {tol!r}")
    return tol


def _tols(override):
    tols = dict(ANALYTIC_TOLS)
    if override is not None:
        tols = dict.fromkeys(tols, _check_tol(override))
    return tols


def build_report(spec, n_max=5, tol=None):
    """Run every verification section against one family spec."""
    systems._check_index(n_max, "n_max must be at least 1", 1)
    tols = _tols(tol)
    deformed = spec.deformed
    report = VerificationReport(_spec_echo(spec))
    # held for the whole report, so every section shares their remembered stacks
    held = [systems.bound_state(spec, n) for n in range(n_max + 1)]

    for n in range(n_max + 1):
        grid = operators.default_residual_grid(spec, n)
        report.add(
            "eigen_residuals",
            f"eigen_residual[n={n}]",
            operators.eigen_residual(spec, n, grid),
            tols["eigen_residuals"],
        )

    meas = measures.family_measure(spec.family)
    count = min(n_max, 5) + 1
    gram = measures.gram_matrix(meas, held[:count])
    report.add(
        "orthonormality",
        f"gram_deviation[{count}x{count}]",
        float(np.max(np.abs(gram - np.eye(count)))),
        tols["orthonormality"],
    )

    gs = algebra.generator_set(spec)
    for n in range(min(n_max, 5) + 1):
        for direction in (algebra.PLUS, algebra.MINUS):
            closed = algebra.ladder_coefficient(gs, n, direction)
            numeric = algebra.matrix_element_numeric(gs, n, direction)
            report.add(
                "ladder",
                f"ladder_{direction}[n={n}]",
                numeric - closed,
                tols["ladder"],
            )
    report.add(
        "ladder",
        "lowest_weight_annihilation",
        algebra.annihilation_residual(gs),
        tols["annihilation"],
    )

    comm_tol = tols["commutators_deformed" if deformed else "commutators_constant"]
    for rec in algebra.commutator_residuals(gs, min(n_max, 5), pointwise_n_max=2):
        report.add("commutators", f"{rec.name}[n={rec.n}]", rec.value, comm_tol)

    uni = algebra.unirrep(gs)
    for n, state in enumerate(held[: min(n_max, 3) + 1]):
        pts = algebra.pointwise_grid(spec, n)
        resid = np.max(
            np.abs(algebra.casimir_apply(gs, state, pts) - uni.casimir * state(pts))
        ) / np.max(np.abs(state(pts)))
        report.add("casimir", f"casimir_action[n={n}]", float(resid), tols["casimir"])

    map_tol = tols["mapping_deformed" if deformed else "mapping_constant"]
    try:
        _mapping_section(report, spec, gs, n_max, map_tol, tols["conjugation"])
    except ParameterError:
        pass  # no image family (e.g. omega^2 <= 3 alpha^2); nothing to check

    oracle_tol = ORACLE_TOL_DEFORMED if deformed else ORACLE_TOL_CONSTANT
    grid = oracle.default_grid(spec, 0, k=2)
    levels = oracle.lowest_eigenvalues(oracle.discretize(spec, 0, grid), 2, 1e-9)
    closed = [e for _, e in _closed_levels(spec, 2)]
    for i, (num, cf) in enumerate(zip(levels, closed)):
        report.add("oracle", f"oracle_level[{i}]", num - cf, oracle_tol)
    return report


def _mapping_section(report, spec, gs, n_max, map_tol, conj_tol):
    if spec.family in ("ho", "morse"):
        target_family = "morse" if spec.family == "ho" else "coulomb"
        mapping = pct.mapping(spec.family, target_family)
        target, _ = pct.map_parameters(spec, 0, target_family)
        tgt_gs = algebra.generator_set(target)
        held = [systems.bound_state(target, n) for n in range(min(n_max, 3) + 1)]
        for n, direct in enumerate(held):
            state = systems.bound_state(spec, n)
            mapped = pct.map_state(mapping, state)
            pts = algebra.pointwise_grid(target, n)
            report.add(
                "mapping",
                f"mapped_state[{target_family},n={n}]",
                float(np.max(np.abs(mapped(pts) - direct(pts)))),
                map_tol,
            )
        state = systems.bound_state(spec, min(n_max, 2))
        mapped = pct.map_state(mapping, state)
        pts = algebra.pointwise_grid(target, state.n)
        src_pts = mapping.coord_map(pts)
        inv_pref = mapping.inv_prefactor_derivs(pts)[0]
        for which in (algebra.ZERO, algebra.PLUS, algebra.MINUS):
            lhs = algebra.apply_generator_fn(tgt_gs, which, mapped, state.n)(pts)
            rhs = inv_pref * algebra.apply_generator(gs, which, state)(src_pts)
            report.add(
                "mapping",
                f"generator_conjugation[{which}]",
                float(np.max(np.abs(lhs - rhs))),
                conj_tol,
            )


VERIFY_ALL_SPECS = (
    ("ho", dict(omega=1.0, L=0.0, alpha=0.0)),
    ("ho", dict(omega=2.0, L=0.0, alpha=1.0)),
    ("morse", dict(A0=0.25, B=0.25, alpha=0.0)),
    ("morse", dict(A0=1.0, B=0.75, alpha=0.3)),
    ("coulomb", dict(Z0=1.0, Lcal=0.0, alpha=0.0)),
    ("coulomb", dict(Z0=1.0, Lcal=0.0, alpha=0.1)),
)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_family_args(p, required=True):
    p.add_argument("--family", choices=("ho", "morse", "coulomb"), required=required)
    _add_param_args(p)


def _add_param_args(p):
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--omega", type=float, help="oscillator frequency")
    p.add_argument("--L", type=float, help="oscillator grand angular momentum")
    p.add_argument("--A", type=float, help="Morse A0 (or fixed A for spectra)")
    p.add_argument("--B", type=float, help="Morse range parameter")
    p.add_argument("--Z", type=float, help="Coulomb Z0 (or fixed Z for spectra)")
    p.add_argument("--Lcal", type=float, help="Coulomb angular constant")


def _spec_from_args(parser, family, args):
    cls, fields, flags = _FAMILY_ARGS[family]
    values = [getattr(args, flag[2:]) for flag in flags]
    if None in values:
        parser.error(f"family '{family}' needs {flags[0]} and {flags[1]}")
    try:
        return cls(alpha=args.alpha, **dict(zip(fields, values)))
    except ParameterError as exc:
        parser.error(str(exc))


def _grid_bounds(parser, args):
    """(grid_min, grid_max) when both are given, None when neither is."""
    if (args.grid_min is None) != (args.grid_max is None):
        parser.error("--grid-min and --grid-max must be given together")
    return None if args.grid_min is None else (args.grid_min, args.grid_max)


def _check_nmax(parser, nmax, top):
    if not 0 <= nmax <= top:
        parser.error(f"--nmax must be in [0, {top}], got {nmax}")


def _emit(payload, fmt, records):
    """The payload as JSON, or each record's values but its pass flag as one CSV row."""
    if fmt == "csv":
        for record in records:
            values = (x for k, x in record.items() if k != "pass")
            print(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in values))
    else:
        print(json.dumps(payload, indent=2))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="su11pct",
        description="Closed-form spectra, su(1,1) ladder algebra and point "
        "canonical transformations for oscillator, Morse and Coulomb "
        "problems with optional position-dependent mass (all quantities "
        "dimensionless, hbar = 1, mass 1/2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="bound spectrum of one fixed potential")
    _add_family_args(p)
    p.add_argument("--nmax", type=int, default=15)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("state", help="tabulate value/d1/d2 of a bound state")
    _add_family_args(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--grid-min", type=float)
    p.add_argument("--grid-max", type=float)
    p.add_argument("--grid-count", type=int, default=21)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="run the verification suites")
    _add_family_args(p, required=False)
    p.add_argument("--all", action="store_true", help="run the standard battery")
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--tol", type=float, help="override analytic tolerances")

    p = sub.add_parser("map", help="map parameters between families")
    p.add_argument("--from", dest="source", choices=("ho", "morse"), required=True)
    p.add_argument("--to", dest="target", choices=("morse", "coulomb"), required=True)
    _add_param_args(p)
    p.add_argument("--n", type=int, default=0)

    p = sub.add_parser("hierarchy", help="hierarchy members a source maps onto")
    p.add_argument("--from", dest="source", choices=("ho", "morse"), required=True)
    p.add_argument("--to", dest="target", choices=("morse", "coulomb"), required=True)
    _add_param_args(p)
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("oracle-compare", help="closed-form vs finite-difference levels")
    _add_family_args(p)
    p.add_argument("--nmax", type=int, default=2)
    p.add_argument("--tol", type=float)
    p.add_argument(
        "--grid-min",
        type=float,
        help="grid start; spaced like the family's grids, so on the half-line "
        "(ho, coulomb) the grid is geometric and needs --grid-min > 0",
    )
    p.add_argument("--grid-max", type=float)
    p.add_argument(
        "--grid-count", type=int, help=f"nodes (default: the grid's own, or {oracle.COUNT})"
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")

    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except (ParameterError, DomainError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(parser, args):
    if args.command == "spectrum":
        spec = _spec_from_args(parser, args.family, args)
        _check_nmax(parser, args.nmax, specfun.MAX_DEGREE)  # one level per state degree
        levels = [{"n": n, "energy": e} for n, e in _closed_levels(spec, args.nmax + 1)]
        payload = {"command": "spectrum", "spec": _spec_echo(spec), "levels": levels}
        _emit(payload, args.format, levels)
        return 0

    if args.command == "state":
        spec = _spec_from_args(parser, args.family, args)
        bounds = _grid_bounds(parser, args)
        if args.grid_count < 1:
            parser.error(f"--grid-count must be positive, got {args.grid_count}")
        state = systems.bound_state(spec, args.n)
        if bounds is not None:
            grid = np.linspace(*bounds, args.grid_count)
        else:
            grid = operators.default_residual_grid(spec, args.n, count=args.grid_count)
        samples = [
            {"point": float(p), "value": float(a), "d1": float(b), "d2": float(c)}
            for p, a, b, c in zip(grid, *state.evaluator(grid))
        ]
        payload = {
            "command": "state",
            "spec": _spec_echo(spec),
            "n": args.n,
            "energy": state.energy,
            "norm_coeff": state.norm_coeff,
            "samples": samples,
        }
        _emit(payload, args.format, samples)
        return 0

    if args.command == "verify":
        if args.all:
            reports = [
                build_report(_FAMILY_ARGS[f][0](**prm), n_max=args.nmax, tol=args.tol)
                for f, prm in VERIFY_ALL_SPECS
            ]
            payload = {
                "command": "verify",
                "reports": [r.to_dict() for r in reports],
                "overall_pass": all(r.overall_pass for r in reports),
            }
        elif args.family is None:
            parser.error("verify needs --family or --all")
        else:
            spec = _spec_from_args(parser, args.family, args)
            report = build_report(spec, n_max=args.nmax, tol=args.tol)
            payload = {"command": "verify", **report.to_dict()}
        print(json.dumps(payload, indent=2))
        return 0 if payload["overall_pass"] else 1

    if args.command == "map":
        spec = _spec_from_args(parser, args.source, args)
        target, n = pct.map_parameters(spec, args.n, args.target)
        payload = {
            "command": "map",
            "source": _spec_echo(spec),
            "target": _spec_echo(target),
            "member": {
                "n": n,
                "coupling": systems.member_coupling(target, n),
                "energy": systems.energy(target, n),
            },
        }
        print(json.dumps(payload, indent=2))
        return 0

    if args.command == "hierarchy":
        spec = _spec_from_args(parser, args.source, args)
        _check_nmax(parser, args.nmax, specfun.MAX_DEGREE)
        members = [m._asdict() for m in pct.hierarchy(spec, args.target, args.nmax)]
        target, _ = pct.map_parameters(spec, 0, args.target)
        payload = {
            "command": "hierarchy",
            "source": _spec_echo(spec),
            "target": _spec_echo(target),
            "members": members,
        }
        _emit(payload, args.format, members)
        return 0

    # oracle-compare
    spec = _spec_from_args(parser, args.family, args)
    _check_nmax(parser, args.nmax, 9)
    tol = ORACLE_TOL_DEFORMED if spec.deformed else ORACLE_TOL_CONSTANT
    if args.tol is not None:
        tol = _check_tol(args.tol)
    closed = [e for _, e in _closed_levels(spec, args.nmax + 1)]
    k = len(closed)
    bounds = _grid_bounds(parser, args)
    if bounds is not None:
        grid = oracle.GridSpec(
            *bounds,
            oracle.COUNT if args.grid_count is None else args.grid_count,
            systems.FAMILIES[spec.family].spacing,
        )
    else:
        grid = oracle.default_grid(spec, 0, count=args.grid_count, k=k)
    levels = oracle.lowest_eigenvalues(oracle.discretize(spec, 0, grid), k, 1e-9)
    entries = []
    for n, (cf, num) in enumerate(zip(closed, levels)):
        diff = abs(num - cf)
        entries.append(
            {"n": n, "closed_form": cf, "oracle": num, "abs_diff": diff, "pass": diff <= tol}
        )
    payload = {
        "command": "oracle-compare",
        "spec": _spec_echo(spec),
        "grid": {
            "q_min": grid.q_min,
            "q_max": grid.q_max,
            "count": grid.count,
            "spacing": grid.spacing.__name__,
        },
        "tolerance": tol,
        "levels": entries,
        "overall_pass": all(e["pass"] for e in entries),
    }
    _emit(payload, args.format, entries)
    return 0 if payload["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
