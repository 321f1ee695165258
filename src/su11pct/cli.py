"""Command-line front end emitting deterministic JSON or CSV reports.

All physical inputs are dimensionless (hbar = 1, particle mass 1/2); no
unit conversion is performed.  JSON is the default output; CSV is
available for the tabular subcommands (spectrum, state, hierarchy,
oracle-compare).  Numbers are printed in shortest round-trip form and the
field order is fixed, so reports are byte-stable for identical inputs.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 invalid arguments.

``verify`` prints the report of ``build_report``: the sections listed in
print order in ``_SECTIONS``, each with its run position.  A section that
asks a shared array for a high derivative order runs before one that asks
it for a low order, so the remembered stacks serve the low one, and the
oracle runs last.  Each section is a function of the generator set and the
held states 0..n_max that yields (entry name, value, tolerance key) rows:

    eigen_residuals  H psi_n - E_n psi_n, n <= n_max       eigen_residuals
    orthonormality   Gram matrix of the states n <= 5      orthonormality
    ladder           ladder coefficients, n <= 5           ladder
                     lowest-weight annihilation            annihilation
    commutators      structure relations, n <= 5           commutators_
    casimir          Casimir action, n <= 3                casimir
    mapping          mapped states, n <= 3                 mapping_
                     generator conjugation, n = 2          conjugation
    oracle           the levels the member-0 well holds,   oracle_
                     at most two, each against the
                     matrix's seed

Every n runs up to n_max at most.  A key names an ``ANALYTIC_TOLS``
entry, which ``--tol`` replaces, or ends in "_" and takes the spec's mass
kind, "constant" or "deformed".  "oracle_constant" and "oracle_deformed"
are ``ORACLE_TOL_CONSTANT`` and ``ORACLE_TOL_DEFORMED``, which ``--tol``
never replaces.  The mapping section is empty for Coulomb and for a spec
with no image family.

``oracle-compare`` takes ``--nmax`` in [0, oracle.MAX_LEVELS - 1] and
compares levels 0..nmax, or as many as the member-0 well holds, each
against the matrix's seed.  The oracle rows and ``oracle-compare`` make
that comparison in one helper, ``_seeded_levels``, and solve exactly the
levels they print.

``VERIFY_ALL_SPECS`` holds the six spec objects of ``verify --all``.
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


def _check_tol(tol):
    """A tolerance override must be finite and positive: NaN would fail every check
    and print invalid JSON, inf would pass every one."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tolerance must be finite and positive, got {tol!r}")
    return tol


def _tolerance(key, spec, override=None):
    """The tolerance a tolerance key names; see the module docstring."""
    if key.endswith("_"):
        key += "deformed" if spec.deformed else "constant"
    if key.startswith("oracle_"):
        return ORACLE_TOL_DEFORMED if key == "oracle_deformed" else ORACLE_TOL_CONSTANT
    return ANALYTIC_TOLS[key] if override is None else override


def _eigen_residuals(gs, held):
    for n in range(len(held)):
        resid = operators.eigen_residual(gs.spec, n, operators.default_residual_grid(gs.spec, n))
        yield f"eigen_residual[n={n}]", resid, "eigen_residuals"


def _orthonormality(gs, held):
    count = min(len(held), 6)
    gram = measures.gram_matrix(measures.family_measure(gs.family), held[:count])
    deviation = float(np.max(np.abs(gram - np.eye(count))))
    yield f"gram_deviation[{count}x{count}]", deviation, "orthonormality"


def _ladder(gs, held):
    for n in range(min(len(held), 6)):
        for direction in (algebra.PLUS, algebra.MINUS):
            closed = algebra.ladder_coefficient(gs, n, direction)
            numeric = algebra.matrix_element_numeric(gs, n, direction)
            yield f"ladder_{direction}[n={n}]", numeric - closed, "ladder"
    yield "lowest_weight_annihilation", algebra.annihilation_residual(gs), "annihilation"


def _commutators(gs, held):
    for rec in algebra.commutator_residuals(gs, min(len(held) - 1, 5), pointwise_n_max=2):
        yield f"{rec.name}[n={rec.n}]", rec.value, "commutators_"


def _casimir(gs, held):
    casimir = algebra.unirrep(gs).casimir
    for n, state in enumerate(held[:4]):
        pts = algebra.pointwise_grid(gs.spec, n)
        # order 4 before order 0: the remembered stack serves the value from it
        applied = algebra.casimir_apply(gs, state, pts)
        resid = np.max(np.abs(applied - casimir * state(pts))) / np.max(np.abs(state(pts)))
        yield f"casimir_action[n={n}]", float(resid), "casimir"


def _mapping(gs, held):
    if gs.family not in ("ho", "morse"):
        return
    target_family = "morse" if gs.family == "ho" else "coulomb"
    try:
        target, _ = pct.map_parameters(gs.spec, 0, target_family)
    except ParameterError:
        return  # no image family (e.g. omega^2 <= 3 alpha^2); nothing to check
    mapping = pct.mapping(gs.family, target_family)
    tgt_gs = algebra.generator_set(target)
    # held for the whole section: the conjugation rows scan target state 2 again
    targets = [systems.bound_state(target, n) for n in range(min(len(held), 4))]
    for n, direct in enumerate(targets):
        mapped = pct.map_state(mapping, held[n])
        pts = algebra.pointwise_grid(target, n)
        error = float(np.max(np.abs(mapped(pts) - direct(pts))))
        yield f"mapped_state[{target_family},n={n}]", error, "mapping_"
    state = held[min(len(held) - 1, 2)]
    mapped = pct.map_state(mapping, state)
    pts = algebra.pointwise_grid(target, state.n)
    for which in (algebra.ZERO, algebra.PLUS, algebra.MINUS):
        lhs = algebra.apply_generator_fn(tgt_gs, which, mapped, state.n)(pts)
        rhs = pct.map_state(mapping, algebra.apply_generator(gs, which, state))(pts)
        yield f"generator_conjugation[{which}]", float(np.max(np.abs(lhs - rhs))), "conjugation"


def _seeded_levels(dh, count):
    """(seed, oracle level) pairs for the lowest count levels that dh has seeds for."""
    closed = dh.seeds[:count]
    return zip(closed, oracle.lowest_eigenvalues(dh, len(closed), 1e-9))


def _oracle(gs, held):
    dh = oracle.discretize(gs.spec, 0, oracle.default_grid(gs.spec, 0, k=2))
    for i, (cf, num) in enumerate(_seeded_levels(dh, 2)):
        yield f"oracle_level[{i}]", num - cf, "oracle_"


# The report's sections in print order: (section name, run position, rows of
# (name, value, tolerance key)).  A stack remembered at some order serves
# every lower one on the same points, so where two sections evaluate a state
# or an operator on the same array, the one asking the higher order runs
# first: ladder (order 1 on the quadrature nodes) before orthonormality
# (order 0), casimir (order 4 on the pointwise grids) before commutators.
# The oracle runs last: the benchmark reads the report's last solve.
_SECTIONS = (
    ("eigen_residuals", 0, _eigen_residuals),
    ("orthonormality", 2, _orthonormality),
    ("ladder", 1, _ladder),
    ("commutators", 4, _commutators),
    ("casimir", 3, _casimir),
    ("mapping", 5, _mapping),
    ("oracle", 6, _oracle),
)


def build_report(spec, n_max=5, tol=None):
    """Run every verification section against one family spec.

    The sections run by their run position and are added in ``_SECTIONS`` order.
    """
    systems._check_index(n_max, "n_max must be at least 1", 1)
    if tol is not None:
        _check_tol(tol)
    report = VerificationReport(_spec_echo(spec))
    gs = algebra.generator_set(spec)
    # held for the whole report, so every section shares their remembered stacks
    held = [systems.bound_state(spec, n) for n in range(n_max + 1)]
    rows = {name: list(run(gs, held)) for name, _, run in sorted(_SECTIONS, key=lambda s: s[1])}
    for section, _, _ in _SECTIONS:
        for name, value, key in rows[section]:
            report.add(section, name, value, _tolerance(key, spec, tol))
    return report


VERIFY_ALL_SPECS = (
    systems.OscillatorSpec(omega=1.0, L=0.0, alpha=0.0),
    systems.OscillatorSpec(omega=2.0, L=0.0, alpha=1.0),
    systems.MorseSpec(A0=0.25, B=0.25, alpha=0.0),
    systems.MorseSpec(A0=1.0, B=0.75, alpha=0.3),
    systems.CoulombSpec(Z0=1.0, Lcal=0.0, alpha=0.0),
    systems.CoulombSpec(Z0=1.0, Lcal=0.0, alpha=0.1),
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
    """(grid_min, grid_max) when both are given and finite, None when neither is."""
    if (args.grid_min is None) != (args.grid_max is None):
        parser.error("--grid-min and --grid-max must be given together")
    if args.grid_min is None:
        return None
    for flag, value in (("--grid-min", args.grid_min), ("--grid-max", args.grid_max)):
        if not math.isfinite(value):
            raise ParameterError(f"{flag} must be finite, got {value}")
    return args.grid_min, args.grid_max


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
        help="grid start; the grid is even in the Morse coordinate x, so on a "
        "half-line (ho, coulomb) it is geometric and needs --grid-min > 0",
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
        levels = [{"n": n, "energy": e} for n, e in systems.member_levels(spec, 0, args.nmax + 1)]
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
            reports = [build_report(s, n_max=args.nmax, tol=args.tol) for s in VERIFY_ALL_SPECS]
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
    _check_nmax(parser, args.nmax, oracle.MAX_LEVELS - 1)
    tol = _tolerance("oracle_", spec) if args.tol is None else _check_tol(args.tol)
    bounds = _grid_bounds(parser, args)
    if bounds is not None:
        count = oracle.COUNT if args.grid_count is None else args.grid_count
        grid = oracle.GridSpec(*bounds, count)
    else:
        grid = oracle.default_grid(spec, 0, count=args.grid_count, k=args.nmax + 1)
    dh = oracle.discretize(spec, 0, grid)
    entries = []
    for n, (cf, num) in enumerate(_seeded_levels(dh, args.nmax + 1)):
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
        },
        "tolerance": tol,
        "levels": entries,
        "overall_pass": all(e["pass"] for e in entries),
    }
    _emit(payload, args.format, entries)
    return 0 if payload["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
