"""Independent checks of the program's outputs (run in the parent process).

Nothing here compares against stored outputs.  The references are:

* ``scipy.linalg.eigvalsh_tridiagonal`` on the very matrix the oracle
  solved, with an explicit small ``tol``: its default absolute tolerance
  misses by 6e-3 on the deformed-oscillator matrix, whose diagonal reaches
  7.7e13;
* textbook constant-mass spectra (oscillator, Morse, Coulomb);
* bound states rebuilt from ``scipy.special`` polynomials, with
  normalization constants from ``gammaln`` (Laguerre and Jacobi
  orthogonality integrals, DLMF 18.3) and derivatives from the DLMF 18.9
  parameter-shift rules, independent of the program's own assembly;
* norms by ``scipy.integrate.quad`` on the program's states and on the
  rebuilt ones;
* properties the method must have: Gram matrices equal the identity, and
  each residual stays within the stated tolerance table below.

Each check function returns ``(failed, problems)``: ``failed`` when the
program's own verification flags the operation (a residual over its
tolerance), ``problems`` a list of disagreements between the program's
output and an independent reference.
"""

import math
import sys
import warnings

import numpy as np
from scipy import integrate, linalg, special

import su11pct
from workloads import make_spec

# The stated tolerances of the identities (README, acceptance criteria).
TOLS = {
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
ORACLE_TOL = {False: 5e-4, True: 2e-3}  # constant / deformed mass

STURM_TOL = 1e-8  # Sturm levels vs LAPACK bisection on the same matrix
SPECTRUM_RTOL = 1e-12  # closed-form constant-mass levels vs textbook
STATE_RTOL = 1e-10  # state values and derivatives vs the scipy rebuild
NORM_TOL = 1e-8  # quad norms vs 1


def textbook_levels(family, params, count):
    """Constant-mass levels of the member-0 Hamiltonian, as printed in texts."""
    if family == "ho":
        w, L = params["omega"], params["L"]
        return [w * (2.0 * n + L + 1.5) for n in range(count)]
    if family == "morse":
        A = params["A0"]
        return [-((A - k) ** 2) for k in range(count) if k < A]
    Z, Lc = params["Z0"], params["Lcal"]
    return [-((Z / (k + Lc + 1.0)) ** 2) for k in range(count)]


def textbook_energy(family, params, n):
    """Constant-mass energy of state n (oscillator) or of the hierarchy."""
    if family == "ho":
        return params["omega"] * (2.0 * n + params["L"] + 1.5)
    if family == "morse":
        return -params["A0"] ** 2
    return -((params["Z0"] / (params["Lcal"] + 1.0)) ** 2)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def _expected_tolerance(section, name, deformed):
    if section == "ladder" and name == "lowest_weight_annihilation":
        return TOLS["annihilation"]
    if section == "commutators":
        return TOLS["commutators_deformed" if deformed else "commutators_constant"]
    if section == "mapping":
        if name.startswith("generator_conjugation"):
            return TOLS["conjugation"]
        return TOLS["mapping_deformed" if deformed else "mapping_constant"]
    if section == "oracle":
        return ORACLE_TOL[deformed]
    return TOLS[section]


class BatteryChecker:
    """Checks build_report outputs; references are computed once per spec."""

    def __init__(self):
        self.first = {}  # spec index -> (output, reference levels)

    def reference_levels(self, out):
        d = np.asarray(out["diag"])
        e = np.asarray(out["offdiag"])
        return linalg.eigvalsh_tridiagonal(
            d, e, select="i", select_range=(0, out["k"] - 1), tol=1e-12
        ).tolist()

    def check(self, index, inp, out):
        problems = []
        report = out["report"]
        deformed = inp["params"]["alpha"] > 0
        if index not in self.first:
            self.first[index] = (out, self.reference_levels(out))
        first, ref = self.first[index]
        if report != first["report"] or out["levels"] != first["levels"]:
            problems.append("report differs from the same spec's first report")
        failed = not report["overall_pass"]
        for section, entries in report["sections"].items():
            for e in entries:
                tol = _expected_tolerance(section, e["name"], deformed)
                if e["tolerance"] != tol:
                    problems.append(f"{e['name']}: tolerance {e['tolerance']} != {tol}")
                if not abs(e["value"]) <= tol:
                    failed = True
        levels = out["levels"]
        for i, (num, want) in enumerate(zip(levels, ref)):
            if not abs(num - want) <= STURM_TOL:
                problems.append(f"oracle level {i}: Sturm {num!r} vs LAPACK {want!r}")
        entries = report["sections"].get("oracle", [])
        textbook = textbook_levels(inp["family"], inp["params"], len(entries))
        if len(entries) == 0:
            problems.append("report has no oracle section")
        for i, e in enumerate(entries):
            closed = levels[i] - e["value"]
            if not abs(ref[i] - closed) <= e["tolerance"]:
                failed = True
            if not deformed and not abs(closed - textbook[i]) <= SPECTRUM_RTOL * max(
                1.0, abs(textbook[i])
            ):
                problems.append(f"closed-form level {i}: {closed!r} vs textbook {textbook[i]!r}")
        return failed, problems


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def check_identities(inp, out):
    problems = []
    failed = False
    rows = out["rows"]
    counts = {}
    for section, n, value in rows:
        counts[section] = counts.get(section, 0) + 1
        if not abs(value) <= TOLS[section]:
            failed = True
    for section, want in (("eigen_residuals", 7), ("ladder", 12), ("casimir", 4)):
        if counts.get(section) != want:
            problems.append(f"{section}: {counts.get(section)} rows, expected {want}")
    gram = np.asarray(out["gram"])
    if gram.shape != (6, 6) or not np.array_equal(gram, gram.T):
        problems.append("Gram matrix is not a symmetric 6x6 matrix")
    elif not np.max(np.abs(gram - np.eye(6))) <= TOLS["orthonormality"]:
        failed = True
    if inp["params"]["alpha"] == 0:
        for n, e in enumerate(out["energies"]):
            want = textbook_energy(inp["family"], inp["params"], n)
            if not abs(e - want) <= SPECTRUM_RTOL * max(1.0, abs(want)):
                problems.append(f"energy[{n}] = {e!r}, textbook {want!r}")
    return failed, problems


def quad_norm(inp, n, gram):
    """Gram diagonal entry n against scipy quad on the program's own state."""
    state = su11pct.bound_state(make_spec(inp["family"], inp["params"]), n)
    value = _quad_norm(inp["family"], state)
    if not abs(value - gram[n][n]) <= NORM_TOL:
        return [f"<psi_{n}|psi_{n}>: quad {value!r} vs Gram {gram[n][n]!r}"]
    return []


def _quad_norm(family, fn):
    """integral of |fn|^2 under the family measure, by adaptive quadrature.

    ``fn`` maps an array of points to values.  The integral runs over the
    span where the weighted density exceeds 1e-30 of its peak on a probe
    grid, cut into 64 pieces (equal in ln p on the half-line, in x for
    Morse) so that quad resolves every oscillation of high states.
    """
    morse = family == "morse"
    probe = np.linspace(-60.0, 400.0, 20001) if morse else np.geomspace(1e-8, 1e8, 20001)
    weight = {
        "ho": lambda p: np.ones_like(p),
        "morse": lambda x: 0.5 * np.exp(-x),
        "coulomb": lambda r: 0.5 / r,
    }[family]
    with np.errstate(over="ignore", invalid="ignore"):
        dens = np.nan_to_num(fn(probe) ** 2 * weight(probe), posinf=0.0)
    keep = np.nonzero(dens >= 1e-30 * np.max(dens))[0]
    lo = probe[max(keep[0] - 1, 0)]
    hi = probe[min(keep[-1] + 1, len(probe) - 1)]

    def integrand(u):
        p = np.array([u if morse else math.exp(u)])
        jac = 1.0 if morse else p[0]
        return float(fn(p)[0] ** 2 * weight(p)[0]) * jac

    ends = np.linspace(lo, hi, 65) if morse else np.linspace(math.log(lo), math.log(hi), 65)
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, b in zip(ends[:-1], ends[1:]):
            total += integrate.quad(integrand, a, b, limit=200, epsabs=1e-15, epsrel=1e-12)[0]
    return total


# ---------------------------------------------------------------------------
# tabulate: bound states rebuilt from scipy.special
# ---------------------------------------------------------------------------


def _state_pieces(family, params, n, p):
    """The closed form sign * exp(log_c + h(p) + m ln p) * P(y(p)) of a state.

    Returns ``(log_c, sign, m, h, y, polys)``: ``h`` and ``y`` hold the
    function and its first two derivatives in p, ``polys`` the polynomial
    and its first two derivatives in y (DLMF 18.9 shift rules).

    The normalization C follows from the orthogonality integrals
    (DLMF 18.3).  Constant mass: y is linear in the measure's variable and
    the integral is n! / Gamma(n + a + 1).  Deformed mass: with
    t = 1 - 2/f every measure becomes alpha^-e 2^-(pa+pb+2) (1-t)^pa
    (1+t)^pb dt, so C^2 = 2 alpha^e (2n+pa+pb+1) n! Gamma(n+pa+pb+1) /
    (Gamma(n+pa+1) Gamma(n+pb+1)).
    """
    a = params["alpha"]
    z = np.zeros_like(p)
    lg = special.gammaln
    log2 = math.log(2.0)
    if a == 0:
        if family == "ho":
            w, L = params["omega"], params["L"]
            m, la = L + 1.0, L + 0.5
            log_c2 = log2 + (L + 1.5) * math.log(0.5 * w) + lg(n + 1) - lg(n + L + 1.5)
            h = (-0.25 * w * p * p, -0.5 * w * p, -0.5 * w + z)
            y = (0.5 * w * p * p, w * p, w + z)
        elif family == "morse":
            A0, B = params["A0"], params["B"]
            m, la = 0.0, 2.0 * A0
            log_c2 = log2 + (2 * A0 + 1) * math.log(2 * B) + lg(n + 1) - lg(n + 2 * A0 + 1)
            q = np.exp(-p)
            h = (-A0 * p - B * q, -A0 + B * q, -B * q)
            y = (2 * B * q, -2 * B * q, 2 * B * q)
        else:
            Lc = params["Lcal"]
            beta = params["Z0"] / (Lc + 1.0)
            m, la = Lc + 1.0, 2 * Lc + 1.0
            log_c2 = log2 + (2 * Lc + 2) * math.log(2 * beta) + lg(n + 1) - lg(n + 2 * Lc + 2)
            h = (-beta * p, -beta + z, z)
            y = (2 * beta * p, 2 * beta + z, z)
        polys = [
            (-1.0) ** k * special.eval_genlaguerre(n - k, la + k, y[0]) if k <= n else z
            for k in range(3)
        ]
        return 0.5 * log_c2, (-1.0) ** n, m, h, y, polys

    s_lin = 0.0  # coefficient of -p in h (Morse only)
    if family == "ho":
        w, L = params["omega"], params["L"]
        r = 0.5 * (a + math.hypot(w, a)) / a
        pa, pb, m, p_exp, e = r - 0.5, L + 0.5, L + 1.0, 0.5 * (r + L + 2.0), L + 1.5
        f, f1, f2 = 1.0 + a * p * p, 2 * a * p, 2 * a + z
    elif family == "morse":
        A0, B = params["A0"], params["B"]
        lam = 0.5 * (a + math.hypot(2 * B, a))
        s_lin = 0.5 * ((2 * A0 + 1) * B / lam - 1.0)
        pa, pb, m, e = 2 * lam / a - 1.0, 2 * s_lin, 0.0, 2 * s_lin + 1.0
        p_exp = lam / a + s_lin + 0.5
        q = a * np.exp(-p)
        f, f1, f2 = 1.0 + q, -q, q
    else:
        Lc = params["Lcal"]
        s = params["Z0"] / (Lc + 1.0) - 0.5 * a
        pa, pb, m, p_exp, e = 2 * s / a, 2 * Lc + 1.0, Lc + 1.0, s / a + Lc + 1.5, 2 * Lc + 2
        f, f1, f2 = 1.0 + a * p, a + z, z
    ab = pa + pb
    log_c2 = (
        log2 + e * math.log(a) + lg(n + 1) + math.log(2 * n + ab + 1)
        + lg(n + ab + 1) - lg(n + pa + 1) - lg(n + pb + 1)
    )
    h = (
        -s_lin * p - p_exp * np.log(f),
        -s_lin - p_exp * f1 / f,
        -p_exp * (f2 / f - (f1 / f) ** 2),
    )
    t = 1.0 - 2.0 / f
    y = (t, 2 * f1 / f**2, 2 * (f2 * f - 2 * f1 * f1) / f**3)
    coeff = (1.0, 0.5 * (n + ab + 1), 0.25 * (n + ab + 1) * (n + ab + 2))
    polys = [
        coeff[k] * special.eval_jacobi(n - k, pa + k, pb + k, t) if k <= n else z
        for k in range(3)
    ]
    return 0.5 * log_c2, 1.0, m, h, y, polys


def reference_state(family, params, n, p, order):
    """Value and derivatives up to `order` (<= 2) of the normalized state."""
    p = np.asarray(p, dtype=float)
    log_c, sign, m, h, y, polys = _state_pieces(family, params, n, p)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # u = exp(log_c + h + m ln p), kept in log form against overflow
        log_u = log_c + h[0] + (m * np.log(p) if m else 0.0)
        g1 = h[1] + (m / p if m else 0.0)
        g2 = h[2] - (m / p**2 if m else 0.0)
        # u' = u g1, u'' = u (g1^2 + g2); Q = P(y), Q' = P' y1, Q'' = P'' y1^2 + P' y2
        q = [polys[0], polys[1] * y[1], polys[2] * y[1] ** 2 + polys[1] * y[2]]
        terms = [q[0], g1 * q[0] + q[1], (g1 * g1 + g2) * q[0] + 2 * g1 * q[1] + q[2]]
        out = []
        for k in range(order + 1):
            v = terms[k]
            mag = np.exp(log_u + np.log(np.abs(v)))
            out.append(np.where(v == 0, 0.0, sign * np.sign(v) * mag))
    return out


def check_tabulate(inp, out):
    problems = []
    if not out["finite"]:
        problems.append("non-finite values in the tabulated arrays")
    p = np.asarray(out["points"])
    got = [np.asarray(v) for v in out["values"]]
    if len(got) != inp["order"] + 1:
        return False, problems + [f"{len(got)} arrays returned for order {inp['order']}"]
    ref = reference_state(inp["family"], inp["params"], inp["n"], p, inp["order"])
    for k, (g, r) in enumerate(zip(got, ref)):
        if not np.all(np.isfinite(r)):
            problems.append(f"derivative {k}: the scipy rebuild is not finite")
            continue
        scale = np.max(np.abs(r))
        err = np.max(np.abs(g - r)) / scale if scale > 0 else np.max(np.abs(g))
        if not err <= STATE_RTOL:
            problems.append(f"derivative {k}: relative error {err:.3g} against scipy.special")
    return False, problems


def reference_norm(inp):
    """quad norm of the scipy-rebuilt state: checks the gammaln constants."""
    fam, prm, n = inp["family"], inp["params"], inp["n"]
    value = _quad_norm(fam, lambda p: reference_state(fam, prm, n, p, 0)[0])
    if not abs(value - 1.0) <= NORM_TOL:
        return [f"quad norm of the rebuilt state n={n}: {value!r}"]
    return []


if __name__ == "__main__":
    sys.exit("checks.py is a library; run bench/run.py")
