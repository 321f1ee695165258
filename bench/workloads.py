"""Seeded inputs of the three benchmark workloads.

Everything here is plain data (family name, parameter dict, integers), so
the measured worker and the checking parent build identical inputs from a
seed without sharing any state.  Draws use ``random.Random`` seeded with a
string, which is deterministic across processes and platforms.

A run is made of whole passes.  Pass ``k`` of a workload is a fixed list of
operations derived from ``(workload, seed, k)``; the same seed therefore
gives the same operations in the same order however long the run lasts.
"""

import math
import random

FAMILIES = ("ho", "morse", "coulomb")
KINDS = tuple((f, deformed) for f in FAMILIES for deformed in (False, True))

# The six specs of `su11pct verify --all` (cli.VERIFY_ALL_SPECS), in order.
BATTERY_SPECS = (
    ("ho", {"omega": 1.0, "L": 0.0, "alpha": 0.0}),
    ("ho", {"omega": 2.0, "L": 0.0, "alpha": 1.0}),
    ("morse", {"A0": 0.25, "B": 0.25, "alpha": 0.0}),
    ("morse", {"A0": 1.0, "B": 0.75, "alpha": 0.3}),
    ("coulomb", {"Z0": 1.0, "Lcal": 0.0, "alpha": 0.0}),
    ("coulomb", {"Z0": 1.0, "Lcal": 0.0, "alpha": 0.1}),
)

# Fixed identities cases that fail today: the eigen-residual at the top
# quantum number exceeds 1e-9 (alpha -> 0+ and high-n accuracy defect).
IDENTITY_FAULTS = (
    {"family": "ho", "params": {"omega": 1.0, "L": 0.0, "alpha": 1e-6}, "n_top": 20},
    {"family": "coulomb", "params": {"Z0": 1.0, "Lcal": 0.0, "alpha": 1e-6}, "n_top": 60},
    {"family": "ho", "params": {"omega": 1.0, "L": 0.0, "alpha": 0.3}, "n_top": 150},
)

IDENTITY_DRAWS_PER_PASS = 12  # two per kind, plus the three fixed faults
TABULATE_ORDERS = (0, 2)
TABULATE_MAX_DEGREE = 150
TABULATE_POINTS = (10_000, 100_000)

# Parameter ranges of the random draws.  They stay inside the region where
# every check of the workload passes on the current code; README.md lists
# the sub-ranges left out and why.
HALF_INTEGERS = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
RANGES = {
    "omega": (0.5, 3.0),
    "ho_alpha": (0.05, 1.0),
    "A0": (0.5, 3.0),
    "B": (0.25, 1.5),
    "morse_alpha": (0.05, 1.0),
    "Z0": (0.5, 3.0),
    "coulomb_alpha_share": (0.05, 0.8),  # alpha as a share of Z0/(Lcal+1)
    "n_top": (6, 40),
    "ho_pdm_n_top": (6, 30),
    "coulomb_pdm_n_top": (6, 9),
}


def _rng(*key):
    return random.Random(":".join(str(k) for k in key))


def _draw_params(rng, family, deformed):
    """One parameter dict of a family, constant or deformed mass."""
    r = RANGES
    if family == "ho":
        p = {"omega": rng.uniform(*r["omega"]), "L": rng.choice(HALF_INTEGERS[1:])}
        p["alpha"] = rng.uniform(*r["ho_alpha"]) if deformed else 0.0
        return p
    if family == "morse":
        while True:
            p = {"A0": rng.uniform(*r["A0"]), "B": rng.uniform(*r["B"])}
            p["alpha"] = rng.uniform(*r["morse_alpha"]) if deformed else 0.0
            a, B, A0 = p["alpha"], p["B"], p["A0"]
            lam = 0.5 * (a + (4.0 * B * B + a * a) ** 0.5)
            # a deformed family needs a normalizable lowest state
            if not deformed or (2.0 * A0 + 1.0) * B / lam - 1.0 > 0.1:
                return p
    lcal = rng.choice(HALF_INTEGERS[1:])
    p = {"Z0": rng.uniform(*r["Z0"]), "Lcal": lcal}
    share = rng.uniform(*r["coulomb_alpha_share"]) if deformed else 0.0
    p["alpha"] = share * p["Z0"] / (lcal + 1.0)
    return p


def battery_pass(seed, k):
    """Pass k of `battery`: the six verify-all specs; the seed plays no part."""
    return [{"family": f, "params": dict(p)} for f, p in BATTERY_SPECS]


def identities_pass(seed, k):
    """Pass k of `identities`: fresh random specs of all six kinds + the faults.

    Each draw carries ``n_top``, the extra quantum number whose
    eigen-residual is checked beside n = 0..5.
    """
    rng = _rng("identities", seed, k)
    ops = []
    for j in range(IDENTITY_DRAWS_PER_PASS):
        family, deformed = KINDS[j % len(KINDS)]
        params = _draw_params(rng, family, deformed)
        top = RANGES.get(f"{family}_pdm_n_top", RANGES["n_top"]) if deformed else RANGES["n_top"]
        ops.append(
            {
                "family": family,
                "params": params,
                "n_top": rng.randint(*top),
            }
        )
    ops.extend({**case, "fault": True} for case in IDENTITY_FAULTS)
    return ops


def tabulation_window(family, params, n):
    """Coordinate window [lo, hi] holding the classically allowed region.

    Built from the constant-mass scales of the family (turning points of
    the undeformed problem) and widened, so the deformed states, whose
    tails are longer, are tabulated over the same kind of window.
    """
    if family == "ho":
        w = params["omega"]
        r_turn = 2.0 * ((2.0 * n + params["L"] + 1.5) / w) ** 0.5
        return 1e-3 / w**0.5, 1.5 * r_turn + 6.0 / w**0.5
    if family == "morse":
        A0, B = params["A0"], params["B"]
        y_top = 4.0 * n + 4.0 * A0 + 10.0  # beyond the wall for L_n^(2A0)
        x_lo = -math.log(y_top / (2.0 * B))
        return x_lo, x_lo + math.log(y_top / 1e-3) + 20.0 / max(A0, 0.25)
    beta = params["Z0"] / (params["Lcal"] + 1.0)
    return 1e-3 / beta, (4.0 * n + 2.0 * params["Lcal"] + 30.0) / (2.0 * beta)


def tabulate_pass(seed, k):
    """Pass k of `tabulate`: one call per kind and order, fresh draws each."""
    rng = _rng("tabulate", seed, k)
    slots = len(KINDS) * len(TABULATE_ORDERS)
    # stratified log-uniform draws: every pass holds one degree and one
    # point count from each of `slots` equal strata, so each pass has the
    # same spread of sizes whatever the seed
    degree_strata = rng.sample(range(slots), slots)
    count_strata = rng.sample(range(slots), slots)
    lo_n, hi_n = TABULATE_POINTS
    ops = []
    for family, deformed in KINDS:
        for order in TABULATE_ORDERS:
            params = _draw_params(rng, family, deformed)
            u = (degree_strata.pop() + rng.random()) / slots
            n = int((TABULATE_MAX_DEGREE + 1) ** u - 1)
            v = (count_strata.pop() + rng.random()) / slots
            count = int(round(lo_n * (hi_n / lo_n) ** v))
            lo, hi = tabulation_window(family, params, n)
            ops.append(
                {
                    "family": family,
                    "params": params,
                    "n": n,
                    "order": order,
                    "count": count,
                    "window": [lo, hi],
                }
            )
    return ops


def make_spec(family, params):
    """The su11pct spec object of a family and parameter dict."""
    from su11pct import systems

    if family == "ho":
        return systems.OscillatorSpec(params["omega"], params["L"], params["alpha"])
    if family == "morse":
        return systems.MorseSpec(params["A0"], params["B"], params["alpha"])
    return systems.CoulombSpec(params["Lcal"], params["Z0"], params["alpha"])


PASSES = {"battery": battery_pass, "identities": identities_pass, "tabulate": tabulate_pass}
