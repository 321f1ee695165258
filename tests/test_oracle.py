import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from su11pct import algebra, cli, operators, oracle, systems
from su11pct.errors import ConvergenceError, DomainError, ParameterError

# the six specs of `su11pct verify --all`
BATTERY = cli.VERIFY_ALL_SPECS


def battery_matrix(spec):
    """The matrix whose lowest levels `verify` compares: two, or the one that
    a fixed Morse well of the battery holds."""
    return oracle.discretize(spec, 0, oracle.default_grid(spec, 0, k=2))


def count_sweeps(monkeypatch):
    """Shifts of every Sturm sweep made from now on, in order."""
    shifts = []
    sweep = oracle._count_below

    def counted(diag, off2, x):
        shifts.append(x)
        return sweep(diag, off2, x)

    monkeypatch.setattr(oracle, "_count_below", counted)
    return shifts


def test_a_matrix_that_overflows_is_refused():
    ho = systems.OscillatorSpec(1.0, 0.0)
    # at 1e-200 the diagonal overflows, at 1e-100 the squared off-diagonal the sweep takes
    for q_min in (1e-200, 1e-100):
        grid = oracle.GridSpec(q_min, 10.0, 4000)
        with pytest.raises(ParameterError, match=rf"overflows on the grid \[{q_min:g}, 10\]"):
            oracle.discretize(ho, 0, grid)
    with pytest.raises(ParameterError, match=r"\[-400, 10\] of 4000 nodes"):
        oracle.discretize(systems.MorseSpec(2.5, 1.0), 0, oracle.GridSpec(-400.0, 10.0, 4000))


@pytest.mark.parametrize("power", [-0.499, -0.49, -0.48, -0.45])
def test_default_grids_near_the_critical_power_give_finite_matrices(power):
    # the start (TAIL/unit)^(1/(2m-1)) underflows as m = L + 1 or Lcal + 1 nears
    # 1/2; floored, the matrix stays finite and the solve finishes
    with pytest.warns(UserWarning, match="half-integer"):
        specs = [systems.OscillatorSpec(1.0, power), systems.CoulombSpec(power, 1.0)]
    for spec in specs:
        grid = oracle.default_grid(spec, 0, k=2)
        assert grid.q_min >= oracle._Q_FLOOR
        assert len(oracle.lowest_eigenvalues(oracle.discretize(spec, 0, grid), 2, 1e-9)) == 2


@pytest.mark.parametrize(
    "omega, power", [(1e4, -0.49), (1e4, -0.499), (1e4, -0.45), (1e5, -0.49)]
)
def test_fine_default_grids_near_the_critical_power_give_finite_matrices(omega, power):
    # a high energy unit gives a grid of 230,941 or 730,297 nodes; its start
    # is floored at _HQ_FLOOR over its log step, since 1e-74 fits COUNT nodes only
    with pytest.warns(UserWarning, match="half-integer"):
        spec = systems.OscillatorSpec(omega, power)
    grid = oracle.default_grid(spec, 0, k=2)
    assert grid.count > 200_000
    log_step = math.log(grid.q_max / grid.q_min) / (grid.count - 1)
    assert grid.q_min * log_step >= 0.99 * oracle._HQ_FLOOR
    dh = oracle.discretize(spec, 0, grid)
    assert np.isfinite(dh.diag).all() and np.isfinite(dh.offdiag**2).all()


def test_the_step_floor_leaves_count_node_grids_at_the_fixed_floor():
    with pytest.warns(UserWarning, match="half-integer"):
        specs = [systems.OscillatorSpec(1.0, -0.499), systems.CoulombSpec(-0.499, 1.0)]
    for spec in specs:
        grid = oracle.default_grid(spec, 0, k=2)
        assert (grid.count, grid.q_min) == (oracle.COUNT, oracle._Q_FLOOR)


def test_a_default_grid_start_above_the_floor_is_kept():
    with pytest.warns(UserWarning, match="half-integer"):
        spec = systems.OscillatorSpec(1.0, -0.45)
    # (TAIL/unit)^(1/(2m-1)) = (2e-6)^10 in the level's length sqrt(2)
    grid = oracle.default_grid(spec, 0, k=2)
    assert grid.q_min == pytest.approx(math.sqrt(2.0) * 2e-6**10, rel=1e-12)


def test_grid_validation():
    with pytest.raises(ParameterError):
        oracle.GridSpec(1.0, 0.5, 500)
    with pytest.raises(ParameterError):
        oracle.GridSpec(0.0, 1.0, 50)
    # nan read as "q_min must be below q_max"; inf reached numpy's linspace
    for bounds, message in (
        ((math.nan, 1.0), "q_min must be finite, got nan"),
        ((0.1, math.inf), "q_max must be finite, got inf"),
        ((-math.inf, 1.0), "q_min must be finite, got -inf"),
    ):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            oracle.GridSpec(*bounds, 500)


def _matrix(w_over_j, v, j, h):
    """The flux-form matrix of the module docstring from (w/J) at the midpoints,
    V_eff and J at the interior nodes and the step h."""
    diag = (w_over_j[:-1] + w_over_j[1:]) / (h * h) / j + v
    return diag, -w_over_j[1:-1] / (h * h) / np.sqrt(j[:-1] * j[1:])


# each family's x = -ln g(q), and q and J = |dq/dx| as functions of x
X_FRAME = {
    "ho": (lambda r: -2.0 * math.log(r), lambda x: (np.exp(-0.5 * x), 0.5 * np.exp(-0.5 * x))),
    "morse": (lambda x: x, lambda x: (x, np.ones_like(x))),
    "coulomb": (lambda R: -math.log(R), lambda x: (np.exp(-x), np.exp(-x))),
}


@pytest.mark.parametrize(
    "spec",
    [
        systems.OscillatorSpec(2.0, 0.5, 1.0),
        systems.MorseSpec(1.0, 0.75, 0.3),
        systems.CoulombSpec(0.5, 2.0, 0.1),
    ],
    ids=str,
)
def test_discretize_is_the_flux_scheme_in_the_morse_coordinate(spec):
    grid = oracle.default_grid(spec, 0, k=2)
    x_of_q, frame = X_FRAME[spec.family]
    x_lo, x_hi = x_of_q(grid.q_min), x_of_q(grid.q_max)
    x = np.linspace(x_lo, x_hi, grid.count)
    h = (x_hi - x_lo) / (grid.count - 1)
    q_mid, j_mid = frame(0.5 * (x[:-1] + x[1:]))
    q, j = frame(x[1:-1])
    mass = systems.mass_and_potential(spec, 0, q_mid)[0]
    diag, off = _matrix(1.0 / mass / j_mid, systems.mass_and_potential(spec, 0, q)[1], j, h)
    dh = oracle.discretize(spec, 0, grid)
    assert np.max(np.abs(dh.diag - diag) / np.abs(diag)) < 1e-13
    assert np.max(np.abs(dh.offdiag - off) / np.abs(off)) < 1e-13


@pytest.mark.parametrize("spec", BATTERY, ids=str)
def test_discretize_is_bit_identical_to_the_log_coordinate_form(spec):
    # the grid in x = -2 ln r or -ln R is the one in u = ln q scaled by a
    # power of 2, and so is every entry's factor: the matrix of the u form
    grid = oracle.default_grid(spec, 0, k=2)
    if spec.family == "morse":
        u = np.linspace(grid.q_min, grid.q_max, grid.count)
        q_of_u, jac = (lambda u: u), np.ones_like
    else:
        u = np.linspace(math.log(grid.q_min), math.log(grid.q_max), grid.count)
        q_of_u, jac = np.exp, np.exp
    h = (u[-1] - u[0]) / (grid.count - 1)
    u_mid = 0.5 * (u[:-1] + u[1:])
    w_j = 1.0 / systems.mass_and_potential(spec, 0, q_of_u(u_mid))[0] / jac(u_mid)
    v = systems.mass_and_potential(spec, 0, q_of_u(u[1:-1]))[1]
    diag, off = _matrix(w_j, v, jac(u[1:-1]), h)
    dh = oracle.discretize(spec, 0, grid)
    assert dh.diag.tobytes() == diag.tobytes()
    assert dh.offdiag.tobytes() == off.tobytes()


def test_grids_above_the_node_limit_are_refused_before_any_array():
    # numpy refused these only when discretize allocated the grid: 23e9 nodes
    # (172 GiB) for the default grid of omega = 1e14
    limit = rf"^a grid of \d+ nodes is above the limit of {oracle.MAX_COUNT}$"
    with pytest.raises(ParameterError, match=limit):
        oracle.default_grid(systems.OscillatorSpec(1e14, 0.0))
    with pytest.raises(ParameterError, match=limit):
        oracle.GridSpec(0.1, 5.0, 10**11)
    with pytest.raises(ParameterError, match=limit):
        oracle.GridSpec(0.1, 5.0, oracle.MAX_COUNT + 1)
    assert oracle.GridSpec(0.1, 5.0, oracle.MAX_COUNT).count == oracle.MAX_COUNT


def test_constant_mass_stencil():
    # the Morse line is its own coordinate x: the plain uniform scheme
    spec = systems.MorseSpec(2.5, 1.0)
    grid = oracle.GridSpec(-5.0, 20.0, 200)
    dh = oracle.discretize(spec, 0, grid)
    h = (grid.q_max - grid.q_min) / (grid.count - 1)
    x = np.linspace(grid.q_min, grid.q_max, grid.count)[1:-1]
    v = np.exp(-2.0 * x) - 6.0 * np.exp(-x)  # B^2 e^-2x - B(2A + 1) e^-x
    assert np.max(np.abs(dh.diag - (2.0 / h**2 + v))) < 1e-9
    assert np.max(np.abs(dh.offdiag + 1.0 / h**2)) < 1e-9


def test_pdm_midpoint_masses():
    spec = systems.MorseSpec(2.5, 1.0, 0.3)
    grid = oracle.GridSpec(-2.0, 5.0, 150)
    dh = oracle.discretize(spec, 0, grid)
    h = (grid.q_max - grid.q_min) / (grid.count - 1)
    x = np.linspace(grid.q_min, grid.q_max, grid.count)
    mid = 0.5 * (x[:-1] + x[1:])
    f2 = (1.0 + 0.3 * np.exp(-mid)) ** 2
    assert np.max(np.abs(dh.offdiag + f2[1:-1] / h**2)) < 1e-9
    assert np.all(dh.offdiag <= 0)


def test_matrix_is_symmetric_by_construction():
    # one off-diagonal array serves both sides: a[i,i+1] - a[i+1,i] = 0 exactly
    spec = systems.MorseSpec(2.5, 1.0, 0.1)
    dh = oracle.discretize(spec, 0, oracle.GridSpec(-5.0, 40.0, 500))
    assert dh.offdiag.shape[0] == dh.diag.shape[0] - 1


def test_constant_ho_levels():
    spec = systems.OscillatorSpec(1.0, 0.0)
    dh = oracle.discretize(spec, 0, oracle.GridSpec(1e-4, 20.0, 4000))
    ev = oracle.lowest_eigenvalues(dh, 3, 1e-10)
    for e, ref in zip(ev, (1.5, 3.5, 5.5)):
        assert abs(e - ref) < 5e-4


def test_fixed_morse_levels():
    spec = systems.MorseSpec(2.5, 1.0)
    dh = oracle.discretize(spec, 0, oracle.GridSpec(-6.0, 25.0, 4000))
    ev = oracle.lowest_eigenvalues(dh, 3, 1e-10)
    for e, ref in zip(ev, (-6.25, -2.25, -0.25)):
        assert abs(e - ref) < 5e-4


def test_deformed_ho_levels():
    spec = systems.OscillatorSpec(math.sqrt(3.0), 0.0, 1.0)
    dh = oracle.discretize(spec, 0, oracle.GridSpec(1e-6, 250.0, 30000))
    ev = oracle.lowest_eigenvalues(dh, 2, 1e-9)
    assert abs(ev[0] - 5.5) < 2e-3
    assert abs(ev[1] - 19.5) < 2e-3


def test_agrees_with_lapack_bisection():
    morse = systems.MorseSpec(2.5, 1.0)
    ho = systems.OscillatorSpec(2.0, 0.0, 1.0)  # the battery's, on its log grid
    cases = [
        (oracle.discretize(morse, 0, oracle.GridSpec(-6.0, 25.0, 2000)), 0.0),
        (oracle.discretize(ho, 0, oracle.default_grid(ho, 0, k=2)), 1e-12),
    ]
    for dh, tol in cases:
        mine = oracle.lowest_eigenvalues(dh, 5, 1e-11)
        ref = eigvalsh_tridiagonal(
            dh.diag, dh.offdiag, select="i", select_range=(0, 4), tol=tol
        )
        assert np.max(np.abs(np.asarray(mine) - ref)) < 1e-9


def test_eigenvalue_parameter_validation():
    spec = systems.OscillatorSpec(1.0, 0.0)
    dh = oracle.discretize(spec, 0, oracle.GridSpec(1e-4, 20.0, 500))
    with pytest.raises(ParameterError):
        oracle.lowest_eigenvalues(dh, 0, 1e-10)
    with pytest.raises(ParameterError):
        oracle.lowest_eigenvalues(dh, 11, 1e-10)
    with pytest.raises(ParameterError):
        oracle.lowest_eigenvalues(dh, 2, 1e-13)


def test_richardson_consistency():
    # halving h shrinks the eigenvalue error by about 4 (second order); h
    # is the step in the Morse coordinate x, so in ln q on a half-line
    cases = [
        (systems.OscillatorSpec(1.0, 0.0), 20.0),
        (systems.OscillatorSpec(2.0, 0.0, 1.0), 2000.0),
        (systems.CoulombSpec(0.0, 1.0), 80.0),
        (systems.CoulombSpec(0.0, 1.0, 0.1), 400.0),
    ]
    for spec, q_max in cases:
        grids = [oracle.GridSpec(1e-6, q_max, (1000 - 1) * k + 1) for k in (1, 2, 4)]
        es = [oracle.lowest_eigenvalues(oracle.discretize(spec, 0, g), 1, 1e-11)[0] for g in grids]
        ratio = (es[0] - es[1]) / (es[1] - es[2])
        assert 3.5 <= ratio <= 4.5


def test_negative_count_matches_fixed_spectrum_rule():
    # constant-mass Morse A=2.5 holds exactly three bound levels
    spec = systems.MorseSpec(2.5, 1.0)
    dh = oracle.discretize(spec, 0, oracle.GridSpec(-6.0, 40.0, 3000))
    ev = oracle.lowest_eigenvalues(dh, 6, 1e-10)
    negatives = sum(1 for e in ev if e < 0)
    assert negatives == len(systems.spectrum_fixed_potential("morse", (2.5, 1.0), 0.0, 10))


def test_default_grids_resolve_levels():
    ho_deformed = systems.OscillatorSpec(2.0, 0.0, 1.0)
    ho_wide = systems.OscillatorSpec(2.8427943229860078, 2.5)
    ho_steep = systems.OscillatorSpec(30.0, 0.0)
    morse_shallow = systems.MorseSpec(
        1.7879471812773302, 0.9351256626414769, 0.5276832706724102
    )
    cases = [
        (systems.OscillatorSpec(1.0, 0.0), [1.5, 3.5], 4000, 5e-4),
        (systems.MorseSpec(2.5, 1.0), [-6.25, -2.25], 4000, 5e-4),
        (systems.CoulombSpec(0.0, 1.0), [-1.0, -0.25], 16000, 5e-4),
        # below: the grid's own node count, k = len(refs)
        (ho_deformed, [systems.energy(ho_deformed, n) for n in range(3)], None, 2e-3),
        (ho_wide, [systems.energy(ho_wide, n) for n in range(3)], None, 5e-4),
        # compact states: the grid starts and steps in the state's own length
        (ho_steep, [systems.energy(ho_steep, n) for n in range(3)], None, 5e-4),
        (systems.CoulombSpec(1.0, 30.0), [-225.0, -100.0, -56.25], None, 5e-4),
        (systems.CoulombSpec(3.0, 50.0), [-156.25, -100.0, -625.0 / 9.0], None, 5e-4),
        (systems.CoulombSpec(0.0, 30.0), [-900.0, -225.0, -100.0], None, 5e-4),
        (
            morse_shallow,
            [e for _, e in systems.spectrum_fixed_potential(
                "morse", (morse_shallow.A0, morse_shallow.B), morse_shallow.alpha, 2
            )],
            None,
            2e-3,
        ),
    ]
    # deep constant-mass Morse wells: the step shrinks as 0.1/|e_deep|
    for A0, B in ((2.0542, 0.8043), (2.0620, 0.6929), (2.1143, 1.4403), (2.1714, 0.6139)):
        refs = [e for _, e in systems.spectrum_fixed_potential("morse", (A0, B), 0.0, 3)]
        cases.append((systems.MorseSpec(A0, B), refs, None, 5e-4))
    for spec, refs, count, tol in cases:
        grid = oracle.default_grid(spec, 0, count=count, k=len(refs))
        ev = oracle.lowest_eigenvalues(oracle.discretize(spec, 0, grid), len(refs), 1e-9)
        for e, ref in zip(ev, refs):
            assert abs(e - ref) < tol


def test_sweep_counts_and_log_derivative():
    diag = [1.0, 2.0, 3.0, 4.0, 5.0]
    off = [0.5, -0.7, 0.3, 0.9]
    lam = eigvalsh_tridiagonal(np.array(diag), np.array(off))
    for x in (0.2, 2.5, 3.9, 7.0):
        count, g = oracle._count_below(diag, [e * e for e in off], x)
        assert count == np.sum(lam < x)
        assert g == pytest.approx(np.sum(1.0 / (x - lam)), rel=1e-12)


def test_sweep_counts_a_zero_pivot():
    # at x = 1 the first pivot 1 - x is exactly 0; one eigenvalue lies below
    diag, off = [1.0, 2.0, 3.0], [0.5, 0.5]
    lam = eigvalsh_tridiagonal(np.array(diag), np.array(off))
    count, _ = oracle._count_below(diag, [e * e for e in off], 1.0)
    assert count == np.sum(lam < 1.0) == 1


def test_levels_agree_with_lapack_within_tol():
    morse = systems.MorseSpec(2.5, 1.0)
    ho = systems.OscillatorSpec(2.0, 0.0, 1.0)
    cases = [(battery_matrix(spec), 2) for spec in BATTERY] + [
        # three bound levels, then a cluster of positive box levels near 0
        (oracle.discretize(morse, 0, oracle.GridSpec(-6.0, 40.0, 3000)), 10),
        (oracle.discretize(morse, 0, oracle.GridSpec(-6.0, 25.0, 2000)), 5),
        (oracle.discretize(ho, 0, oracle.default_grid(ho, 0, k=2)), 5),
    ]
    tol = 1e-9
    for dh, k in cases:
        mine = oracle.lowest_eigenvalues(dh, k, tol)
        ref = eigvalsh_tridiagonal(
            dh.diag, dh.offdiag, select="i", select_range=(0, k - 1), tol=1e-12
        )
        assert np.max(np.abs(np.asarray(mine) - ref)) < tol


@pytest.mark.parametrize("spec", BATTERY, ids=str)
def test_battery_solve_sweep_budget(monkeypatch, spec):
    # bisection alone takes 68 to 89 sweeps on these matrices, the unseeded
    # root finder 16 to 23, the seeded one 6 to 13
    dh = battery_matrix(spec)
    shifts = count_sweeps(monkeypatch)
    oracle.lowest_eigenvalues(dh, 2, 1e-9)
    assert len(shifts) <= 13


# measured sweeps of each unseeded k = 2 battery solve, in BATTERY order
UNSEEDED_SWEEPS = (22, 21, 18, 22, 31, 21)


@pytest.mark.parametrize("spec, budget", zip(BATTERY, UNSEEDED_SWEEPS), ids=str)
def test_unseeded_battery_solve_sweep_budget(monkeypatch, spec, budget):
    # without seeds every level bisects from the Gershgorin interval until
    # counts isolate it, then takes Newton steps
    dh = dataclasses.replace(battery_matrix(spec), seeds=())
    shifts = count_sweeps(monkeypatch)
    oracle.lowest_eigenvalues(dh, 2, 1e-9)
    assert len(shifts) <= budget


def test_a_hand_built_matrix_solves_to_lapack_within_tol():
    # no seeds and no grid: the solve reads the two diagonals only
    rng = np.random.default_rng(7)
    diag = np.cumsum(rng.uniform(0.0, 2.0, 600)) - 300.0
    off = -rng.uniform(0.1, 3.0, 599)
    coulomb = battery_matrix(BATTERY[4])  # graded: Gershgorin from -2.9e12 to 7e17
    matrices = [
        oracle.DiscreteHamiltonian(diag, off),
        oracle.DiscreteHamiltonian(coulomb.diag, coulomb.offdiag),
    ]
    tol = 1e-9
    for dh in matrices:
        mine = oracle.lowest_eigenvalues(dh, 5, tol)
        ref = eigvalsh_tridiagonal(dh.diag, dh.offdiag, select="i", select_range=(0, 4), tol=1e-12)
        assert np.max(np.abs(np.asarray(mine) - ref)) < tol


@pytest.mark.parametrize("spec", BATTERY[2:], ids=str)
def test_each_hierarchy_member_holds_the_shared_energy_as_its_level_n(spec):
    # the potential algebra: member n of a Morse or Coulomb hierarchy holds
    # the hierarchy's one energy as its level n, on the matrix as in closed form
    energy = systems.energy(spec, 0)
    tol = cli.ORACLE_TOL_DEFORMED if spec.deformed else cli.ORACLE_TOL_CONSTANT
    for n in range(6):
        dh = oracle.discretize(spec, n, oracle.default_grid(spec, n, k=n + 1))
        assert abs(dh.seeds[n] - energy) <= 1e-12
        assert abs(oracle.lowest_eigenvalues(dh, n + 1, 1e-10)[n] - energy) <= tol


def spectrum_energies(capsys, spec):
    """The energies `su11pct spectrum` prints for spec, at most MAX_LEVELS."""
    flags = cli._FAMILY_ARGS[spec.family][2]
    params = [x for flag, v in zip(flags, cli._fields(spec).values()) for x in (flag, repr(v))]
    argv = ["spectrum", "--family", spec.family, *params, "--alpha", repr(spec.alpha)]
    assert cli.main([*argv, "--nmax", str(oracle.MAX_LEVELS - 1)]) == 0
    return tuple(lev["energy"] for lev in json.loads(capsys.readouterr().out)["levels"])


def test_seeds_are_the_closed_form_levels(capsys):
    # the levels the spectrum command prints, as many as the well holds
    matrices = [battery_matrix(spec) for spec in BATTERY]
    for spec, dh in zip(BATTERY, matrices):
        assert dh.seeds == spectrum_energies(capsys, spec)
    # the fixed Morse wells hold one level, the deformed Coulomb well four
    assert [len(dh.seeds) for dh in matrices] == [10, 10, 1, 1, 10, 4]
    dh = matrices[0]
    assert oracle.DiscreteHamiltonian(dh.diag, dh.offdiag).seeds == ()


@pytest.mark.parametrize("spec", BATTERY, ids=str)
def test_seeds_choose_sweeps_never_levels(monkeypatch, spec):
    dh = battery_matrix(spec)
    true = dh.seeds
    wrong = {
        "true": true,
        "10 % off": tuple(1.1 * e for e in true),
        "swapped": true[1:2] + true[:1] + true[2:],
        "shifted one level": true[1:],
        "nan": (math.nan,) * len(true),
        "huge": (1e300, -1e300) * 5,
        "empty": (),
    }
    shifts = count_sweeps(monkeypatch)
    tol = 1e-9
    for k in (2, 5):
        ref = eigvalsh_tridiagonal(
            dh.diag, dh.offdiag, select="i", select_range=(0, k - 1), tol=1e-12
        )
        sweeps = {}
        for name, seeds in wrong.items():
            shifts.clear()
            mine = oracle.lowest_eigenvalues(dataclasses.replace(dh, seeds=seeds), k, tol)
            assert np.max(np.abs(np.asarray(mine) - ref)) < tol, (name, k)  # 2.5e-10 at worst
            sweeps[name] = len(shifts)
        # a wrong seed costs at most 7 sweeps over none (measured)
        assert max(sweeps.values()) <= sweeps["empty"] + 7, (k, sweeps)


@pytest.mark.parametrize("k", [1, 3])
def test_stalled_levels_return_their_brackets(monkeypatch, k):
    # level 0 is about 1.5e5, whose ulp, 2.9e-11, exceeds tol: no float
    # bracket is narrower than tol, and the solve stops at one ulp
    dh = oracle.discretize(
        systems.OscillatorSpec(1e5, 0.0), 0, oracle.GridSpec(1e-4, 0.05, 500)
    )
    shifts = count_sweeps(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        oracle.lowest_eigenvalues(dh, k, 1e-12)
    brackets = info.value.brackets
    assert len(brackets) == k
    lo, hi = brackets[0]
    assert hi - lo >= 1e-12 and math.nextafter(lo, math.inf) == hi
    ref = eigvalsh_tridiagonal(
        dh.diag, dh.offdiag, select="i", select_range=(0, 0), tol=1e-12
    )[0]
    assert abs(0.5 * (lo + hi) - ref) < 1e-12 * ref  # Sturm counts agree to rounding
    assert len(shifts) <= 64 * k  # 64 sweeps per level is the least budget


def test_default_grid_count_grows_past_the_third_level():
    # the error of a level grows with its energy; k <= 3 keeps COUNT
    ho = systems.OscillatorSpec(1.0, 0.0)
    assert oracle.default_grid(ho, 0, k=3).count == oracle.COUNT
    assert oracle.default_grid(ho, 0, k=10).count == math.ceil(oracle.COUNT * 19.5 / 5.5)
    # a Coulomb spectrum rises toward 0, so its count stays
    coulomb = systems.CoulombSpec(0.0, 1.0)
    assert oracle.default_grid(coulomb, 0, k=10).count == oracle.COUNT


def test_sweep_counts_an_interior_zero_pivot():
    # d_0 = 1 and q_1 = 0.5, so d_1 = 1.5 - 1 - 0.5 is exactly 0 at x = 1,
    # an eigenvalue (the levels are 1 and 2.5): it is counted, G stays finite
    count, g = oracle._count_below([2.0, 1.5], [0.5], 1.0)
    assert count == 1
    assert math.isfinite(g)


def test_a_seed_where_g_is_zero_takes_no_newton_step():
    # the levels of [[0, 1], [1, 2]] are 1 -+ sqrt(2); at the seed 1 they
    # cancel in G = sum 1/(x - lambda_j), so the Newton step divides by 0
    dh = oracle.DiscreteHamiltonian(np.array([0.0, 2.0]), np.ones(1), seeds=(1.0,))
    assert oracle._count_below(list(dh.diag), [1.0], 1.0) == (1, 0.0)
    (level,) = oracle.lowest_eigenvalues(dh, 1, 1e-9)
    assert abs(level - (1.0 - math.sqrt(2.0))) <= 1e-9


def test_a_nudge_that_rounds_onto_the_bracket_end_sweeps_at_the_estimate(monkeypatch):
    # floats in [4096, 8192) are 2^-40 apart: a bracket of two steps is not
    # below tol = 2^-39, and a quarter of tol past its middle rounds onto its
    # end, where a sweep would only repeat the one that set it
    shifts = []
    count_below = oracle._count_below
    monkeypatch.setattr(
        oracle, "_count_below", lambda d, o, x: shifts.append(x) or count_below(d, o, x)
    )
    dh = oracle.DiscreteHamiltonian(np.array([5000.0, 5500.0]), np.array([500.0]))
    (level,) = oracle.lowest_eigenvalues(dh, 1, 2.0**-39)
    assert abs(level - (5250.0 - math.sqrt(312500.0))) <= 2.0**-39
    assert len(set(shifts)) == len(shifts)


def test_grid_spacing_and_count_validation():
    # a half-line grid is uniform in ln q, so it starts above 0
    grid = oracle.GridSpec(0.0, 5.0, 500)
    want = r"^point 0\.0 \(entry 0 of 2\) outside open domain \(0\.0, inf\)$"
    with pytest.raises(DomainError, match=want):
        oracle.discretize(systems.OscillatorSpec(1.0, 0.0), 0, grid)
    # a non-integer count ended in a bare TypeError inside discretize
    with pytest.raises(ParameterError, match="^grid needs at least 100 points$"):
        oracle.GridSpec(0.1, 5.0, 150.5)
    assert oracle.GridSpec(0.1, 5.0, np.int64(150)).count == 150


def test_eigenvalue_tol_and_count_must_be_numbers():
    spec = systems.OscillatorSpec(1.0, 0.0)
    dh = oracle.discretize(spec, 0, oracle.GridSpec(1e-4, 20.0, 500))
    # NaN passed the tol check and ended in a bare ValueError
    with pytest.raises(ParameterError, match="^tol must be a number, got nan$"):
        oracle.lowest_eigenvalues(dh, 1, math.nan)
    with pytest.raises(ParameterError, match="^tol below 1e-12 is not supported$"):
        oracle.lowest_eigenvalues(dh, 1, 1e-13)
    # inf returned the midpoint of the starting bracket without one sweep
    with pytest.raises(ParameterError, match="^tol must be finite, got inf$"):
        oracle.lowest_eigenvalues(dh, 1, math.inf)
    # a non-number ended in a bare TypeError
    for tol in ("1e-9", None, [1e-9]):
        with pytest.raises(ParameterError, match="^tol must be a number, got "):
            oracle.lowest_eigenvalues(dh, 1, tol)
    for k in (1.5, 0, 11, "2"):
        with pytest.raises(ParameterError, match="^k must be between 1 and 10$"):
            oracle.lowest_eigenvalues(dh, k)


def test_grid_counts_must_be_integers():
    # each ended in a bare TypeError
    spec = systems.MorseSpec(2.5, 1.0)
    with pytest.raises(ParameterError, match="^k must be at least 1$"):
        oracle.default_grid(spec, 0, k=2.5)
    with pytest.raises(ParameterError, match="^count must be at least 1$"):
        algebra.pointwise_grid(spec, 0, count=2.5)
    with pytest.raises(ParameterError, match="^count must be at least 1$"):
        operators.default_residual_grid(spec, 0, count=2.5)
    assert oracle.default_grid(spec, 0, k=np.int64(2)) == oracle.default_grid(spec, 0, k=2)
    assert algebra.pointwise_grid(spec, 0, count=np.int64(7)).size == 7
