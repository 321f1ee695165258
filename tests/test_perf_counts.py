"""Timing-free guards on the work of the six ``su11pct verify --all`` reports
and on the memory of one large derivative stack.

Counts polynomial derivative stacks (``specfun.jacobi_derivs``, one per
state evaluation that the remembered stacks of ``systems`` do not serve),
operator coefficient stacks (``operators.DiffOperator2._compute``, one per
evaluation the operators' remembered stacks do not serve), the degree
recurrences of one stack (``specfun._value``) and Sturm sweeps of the
finite-difference oracle (``oracle._count_below``).
A change that defeats the memo or grows the oracle fails here, on any
host, not only in the benchmark.  The memory guard reads ``tracemalloc``,
which numpy reports its array buffers to, so a stack that stops working
in blocks of ``systems.BLOCK`` points fails here too.
"""

import gc
import tracemalloc
import weakref

import numpy as np

from su11pct import algebra, cli, operators, oracle, specfun, systems

# 726 stacks before states shared their remembered stacks, 284 after, 232 when
# the report asks for high orders first and each state keeps its supports, 227
# when the mapping rows evaluate on the source states' grids, which the casimir
# rows scanned; the bound is the measured count, so a change that adds report
# rows raises it explicitly
MAX_POLYNOMIAL_STACKS = 227
# 370 coefficient evaluations while every application built its operator anew,
# 250 with the operators built once per report and their stacks remembered,
# 259 once the two Coulomb reports map to the oscillator (7 rows each)
MAX_COEFFICIENT_STACKS = 259
# 115 sweeps when every level started from its Gershgorin bracket, 52 from its
# seed, 33 when the fixed Morse wells solve only the one level they hold
MAX_STURM_SWEEPS = 33
# seeded k = 5 solves of the six battery matrices: 197 sweeps while a seeded
# level waited for a count at both bracket ends, 158 once it steps from its
# lower end
MAX_SEEDED_SWEEPS = 158
# bytes a 100,000-point order-2 stack allocates beyond the arrays it returns:
# 17.0e6 on the whole array at once, 4.1e6 block by block
MAX_STACK_PEAK_BYTES = 6e6


def test_verify_all_reports_stay_within_their_work_counts(monkeypatch):
    counts = {"stacks": 0, "coefficients": 0, "sweeps": 0}
    stacks, coefficients = specfun.jacobi_derivs, operators.DiffOperator2._compute
    sweep = oracle._count_below

    def counted_stacks(*args):
        counts["stacks"] += 1
        return stacks(*args)

    def counted_coefficients(*args):
        counts["coefficients"] += 1
        return coefficients(*args)

    def counted_sweep(*args):
        counts["sweeps"] += 1
        return sweep(*args)

    monkeypatch.setattr(specfun, "jacobi_derivs", counted_stacks)
    monkeypatch.setattr(operators.DiffOperator2, "_compute", counted_coefficients)
    monkeypatch.setattr(oracle, "_count_below", counted_sweep)
    for spec in cli.VERIFY_ALL_SPECS:
        assert cli.build_report(spec).overall_pass
    assert counts["stacks"] <= MAX_POLYNOMIAL_STACKS
    assert counts["coefficients"] <= MAX_COEFFICIENT_STACKS
    assert counts["sweeps"] <= MAX_STURM_SWEEPS


def test_seeded_battery_solves_stay_within_their_sweeps(monkeypatch):
    sweeps = []
    sweep = oracle._count_below

    def counted_sweep(*args):
        sweeps[-1] += 1
        return sweep(*args)

    monkeypatch.setattr(oracle, "_count_below", counted_sweep)
    for spec in cli.VERIFY_ALL_SPECS:
        dh = oracle.discretize(spec, 0, oracle.default_grid(spec, 0, k=2))
        sweeps.append(0)
        oracle.lowest_eigenvalues(dh, 5, 1e-9)
    assert sum(sweeps) <= MAX_SEEDED_SWEEPS, sweeps
    # level 4 of CoulombSpec(0, 1), seed and Newton step both below it, took
    # 32 of its matrix's 44 sweeps while the upper end was unswept
    assert sweeps[4] <= 16, sweeps


def test_a_report_leaves_nothing_alive_without_the_cycle_collector(monkeypatch):
    # what a report builds is freed by reference counts alone: no generator
    # set, operator or output sits in a cycle that keeps it or a state alive
    sets = []
    make = algebra.generator_set
    monkeypatch.setattr(algebra, "generator_set", lambda spec: sets.append(make(spec)) or sets[-1])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for spec in cli.VERIFY_ALL_SPECS:
            cli.build_report(spec)
            made = [weakref.ref(gs) for gs in sets]
            sets.clear()
            assert made and all(ref() is None for ref in made), spec
            assert len(systems._LIVE) == 0, spec
    finally:
        if enabled:
            gc.enable()


def test_a_large_stack_stays_within_its_memory():
    points = np.geomspace(1e-3, 40.0, 10**5)
    state = systems.BoundState(systems.OscillatorSpec(1.3, 1.5, 0.4), 150)
    tracemalloc.start()
    try:
        stack = state.derivs(points, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in stack) <= MAX_STACK_PEAK_BYTES


def test_a_stack_runs_one_degree_recurrence_per_three_orders(monkeypatch):
    # orders 1, 2 and 4 are sums of the terms of the recurrences of orders 0 and 3
    degrees = []
    recurrence = specfun._value

    def counted_recurrence(n, *args):
        degrees.append(n)
        return recurrence(n, *args)

    monkeypatch.setattr(specfun, "_value", counted_recurrence)
    y = np.linspace(0.0, 2.5, 101)
    for kmax, runs in [(0, [150]), (1, [150]), (2, [150]), (3, [150, 147]), (4, [150, 147])]:
        degrees.clear()
        specfun.jacobi_derivs(150, 1.5, 0.5, y, kmax)
        assert degrees == runs, kmax
