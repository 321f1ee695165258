import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11pct import algebra, operators, pct, systems
from su11pct.errors import ParameterError


def test_constant_parameter_maps():
    ho = systems.OscillatorSpec(1.0, 0.0)
    mo, n = pct.map_parameters(ho, 2, "morse")
    assert (mo.A0, mo.B, n) == (0.25, 0.25, 2)
    assert systems.energy(mo, 0) == pytest.approx(-0.0625, abs=1e-15)
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    assert co.Lcal == pytest.approx(-0.25, abs=1e-15)
    assert co.Z0 == pytest.approx(0.1875, abs=1e-15)
    assert systems.energy(co, 0) == pytest.approx(-0.0625, abs=1e-15)


def test_composed_map_equals_chain():
    ho = systems.OscillatorSpec(2.0, 1.5)
    direct, _ = pct.map_parameters(ho, 0, "coulomb")
    mo, _ = pct.map_parameters(ho, 0, "morse")
    chained, _ = pct.map_parameters(mo, 0, "coulomb")
    assert direct == chained


def test_deformed_parameter_map_values():
    ho = systems.OscillatorSpec(1.0, 0.0, 0.3)
    mo, _ = pct.map_parameters(ho, 0, "morse")
    assert mo.B == pytest.approx(0.25 * math.sqrt(0.73), rel=1e-14)
    assert systems.energy(mo, 0) == pytest.approx(-0.0625, abs=1e-13)
    # the member coupling follows the oscillator energy route exactly
    for n in range(6):
        e = systems.energy(ho, n)
        a_route = 0.5 * ((e + 0.15) / math.sqrt(0.73) - 1.0)
        assert systems.member_coupling(mo, n) == pytest.approx(a_route, abs=1e-12)
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    for n in range(6):
        z = systems.member_coupling(co, n)
        assert z == pytest.approx(mo.B * (systems.member_coupling(mo, n) + 0.5), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    omega=st.floats(0.5, 3.0),
    L=st.sampled_from([0.5 * k for k in range(7)]),
    deformed=st.booleans(),
    u=st.floats(0.0, 1.0),
)
def test_maps_keep_invariants(omega, L, deformed, u):
    # alpha is 0 or log-uniform in [1e-8, 0.99 omega/sqrt(3)]
    alpha = 1e-8 * (0.99 * omega / math.sqrt(3.0) / 1e-8) ** u if deformed else 0.0
    ho = systems.OscillatorSpec(omega, L, alpha)
    mo, _ = pct.map_parameters(ho, 0, "morse")
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    pair = systems.invariants(ho)
    for spec, names in ((mo, ("A0", "B")), (co, ("Lcal", "Z0"))):
        assert systems.invariants(spec) == pytest.approx(pair, rel=1e-13)
        back = systems.FAMILIES[spec.family].spec_of(*systems.invariants(spec), alpha)
        assert back.alpha == alpha
        # abs covers Lcal = 0 (L = 1/2), which the maps reach up to rounding
        for name in names:
            assert getattr(back, name) == pytest.approx(
                getattr(spec, name), rel=1e-13, abs=1e-13
            )


def test_deformed_map_rejects_large_alpha():
    with pytest.raises(ParameterError):
        pct.map_parameters(systems.OscillatorSpec(1.0, 0.0, 0.6), 0, "morse")


def test_unknown_mapping_rejected():
    pairs = (("ho", "ho"), ("ho", "square_well"), ("square_well", "morse"), (["ho"], "morse"))
    for source, target in pairs:
        with pytest.raises(ParameterError, match="^no mapping from"):
            pct.mapping(source, target)
    with pytest.raises(ParameterError):
        pct.map_parameters(systems.CoulombSpec(0.0, 1.0), 0, "morse")


@pytest.mark.parametrize("alpha,tol", [(0.0, 1e-12), (0.3, 1e-9)])
def test_mapped_states_match_direct_closed_forms(alpha, tol):
    ho = systems.OscillatorSpec(1.0, 0.0, alpha)
    mo, _ = pct.map_parameters(ho, 0, "morse")
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    x = np.linspace(-8.0, 25.0, 100)
    r_grid = np.geomspace(0.02, 40.0, 100)
    for n in range(6):
        st = systems.bound_state(ho, n)
        mapped = pct.map_state(pct.mapping("ho", "morse"), st)
        direct = systems.bound_state(mo, n)
        assert np.max(np.abs(mapped(x) - direct(x))) < tol
        mapped_c = pct.map_state(pct.mapping("morse", "coulomb"), direct)
        direct_c = systems.bound_state(co, n)
        assert np.max(np.abs(mapped_c(r_grid) - direct_c(r_grid))) < tol


def test_composition_equals_two_step_map():
    st = systems.bound_state(systems.OscillatorSpec(1.0, 0.0), 1)
    r_grid = np.geomspace(0.05, 30.0, 80)
    one_step = pct.map_state(pct.mapping("ho", "coulomb"), st)
    two_step = pct.map_state(
        pct.mapping("morse", "coulomb"), pct.map_state(pct.mapping("ho", "morse"), st)
    )
    assert np.max(np.abs(one_step(r_grid) - two_step(r_grid))) < 1e-12


def test_reverse_maps_invert_forward_maps():
    ho = systems.OscillatorSpec(1.0, 0.5, 0.2)
    st = systems.bound_state(ho, 2)
    r_grid = np.geomspace(0.1, 10.0, 50)
    back = pct.map_state(pct.mapping("morse", "ho"), pct.map_state(pct.mapping("ho", "morse"), st))
    assert np.max(np.abs(back(r_grid) - st(r_grid))) < 1e-12
    mo, _ = pct.map_parameters(ho, 0, "morse")
    stm = systems.bound_state(mo, 1)
    x = np.linspace(-5.0, 15.0, 50)
    back_m = pct.map_state(
        pct.mapping("coulomb", "morse"), pct.map_state(pct.mapping("morse", "coulomb"), stm)
    )
    assert np.max(np.abs(back_m(x) - stm(x))) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_coulomb_to_ho_inverts_the_forward_map(alpha):
    # the one formula through x serves the pair no elementary step names
    ho = systems.OscillatorSpec(1.0, 0.0, alpha)
    co, _ = pct.map_parameters(ho, 0, "coulomb")
    back = pct.mapping("coulomb", "ho")
    r_grid = np.geomspace(0.02, 40.0, 100)
    for n in range(4):
        st = systems.bound_state(ho, n)
        round_trip = pct.map_state(back, pct.map_state(pct.mapping("ho", "coulomb"), st))
        assert np.max(np.abs(round_trip(r_grid) - st(r_grid))) < 1e-12
        # member n of the Coulomb hierarchy maps back onto oscillator state n
        member = pct.map_state(back, systems.bound_state(co, n))
        assert np.max(np.abs(member(r_grid) - st(r_grid))) < 1e-12


def test_coord_map_is_the_value_of_coord_derivs():
    m = pct.mapping("ho", "morse")
    x = np.linspace(-6.0, 20.0, 50)
    assert np.array_equal(m.coord_map(x), m.coord_derivs(x)[0])
    assert np.allclose(m.coord_map(x), np.exp(-0.5 * x), rtol=1e-15, atol=0.0)  # r = e^(-x/2)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_mapped_states_solve_target_equations(alpha):
    ho = systems.OscillatorSpec(1.0, 0.0, alpha)
    mo, _ = pct.map_parameters(ho, 0, "morse")
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    x = np.linspace(-5.0, 20.0, 150)
    r_grid = np.geomspace(0.05, 30.0, 150)
    e_mo, e_co = systems.energy(mo, 0), systems.energy(co, 0)
    for n in range(6):
        st = systems.bound_state(ho, n)
        mapped = pct.map_state(pct.mapping("ho", "morse"), st)
        h_vals = operators.apply_hamiltonian(mo, n, mapped, x)
        resid = np.max(np.abs(h_vals - e_mo * mapped(x))) / np.max(np.abs(mapped(x)))
        assert resid < 1e-9
        mapped_c = pct.map_state(pct.mapping("ho", "coulomb"), st)
        h_vals = operators.apply_hamiltonian(co, n, mapped_c, r_grid)
        resid = np.max(np.abs(h_vals - e_co * mapped_c(r_grid))) / np.max(
            np.abs(mapped_c(r_grid))
        )
        assert resid < 1e-9


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_generator_conjugation(alpha):
    # M_i = e^(x/4) K_i e^(-x/4) and N_i = sqrt(R) M_i / sqrt(R)
    ho = systems.OscillatorSpec(1.0, 0.0, alpha)
    mo, _ = pct.map_parameters(ho, 0, "morse")
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    gs_ho, gs_mo, gs_co = (algebra.generator_set(s) for s in (ho, mo, co))
    n = 2
    st = systems.bound_state(ho, n)
    x = np.linspace(-6.0, 14.0, 80)
    mapped = pct.map_state(pct.mapping("ho", "morse"), st)
    for which in ("zero", "plus", "minus"):
        lhs = algebra.apply_generator_fn(gs_mo, which, mapped, n)(x)
        rhs = np.exp(0.25 * x) * algebra.apply_generator(gs_ho, which, st)(np.exp(-0.5 * x))
        assert np.max(np.abs(lhs - rhs)) < 1e-9
    stm = systems.bound_state(mo, n)
    r_grid = np.geomspace(0.05, 30.0, 80)
    mapped_c = pct.map_state(pct.mapping("morse", "coulomb"), stm)
    for which in ("zero", "plus", "minus"):
        lhs = algebra.apply_generator_fn(gs_co, which, mapped_c, n)(r_grid)
        rhs = np.sqrt(r_grid) * algebra.apply_generator(gs_mo, which, stm)(-np.log(r_grid))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_deforming_function_transport():
    ho = systems.OscillatorSpec(1.0, 0.0, 0.3)
    mo, _ = pct.map_parameters(ho, 0, "morse")
    co, _ = pct.map_parameters(mo, 0, "coulomb")
    x = np.linspace(-4.0, 6.0, 21)
    f_m = systems.deforming(mo, x)[0]
    f_ho = systems.deforming(ho, np.exp(-0.5 * x))[0]
    assert np.max(np.abs(f_m - f_ho)) < 1e-14
    r_grid = np.geomspace(0.05, 20.0, 21)
    f_c = systems.deforming(co, r_grid)[0]
    f_m2 = systems.deforming(mo, -np.log(r_grid))[0]
    assert np.max(np.abs(f_c - f_m2)) < 1e-14


def test_hierarchy_members():
    ho = systems.OscillatorSpec(1.0, 0.0)
    members = pct.hierarchy(ho, "morse", 2)
    assert [m.coupling for m in members] == pytest.approx([0.25, 1.25, 2.25], abs=1e-15)
    assert all(m.energy == pytest.approx(-0.0625, abs=1e-15) for m in members)
    mo = systems.MorseSpec(0.25, 0.25)
    members = pct.hierarchy(mo, "coulomb", 2)
    assert [m.coupling for m in members] == pytest.approx(
        [0.1875, 0.4375, 0.6875], abs=1e-15
    )
    # the Coulomb charge ladder scales as (n + Lcal + 1)/(Lcal + 1)
    co = systems.CoulombSpec(0.5, 2.0)
    for n in range(4):
        assert systems.member_coupling(co, n) == pytest.approx(
            co.Z0 * (n + co.Lcal + 1.0) / (co.Lcal + 1.0), abs=1e-14
        )
    with pytest.raises(ParameterError):
        pct.hierarchy(ho, "morse", -1)


def test_hierarchy_length_must_be_an_integer():
    # a non-integer n_max ended in a bare TypeError
    with pytest.raises(ParameterError, match="^n_max must be non-negative$"):
        pct.hierarchy(systems.OscillatorSpec(1.0, 0.0), "morse", 2.5)
    with pytest.raises(ParameterError, match="^n_max must be non-negative$"):
        pct.hierarchy(systems.OscillatorSpec(1.0, 0.0), "morse", -1)
    assert len(pct.hierarchy(systems.OscillatorSpec(1.0, 0.0), "morse", np.int64(2))) == 3
