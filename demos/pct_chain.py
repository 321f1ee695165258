"""The oscillator -> Morse -> Coulomb transformation chain in action.

One oscillator Hamiltonian turns into a hierarchy of Morse (then Coulomb)
Hamiltonians sharing a single energy.  Mapped states coincide with the
directly constructed closed forms, normalization constants included, and
the su(1,1) generators transform by conjugation with the mapping
prefactor.

Run: python demos/pct_chain.py
"""

import numpy as np

from su11pct import algebra, pct, systems


def main():
    ho = systems.OscillatorSpec(omega=1.0, L=0.0)
    print("source: oscillator omega=1, L=0 with E_n = 2n + 3/2")

    morse, _ = pct.map_parameters(ho, 0, "morse")
    print(f"Morse image: A0={morse.A0}, B={morse.B}, fixed energy {systems.energy(morse, 0)}")
    print("hierarchy members (A_n grows, energy fixed):")
    for m in pct.hierarchy(ho, "morse", 3):
        print(f"  n={m.n}: A_n = {m.coupling:.2f}, energy = {m.energy:+.4f}")

    coulomb, _ = pct.map_parameters(morse, 0, "coulomb")
    print(f"\nCoulomb image: Lcal={coulomb.Lcal}, Z0={coulomb.Z0}")
    print("charge ladder (Z_n grows, energy fixed):")
    for m in pct.hierarchy(morse, "coulomb", 3):
        print(f"  n={m.n}: Z_n = {m.coupling:.4f}, energy = {m.energy:+.4f}")

    print("\nmapped states equal the direct closed forms:")
    x = np.linspace(-6.0, 20.0, 200)
    for n in range(3):
        st = systems.bound_state(ho, n)
        mapped = pct.map_state(pct.mapping("ho", "morse"), st)
        direct = systems.bound_state(morse, n)
        print(f"  n={n}: max |mapped - direct| = {np.max(np.abs(mapped(x) - direct(x))):.2e}")

    print("\ngenerator conjugation M_i = e^(x/4) K_i e^(-x/4):")
    gs_ho = algebra.generator_set(ho)
    gs_mo = algebra.generator_set(morse)
    st = systems.bound_state(ho, 2)
    mapped = pct.map_state(pct.mapping("ho", "morse"), st)
    xg = np.linspace(-5.0, 12.0, 100)
    for which in ("zero", "plus", "minus"):
        lhs = algebra.apply_generator_fn(gs_mo, which, mapped, 2)(xg)
        rhs = np.exp(0.25 * xg) * algebra.apply_generator(gs_ho, which, st)(np.exp(-0.5 * xg))
        print(f"  {which:5s}: max deviation {np.max(np.abs(lhs - rhs)):.2e}")

    print("\nthe composed oscillator -> Coulomb map equals the two-step chain:")
    r_grid = np.geomspace(0.05, 30.0, 120)
    st = systems.bound_state(ho, 1)
    one = pct.map_state(pct.mapping("ho", "coulomb"), st)
    two = pct.map_state(
        pct.mapping("morse", "coulomb"), pct.map_state(pct.mapping("ho", "morse"), st)
    )
    print(f"  max difference: {np.max(np.abs(one(r_grid) - two(r_grid))):.2e}")


if __name__ == "__main__":
    main()
