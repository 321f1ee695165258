"""Finite-difference cross-validation of the closed-form spectra.

An independent flux-form discretization with Sturm bisection reproduces
the analytic levels of all six Hamiltonian types and converges at second
order (Richardson ratio near 4).  Every grid is uniform in the paper's
Morse coordinate x = -ln g, so uniform in ln q on the half-line; the
deformed half-line problems run on their default grids, whose node counts
are printed.

Run: python demos/oracle_crosscheck.py
"""

import math

from su11pct import oracle, systems


def compare(label, spec, closed, grid, k):
    dh = oracle.discretize(spec, 0, grid)
    numeric = oracle.lowest_eigenvalues(dh, k, 1e-9)
    print(f"== {label}: {grid.count} nodes on [{grid.q_min:g}, {grid.q_max:g}] ==")
    for n, (num, ref) in enumerate(zip(numeric, closed)):
        print(f"  level {n}: closed {ref:+.6f}, grid {num:+.6f}, diff {abs(num - ref):.1e}")


def main():
    compare(
        "constant-mass oscillator",
        systems.OscillatorSpec(1.0, 0.0),
        [1.5, 3.5, 5.5],
        oracle.GridSpec(1e-4, 20.0, 4000),
        3,
    )
    compare(
        "fixed Morse well (A=2.5, B=1)",
        systems.MorseSpec(2.5, 1.0),
        [e for _, e in systems.spectrum_fixed_potential("morse", (2.5, 1.0), 0.0, 3)],
        oracle.GridSpec(-6.0, 25.0, 4000),
        3,
    )
    ho = systems.OscillatorSpec(math.sqrt(3.0), 0.0, 1.0)
    compare("deformed oscillator (alpha=1)", ho, [5.5, 19.5], oracle.default_grid(ho, k=2), 2)
    coulomb = systems.CoulombSpec(0.0, 1.0, 0.1)
    compare(
        "deformed Coulomb well (alpha=0.1)",
        coulomb,
        [e for _, e in systems.spectrum_fixed_potential("coulomb", (1.0, 0.0), 0.1, 3)],
        oracle.default_grid(coulomb, k=3),
        3,
    )

    print("== second-order convergence (Richardson) ==")
    spec = systems.OscillatorSpec(1.0, 0.0)
    levels = []
    for count in (1000, 1999, 3997):  # the step halved twice
        dh = oracle.discretize(spec, 0, oracle.GridSpec(1e-4, 20.0, count))
        levels.append(oracle.lowest_eigenvalues(dh, 1, 1e-11)[0])
    ratio = (levels[0] - levels[1]) / (levels[1] - levels[2])
    print(f"  error ratio under h -> h/2: {ratio:.3f} (expected about 4)")


if __name__ == "__main__":
    main()
