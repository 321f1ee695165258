"""The benchmark's layer tracer patches names of the package by getattr.

Building the tracer resolves every name it wraps, so renaming or deleting
one of them fails here instead of only under ``bench/run.py --trace 1``.
"""

import importlib.util
import os

import numpy as np

from su11pct import algebra, measures, oracle, systems

TRACE_LAYERS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "trace_layers.py"
)


def _load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (systems.bound_state, algebra.casimir_apply)
    tracer = _load_trace_layers().Tracer()
    tracer.install()
    try:
        assert systems.bound_state is not originals[0]
        state = systems.bound_state(systems.OscillatorSpec(1.0, 0.0), 2)
        assert state(0.5) != 0.0
        assert "systems.bound_state" in tracer.names
        # both counters wrap module attributes, so the package must call
        # measures.quadrature_rule and oracle._count_below through them
        spec = systems.OscillatorSpec(1.0, 0.0)
        states = [systems.bound_state(spec, n) for n in range(3)]
        measures.gram_matrix(measures.family_measure("ho"), states)
        assert tracer.counts.get("measures.quadrature_levels", 0) > 0
        oracle.lowest_eigenvalues(oracle.discretize(spec, 0, oracle.default_grid(spec)), 2)
        assert tracer.counts.get("oracle.sturm_sweeps", 0) > 0
        # the tabulate layer metrics count at specfun's module attributes, so
        # BoundState.derivs must call the polynomial stacks through them
        points = np.linspace(0.5, 2.0, 11)
        for mass_spec in (systems.OscillatorSpec(1.0, 0.0, 0.3), spec):  # Jacobi, Laguerre
            before = tracer.counts.get("specfun.degree_points", 0)
            systems.bound_state(mass_spec, 3).derivs(points, 2)
            assert tracer.counts.get("specfun.degree_points", 0) > before
    finally:
        tracer.uninstall()
    assert (systems.bound_state, algebra.casimir_apply) == originals

