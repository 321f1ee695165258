import math

import numpy as np
import pytest
from hypothesis import settings

from su11pct import operators, systems

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

CONSTANT_SPECS = {
    "ho": systems.OscillatorSpec(omega=1.0, L=0.0),
    "morse": systems.MorseSpec(A0=0.25, B=0.25),
    "coulomb": systems.CoulombSpec(Lcal=0.0, Z0=1.0),
}

DEFORMED_SPECS = {
    "ho": systems.OscillatorSpec(omega=math.sqrt(3.0), L=0.0, alpha=1.0),
    "morse": systems.MorseSpec(A0=1.0, B=0.75, alpha=0.3),
    "coulomb": systems.CoulombSpec(Lcal=0.0, Z0=1.0, alpha=0.1),
}

ALL_SPECS = list(CONSTANT_SPECS.values()) + list(DEFORMED_SPECS.values())


@pytest.fixture(params=ALL_SPECS, ids=lambda s: f"{s.family}-a{s.alpha}")
def family_spec(request):
    return request.param


def gaussian_bump(center, width):
    """Smooth localized test function with four analytic derivatives."""

    def derivs_fn(p, order):
        p = np.asarray(p, dtype=float)
        z = (p - center) / width
        v = np.exp(-z * z)
        stack = [
            v,
            v * (-2.0 * z) / width,
            v * (4.0 * z * z - 2.0) / width**2,
            v * (-8.0 * z**3 + 12.0 * z) / width**3,
            v * (16.0 * z**4 - 48.0 * z * z + 12.0) / width**4,
        ]
        if p.ndim == 0:
            return tuple(float(s) for s in stack[: order + 1])
        return tuple(stack[: order + 1])

    return operators.SmoothFunction(derivs_fn, max_order=4)
