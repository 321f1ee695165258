"""The parameter range README states, checked at each bound, just inside
it and just outside it against the validators."""

import math
import sys
import warnings
from pathlib import Path

import pytest

from su11pct import oracle, specfun, systems
from su11pct.errors import ParameterError

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def range_paragraph():
    start = README.index("Documented parameter range:")
    return " ".join(README[start : README.index("\n\n", start)].split())


TINY = 5e-324  # the least positive float
BELOW = math.nextafter(-0.5, -1.0)
ABOVE = math.nextafter(-0.5, 0.0)
NODES = oracle.MAX_COUNT
OMEGA_MAX = math.sqrt(sys.float_info.max)  # the largest omega whose square is finite
OMEGA_OVER = math.nextafter(OMEGA_MAX, math.inf)

# name: (build one value into the checked object, the README phrase, then
# (value, None when accepted or the exact ParameterError message) at the
# bound, just inside it and just outside it)
BOUNDS = {
    "finite": (
        lambda x: systems.OscillatorSpec(x, 0.0),
        "every spec parameter is finite",
        (math.inf, "omega must be finite, got inf"),
        (1e150, None),
        (math.nan, "omega must be finite, got nan"),
    ),
    "level 0": (
        lambda x: systems.OscillatorSpec(x, 0.0),
        "Level 0's `(pb, w, E)` from the level law must be finite",
        (OMEGA_MAX, None),
        (math.nextafter(OMEGA_MAX, 0.0), None),
        (OMEGA_OVER, f"level 0 of OscillatorSpec(omega={OMEGA_OVER}, L=0.0, alpha=0.0) "
         "is not finite"),
    ),
    "omega": (
        lambda x: systems.OscillatorSpec(x, 0.0),
        "`omega > 0`",
        (0.0, "omega must be positive, got 0.0"),
        (TINY, None),
        (-TINY, "omega must be positive, got -5e-324"),
    ),
    "L": (
        lambda x: systems.OscillatorSpec(1.0, x),
        "`L >= -1/2`",
        (-0.5, None),
        (ABOVE, None),
        (BELOW, f"L must be >= -1/2, got {BELOW}"),
    ),
    "A0": (
        lambda x: systems.MorseSpec(x, 1.0),
        "`A0 > 0`",
        (0.0, "A0 must be positive, got 0.0"),
        (TINY, None),
        (-TINY, "A0 must be positive, got -5e-324"),
    ),
    "B": (
        lambda x: systems.MorseSpec(1.0, x),
        "`B > 0`",
        (0.0, "B must be positive, got 0.0"),
        (1e-150, None),
        (-TINY, "B must be positive, got -5e-324"),
    ),
    "Lcal": (
        lambda x: systems.CoulombSpec(x, 1.0),
        "`Lcal > -1/2`",
        (-0.5, "Lcal must be > -1/2, got -0.5"),
        (ABOVE, None),
        (BELOW, f"Lcal must be > -1/2, got {BELOW}"),
    ),
    "Z0": (
        lambda x: systems.CoulombSpec(0.0, x),
        "`Z0 > 0`",
        (0.0, "Z0 must be positive, got 0.0"),
        (TINY, None),
        (-TINY, "Z0 must be positive, got -5e-324"),
    ),
    "alpha": (
        lambda x: systems.OscillatorSpec(1.0, 0.0, x),
        "`alpha >= 0`",
        (0.0, None),
        (TINY, None),
        (-TINY, "alpha must be non-negative, got -5e-324"),
    ),
    # at B = 1 and alpha = 3/2 the bound (alpha + sqrt(4B^2+alpha^2))/2 = 2 is
    # exact, so A0 = 1/2 lies on it; the level law's pb is 0 there and of
    # order 1e-12 relative a step away
    "deformed Morse": (
        lambda x: systems.MorseSpec(x, 1.0, 1.5),
        "deformed Morse spec needs `(2A0+1)B > (alpha + sqrt(4B^2+alpha^2))/2`",
        (0.5, "no normalizable lowest state: (2*A0+1)*B must exceed "
         "(alpha + sqrt(4B^2+alpha^2))/2, got A0=0.5, B=1.0, alpha=1.5"),
        (0.5 * (1.0 + 1e-12), None),
        (0.5 * (1.0 - 1e-12), "no normalizable lowest state: (2*A0+1)*B must exceed "
         "(alpha + sqrt(4B^2+alpha^2))/2, got A0=0.4999999999995, B=1.0, alpha=1.5"),
    ),
    "deformed Coulomb": (
        lambda x: systems.CoulombSpec(0.0, x, 1.0),
        "a deformed Coulomb spec needs `Z0 > alpha(Lcal+1)`",
        (1.0, "Z0 must exceed alpha*(Lcal+1) for a deformed Coulomb family, "
         "got Z0=1.0, Lcal=0.0, alpha=1.0"),
        (math.nextafter(1.0, 2.0), None),
        (math.nextafter(1.0, 0.0), "Z0 must exceed alpha*(Lcal+1) for a deformed Coulomb "
         "family, got Z0=0.9999999999999999, Lcal=0.0, alpha=1.0"),
    ),
    "n": (
        lambda n: systems.bound_state(systems.OscillatorSpec(1.0, 0.0), n),
        "`n <= specfun.MAX_DEGREE` (200)",
        (specfun.MAX_DEGREE, None),
        (specfun.MAX_DEGREE - 1, None),
        (specfun.MAX_DEGREE + 1, "quantum number 201 exceeds the maximum 200"),
    ),
    "oracle nodes": (
        lambda count: oracle.GridSpec(1e-3, 10.0, count),
        "at most `2^20` nodes (`oracle.MAX_COUNT`)",
        (NODES, None),
        (NODES - 1, None),
        (NODES + 1, "a grid of 1048577 nodes is above the limit of 1048576"),
    ),
}


@pytest.mark.parametrize("name", BOUNDS)
def test_each_documented_bound_holds_at_inside_and_just_outside(name):
    build, phrase, *cases = BOUNDS[name]
    assert phrase in range_paragraph()
    for value, message in cases:
        if message is None:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # accepted, and without a word
                build(value)
        else:
            with pytest.raises(ParameterError) as info:
                build(value)
            assert str(info.value) == message, value


def test_the_probe_windows_and_the_half_integer_warning_are_stated():
    paragraph = range_paragraph()
    assert "is not an integer or half-integer warns" in paragraph
    windows = {"ho": "[1e-6, 1e6]", "morse": "[-80, 300]", "coulomb": "[1e-6, 1e6]"}
    for family, window in windows.items():
        assert window in paragraph
        assert systems.FAMILIES[family].probe == tuple(map(float, window[1:-1].split(", ")))
    with pytest.warns(UserWarning, match="L = 0.25 is not integer or half-integer"):
        systems.OscillatorSpec(1.0, 0.25)
    with pytest.warns(UserWarning, match="Lcal = 0.25 is not integer or half-integer"):
        systems.CoulombSpec(0.25, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        systems.OscillatorSpec(1.0, 1.5)
        systems.CoulombSpec(2.0, 1.0)
