"""Negative controls: each probe fails on an input that breaks the property it
checks, and passes its paired positive case on the same settings. A probe
that passed both would certify nothing about its property."""

import numpy as np
import pytest

import mfclab as m
from mfclab import expressions as ex
from mfclab.mollify import default_segment_family
from conftest import sized_grid

AXIS = (-3.0, 3.0, 121)


def _model(UT):
    """d = d' = 1, b = 0, sigma = 1, l1 = 0, kappa = 1 and terminal cost UT."""
    return m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                              "l1": "0", "kappa": 1.0, "UT": UT})


# -std(mu) is concave, so u_n splits the atoms for n >= 2 but cannot at n = 1:
# the n = 1 -> 2 gap is tau/(2 kappa) = 0.5 at t = 0 (ROADMAP item 13).
@pytest.mark.parametrize("model, fails", [
    (_model("-sqrt(abs(m2 - m1[0]^2))"), True),
    (m.REGISTRY["LQ-mean-reverting"], False),
], ids=["concave-std", "LQ-mean-reverting"])
def test_duplication_consistency_control(model, fails):
    times = m.verify.duplication_times(0.0, 1.0)
    u1, u2 = (m.solve_hjb(model, n, sized_grid(model, n, axis), 0.0, 1.0, read_times=times)
              for n, axis in [(1, AXIS), (2, (-3.0, 3.0, 81))])
    points = [np.array([[x]]) for x in (-1.2, -0.5, 0.0, 0.4, 1.2)]
    rep = m.duplication_consistency(u1, u2, points)
    assert rep.passed is not fails, rep.to_json()


# -m2 is concave in the atoms, so its smoothed lift has a negative convexity
# defect. The segments are the ones a config with seed 5 reads (seed + 2).
@pytest.mark.parametrize("expr, fails", [("-m2", True), ("m2", False)])
def test_convexity_preservation_control(expr, fails):
    base = m.BaseFunctional(expr, ex.parse_coefficient(expr), 4.5, 1.0)
    rep = m.convexity_preservation_probe(base, 4, 200, 5, default_segment_family(6, 7))
    assert rep.passed is not fails, rep.to_json()


# sqrt|m1| is only 1/2-Holder in space at m1 = 0, so near T the value is only
# 1/4-Holder in time there: the ratio over sqrt(gap) rises at the smallest gap.
@pytest.mark.parametrize("UT, fails", [("sqrt(abs(m1[0]))", True), ("0.5*m2", False)])
def test_time_holder_control(UT, fails):
    model = _model(UT)
    grid = sized_grid(model, 1, AXIS)
    u = m.solve_hjb(model, 1, grid, 0.0, 1.0, max_stored_slices=grid.time_steps + 1)
    rep = m.time_holder_probe(u, 1.0)
    assert rep.passed is not fails, rep.to_json()
