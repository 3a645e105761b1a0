import tracemalloc

import numpy as np
import pytest

import mfclab as m
from mfclab import simulate

AXIS_1D = (-3.0, 3.0, 241)
AXIS_2D = (-3.0, 3.0, 121)  # h = 0.05 so the probe points {-1, 0, 1} are grid nodes


def sized_grid(model, n, axis, t0=0.0, T=1.0, margin=0.25):
    """CFL-sized GridSpec with the same axis repeated on each of the n*d axes."""
    return m.sized_grid(model, n, [axis] * (n * model.d), t0, T, margin=margin)


def cut_into_blocks(monkeypatch, block_paths, steps, n, d=1):
    """Set simulate.BLOCK_BYTES so that path_blocks puts `block_paths` paths of
    `steps` steps and n atoms in R^d (float64 states, controls and running
    costs) in each block; None leaves it. Returns a list that gets one entry
    per integration, that is per block, from here on."""
    if block_paths is not None:
        monkeypatch.setattr(simulate, "BLOCK_BYTES",
                            block_paths * ((2 * steps + 1) * n * d + 2 * steps) * 8)
    calls = []
    integrate = simulate._integrate
    monkeypatch.setattr(simulate, "_integrate", lambda *a: calls.append(1) or integrate(*a))
    return calls


def recording_solves(monkeypatch, module):
    """Replace module.solve_hjb with the real one that also records each call's
    arguments and solve, as (args, kwargs, u) in the returned list."""
    calls = []

    def solve(*args, **kwargs):
        calls.append((args, kwargs, m.solve_hjb(*args, **kwargs)))
        return calls[-1][2]
    monkeypatch.setattr(module, "solve_hjb", solve)
    return calls


def traced_peak(fn) -> int:
    """Peak bytes that Python and numpy allocate while fn() runs, over what was
    allocated before (tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def lq_model():
    return m.REGISTRY["LQ-decoupled"]


@pytest.fixture(scope="session")
def meanrev_model():
    return m.REGISTRY["LQ-mean-reverting"]


@pytest.fixture(scope="session")
def lq_u1(lq_model):
    """n=1 solve at the acceptance resolution, every slice stored."""
    grid = sized_grid(lq_model, 1, AXIS_1D)
    return m.solve_hjb(lq_model, 1, grid, 0.0, 1.0, max_stored_slices=grid.time_steps + 1)


@pytest.fixture(scope="session")
def lq_u2(lq_model):
    grid = sized_grid(lq_model, 2, AXIS_2D)
    return m.solve_hjb(lq_model, 2, grid, 0.0, 1.0)


@pytest.fixture(scope="session")
def lq_feedback(lq_u1):
    return m.synthesize_feedback(lq_u1)


def lq_exact(x, t=0.0, T=1.0, sigma=1.0, kappa=1.0):
    """Closed form for the decoupled benchmark, from the Riccati ODE by hand:
    P(t) = kappa/(kappa + T - t), r(t) = (sigma^2 kappa / 2) ln(1 + (T-t)/kappa)."""
    x = np.asarray(x, dtype=np.float64)
    P = kappa / (kappa + (T - t))
    r = 0.5 * sigma ** 2 * kappa * np.log(1.0 + (T - t) / kappa)
    return 0.5 * P * x ** 2 + r
