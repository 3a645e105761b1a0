import numpy as np
import pytest

import mfclab as m
from mfclab.hjb import _derivatives
from conftest import AXIS_1D, lq_exact, sized_grid


def test_gridspec_validation():
    with pytest.raises(ValueError):
        m.GridSpec(axes=((-1.0, 1.0, 4),), time_steps=10)
    with pytest.raises(ValueError):
        m.GridSpec(axes=((1.0, -1.0, 16),), time_steps=10)
    with pytest.raises(ValueError):
        m.GridSpec(axes=((-1.0, 1.0, 16),) * 4, time_steps=10)
    with pytest.raises(ValueError):
        m.GridSpec(axes=((-1.0, 1.0, 16),), time_steps=10, margin=0.5)


def test_cfl_violation_names_required_steps(lq_model):
    grid = m.GridSpec(axes=((-3.0, 3.0, 241),), time_steps=3)
    with pytest.raises(m.CFLError) as info:
        m.solve_hjb(lq_model, 1, grid, 0.0, 1.0)
    assert info.value.required_steps > 1000
    assert "time steps" in str(info.value)


def test_terminal_slice_is_exact(lq_model):
    grid = m.GridSpec(axes=((-2.0, 2.0, 9),) * 2, time_steps=2000)
    u = m.solve_hjb(lq_model, 2, grid, 0.0, 1.0)
    # U_T = m2/2 at the node (1, 1): (1^2 + 1^2)/2/2 = 0.5, exactly
    i = 6  # coordinate 1.0 on linspace(-2, 2, 9)
    assert u.grid.coords()[0][i] == 1.0
    assert u.values[-1][i, i] == 0.5


def test_lq_benchmark_accuracy(lq_u1):
    x = np.linspace(-3.0, 3.0, 241)
    core = np.abs(x) <= 1.5
    err = np.abs(lq_u1.values[0] - lq_exact(x))[core].max()
    assert err <= 1e-3


def test_monotone_refinement(lq_model):
    errs = []
    for pts in (61, 121, 241):
        grid = sized_grid(lq_model, 1, (-3.0, 3.0, pts))
        u = m.solve_hjb(lq_model, 1, grid, 0.0, 1.0)
        x = np.linspace(-3.0, 3.0, pts)
        core = np.abs(x) <= 1.5
        errs.append(np.abs(u.values[0] - lq_exact(x))[core].max())
    assert errs[2] <= errs[1] <= errs[0]


def test_linear_terminal_near_exact():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                               "l1": "0", "kappa": 1.0, "UT": "m1[0]"})
    grid = sized_grid(model, 1, AXIS_1D)
    u = m.solve_hjb(model, 1, grid, 0.0, 1.0)
    x = np.linspace(-3.0, 3.0, 241)
    # pointwise minimization of a^2/2 - a gives running rate -1/2: u = mean - (T-t)/2
    assert np.abs(u.values[0] - (x - 0.5)).max() <= 1e-10


def test_degenerate_diffusion_stable():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["0"]],
                               "l1": "0", "kappa": 1.0, "UT": "0.5*m2"})
    grid = sized_grid(model, 1, AXIS_1D)
    u = m.solve_hjb(model, 1, grid, 0.0, 1.0)
    x = np.linspace(-3.0, 3.0, 241)
    core = np.abs(x) <= 1.5
    # sigma = 0 closed form: P(0) x^2/2 with P(0) = 1/2, r = 0
    err = np.abs(u.values[0] - x ** 2 / 4)[core].max()
    assert err <= 2e-2


def test_grid_gradient_exact_on_quadratics(lq_u1):
    u = lq_u1
    x = np.linspace(-3.0, 3.0, 241)
    # terminal slice is x^2/2: central differences are exact on quadratics
    g = m.grid_gradient(u, u.values.shape[0] - 1)[..., 0]
    assert np.abs(g[1:-1] - x[1:-1]).max() <= 1e-12


@pytest.mark.parametrize("nd", [1, 2, 3])
def test_boundary_stencil_is_one_sided_with_zero_curvature(nd):
    g = np.random.default_rng(nd)
    u = g.normal(size=(9, 8, 10)[:nd])
    h = np.array([0.3, 0.5, 0.7])[:nd]
    grads, d2, _ = _derivatives(u, h)
    for a in range(nd):
        ua = np.moveaxis(u, a, 0)
        ga = np.moveaxis(grads[..., a], a, 0)
        da = np.moveaxis(d2[a], a, 0)
        assert np.allclose(ga[0], (ua[1] - ua[0]) / h[a], rtol=0, atol=1e-12)
        assert np.allclose(ga[-1], (ua[-1] - ua[-2]) / h[a], rtol=0, atol=1e-12)
        assert np.allclose(ga[1:-1], (ua[2:] - ua[:-2]) / (2 * h[a]), rtol=0, atol=1e-12)
        assert np.abs(da[[0, -1]]).max() <= 1e-12
        assert np.allclose(da[1:-1], ua[2:] - 2 * ua[1:-1] + ua[:-2], rtol=0, atol=1e-12)


def test_grid_gradient_symmetric_two_particles(lq_u2):
    g = m.grid_gradient(lq_u2, 0)
    assert np.allclose(g[..., 0], g[..., 1].T, atol=1e-12)


def test_feedback_recovers_lq_control(lq_feedback):
    # a*(0, x) = x/(1 + T - t) = x/2 at t = 0
    states = np.linspace(-1.5, 1.5, 13).reshape(-1, 1, 1)
    a = lq_feedback.fn(0.0, states)
    assert np.abs(a.reshape(-1) - states.reshape(-1) / 2.0).max() <= 2e-2


def test_feedback_constant_for_affine_value():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                               "l1": "0", "kappa": 1.0, "UT": "m1[0]"})
    grid = sized_grid(model, 1, AXIS_1D)
    u = m.solve_hjb(model, 1, grid, 0.0, 1.0)
    pol = m.synthesize_feedback(u)
    states = np.linspace(-2.0, 2.0, 9).reshape(-1, 1, 1)
    a = pol.fn(0.5, states)
    # Du = 1/n = 1, so a = n Du / kappa = 1 everywhere
    assert np.abs(a - 1.0).max() <= 1e-9


def test_feedback_permutation_symmetry(lq_u2):
    pol = m.synthesize_feedback(lq_u2)
    states = np.array([[[0.5], [-1.0]], [[1.2], [0.3]]])
    swapped = states[:, ::-1]
    a = pol.fn(0.0, states)
    b = pol.fn(0.0, swapped)
    assert np.allclose(a, b[:, ::-1], atol=1e-12)


def test_feedback_clamps_outside_grid(lq_u1):
    pol = m.synthesize_feedback(lq_u1)
    inside = pol.fn(0.0, np.array([[[3.0]]]))
    outside = pol.fn(0.0, np.array([[[5.0]]]))
    assert np.array_equal(inside, outside)


def test_riccati_examples():
    # t = T: exactly the terminal functional m2/2
    assert m.riccati_lq_value(1.0, 1.0, 1.0, 1.0, np.array([[2.0]])) == 2.0
    v = m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, np.array([[1.0]]))
    assert abs(v - (0.25 + 0.5 * np.log(2.0))) <= 1e-8
    dup = m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, np.array([[1.0], [1.0]]))
    assert abs(dup - v) <= 1e-14


def test_riccati_kappa_scaling():
    # closed form P(t) = kappa/(kappa + T - t), r(t) = (sigma^2 kappa/2) ln(1 + (T-t)/kappa)
    v = m.riccati_lq_value(0.7, 2.0, 1.5, 0.25, np.array([[1.3]]))
    P = 2.0 / (2.0 + 1.25)
    r = 0.5 * 0.7 ** 2 * 2.0 * np.log(1.0 + 1.25 / 2.0)
    assert abs(v - (0.5 * P * 1.3 ** 2 + r)) <= 1e-8


def test_value_at_nodes_and_clamping(lq_u1):
    u = lq_u1
    assert u.value_at(1.0, [1.0]) == 0.5  # terminal node value, exact
    assert u.value_at(0.0, [4.0]) == u.value_at(0.0, [3.0])


def test_storage_decimation(lq_model):
    grid = sized_grid(lq_model, 1, (-3.0, 3.0, 61))
    u = m.solve_hjb(lq_model, 1, grid, 0.0, 1.0, max_stored_slices=17)
    assert u.values.shape[0] <= 18
    assert u.times[0] == 0.0 and u.times[-1] == 1.0


def test_stored_slices_are_the_kept_march_slices(meanrev_model):
    t0, T = 0.25, 1.0
    grid = sized_grid(meanrev_model, 1, (-2.0, 2.0, 21), t0, T)
    K = grid.time_steps
    full = m.solve_hjb(meanrev_model, 1, grid, t0, T, max_stored_slices=K + 1)
    u = m.solve_hjb(meanrev_model, 1, grid, t0, T, max_stored_slices=7)
    stride = -(-(K + 1) // 7)
    kept = sorted({0, K} | set(range(0, K + 1, stride)))
    assert stride > 1 and kept[-2] != K
    assert np.array_equal(u.times, t0 + u.dt * np.array(kept, dtype=np.float64))
    assert np.array_equal(full.times, t0 + full.dt * np.arange(K + 1, dtype=np.float64))
    assert np.array_equal(u.values, full.values[kept])
