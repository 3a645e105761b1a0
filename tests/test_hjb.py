import hashlib
import itertools
import math

import numpy as np
import pytest

import mfclab as m
from mfclab.hjb import CFL_SAFETY, STEP_SAFETY, _Ghost, _ghosted
from mfclab.models import _lifted_batch
from conftest import AXIS_1D, lq_exact, sized_grid, traced_peak


def test_gridspec_validation():
    with pytest.raises(ValueError):
        m.GridSpec(axes=((-1.0, 1.0, 4),), time_steps=10)
    with pytest.raises(ValueError):
        m.GridSpec(axes=((1.0, -1.0, 16),), time_steps=10)
    with pytest.raises(ValueError):
        m.GridSpec(axes=((-1.0, 1.0, 16),) * 4, time_steps=10)
    with pytest.raises(ValueError):
        m.GridSpec(axes=((-1.0, 1.0, 16),), time_steps=10, margin=0.5)
    with pytest.raises(ValueError, match="time_steps must be >= 1"):
        m.GridSpec(axes=((-1.0, 1.0, 16),), time_steps=0)


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


def _one_slice(grid, u):
    """A GridValueFunction holding the single slice u on grid. grid_gradient reads
    only the grid and the stored values, so no model is attached."""
    return m.GridValueFunction(grid=grid, model=None, n=len(grid.axes), dt=1.0,
                               times=np.zeros(1), values=u[None])


def _unequal_grid(nd):
    """Axes of 9, 8 and 10 nodes at spacings 0.3, 0.5 and 0.7."""
    axes = [(-1.0, -1.0 + 8 * 0.3, 9), (0.0, 7 * 0.5, 8), (0.5, 0.5 + 9 * 0.7, 10)][:nd]
    return m.GridSpec(axes=tuple(axes), time_steps=1)


@pytest.mark.parametrize("nd", [1, 2, 3])
def test_boundary_stencil_is_one_sided_with_zero_curvature(nd):
    g = np.random.default_rng(nd)
    grid = _unequal_grid(nd)
    u = g.normal(size=grid.shape())
    h = grid.spacings()
    grads = m.grid_gradient(_one_slice(grid, u), 0)
    ghost = _Ghost(grid, 1, nd)
    ghost.operands(u.reshape(-1))
    d2 = [(up - 2.0 * u.reshape(-1) + um).reshape(u.shape)
          for up, um in zip(ghost.plus, ghost.minus)]
    for a in range(nd):
        ua = np.moveaxis(u, a, 0)
        ga = np.moveaxis(grads[..., a], a, 0)
        da = np.moveaxis(d2[a], a, 0)
        assert np.allclose(ga[0], (ua[1] - ua[0]) / h[a], rtol=0, atol=1e-12)
        assert np.allclose(ga[-1], (ua[-1] - ua[-2]) / h[a], rtol=0, atol=1e-12)
        assert np.allclose(ga[1:-1], (ua[2:] - ua[:-2]) / (2 * h[a]), rtol=0, atol=1e-12)
        assert np.abs(da[[0, -1]]).max() <= 1e-12
        assert np.allclose(da[1:-1], ua[2:] - 2 * ua[1:-1] + ua[:-2], rtol=0, atol=1e-12)


def _march_gradient(grid, u):
    """The gradient that the march gathers, (*shape, nd), from the full slice u:
    axis_gradients on a _Ghost that packs every node."""
    nd = len(grid.axes)
    ghost = _Ghost(grid, 1, nd)
    assert not ghost.cone
    g = ghost.axis_gradients(u.reshape(-1), grid.spacings(), np.empty((nd, u.size)))
    return np.stack(list(g.reshape((nd,) + u.shape)), -1)


@pytest.mark.parametrize("nd", [1, 2, 3])
def test_grid_gradient_is_the_march_gradient_bit_for_bit(nd):
    """grid_gradient differences the views of one ghosted buffer; the march
    gathers its operands. Both give the same bits, on unequal spacings."""
    g = np.random.default_rng(20 + nd)
    grid = _unequal_grid(nd)
    u = g.normal(scale=10.0, size=grid.shape())
    assert m.grid_gradient(_one_slice(grid, u), 0).tobytes() == _march_gradient(grid, u).tobytes()


@pytest.mark.parametrize("n, points", [(2, 21), (3, 11)])
def test_grid_gradient_of_a_cone_solve_is_the_march_gradient(n, points):
    """A cone solve's stored slices are expanded to the full grid; their gradient
    is the march's gradient of that full slice, bit for bit."""
    model = m.REGISTRY["tanh-interaction"]
    grid = m.sized_grid(model, n, [(-2.0, 2.0, points)] * n, 0.0, 0.5)
    u = m.solve_hjb(model, n, grid, 0.0, 0.5)
    assert _Ghost(grid, n, 1).cone
    for k in (0, len(u.times) // 2):
        assert m.grid_gradient(u, k).tobytes() == _march_gradient(grid, u.values[k]).tobytes()


def test_grid_gradient_memory_is_one_buffer_and_its_result():
    """The gradient of a 25^3 slice allocates its ghost buffer (27^3 floats), its
    result (3 x 25^3 floats) and a slice-sized temporary that numpy takes while
    it subtracts two strided views, 0.63 MiB in all, and no stencil index
    arrays: the gradient gathered through them peaked at 5.67 MiB there."""
    grid = m.GridSpec(axes=((-2.0, 2.0, 25),) * 3, time_steps=1)
    u = _one_slice(grid, np.random.default_rng(0).normal(size=grid.shape()))
    peak = traced_peak(lambda: m.grid_gradient(u, 0))
    assert peak <= 2 ** 20


@pytest.mark.parametrize("nd", [1, 2, 3])
def test_ghost_buffer_is_odd_reflection_pad_bit_for_bit(nd):
    """Once u is in a buffer's interior, _ghosted fills its faces so that the
    buffer holds what np.pad(u, 1, mode="reflect", reflect_type="odd") returns,
    bit for bit, whatever the reused buffer held before."""
    g = np.random.default_rng(10 + nd)
    for shape in [(2, 3, 4)[:nd], (9, 8, 10)[:nd], tuple(g.integers(2, 12, nd))]:
        buf = np.full(tuple(s + 2 for s in shape), np.nan)
        for _ in range(2):
            u = g.normal(scale=g.uniform(0.1, 100.0), size=shape)
            want = np.pad(u, 1, mode="reflect", reflect_type="odd")
            buf[(slice(1, -1),) * nd] = u
            assert _ghosted(buf) is buf
            assert buf.tobytes() == want.tobytes()


def test_grid_gradient_symmetric_two_particles(lq_u2):
    g = m.grid_gradient(lq_u2, 0)
    assert np.allclose(g[..., 0], g[..., 1].T, atol=1e-12)


def test_feedback_recovers_lq_control(lq_feedback):
    # a*(0, x) = x/(1 + T - t) = x/2 at t = 0
    states = np.linspace(-1.5, 1.5, 13).reshape(-1, 1, 1)
    a = lq_feedback.fn(0, 0.0, states)
    assert np.abs(a.reshape(-1) - states.reshape(-1) / 2.0).max() <= 2e-2


def test_feedback_constant_for_affine_value():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                               "l1": "0", "kappa": 1.0, "UT": "m1[0]"})
    grid = sized_grid(model, 1, AXIS_1D)
    u = m.solve_hjb(model, 1, grid, 0.0, 1.0)
    pol = m.synthesize_feedback(u)
    states = np.linspace(-2.0, 2.0, 9).reshape(-1, 1, 1)
    a = pol.fn(0, 0.5, states)
    # Du = 1/n = 1, so a = n Du / kappa = 1 everywhere
    assert np.abs(a - 1.0).max() <= 1e-9


def test_constant_terminal_cost_stays_constant():
    """U_T = 1 with b = 0, l1 = 0: u = 1 at every node and time."""
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                               "l1": "0", "kappa": 1.0, "UT": "1"})
    grid = m.sized_grid(model, 2, [(-1.0, 1.0, 9)] * 2, 0.0, 0.1)
    u = m.solve_hjb(model, 2, grid, 0.0, 0.1)
    assert u.values.shape == (grid.time_steps + 1, 9, 9)
    assert np.all(u.values == 1.0)


def test_grid_arrays_are_built_once_and_read_only():
    """coords() and bounds() are built once per grid, so a feedback query
    rebuilds neither, and a caller cannot write into them."""
    grid = m.GridSpec(axes=((-1.0, 1.0, 9), (0.0, 2.0, 11)), time_steps=1)
    assert grid.coords() is grid.coords() and grid.bounds() is grid.bounds()
    assert [c.tolist() for c in grid.coords()] == [np.linspace(-1.0, 1.0, 9).tolist(),
                                                  np.linspace(0.0, 2.0, 11).tolist()]
    assert [b.tolist() for b in grid.bounds()] == [[-1.0, 0.0], [1.0, 2.0]]
    for a in (*grid.coords(), *grid.bounds()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5
    assert "_arrays" not in grid.to_json()


def test_node_atoms_checks_the_axis_count():
    grid = m.GridSpec(axes=((-1.0, 1.0, 8), (0.0, 2.0, 9)), time_steps=1)
    atoms = grid.node_atoms(2, 1)
    assert atoms.shape == (8, 9, 2, 1)
    assert atoms[3, 4].tolist() == [[grid.coords()[0][3]], [grid.coords()[1][4]]]
    assert grid.node_atoms(1, 2).shape == (8, 9, 1, 2)
    with pytest.raises(ValueError, match="n\\*d = 3"):
        grid.node_atoms(3, 1)


def test_feedback_permutation_symmetry(lq_u2):
    pol = m.synthesize_feedback(lq_u2)
    states = np.array([[[0.5], [-1.0]], [[1.2], [0.3]]])
    swapped = states[:, ::-1]
    a = pol.fn(0, 0.0, states)
    b = pol.fn(0, 0.0, swapped)
    assert np.allclose(a, b[:, ::-1], atol=1e-12)


def test_feedback_clamps_outside_grid(lq_u1):
    pol = m.synthesize_feedback(lq_u1)
    inside = pol.fn(0, 0.0, np.array([[[3.0]]]))
    outside = pol.fn(0, 0.0, np.array([[[5.0]]]))
    assert np.array_equal(inside, outside)


def test_riccati_examples():
    # t = T: exactly the terminal functional m2/2
    assert m.riccati_lq_value(1.0, 1.0, 1.0, 1.0, np.array([[2.0]])) == 2.0
    v = m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, np.array([[1.0]]))
    assert abs(v - (0.25 + 0.5 * np.log(2.0))) <= 1e-8
    dup = m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, np.array([[1.0], [1.0]]))
    assert abs(dup - v) <= 1e-14


@pytest.mark.parametrize("call, fragment", [
    (lambda model: m.solve_hjb(model, 1, m.GridSpec(((-1.0, 1.0, 16),), 10), 1.0, 1.0),
     "need T > t0"),
    (lambda model: m.solve_hjb(model, 1, m.GridSpec(((-1.0, 1.0, 16),), 10), 1.0, 0.5),
     "need T > t0"),
    (lambda model: m.riccati_lq_value(1.0, 1.0, 1.0, 1.5, [[0.0]]), "need t <= T"),
    (lambda model: m.riccati_lq_value(1.0, 0.0, 1.0, 0.0, [[0.0]]), "kappa must be positive"),
], ids=["solve-T-at-t0", "solve-T-before-t0", "riccati-t-past-T", "riccati-kappa-0"])
def test_horizon_and_kappa_guards(lq_model, call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(lq_model)


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


@pytest.mark.parametrize("nd", [1, 2, 3])
def test_interpolation_is_scipys_bit_for_bit(lq_model, nd):
    """Value slices and gradient fields read off the grid equal scipy's
    RegularGridInterpolator (linear) bit for bit: at random points, on nodes,
    on the upper bound and outside the grid (clamped). A NaN query gives NaN."""
    from scipy.interpolate import RegularGridInterpolator

    g = np.random.default_rng(nd)
    grid = m.GridSpec(axes=tuple((-1.0 - 0.3 * a, 2.0 + a, 9 + 4 * a) for a in range(nd)),
                      time_steps=2)
    coords, (lo, hi) = grid.coords(), grid.bounds()
    u = m.GridValueFunction(grid=grid, model=lq_model, n=nd, dt=0.5,
                            times=np.array([0.0, 0.5, 1.0]),
                            values=g.normal(size=(3,) + grid.shape()))
    pts = np.concatenate([
        g.uniform(lo - 1.0, hi + 1.0, (400, nd)),
        np.stack([g.choice(c, 50) for c in coords], axis=-1),
        np.where(g.random((50, nd)) < 0.5, hi, g.uniform(lo, hi, (50, nd))),
        [hi, lo, lo - 1.0, hi + 1.0],
    ])
    for t, k in [(0.0, 0), (0.6, 1), (1.0, 2)]:
        for gradient, data in [(False, u.values[k]), (True, m.grid_gradient(u, k))]:
            oracle = RegularGridInterpolator(tuple(coords), data, method="linear")
            want = oracle(np.clip(pts, lo, hi))
            got = u._interpolate(t, pts, gradient=gradient)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            nan = u._interpolate(t, np.where(np.eye(nd, dtype=bool), np.nan, lo), gradient)
            assert np.isnan(nan).all()
    assert np.isnan(u.value_at(0.0, np.full(nd, np.nan)))


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
    assert np.array_equal(u.times, np.linspace(t0, T, K + 1)[kept])
    assert np.array_equal(full.times, np.linspace(t0, T, K + 1))
    # every time before T is t0 + k dt bit for bit
    assert np.array_equal(full.times[:-1], t0 + full.dt * np.arange(K, dtype=np.float64))
    assert np.array_equal(u.values, full.values[kept])


def test_last_stored_time_is_T():
    """t0 + K dt misses T = 1 by a rounding error at K = 49; the last slice is T."""
    model = m.REGISTRY["LQ-decoupled"]
    assert 0.0 + (1.0 - 0.0) / 49 * 49 != 1.0
    u = m.solve_hjb(model, 1, m.GridSpec(axes=((-2.0, 2.0, 9),), time_steps=49), 0.0, 1.0)
    assert u.times[0] == 0.0 and u.times[-1] == 1.0


@pytest.mark.parametrize("n, points, max_stored", [(1, 41, 7), (1, 41, 257), (3, 9, 257)])
def test_read_times_keep_the_slices_a_full_store_reads(lq_model, n, points, max_stored):
    """A solve given the duplication probe's compare times keeps the t0 and T
    slices and the stored one nearest the midpoint, and reads at each of those
    times bit for bit what the solve that keeps every stored slice reads."""
    t0, T = 0.1, 0.7
    grid = sized_grid(lq_model, n, (-2.0, 2.0, points), t0, T)
    times = m.verify.duplication_times(t0, T)
    full = m.solve_hjb(lq_model, n, grid, t0, T, max_stored)
    u = m.solve_hjb(lq_model, n, grid, t0, T, max_stored, read_times=times)
    assert u.read_times == times and u.values.shape[0] == 3 < full.values.shape[0]
    pts = np.random.default_rng(4).uniform(-2.0, 2.0, (16, n))
    for t in times:
        assert u.times[u.slice_for_time(t)] == full.times[full.slice_for_time(t)]
        assert u.value_at(t, pts).tobytes() == full.value_at(t, pts).tobytes()


def test_read_times_break_ties_as_a_full_store_does(lq_model):
    """A read time halfway between two stored slices reads the earlier one, as
    the nearest-slice lookup of a full store does (dt = 1/16, all exact)."""
    grid = m.GridSpec(axes=((-2.0, 2.0, 9),), time_steps=4)
    full = m.solve_hjb(lq_model, 1, grid, 0.0, 0.25)
    u = m.solve_hjb(lq_model, 1, grid, 0.0, 0.25, read_times=[0.03125, 0.09375])
    assert np.array_equal(u.times, [0.0, 0.0625, 0.25])
    for t in u.read_times:
        assert np.array_equal(u.values[u.slice_for_time(t)], full.values[full.slice_for_time(t)])


def test_a_solve_reads_only_at_its_read_times(lq_model):
    """Any other time raises, naming it, even one whose nearest slice is kept:
    a read never moves to a slice farther than a full store would read."""
    grid = m.GridSpec(axes=((-2.0, 2.0, 9),), time_steps=4)
    u = m.solve_hjb(lq_model, 1, grid, 0.0, 0.25, read_times=[0.125])
    u.value_at(0.125, [0.5])
    for t in (0.0, 0.0625, 0.25, 0.125 + 1e-12):
        with pytest.raises(ValueError, match=f"time {t} is not a read time"):
            u.value_at(t, [0.5])
    with pytest.raises(ValueError, match="time 0.0 is not a read time"):
        m.synthesize_feedback(u).fn(0, 0.0, np.zeros((2, 1, 1)))


# SHA-256 of solve_hjb(...).values for each registry model and n on the grids
# of test_solve_values_match_their_pins. A march restructured without changing
# its arithmetic matches them bit for bit; only a change to the scheme may
# regenerate them. n = 1 coincides for the two LQ models (b = -x + m1 = 0).
SOLVE_PINS = {
    ("LQ-decoupled", 1): "81093bf069fbdf245ebfeec59eac708f3648d2da6db3ccc272681e29b52d15ee",
    ("LQ-decoupled", 2): "ec5ee1df07d0e80dfb8ab60aa55f4c8ad6e79f328bcaf2e4c9f4edd4069be584",
    ("LQ-decoupled", 3): "61fdb93f56da48a6304b7ad47a2969b64134305432a37728b07ff267a7f01099",
    ("LQ-mean-reverting", 1): "81093bf069fbdf245ebfeec59eac708f3648d2da6db3ccc272681e29b52d15ee",
    ("LQ-mean-reverting", 2): "f28e29e4896b391a75ac0e491152b2a7fc3a36821f2886e6515e56be4f9150cf",
    ("LQ-mean-reverting", 3): "2d55ce84ae1b2d91543bd5906326917b8b55094264d3daaa66fc93e385dfeea4",
    ("tanh-interaction", 1): "b69c84401eb6b0e1ccfe93a12514b0921e452da5d98d772fb082db5562e899ef",
    ("tanh-interaction", 2): "cc5d0ba72ae00d455d1f2066ac1079fb5550813b79903b5873c645c43e639026",
    ("tanh-interaction", 3): "da9ebca63059e9eb903b4fd6963787d4bccec7e0719f2eac014328ecb31b287f",
}


@pytest.mark.parametrize("name,n", sorted(SOLVE_PINS))
def test_solve_values_match_their_pins(name, n):
    """Every stored slice of a CFL-sized solve on [-2, 2]^n over [0, 0.5] is
    bit-identical to its pin: 41, 21^2 and 11^3 nodes for n = 1, 2, 3."""
    model = m.REGISTRY[name]
    axes = [(-2.0, 2.0, {1: 41, 2: 21, 3: 11}[n])] * n
    u = m.solve_hjb(model, n, m.sized_grid(model, n, axes, 0.0, 0.5), 0.0, 0.5)
    assert hashlib.sha256(u.values.tobytes()).hexdigest() == SOLVE_PINS[(name, n)]


def _reference_march(model, n, grid, t0, T, cone=None):
    """Every slice of the march in its textbook form, the oracle of the packed
    march: (*shape, n, d) costates, models.hamiltonian averaged by mean(-1), a
    fresh odd-reflection np.pad of each slice and new arrays for every term.
    With cone (by default n >= 2 atoms in d = 1 on equal axes), each slice is
    projected onto the values at its sorted nodes i_1 <= ... <= i_n, and the CFL
    rate reads the sorted nodes: n times the largest speed of any axis there.
    Yields U_T and then each slice the march computes; raises CFLError as
    solve_hjb does."""
    nd = n * model.d
    shape = grid.shape()
    if cone is None:
        cone = n >= 2 and model.d == 1 and len(set(grid.axes)) == 1
    nodes = np.indices(shape).reshape(nd, -1)
    twin = np.ravel_multi_index(np.sort(nodes, axis=0) if cone else nodes, shape)
    sorted_nodes = twin == np.arange(twin.size)

    def project(u):
        return u.reshape(-1)[twin].reshape(shape)

    b, sig, l1, uT = _lifted_batch(model, grid.node_atoms(n, model.d))
    sflat = sig.reshape(sig.shape[:-3] + (nd, model.d_prime))
    A = np.einsum("...am,...bm->...ab", sflat, sflat)
    h = grid.spacings()
    hmin = float(h.min())
    trace = np.einsum("...aa->...a", A).sum(axis=-1).reshape(-1)
    rate = 2.0 * float(trace[sorted_nodes].max()) / hmin ** 2
    weights = [0.5 * A[..., a, a] / h[a] ** 2 for a in range(nd)]
    credit = np.clip(np.linalg.eigvalsh(A)[..., 0], 0.0, None)[..., None] / h
    unit = np.eye(nd, dtype=int)
    K = grid.time_steps
    dt = (T - t0) / K
    u = project(uT)
    yield u
    for k in range(K - 1, -1, -1):
        g = np.pad(u, 1, mode="reflect", reflect_type="odd")

        def at(off):
            return g[tuple(slice(1 + o, g.shape[i] - 1 + o) for i, o in enumerate(off))]

        plus, minus = [at(e) for e in unit], [at(-e) for e in unit]
        grads = np.stack([(pl - mi) / (2.0 * ha) for pl, mi, ha in zip(plus, minus, h)], -1)
        p = (grads * n).reshape(grads.shape[:-1] + (n, model.d))
        speeds = np.abs(-b + m.feedback_map(p, model.kappa)).reshape(grads.shape[:-1] + (nd,))
        top = speeds.reshape(-1, nd)[sorted_nodes].max(axis=0)
        bound = CFL_SAFETY / (rate + float(nd * top.max() if cone else top.sum()) / hmin)
        if dt > bound:
            raise m.CFLError(dt, bound, math.ceil((T - t0) / bound))
        Hbar = m.hamiltonian(b, l1, p, model.kappa).mean(-1)
        theta_eff = np.maximum(0.0, speeds - credit)
        rhs = -Hbar
        for a in range(nd):
            d2 = plus[a] - 2.0 * u + minus[a]
            rhs = rhs + (weights[a] + 0.5 * theta_eff[..., a] / h[a]) * d2
        for a, c in itertools.combinations(range(nd), 2):
            pp, pm, mp, mm = (at(sa * unit[a] + sc * unit[c])
                              for sa, sc in itertools.product((1, -1), repeat=2))
            rhs = rhs + A[..., a, c] * ((pp - pm - mp + mm) / (4.0 * h[a] * h[c]))
        u = project(u + dt * rhs)
        yield u


# sigma = 0 turns the LLF viscosity fully on (no diffusion credit); the custom
# d = 2 and d = 3 models have state-dependent, correlated noise and cross terms.
MARCH_MODELS = {
    "sigma0": {"d": 1, "d_prime": 1, "b": ["-x[0] + 0.5*m1[0]"], "sigma": [["0"]],
               "l1": "0.5*x[0]^2", "kappa": 0.7, "UT": "0.5*m2"},
    "d2": {"d": 2, "d_prime": 2, "b": ["-x[0] + m1[1]", "sin(x[1])"],
           "sigma": [["1", "0.3"], ["0.2*x[0]", "0.5"]],
           "l1": "0.5*(x[0] - m1[0])^2 + x[1]^2", "kappa": 1.3, "UT": "0.5*m2 + m1[0]*m1[1]"},
    "d3": {"d": 3, "d_prime": 1, "b": ["-x[0]", "x[2] - m1[1]", "0"],
           "sigma": [["0.5"], ["0.3*tanh(x[1])"], ["1"]],
           "l1": "x[0]^2 + 0.1*x[1]*x[2]", "kappa": 1.0, "UT": "0.5*m2"},
}


def _march_model(name):
    return m.REGISTRY[name] if name in m.REGISTRY else m.model_from_json(MARCH_MODELS[name])


@pytest.mark.parametrize("name,n,axes", [
    ("tanh-interaction", 1, [(-2.0, 2.0, 21)]),
    ("LQ-mean-reverting", 2, [(-2.0, 2.0, 13), (-1.5, 2.5, 11)]),
    ("tanh-interaction", 3, [(-2.0, 2.0, 9), (-1.0, 2.0, 8), (-2.5, 1.5, 10)]),
    ("sigma0", 1, [(-3.0, 3.0, 31)]),
    ("sigma0", 2, [(-3.0, 3.0, 13)] * 2),
    ("sigma0", 3, [(-2.0, 2.5, 9)] * 3),
    ("d2", 1, [(-2.0, 2.0, 13), (-1.0, 3.0, 11)]),
    ("d3", 1, [(-2.0, 2.0, 9), (-1.0, 3.0, 8), (-1.5, 1.5, 10)]),
    *[(name, n, [(-2.0, 2.0, {2: 13, 3: 9}[n])] * n) for name in sorted(m.REGISTRY) for n in (2, 3)],
])
def test_march_matches_its_reference_bit_for_bit(name, n, axes):
    """Every slice of the packed march equals the textbook march's bit for bit,
    for (n, d) = (1, 1), (2, 1), (3, 1), (1, 2) and (1, 3): on unequal axes the
    plain textbook march, on equal axes (n >= 2) the projected one."""
    model = _march_model(name)
    grid = m.sized_grid(model, n, axes, 0.0, 0.25)
    u = m.solve_hjb(model, n, grid, 0.0, 0.25, max_stored_slices=grid.time_steps + 1)
    want = np.stack(list(_reference_march(model, n, grid, 0.0, 0.25))[::-1])
    assert u.values.shape == want.shape
    assert u.values.tobytes() == want.tobytes()


def test_undersized_march_raises_the_reference_cfl_error(monkeypatch):
    """A step count that passes the terminal slice but not a later one raises the
    reference's CFLError, message and step count, at the same step."""
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["0.2"]],
                               "l1": "4*x[0]^2", "kappa": 1.0, "UT": "0.5*m2"})
    grid = m.GridSpec(axes=((-2.0, 2.0, 17),) * 2, time_steps=36)
    done = []
    with pytest.raises(m.CFLError) as want:
        done.extend(_reference_march(model, 2, grid, 0.0, 1.0))
    assert len(done) == 8     # U_T and seven steps; the eighth step raises
    seen = []    # one stencil gather per step taken
    operands = _Ghost.operands
    monkeypatch.setattr(_Ghost, "operands", lambda self, u: seen.append(1) or operands(self, u))
    with pytest.raises(m.CFLError) as got:
        m.solve_hjb(model, 2, grid, 0.0, 1.0)
    assert str(got.value) == str(want.value)
    assert got.value.required_steps == want.value.required_steps
    assert len(seen) == len(done)


@pytest.mark.parametrize("name", sorted(m.REGISTRY))
@pytest.mark.parametrize("n, points", [(2, 21), (3, 11)])
def test_cone_march_is_the_unprojected_march_to_1e12(name, n, points):
    """On equal axes every stored slice of the packed march is within 1e-12 of
    the textbook march without the projection, on the same step count."""
    model = m.REGISTRY[name]
    grid = m.sized_grid(model, n, [(-2.0, 2.0, points)] * n, 0.0, 0.5)
    u = m.solve_hjb(model, n, grid, 0.0, 0.5, max_stored_slices=grid.time_steps + 1)
    full = np.stack(list(_reference_march(model, n, grid, 0.0, 0.5, cone=False))[::-1])
    assert np.abs(u.values - full).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(m.REGISTRY))
@pytest.mark.parametrize("n, points", [(2, 21), (3, 11)])
def test_stored_slices_are_exactly_permutation_symmetric(name, n, points):
    """Each stored slice is its own transpose under every permutation of the
    particles, bit for bit: one value per orbit is stored."""
    model = m.REGISTRY[name]
    grid = m.sized_grid(model, n, [(-2.0, 2.0, points)] * n, 0.0, 0.5)
    values = m.solve_hjb(model, n, grid, 0.0, 0.5).values
    for perm in itertools.permutations(range(1, n + 1)):
        assert values.transpose(0, *perm).tobytes() == values.tobytes()


@pytest.mark.parametrize("name", [*sorted(m.REGISTRY), "sigma0"])
@pytest.mark.parametrize("n, axis, T", [(2, (-2.0, 2.0, 21), 0.5), (2, (-3.0, 3.0, 51), 1.0),
                                        (3, (-2.0, 2.0, 11), 0.5), (3, (-2.5, 2.5, 25), 1.0)])
def test_sized_grid_keeps_the_full_grid_step_count(name, n, axis, T):
    """The cone's CFL rate, n times the largest packed speed, sizes a grid with
    the step count of the full grid's sum of per-axis maxima."""
    model = _march_model(name)
    one_step = m.GridSpec((axis,) * n, time_steps=1)
    with pytest.raises(m.CFLError) as full:
        list(_reference_march(model, n, one_step, 0.0, T, cone=False))
    steps = max(1, math.ceil(STEP_SAFETY * T / full.value.bound))
    assert m.sized_grid(model, n, [axis] * n, 0.0, T).time_steps == steps


def test_cone_march_memory_scales_with_the_packed_nodes():
    """An n = 3 solve on 25^3 nodes that keeps the duplication probe's three
    slices allocates at most 1,100 B per packed node, of which there are
    C(27, 3) = 2,925. The full-grid march allocated about 1,360 B per packed
    node there (255 B per grid node); the packed march about 885."""
    model = m.REGISTRY["LQ-mean-reverting"]
    grid = m.sized_grid(model, 3, [(-2.0, 2.0, 25)] * 3, 0.0, 0.25)
    times = m.verify.duplication_times(0.0, 0.25)
    peak = traced_peak(lambda: m.solve_hjb(model, 3, grid, 0.0, 0.25, read_times=times))
    assert peak <= 1100 * math.comb(25 + 2, 3)
