import numpy as np
import pytest

import mfclab as m
from conftest import cut_into_blocks, traced_peak
from mfclab import rng, simulate
from mfclab.measures import mean_se
from mfclab.simulate import BLOWUP_LIMIT


def _cfg(**kw):
    base = dict(t0=0.0, T=1.0, steps=16, n_paths=4, seed=11)
    base.update(kw)
    return m.SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        m.SimConfig(t0=1.0, T=1.0, steps=4, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        m.SimConfig(t0=0.0, T=1.0, steps=0, n_paths=1, seed=0)


def test_wiener_increment_statistics():
    cfg = _cfg(n_paths=2000, steps=50, seed=123)
    inc = m.wiener_increments(cfg, 1)
    flat = inc.reshape(-1) / np.sqrt(cfg.dt)
    n = flat.size
    assert abs(flat.mean()) < 4.0 / np.sqrt(n)
    assert abs(flat.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_wiener_determinism_and_keying():
    cfg = _cfg()
    a = m.wiener_increments(cfg, 2)
    b = m.wiener_increments(cfg, 2)
    assert np.array_equal(a, b)
    other = m.wiener_increments(_cfg(seed=12), 2)
    assert not np.allclose(a, other)
    # the (path, step) block is independent of the requested path count
    small = m.wiener_increments(_cfg(n_paths=2), 2)
    assert np.array_equal(a[:2], small)


@pytest.mark.parametrize("n_paths, d_prime", [(1000, 1), (250, 3)])
def test_wiener_increments_allocate_their_result_and_a_tile(n_paths, d_prime):
    """The draws are made a tile of Philox counters at a time, straight into the
    result, and scaled in place: about 60-80 B per counter of a tile beyond the
    result. At simulate-mc's size (1,000 paths, 200 steps, 1.6 MB) drawing every
    counter at once allocated six times the result."""
    cfg = _cfg(n_paths=n_paths, steps=200)
    nbytes = n_paths * 200 * d_prime * 8
    peak = traced_peak(lambda: m.wiener_increments(cfg, d_prime))
    assert peak <= nbytes + 96 * rng._TILE < 6 * nbytes


def test_zero_coefficients_constant_paths():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["0"]],
                               "l1": "0", "kappa": 1.0, "UT": "m2"})
    x0 = np.array([[1.5], [-2.0]])
    bundle = m.simulate_particles(model, _cfg(), x0, m.zero_control())
    assert np.all(bundle.states == bundle.states[:, :1])


def test_constant_drift_exact():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["1"], "sigma": [["0"]],
                               "l1": "0", "kappa": 1.0, "UT": "m2"})
    bundle = m.simulate_particles(model, _cfg(steps=10, n_paths=1),
                                  np.array([[2.0]]), m.zero_control())
    assert abs(bundle.states[0, -1, 0, 0] - 3.0) < 1e-12


def test_mean_field_drift_converges_to_exponential():
    """b = mean: all-ones initial tuple follows dx/dt = x, so X(T) -> e."""
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["m1[0]"], "sigma": [["0"]],
                               "l1": "0", "kappa": 1.0, "UT": "m2"})
    x0 = np.ones((3, 1))
    errs = []
    for steps in (64, 128, 256):
        bundle = m.simulate_particles(model, _cfg(steps=steps, n_paths=1), x0, m.zero_control())
        errs.append(abs(bundle.states[0, -1, 0, 0] - np.e))
    assert errs[0] < 0.05
    # explicit Euler: error shrinks roughly linearly in dt
    assert errs[1] < 0.75 * errs[0] and errs[2] < 0.75 * errs[1]


def test_lifted_equals_finite_bitwise():
    model = m.REGISTRY["tanh-interaction"]
    cfg = _cfg(steps=20, n_paths=6, seed=77)
    x0 = np.array([[0.4], [-0.8], [1.1]])
    g = np.random.default_rng(5)
    pol = m.open_loop(g.normal(size=(20, 3, 1)))
    inc = m.wiener_increments(cfg, 1)
    fin = m.simulate_particles(model, cfg, x0, pol, inc)
    lif = m.simulate_lifted_atoms(model, cfg, x0, pol, inc)
    assert np.array_equal(fin.states, lif.states)
    assert np.array_equal(fin.control_trace, lif.control_trace)


def test_common_noise_is_shared_across_particles():
    """With b = 0, sigma = 1, every particle sees the same Wiener path."""
    model = m.REGISTRY["LQ-decoupled"]
    # identical atoms: the shared increment makes trajectories bitwise equal
    bundle = m.simulate_particles(model, _cfg(n_paths=3), np.zeros((3, 1)), m.zero_control())
    for i in range(1, 3):
        assert np.array_equal(bundle.states[:, :, 0], bundle.states[:, :, i])
    # distinct atoms: displacements agree to rounding (x + dW - x vs dW)
    x0 = np.array([[0.0], [5.0], [-3.0]])
    bundle = m.simulate_particles(model, _cfg(n_paths=3), x0, m.zero_control())
    moved = bundle.states - bundle.states[:, :1]
    for i in range(1, 3):
        assert np.allclose(moved[:, :, 0], moved[:, :, i], atol=1e-12)


def test_permutation_equivariance_two_particles():
    """n = 2 means the measure features are order-exact, so swap is bitwise."""
    model = m.REGISTRY["tanh-interaction"]
    cfg = _cfg(steps=12, n_paths=3, seed=9)
    x0 = np.array([[0.7], [-0.2]])
    g = np.random.default_rng(6)
    sched = g.normal(size=(12, 2, 1))
    inc = m.wiener_increments(cfg, 1)
    a = m.simulate_particles(model, cfg, x0, m.open_loop(sched), inc)
    b = m.simulate_particles(model, cfg, x0[::-1], m.open_loop(sched[:, ::-1]), inc)
    assert np.array_equal(a.states[:, :, ::-1], b.states)


def test_martingale_mean():
    model = m.REGISTRY["LQ-decoupled"]
    cfg = _cfg(steps=32, n_paths=3000, seed=21)
    bundle = m.simulate_particles(model, cfg, np.array([[0.25]]), m.zero_control())
    xT = bundle.states[:, -1, 0, 0]
    z = (xT.mean() - 0.25) / (xT.std(ddof=1) / np.sqrt(xT.size))
    assert abs(z) < 4.0


def test_blowup_guard():
    """b = exp(x) from x0 = 6 leaves the ball |x| <= BLOWUP_LIMIT at the step the
    scalar Euler recurrence does (the exp overflows); the integrator raises there,
    naming the count and the step, and integrates no further."""
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["exp(x[0])"],
                               "sigma": [["0"]], "l1": "0", "kappa": 1.0, "UT": "m2"})
    cfg = _cfg(steps=40, n_paths=2)
    x, step = 6.0, 0
    with np.errstate(over="ignore"):
        while abs(x) <= BLOWUP_LIMIT:
            x, step = x + np.exp(x) * cfg.dt, step + 1
    assert 1 < step < cfg.steps
    calls = []
    policy = m.Policy(lambda k, t, s: calls.append(k) or np.zeros_like(s), "counting")
    with pytest.raises(FloatingPointError,
                       match=rf"^2 of 2 paths blew up at step {step} of {cfg.steps}$"):
        m.simulate_particles(model, cfg, np.array([[6.0]]), policy)
    assert calls == list(range(step))


def test_blowup_count_names_only_the_paths_that_left():
    """A control that pushes one of three paths past BLOWUP_LIMIT at step index 5
    is refused at step 6, and the message counts that one path."""
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["0"]],
                               "l1": "0", "kappa": 1.0, "UT": "m2"})
    cfg = _cfg(steps=40, n_paths=3)
    kick = np.array([0.0, -2.0 * BLOWUP_LIMIT / cfg.dt, 0.0])[:, None, None]
    policy = m.Policy(lambda k, t, s: kick + np.zeros_like(s) if k == 5 else np.zeros_like(s),
                      "kick")
    with pytest.raises(FloatingPointError, match=r"^1 of 3 paths blew up at step 6 of 40$"):
        m.simulate_particles(model, cfg, np.array([[0.0]]), policy)


def test_policy_shape_and_finiteness_validated():
    model = m.REGISTRY["LQ-decoupled"]

    bad_shape = m.Policy(lambda k, t, s: np.zeros((s.shape[0], s.shape[1] + 1, 1)), "bad-shape")
    with pytest.raises(ValueError):
        m.simulate_particles(model, _cfg(), np.array([[0.0]]), bad_shape)
    bad_value = m.Policy(lambda k, t, s: np.full_like(s, np.nan), "bad-value")
    with pytest.raises(ValueError):
        m.simulate_particles(model, _cfg(), np.array([[0.0]]), bad_value)


def test_initial_state_and_increments_validated():
    model = m.REGISTRY["LQ-decoupled"]
    with pytest.raises(ValueError, match="initial state dimension 2 != model dimension 1"):
        m.simulate_particles(model, _cfg(), np.zeros((1, 2)), m.zero_control())
    with pytest.raises(ValueError, match=r"increments shape \(4, 15, 1\) does not match config"):
        m.simulate_particles(model, _cfg(), np.zeros((1, 1)), m.zero_control(),
                             np.zeros((4, 15, 1)))


def test_open_loop_schedule_validated():
    with pytest.raises(ValueError, match="shape"):
        m.open_loop(np.zeros((4, 1)))
    bad = np.zeros((4, 1, 1))
    bad[2, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        m.open_loop(bad)


def test_path_blocks_cut_one_integration(monkeypatch):
    """Cut into blocks of three paths, the ensemble's states, controls and
    running costs are those of one integration of all ten paths, bit for bit;
    increments that do not match the config are refused before any block."""
    model = m.REGISTRY["tanh-interaction"]
    cfg = _cfg(steps=8, n_paths=10)
    x0 = np.array([[0.5], [-1.0]])
    policy = m.Policy(lambda k, t, states: 0.3 * states, "linear")
    whole = m.simulate_particles(model, cfg, x0, policy)
    cut_into_blocks(monkeypatch, 3, cfg.steps, 2)
    blocks = list(m.path_blocks(model, cfg, x0, policy))
    assert [b.n_paths for b in blocks] == [3, 3, 3, 1]
    for field in ("states", "control_trace", "l1", "l2"):
        cut = np.concatenate([getattr(b, field) for b in blocks])
        assert cut.tobytes() == getattr(whole, field).tobytes(), field
    with pytest.raises(ValueError, match="does not match config"):
        next(m.path_blocks(model, cfg, x0, policy, m.wiener_increments(_cfg(n_paths=20), 1)))


@pytest.mark.parametrize("n", [1, 4])
def test_a_block_holds_at_most_block_bytes(monkeypatch, n):
    """Every block's states, controls and recorded running costs fit in
    BLOCK_BYTES, and one more path would not; at n*d = 1 the two (P, K) running
    costs are as large as the states."""
    model = m.REGISTRY["LQ-decoupled"]
    cfg = _cfg(steps=20, n_paths=40)
    monkeypatch.setattr(simulate, "BLOCK_BYTES", 10_000)
    blocks = list(m.path_blocks(model, cfg, np.linspace(-1.0, 1.0, n)[:, None],
                                m.zero_control()))
    assert len(blocks) > 1
    held = [b.states.nbytes + b.control_trace.nbytes + b.l1.nbytes + b.l2.nbytes
            for b in blocks]
    per_path = held[0] // blocks[0].n_paths
    assert max(held) <= simulate.BLOCK_BYTES < per_path * (blocks[0].n_paths + 1)


def _whole_block_sups(states, r):
    """path_sups in one pass over the whole block: the reference the tiles match."""
    return np.stack([m.rnorm(states, r).max(axis=1),
                     m.rnorm(states - states[:, :1], r).max(axis=1)])


def _bundle(states):
    P, K = states.shape[0], states.shape[1] - 1
    return m.PathBundle(0.01, states, np.zeros((P, K) + states.shape[2:]), np.zeros((P, K)),
                        np.zeros((P, K)))


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("P, n, d", [(5, 1, 1), (5, 64, 1), (5, 3, 2), (1, 3, 2)])
# K + 1 states: two, and one below, at and one above a boundary of 4-step tiles
@pytest.mark.parametrize("steps", [1, 18, 19, 20])
@pytest.mark.parametrize("tile_steps", [1, 4])
def test_tiled_path_sups_change_no_bit(monkeypatch, r, P, n, d, steps, tile_steps):
    """path_sups read in tiles of a few steps gives the whole-block maxima byte
    for byte; the tiles here are small, so many tile boundaries are crossed."""
    monkeypatch.setattr(simulate, "_TILE", tile_steps * P * n * d)
    g = np.random.default_rng([P, n, d, steps])
    states = g.standard_normal((P, steps + 1, n, d)) * g.exponential(size=(P, steps + 1, 1, 1))
    sups = m.path_sups(_bundle(states), r)
    assert sups.shape == (2, P)
    assert sups.tobytes() == _whole_block_sups(states, r).tobytes()


def test_path_sups_allocates_a_few_tiles():
    """On a block the size of simulate-mc's (100 paths, 200 steps, 64 atoms: 9.8
    MiB of states), the temporaries of path_sups stay within four tiles, far
    below the block; the whole-block pass allocated three times the states."""
    states = np.random.default_rng(3).standard_normal((100, 201, 64, 1))
    bundle = _bundle(states)
    peak = traced_peak(lambda: m.path_sups(bundle, 1.5))
    assert peak <= 4 * simulate._TILE * 8 < states.nbytes / 4


def test_path_statistics_deterministic_paths():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["0"]],
                               "l1": "0", "kappa": 1.0, "UT": "m2"})
    cfg = _cfg()
    bundle = m.simulate_particles(model, cfg, np.array([[2.0]]), m.zero_control())
    stats = m.path_statistics(m.path_sups(bundle, 1.5), m.wiener_increments(cfg, 1), bundle.dt)
    assert stats["mean_sup_deviation"] == (0.0, 0.0)
    assert stats["mean_sup_rnorm"][0] == 2.0


def test_stability_under_shared_noise():
    model = m.REGISTRY["tanh-interaction"]
    cfg = _cfg(steps=32, n_paths=400, seed=31)
    inc = m.wiener_increments(cfg, 1)
    x0 = np.array([[0.5], [1.0]])
    b0 = m.simulate_particles(model, cfg, x0, m.zero_control(), inc)
    ratios = []
    for delta in (0.1, 0.01):
        b1 = m.simulate_particles(model, cfg, x0 + delta, m.zero_control(), inc)
        sup_diff = mean_se(m.rnorm(b1.states - b0.states, 1.0).max(axis=1))
        ratios.append(sup_diff[0] / m.rnorm(np.full((2, 1), delta), 1.0))
    assert max(ratios) / min(ratios) < 1.5


def test_time_continuity_ratio_plateau():
    """E[sup_{[0,s]} |X - x0|_r] / sqrt(s) stays bounded as s shrinks (zero control)."""
    model = m.REGISTRY["LQ-decoupled"]
    ratios = []
    for horizon in (0.5, 0.125, 0.03125):
        cfg = m.SimConfig(t0=0.0, T=horizon, steps=32, n_paths=800, seed=47)
        bundle = m.simulate_particles(model, cfg, np.array([[0.3]]), m.zero_control())
        stats = m.path_statistics(m.path_sups(bundle, 1.0), m.wiener_increments(cfg, 1),
                                  bundle.dt)
        ratios.append(stats["mean_sup_deviation"][0] / np.sqrt(horizon))
    # Brownian scaling: the ratio is a constant, not a growing quantity
    assert max(ratios) / min(ratios) < 1.25
    assert max(ratios) < 3.0


def test_trajectory_dump(tmp_path):
    model = m.REGISTRY["LQ-decoupled"]
    bundle = m.simulate_particles(model, _cfg(steps=3, n_paths=2),
                                  np.array([[1.0]]), m.zero_control())
    out = tmp_path / "paths.csv"
    from mfclab.simulate import dump_trajectories

    dump_trajectories([bundle], out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,step,particle,coord,value"
    assert len(lines) == 1 + 2 * 4 * 1 * 1
    for line in lines[1:]:
        p, k, i, j, value = line.split(",")
        want = bundle.states[int(p), int(k), int(i), int(j)]
        assert np.float64(float(value)).tobytes() == want.tobytes()


def test_multiplicative_noise_second_moment_is_exact():
    """b = 0 and sigma = s0 + c x, uncontrolled: an Euler-Maruyama step gives
    E[X_{k+1}^2] = E[X_k^2] (1 + c^2 dt) + (s0^2 + 2 s0 c x0) dt exactly, since
    E[X_k] = x0. So the sample second moment at T has no discretisation bias
    to allow for, and a sigma 5% too large moves it by about 11 SE."""
    s0, c, x0 = 1.0, 0.3, 0.5
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [[f"{s0} + {c}*x[0]"]],
                               "l1": "0", "kappa": 1.0, "UT": "m2"})
    cfg = _cfg(steps=50, n_paths=80_000, seed=5)
    want = x0 ** 2
    for _ in range(cfg.steps):
        want = want * (1.0 + c * c * cfg.dt) + (s0 * s0 + 2.0 * s0 * c * x0) * cfg.dt
    sq = np.concatenate(list(map(lambda b: b.states[:, -1, 0, 0] ** 2,
                                 simulate.path_blocks(model, cfg, np.array([[x0]]),
                                                      m.zero_control()))))
    mean, se = mean_se(sq)
    assert abs(mean - want) < 5.0 * se
