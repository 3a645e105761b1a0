import numpy as np
import pytest

import mfclab as m
from conftest import lq_exact, recording_solves, sized_grid


def test_cost_identity_sweep():
    """Randomized models, seeds, open-loop policies: identity is exact."""
    g = np.random.default_rng(0)
    names = sorted(m.REGISTRY)
    for j in range(12):
        model = m.REGISTRY[names[j % len(names)]]
        cfg = m.SimConfig(t0=0.0, T=0.5, steps=10, n_paths=5, seed=int(g.integers(1 << 30)))
        n = int(g.integers(1, 4))
        x0 = g.normal(size=(n, 1))
        pol = m.open_loop(g.normal(size=(10, n, 1)))
        rep = m.cost_identity_check(model, cfg, x0, pol)
        assert rep.passed
        assert rep.details["bit_identical"]
        assert rep.statistic == 0.0


def _solves(model, axis, *ns, t0=0.0, T=1.0):
    """Independent grid solves u_n of `model`, one per n, on the axis repeated n times."""
    return [m.solve_hjb(model, n, sized_grid(model, n, axis, t0, T), t0, T) for n in ns]


def test_duplication_consistency_coarse(lq_model):
    u1, u2 = _solves(lq_model, (-3.0, 3.0, 61), 1, 2)
    rep = m.duplication_consistency(u1, u2, [np.array([[0.0]]), np.array([[1.5]])],
                                    threshold=5e-2)
    assert rep.passed
    assert rep.name == "duplication-consistency[LQ-decoupled,n=1->2]"
    assert rep.provenance["m"] == 2 and rep.details["times"] == [0.0, 0.5, 1.0]
    # terminal functionals factor through the measure: exactly zero at t = T
    assert rep.details["terminal_gap"] == 0.0


def test_duplication_default_times_end_at_T(lq_model):
    """With 49 steps on [0, 1], t0 + K dt misses T = 1; the default compare times
    are the solves' own t0, midpoint and T."""
    u1, u2 = (m.solve_hjb(lq_model, n, m.GridSpec(((-2.0, 2.0, 9),) * n, time_steps=49))
              for n in (1, 2))
    rep = m.duplication_consistency(u1, u2, [np.array([[0.5]])])
    assert rep.details["times"] == [0.0, 0.5, 1.0]


def test_duplication_rejects_a_mismatched_pair(lq_model):
    """A pair fits when u_big has m times u_small's atoms, on the same model and
    horizon; oversized grids are refused earlier, by GridSpec."""
    axis = (-1.0, 1.0, 9)
    u1, u2, u3 = _solves(lq_model, axis, 1, 2, 3, T=0.1)
    [other_model] = _solves(m.REGISTRY["LQ-mean-reverting"], axis, 2, T=0.1)
    [other_horizon] = _solves(lq_model, axis, 2, T=0.2)
    point = [np.array([[0.5]])]
    for small, big in [(u2, u3), (u2, u1), (u1, other_model), (u1, other_horizon)]:
        with pytest.raises(ValueError, match="solves do not fit"):
            m.duplication_consistency(small, big, point)
    assert m.duplication_consistency(u1, u3, point).provenance["m"] == 3


def test_duplication_gaps_match_point_by_point_lookups(lq_model):
    """One lookup per (solve, time) over all points gives each point's gap bit for
    bit: the reference reads the two solves one point at a time."""
    u1, u2 = _solves(lq_model, (-3.0, 3.0, 17), 1, 2)
    points = [np.array([[x]]) for x in (-1.3, 0.0, 0.4, 2.9)]
    times = [0.0, 0.37, 1.0]
    rep = m.duplication_consistency(u1, u2, points, times)
    gaps = [abs(u2.value_at(t, m.duplicate_atoms(x, 2).reshape(-1))
                - u1.value_at(t, x.reshape(-1))) for x in points for t in times]
    assert rep.statistic == max(gaps) and rep.samples == len(gaps)
    assert rep.details["terminal_gap"] == max(gaps[len(times) - 1::len(times)])


def test_duplication_without_points_is_a_value_error(lq_model):
    u1, u2 = _solves(lq_model, (-1.0, 1.0, 9), 1, 2, T=0.1)
    with pytest.raises(ValueError, match="at least one test point"):
        m.duplication_consistency(u1, u2, [])


def test_semiconcavity_quadratic_oracle():
    """Riccati value at t=0 is quadratic with coefficient P(0)/2 = 1/4."""
    g = np.random.default_rng(1)
    pairs = [(g.normal(size=(2, 1)), g.normal(size=(2, 1))) for _ in range(10)]
    value = lambda atoms: m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, atoms)
    est = m.semiconcavity_report(value, pairs, [0.25, 0.5, 0.75], "probe").details
    assert abs(est["semiconcavity"] - 0.25) < 1e-9
    assert abs(est["semiconvexity"] - 0.25) < 1e-9


def test_semiconcavity_affine_value_is_zero():
    g = np.random.default_rng(2)
    pairs = [(g.normal(size=(3, 1)), g.normal(size=(3, 1))) for _ in range(8)]
    value = lambda atoms: float(1.7 * atoms.mean() + 0.3)
    est = m.semiconcavity_report(value, pairs, [0.3, 0.5], "probe").details
    assert abs(est["semiconcavity"]) < 1e-12
    assert abs(est["semiconvexity"]) < 1e-12


def test_semiconcavity_invariant_under_affine_addition():
    """S kills affine parts: adding an affine-in-atoms function changes nothing."""
    g = np.random.default_rng(3)
    pairs = [(g.normal(size=(2, 1)), g.normal(size=(2, 1))) for _ in range(6)]
    lambdas = [0.4, 0.6]
    base = lambda atoms: m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, atoms)
    shifted = lambda atoms: base(atoms) + 2.0 * atoms.mean() - 1.0
    a = m.semiconcavity_report(base, pairs, lambdas, "probe").details
    b = m.semiconcavity_report(shifted, pairs, lambdas, "probe").details
    assert abs(a["semiconcavity"] - b["semiconcavity"]) < 1e-9


def test_semiconcavity_degenerate_pairs_skipped():
    x = np.array([[1.0], [2.0]])
    est = m.semiconcavity_report(lambda a: float((a ** 2).sum()), [(x, x)], [0.5], "probe").details
    assert est["samples"] == 0
    # a coincident pair among others adds no sample; each other pair adds one per lambda
    rep = m.semiconcavity_report(lambda a: float((a ** 2).sum()), [(x, -x), (x, x), (-x, x)],
                                 [0.25, 0.5], "probe")
    assert rep.samples == rep.details["samples"] == 4


def test_semiconcavity_report_modes():
    g = np.random.default_rng(4)
    pairs = [(g.normal(size=(2, 1)), g.normal(size=(2, 1))) for _ in range(5)]
    value = lambda atoms: m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, atoms)
    hard = m.semiconcavity_report(value, pairs, [0.5], "probe", expected=0.25, tol=1e-3)
    assert hard.passed and hard.threshold == 1e-3
    soft = m.semiconcavity_report(value, pairs, [0.5], "probe")
    assert soft.threshold is None and soft.passed


def test_permutation_invariance_probe(lq_u2, lq_u1):
    rep = m.permutation_invariance_probe(lq_u2)
    assert rep.passed
    assert rep.statistic <= 1e-12
    with pytest.raises(ValueError, match="implemented for n=2, d=1 grids"):
        m.permutation_invariance_probe(lq_u1)


def test_unknown_report_direction_is_a_value_error():
    with pytest.raises(ValueError, match="unknown direction 'gt'"):
        m.ProbeReport("probe", 1, 0.0, 1.0, direction="gt").passed


def test_time_holder_probe_small(lq_model):
    grid = sized_grid(lq_model, 1, (-3.0, 3.0, 61))
    u = m.solve_hjb(lq_model, 1, grid, 0.0, 1.0, max_stored_slices=grid.time_steps + 1)
    rep = m.time_holder_probe(u, 1.0)
    assert rep.passed
    assert rep.details["bound"] < 5.0


def test_time_holder_needs_full_storage(lq_model):
    grid = sized_grid(lq_model, 1, (-3.0, 3.0, 61))
    u = m.solve_hjb(lq_model, 1, grid, 0.0, 1.0, max_stored_slices=9)
    with pytest.raises(ValueError):
        m.time_holder_probe(u, 1.0)


@pytest.mark.parametrize("steps", [6, 9])
def test_time_holder_needs_two_gaps(lq_model, steps):
    """Below 16 steps fewer than two dyadic gaps of >= 4 steps fit: no ratio sequence."""
    grid = m.sized_grid(lq_model, 1, [(-3.0, 3.0, 9)], 0.0, 0.5, time_steps=steps)
    u = m.solve_hjb(lq_model, 1, grid, 0.0, 0.5, max_stored_slices=steps + 1)
    with pytest.raises(ValueError, match="at least 16 time steps"):
        m.time_holder_probe(u, 1.0)


def test_feedback_roundtrip_smoke(lq_u1):
    model = m.REGISTRY["LQ-decoupled"]
    cfg = m.SimConfig(t0=0.0, T=1.0, steps=32, n_paths=400, seed=55)
    rep = m.feedback_roundtrip(model, cfg, np.array([[1.0]]), lq_u1)
    assert rep.details["state_gap"] == 0.0
    assert rep.passed, rep.to_json()


def test_convergence_sweep_duplication(lq_model):
    rows = m.convergence_sweep(lq_model, {1: np.array([[1.0]]),
                                          2: np.array([[1.0], [1.0]])},
                               (-3.0, 3.0, 61), 0.0, 1.0)
    assert rows[0]["mode"] == "grid" and rows[1]["mode"] == "grid"
    # duplication sequence: constant in exact arithmetic, so gaps are grid-level
    assert abs(rows[1]["gap_to_previous"]) < 5e-2
    assert abs(rows[0]["value"] - lq_exact(1.0)) < 5e-2


def test_convergence_sweep_iid_sampling(lq_model):
    """Atoms sampled i.i.d. from a two-point measure: u_n tracks the limit
    functional P(0) M_2(mu_n)/2 + r(0), so the gap shrinks with the sampling
    error of the second moment."""
    g = np.random.default_rng(8)
    fams = {n: g.choice([0.0, 1.0], size=(n, 1)) for n in (1, 2, 3)}
    rows = m.convergence_sweep(lq_model, fams, (-3.0, 3.0, 61), 0.0, 1.0)
    limit = 0.25 * 0.5 + 0.5 * np.log(2.0)  # P(0)/2 * int x^2 dmu + r(0)
    for row, n in zip(rows, sorted(fams)):
        m2_n = float((fams[n] ** 2).mean())
        sampling_gap = 0.25 * abs(m2_n - 0.5)
        assert abs(row["value"] - limit) <= sampling_gap + 5e-2


def test_convergence_sweep_mc_mode(lq_model):
    fams = {1: np.array([[1.0]]), 4: np.array([[1.0], [-1.0], [0.5], [0.0]])}
    cfg = m.SimConfig(t0=0.0, T=1.0, steps=64, n_paths=900, seed=66)
    rows = m.convergence_sweep(lq_model, fams, (-3.0, 3.0, 121), 0.0, 1.0, mc_cfg=cfg)
    assert rows[1]["mode"] == "mc-upper-bound"
    # decoupled model: the per-atom feedback is optimal, so the MC upper bound
    # sits near the true value (1/n) sum [P x_i^2/2 + r]
    want = float(np.mean([lq_exact(a) for a in fams[4][:, 0]]))
    assert abs(rows[1]["value"] - want) < 0.02 + 4.0 * rows[1]["std_error"]


def test_convergence_sweep_mc_mode_needs_a_single_atom_feedback(lq_model, monkeypatch):
    """Monte Carlo rows apply the smallest family's feedback atom by atom under
    `mc_cfg`; a sweep whose Monte Carlo rows cannot run fails before any solve."""
    solves = []
    monkeypatch.setattr(m.verify, "solve_hjb", lambda *a, **k: solves.append(a))
    sim = m.SimConfig(t0=0.0, T=1.0, steps=8, n_paths=50, seed=1)
    for smallest, mc_cfg in ((2, sim), (1, None)):
        fams = {smallest: np.zeros((smallest, 1)), 8: np.zeros((8, 1))}
        with pytest.raises(ValueError, match="smallest n = 1"):
            m.convergence_sweep(lq_model, fams, (-3.0, 3.0, 17), 0.0, 1.0, mc_cfg=mc_cfg)
    assert solves == []


def test_convergence_sweep_grid_rows_keep_two_slices(lq_model, monkeypatch):
    """A grid row that drives no Monte Carlo row keeps only its t0 and T slices,
    and its value is bit for bit the one a solve keeping every slice gives."""
    calls = recording_solves(monkeypatch, m.verify)
    fams = {1: np.array([[0.5]]), 2: np.array([[0.5], [-0.25]])}
    rows = m.convergence_sweep(lq_model, fams, (-2.0, 2.0, 21), 0.1, 0.7)
    for row, (args, kwargs, u) in zip(rows, calls):
        assert kwargs == {"read_times": [0.1]} and u.values.shape[0] == 2
        full = m.solve_hjb(*args)
        assert full.values.shape[0] > 2
        assert row["value"] == full.value_at(0.1, fams[row["n"]].reshape(-1))


def test_convergence_sweep_feedback_row_keeps_every_slice(lq_model, monkeypatch):
    """The grid row whose feedback drives the Monte Carlo rows is read at every
    step of them, so it keeps every stored slice."""
    calls = recording_solves(monkeypatch, m.verify)
    fams = {1: np.array([[0.5]]), 4: np.full((4, 1), 0.5)}
    cfg = m.SimConfig(t0=0.0, T=0.5, steps=8, n_paths=20, seed=3)
    m.convergence_sweep(lq_model, fams, (-2.0, 2.0, 21), 0.0, 0.5, mc_cfg=cfg)
    [(args, kwargs, u)] = calls
    assert kwargs == {"read_times": None}
    assert u.values.shape[0] == u.grid.time_steps + 1


def test_semiconcavity_grid_sourced(lq_u1):
    """Same probe fed by the grid solve instead of the oracle.

    Multilinear interpolation error enters the midpoint defect divided by
    ||X - Y||^2, so the pairs must be separated by several grid cells; the
    hard 0.25 assertion belongs to the oracle-backed probe.
    """
    g = np.random.default_rng(12)
    pairs = []
    while len(pairs) < 12:
        X, Y = g.uniform(-1.2, 1.2, (1, 1)), g.uniform(-1.2, 1.2, (1, 1))
        if abs(float(X[0, 0] - Y[0, 0])) >= 0.5:
            pairs.append((X, Y))
    value = lambda atoms: lq_u1.value_at(0.0, atoms.reshape(-1))
    est = m.semiconcavity_report(value, pairs, [0.5], "probe").details
    assert abs(est["semiconcavity"] - 0.25) < 2e-2
    assert abs(est["semiconvexity"] - 0.25) < 2e-2
