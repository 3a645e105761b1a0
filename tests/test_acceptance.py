"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not tuned at runtime. The LQ benchmark oracle is
the closed form u(t,x) = x^2 P(t)/2 + r(t), P(t) = 1/(1+T-t),
r(t) = (1/2) ln(1+T-t) (derived by hand from the Riccati system with
sigma = kappa = T = 1), so u(0,x) = x^2/4 + ln(2)/2 and u(0,1) = 0.596574.
"""

import math
import time

import numpy as np

import mfclab as m
from mfclab.measures import mean_se
from conftest import AXIS_1D, AXIS_2D, sized_grid

LQ_VALUE_AT_ONE = 0.25 + 0.5 * math.log(2.0)  # 0.5965735902799727


def _line(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def test_criterion_1_lq_value_oracle(lq_model):
    """Grid solve reproduces the closed form; Riccati oracle agrees to 1e-8."""
    start = time.monotonic()
    grid = sized_grid(lq_model, 1, AXIS_1D)
    u = m.solve_hjb(lq_model, 1, grid, 0.0, 1.0)
    x = np.linspace(-3.0, 3.0, 241)
    core = np.abs(x) <= 1.5
    grid_err = float(np.abs(u.values[0] - (x ** 2 / 4.0 + 0.5 * math.log(2.0)))[core].max())
    riccati_err = abs(m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, np.array([[1.0]]),
                                         rk_steps=10 * grid.time_steps) - LQ_VALUE_AT_ONE)
    elapsed = time.monotonic() - start
    ok = grid_err <= 1e-3 and riccati_err <= 1e-8 and elapsed <= 60.0
    _line(1, ok, f"grid max core err {grid_err:.2e} (tol 1e-3), "
                 f"riccati err {riccati_err:.2e} (tol 1e-8), {elapsed:.1f}s")
    assert grid_err <= 1e-3
    assert riccati_err <= 1e-8
    assert elapsed <= 60.0


def test_criterion_2_duplication_consistency(lq_model, meanrev_model):
    """u_2(0,(a,a)) from an independent 2-D solve matches u_1(0,a); exact at T."""
    start = time.monotonic()
    points = [np.array([[a]]) for a in (-1.0, 0.0, 1.0)]
    gaps = {}
    for model in (lq_model, meanrev_model):
        u1, u2 = (m.solve_hjb(model, n, sized_grid(model, n, axis), 0.0, 1.0,
                              read_times=[0.0, 1.0]) for n, axis in ((1, AXIS_1D), (2, AXIS_2D)))
        rep = m.duplication_consistency(u1, u2, points, compare_times=[0.0, 1.0],
                                        threshold=2e-2)
        gaps[model.name] = (rep.statistic, rep.details["terminal_gap"])
    elapsed = time.monotonic() - start
    ok = all(s <= 2e-2 and t == 0.0 for s, t in gaps.values()) and elapsed <= 600.0
    detail = ", ".join(f"{k}: gap {s:.2e}, terminal {t!r}" for k, (s, t) in gaps.items())
    _line(2, ok, f"{detail}, {elapsed:.0f}s")
    for name, (stat, term) in gaps.items():
        assert stat <= 2e-2, name
        assert term == 0.0, name
    assert elapsed <= 600.0


def test_criterion_3_cost_lift_identity():
    """100 random (model, seed, open-loop policy) triples agree bit for bit."""
    start = time.monotonic()
    names = sorted(m.REGISTRY)
    g = np.random.default_rng(2025)
    worst = 0.0
    all_bits = True
    for j in range(100):
        model = m.REGISTRY[names[j % len(names)]]
        n = int(g.integers(1, 4))
        cfg = m.SimConfig(t0=0.0, T=0.5, steps=12, n_paths=6,
                          seed=int(g.integers(1 << 40)))
        x0 = g.normal(size=(n, 1))
        pol = m.open_loop(g.normal(size=(12, n, 1)))
        rep = m.cost_identity_check(model, cfg, x0, pol, threshold=1e-12)
        worst = max(worst, rep.statistic)
        all_bits = all_bits and rep.details["bit_identical"]
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed <= 120.0
    _line(3, ok, f"max relative gap {worst:.1e} over 100 triples "
                 f"(tol 1e-12), bit-identical: {all_bits}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert all_bits
    assert elapsed <= 120.0


def test_criterion_4_feedback_optimality(lq_model, lq_u1):
    """Synthesized feedback reaches the LQ value and beats zero control."""
    start = time.monotonic()
    eps_grid = 1e-2  # grid bias (<=1e-3 by criterion 1) + Euler weak bias at 256 steps
    cfg = m.SimConfig(t0=0.0, T=1.0, steps=256, n_paths=10_000, seed=31415)
    fb = m.synthesize_feedback(lq_u1)
    comp = m.policy_compare(lq_model, cfg, np.array([[1.0]]), [fb, m.zero_control()])
    e_fb, e_zero = comp.estimates
    value_gap = abs(e_fb.mean - LQ_VALUE_AT_ONE)
    diff_mean, diff_se = comp.diff_vs_best[1]  # zero-control minus feedback
    elapsed = time.monotonic() - start
    ok = (comp.ranking[0] == 0
          and value_gap <= eps_grid + 3.0 * e_fb.std_error
          and diff_mean >= 5.0 * diff_se
          and elapsed <= 120.0)
    _line(4, ok, f"feedback {e_fb.mean:.4f} vs 0.596574 (gap {value_gap:.4f} <= "
                 f"{eps_grid + 3 * e_fb.std_error:.4f}), zero-control {e_zero.mean:.4f}, "
                 f"margin {diff_mean / max(diff_se, 1e-300):.0f} paired SEs, {elapsed:.0f}s")
    assert comp.ranking[0] == 0
    assert value_gap <= eps_grid + 3.0 * e_fb.std_error
    assert diff_mean >= 5.0 * diff_se
    assert elapsed <= 120.0


def test_criterion_5_wasserstein_oracle():
    """Assignment distance equals the permutation minimum; delta_0 identity."""
    start = time.monotonic()
    g = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        n = int(g.integers(2, 8))
        d = int(g.integers(1, 4))
        r = float(g.choice([1.0, 1.5, 2.0]))
        x, y = g.normal(size=(n, d)), g.normal(size=(n, d))
        worst = max(worst, abs(m.wasserstein_r(x, y, r) - m.brute_force_wasserstein(x, y, r)))
    worst_id = 0.0
    for _ in range(100):
        n = int(g.integers(1, 9))
        d = int(g.integers(1, 4))
        r = float(g.choice([1.0, 1.5, 2.0]))
        x = g.normal(size=(n, d))
        want = m.rnorm(x, r)
        worst_id = max(worst_id, abs(m.wasserstein_r(x, np.zeros((n, d)), r) - want))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and worst_id <= 1e-12 and elapsed <= 30.0
    _line(5, ok, f"assignment vs brute force {worst:.1e}, delta_0 identity "
                 f"{worst_id:.1e} (tol 1e-12), {elapsed:.1f}s")
    assert worst <= 1e-12
    assert worst_id <= 1e-12
    assert elapsed <= 30.0


def test_criterion_6_mollifier_suite():
    """Lipschitz preservation, uniform convergence, coupled convexity."""
    start = time.monotonic()
    reg = m.FUNCTIONALS
    k_list = [4, 16, 64]

    lip_ok = True
    for name in ("coordinate", "mean", "second-moment"):
        for rep in m.lipschitz_preservation_probe(reg[name], k_list, mc_reps=2000,
                                                  seed=101, pair_count=16):
            lip_ok = lip_ok and rep.passed

    from mfclab.mollify import default_segment_family, default_test_family

    fam = default_test_family(count=20, n_atoms=5, d=1, radius=2.0, seed=5)
    unif = m.uniform_convergence_probe(reg["second-moment"], k_list, fam, 100_000, seed=13)

    segs = default_segment_family(8, seed=3)
    conv_m2 = m.convexity_preservation_probe(reg["second-moment"], 4, 10_000, 17, segs)
    conv_lin = m.convexity_preservation_probe(reg["mean"], 4, 10_000, 19, segs)
    linear_exact = conv_lin.details["max_replicate_abs_defect"] <= 1e-12

    elapsed = time.monotonic() - start
    ok = (lip_ok and unif.passed and conv_m2.passed and conv_lin.passed
          and linear_exact and elapsed <= 300.0)
    _line(6, ok, f"lipschitz {lip_ok}, uniform sups "
                 f"{['%.4f' % s for s in unif.details['sup_errors']]} (decreasing: "
                 f"{unif.passed}), convexity margins m2 {conv_m2.statistic:.3f} / "
                 f"linear |defect| {conv_lin.details['max_replicate_abs_defect']:.1e}, "
                 f"{elapsed:.0f}s")
    assert lip_ok
    assert unif.passed, unif.details
    assert conv_m2.passed
    assert conv_lin.passed and linear_exact
    assert elapsed <= 300.0


def test_criterion_7_regularity_probes(lq_u1, lq_u2):
    """Quadratic midpoint constant, permutation residual, time-Hoelder ratios."""
    start = time.monotonic()
    g = np.random.default_rng(11)
    pairs = [(g.normal(size=(2, 1)), g.normal(size=(2, 1))) for _ in range(20)]
    value = lambda atoms: m.riccati_lq_value(1.0, 1.0, 1.0, 0.0, atoms)
    est = m.semiconcavity_report(value, pairs, [0.25, 0.5, 0.75], "probe").details
    semi_gap = max(abs(est["semiconcavity"] - 0.25), abs(est["semiconvexity"] - 0.25))

    perm = m.permutation_invariance_probe(lq_u2, threshold=1e-9)
    th = m.time_holder_probe(lq_u1, 1.0)
    bounded = th.details["bound"] <= 5.0

    elapsed = time.monotonic() - start
    ok = semi_gap <= 1e-3 and perm.passed and th.passed and bounded and elapsed <= 300.0
    _line(7, ok, f"semiconcavity/convexity gap from 0.25: {semi_gap:.1e} (tol 1e-3), "
                 f"permutation residual {perm.statistic:.1e} (tol 1e-9), "
                 f"time-Hoelder ratios {['%.3f' % r for r in th.details['ratios']]} "
                 f"non-increasing: {th.passed}, {elapsed:.0f}s")
    assert semi_gap <= 1e-3
    assert perm.passed
    assert th.passed and bounded
    assert elapsed <= 300.0


def test_criterion_8_simulator_statistics(lq_model):
    """Martingale mean within 4 SE; stability ratio stable across deltas."""
    start = time.monotonic()
    cfg = m.SimConfig(t0=0.0, T=1.0, steps=64, n_paths=4000, seed=271828)
    bundle = m.simulate_particles(lq_model, cfg, np.array([[0.5]]), m.zero_control())
    xT = bundle.states[:, -1, 0, 0]
    z = abs(xT.mean() - 0.5) / (xT.std(ddof=1) / np.sqrt(xT.size))

    tanh_model = m.REGISTRY["tanh-interaction"]
    inc = m.wiener_increments(cfg, 1)
    x0 = np.array([[0.5], [1.0]])
    b0 = m.simulate_particles(tanh_model, cfg, x0, m.zero_control(), inc)
    ratios = []
    for delta in (0.1, 0.01):
        b1 = m.simulate_particles(tanh_model, cfg, x0 + delta, m.zero_control(), inc)
        sup_diff = mean_se(m.rnorm(b1.states - b0.states, 1.0).max(axis=1))
        ratios.append(sup_diff[0] / m.rnorm(np.full((2, 1), delta), 1.0))
    factor = max(ratios) / min(ratios)

    elapsed = time.monotonic() - start
    ok = z <= 4.0 and factor <= 1.5 and elapsed <= 120.0
    _line(8, ok, f"martingale |z| = {z:.2f} (<= 4), stability ratios "
                 f"{ratios[0]:.3f}/{ratios[1]:.3f} factor {factor:.3f} (<= 1.5), "
                 f"{elapsed:.0f}s")
    assert z <= 4.0
    assert factor <= 1.5
    assert elapsed <= 120.0
