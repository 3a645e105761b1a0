import numpy as np
import pytest

import mfclab as m
from mfclab import costs
from mfclab.measures import mean_se


def _cfg(**kw):
    base = dict(t0=0.0, T=1.0, steps=16, n_paths=8, seed=5)
    base.update(kw)
    return m.SimConfig(**base)


def test_deterministic_terminal_only():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["0"]],
                               "l1": "0", "kappa": 1.0, "UT": "m1[0]"})
    est = m.cost_finite(model, _cfg(), np.array([[2.0], [4.0]]), m.zero_control())
    assert est.mean == 3.0
    assert est.std_error == 0.0


def test_constant_running_cost():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["0"]],
                               "l1": "1", "kappa": 1.0, "UT": "0"})
    est = m.cost_finite(model, _cfg(steps=25), np.array([[0.0]]), m.zero_control())
    assert abs(est.mean - 1.0) < 1e-12
    assert est.running_l1 == est.mean


def test_lq_zero_control_cost():
    """J = E[X_T^2]/2 = (x0^2 + sigma^2 T)/2 = 1 at x0 = 1."""
    model = m.REGISTRY["LQ-decoupled"]
    est = m.cost_finite(model, _cfg(steps=64, n_paths=4000, seed=99),
                        np.array([[1.0]]), m.zero_control())
    assert abs(est.mean - 1.0) < 4.0 * est.std_error


def test_breakdown_sums_to_mean():
    model = m.REGISTRY["tanh-interaction"]
    g = np.random.default_rng(1)
    pol = m.open_loop(g.normal(size=(16, 2, 1)))
    est = m.cost_finite(model, _cfg(n_paths=16), np.array([[0.2], [0.4]]), pol)
    assert est.mean == est.running_l1 + est.running_l2 + est.terminal


def test_cost_lift_identity_bitwise():
    model = m.REGISTRY["LQ-mean-reverting"]
    cfg = _cfg(steps=12, n_paths=10, seed=17)
    x0 = np.array([[0.1], [0.9], [-0.4]])
    g = np.random.default_rng(2)
    pol = m.open_loop(g.normal(size=(12, 3, 1)))
    inc = m.wiener_increments(cfg, 1)
    cf = m.cost_finite(model, cfg, x0, pol, inc)
    cl = m.cost_lifted(model, cfg, x0, pol, inc)
    assert cf.mean == cl.mean
    assert cf.running_l1 == cl.running_l1
    assert cf.running_l2 == cl.running_l2
    assert cf.terminal == cl.terminal


def test_single_particle_reduces_to_standard_control():
    model = m.REGISTRY["LQ-decoupled"]
    cfg = _cfg(steps=8, n_paths=4, seed=3)
    x0 = np.array([[0.7]])
    g = np.random.default_rng(3)
    pol = m.open_loop(g.normal(size=(8, 1, 1)))
    inc = m.wiener_increments(cfg, 1)
    fin = m.cost_finite(model, cfg, x0, pol, inc)
    lif = m.cost_lifted(model, cfg, x0, pol, inc)
    assert fin.mean == lif.mean


def test_policy_compare_duplicate_policy():
    model = m.REGISTRY["LQ-decoupled"]
    comp = m.policy_compare(model, _cfg(n_paths=32), np.array([[1.0]]),
                            [m.zero_control(), m.zero_control()])
    delta, se = comp.diff_vs_best[1]
    assert delta == 0.0 and se == 0.0


def test_policy_compare_prices_each_policy_once(monkeypatch):
    model = m.REGISTRY["tanh-interaction"]
    cfg = _cfg(n_paths=32)
    x0 = np.array([[0.5], [-1.0]])
    pols = [m.zero_control(), m.open_loop(np.full((16, 2, 1), 0.3))]
    # reference: each policy priced alone on the shared increments, and the
    # paired differences formed from the per-path quadrature terms
    increments = m.wiener_increments(cfg, model.d_prime)
    want = [m.cost_finite(model, cfg, x0, p, increments) for p in pols]
    totals = []
    for p in pols:
        c1, c2, cT = costs._per_path_terms(
            model, m.simulate_particles(model, cfg, x0, p, increments))
        totals.append(c1 + c2 + cT)
    best = int(np.argmin([e.mean for e in want]))
    calls = []
    terms = costs._per_path_terms
    monkeypatch.setattr(costs, "_per_path_terms", lambda *a: calls.append(1) or terms(*a))
    comp = m.policy_compare(model, cfg, x0, pols)
    assert len(calls) == 2
    assert comp.estimates == tuple(want)
    assert comp.diff_vs_best == tuple(mean_se(t - totals[best]) for t in totals)


def test_policy_compare_requires_two():
    model = m.REGISTRY["LQ-decoupled"]
    with pytest.raises(ValueError):
        m.policy_compare(model, _cfg(), np.array([[1.0]]), [m.zero_control()])


def test_terminal_shift_moves_costs_by_constant():
    base = m.REGISTRY["LQ-decoupled"]
    shifted = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                                 "l1": "0", "kappa": 1.0, "UT": "0.5*m2 + 3"})
    cfg = _cfg(steps=16, n_paths=64, seed=8)
    x0 = np.array([[0.5]])
    g = np.random.default_rng(4)
    pols = [m.zero_control(), m.open_loop(g.normal(size=(16, 1, 1)))]
    a = m.policy_compare(base, cfg, x0, pols)
    b = m.policy_compare(shifted, cfg, x0, pols)
    for ea, eb in zip(a.estimates, b.estimates):
        assert abs((eb.mean - ea.mean) - 3.0) < 1e-12
    assert a.ranking == b.ranking


def test_value_dominance(lq_u1):
    """Sampled form of V_n <= u_n: every policy's cost sits above the grid value."""
    model = m.REGISTRY["LQ-decoupled"]
    cfg = _cfg(steps=64, n_paths=2000, seed=13)
    x0 = np.array([[1.0]])
    value = lq_u1.value_at(0.0, [1.0])
    g = np.random.default_rng(7)
    policies = [m.zero_control(),
                m.open_loop(g.normal(size=(64, 1, 1)) * 0.5),
                m.synthesize_feedback(lq_u1)]
    margin = 1e-2  # grid + time-quadrature allowance at these resolutions
    for pol in policies:
        est = m.cost_finite(model, cfg, x0, pol)
        assert est.mean >= value - margin - 3.0 * est.std_error, pol.label


def test_invalid_paths_flag_estimate():
    """An ensemble in which a path blows up is never priced: the integrator
    refuses it at the step it happens."""
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["exp(x[0])"],
                               "sigma": [["0"]], "l1": "0", "kappa": 1.0, "UT": "m2"})
    with pytest.raises(FloatingPointError, match=r"^8 of 8 paths blew up at step \d+ of 40$"):
        m.cost_finite(model, _cfg(steps=40), np.array([[6.0]]), m.zero_control())


def test_estimate_rejects_inconsistent_breakdown():
    """The invariant holds under `python -O` too, where an assert would vanish."""
    with pytest.raises(ValueError):
        m.CostEstimate(mean=1.0, std_error=0.0, n_paths=1, running_l1=0.5,
                       running_l2=0.25, terminal=0.0)


def test_quadrature_consistency_halving_dt():
    """Deterministic cost error from the left-endpoint rule shrinks like O(dt)."""
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["1"], "sigma": [["0"]],
                               "l1": "x[0]", "kappa": 1.0, "UT": "0"})
    # exact: int_0^1 (x0 + s) ds = x0 + 1/2 with x0 = 0.25
    exact = 0.75
    errs = []
    for steps in (16, 32, 64):
        est = m.cost_finite(model, _cfg(steps=steps, n_paths=1), np.array([[0.25]]),
                            m.zero_control())
        errs.append(abs(est.mean - exact))
    assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]
