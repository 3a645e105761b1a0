import numpy as np
import pytest

import mfclab as m
from mfclab import expressions as ex
from mfclab import mollify
from mfclab.mollify import BaseFunctional, _bump_unit_draws, _coupled_values, default_test_family


def test_bump_constants_one_dim():
    c = m.bump_constants(1)
    # int_{-1}^{1} exp(1/(x^2-1)) dx = 0.443994..., so C = 1/that
    assert abs(c["normalizer"] - 2.25228362) < 1e-6
    assert abs(c["acceptance_rate"] - 0.60345016) < 1e-6


def test_bump_support_and_symmetry():
    offs, props = m.sample_bump(0.25, 1, seed=7, count=50_000)
    assert np.all(np.abs(offs) < 0.25)
    se = offs.std(ddof=1) / np.sqrt(offs.size)
    assert abs(offs.mean()) < 4.0 * se


def test_bump_acceptance_rate_matches_quadrature():
    count = 50_000
    offs, props = m.sample_bump(1.0, 1, seed=8, count=count)
    rate = count / props
    want = m.bump_constants(1)["acceptance_rate"]
    se = np.sqrt(want * (1 - want) / props)
    assert abs(rate - want) < 4.0 * se


def test_bump_second_moment():
    offs, _ = m.sample_bump(1.0, 2, seed=9, count=50_000)
    sq = (offs ** 2).sum(axis=1)
    want = m.bump_constants(2)["second_moment"]
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - want) < 4.0 * se


@pytest.mark.parametrize("d", [1, 2])
def test_bump_draws_are_independent_of_batching(d):
    """A slot's draw is a function of (seed, slot) alone: one 2-D batch, one call
    per row and one call per slot agree bit for bit, and so do the proposals."""
    slots = np.arange(24, dtype=np.uint64).reshape(4, 6) * np.uint64(3) + np.uint64(11)
    batch, proposals = _bump_unit_draws(29, slots, d)
    assert batch.shape == (4, 6, d)
    row_total = slot_total = 0
    for i in range(4):
        row, props = _bump_unit_draws(29, slots[i], d)
        np.testing.assert_array_equal(row, batch[i])
        row_total += props
        for j in range(6):
            one, props = _bump_unit_draws(29, slots[i, j], d)
            np.testing.assert_array_equal(one, batch[i, j])
            slot_total += props
    assert row_total == slot_total == proposals


@pytest.mark.parametrize("d", [1, 2])
def test_coupled_values_are_independent_of_chunking(monkeypatch, d):
    """Pricing the replicates a few at a time (2 per chunk, the last chunk short)
    or one at a time (the chunk holds fewer slots than one replicate) gives the
    values and the bump proposal count of one chunk, bit for bit."""
    base = m.FUNCTIONALS["second-moment"]
    g = np.random.default_rng(40 + d)
    queries = [(g.uniform(-1, 1, d), g.uniform(-2, 2, (3, d))) for _ in range(3)]
    proposals = []

    def counted(seed, slots, dim):
        draws, count = _bump_unit_draws(seed, slots, dim)
        proposals[-1] += count
        return draws, count

    monkeypatch.setattr(mollify, "_bump_unit_draws", counted)
    runs = []
    for chunk in (mollify._CHUNK, 12, 3):
        monkeypatch.setattr(mollify, "_CHUNK", chunk)
        proposals.append(0)
        runs.append(_coupled_values(base, 4, 0.25, 51, 29, queries))
    assert runs[0].shape == (3, 51)
    assert runs[1].tobytes() == runs[0].tobytes() == runs[2].tobytes()
    assert proposals[0] == proposals[1] == proposals[2] > 51 * 5


def test_bump_rejection_round_limit(monkeypatch):
    """Slots 0 and 1 accept their first proposal at seed 5 and slot 2 its second:
    a one-round limit serves the first two and refuses the third."""
    monkeypatch.setattr(mollify, "_MAX_REJECTION_ROUNDS", 1)
    draws, proposals = _bump_unit_draws(5, np.array([0, 1], dtype=np.uint64), 1)
    assert proposals == 2 and np.all(np.abs(draws) < 1.0)
    with pytest.raises(RuntimeError, match="did not terminate"):
        _bump_unit_draws(5, np.array([0, 1, 2], dtype=np.uint64), 1)


def test_constant_functional_is_fixed_point():
    base = BaseFunctional("const7", ex.parse_coefficient("7"), 0.0, 1.0)
    [(mean, se)] = m.smooth_eval(base, 4, 50, 1, [([0.3], np.array([[0.1], [0.4]]))])
    assert mean == 7.0 and se == 0.0


def test_mean_at_dirac_zero():
    base = m.FUNCTIONALS["mean"]
    [(mean, se)] = m.smooth_eval(base, 6, 4000, 2, [([0.0], np.array([[0.0]]))])
    assert abs(mean) < 4.0 * se


def test_coordinate_bias_bounded_by_width():
    base = m.FUNCTIONALS["coordinate"]
    for k in (4, 16):
        [(mean, se)] = m.smooth_eval(base, k, 3000, 3, [([0.8], np.array([[0.0], [1.0]]))])
        assert abs(mean - 0.8) <= 1.0 / k + 4.0 * se


def test_replicate_determinism():
    base = m.FUNCTIONALS["second-moment"]
    query = ([0.2], np.array([[0.5], [-1.0]]))
    a = m.smooth_eval(base, 8, 500, 11, [query])
    b = m.smooth_eval(base, 8, 500, 11, [query])
    assert a == b


def test_sample_evaluations_share_one_draw():
    """One smooth_eval call over several queries prices each on the same draws
    as a call of its own: the results agree with per-point calls bit for bit."""
    from mfclab.mollify import smooth_eval_general
    base = m.FUNCTIONALS["second-moment"]
    fam = default_test_family(count=3, seed=4)
    together = m.smooth_eval(base, 16, 300, 9, fam)
    alone = [smooth_eval_general(base, 16, 1.0 / 16, 300, 9, x, a) for x, a in fam]
    assert together == alone
    assert len({est for est in together}) == 3


def test_validation():
    base = m.FUNCTIONALS["mean"]
    query = ([0.0], np.array([[0.0]]))
    with pytest.raises(ValueError):
        m.smooth_eval(base, 0, 10, 0, [query])
    with pytest.raises(ValueError):
        m.smooth_eval(base, 4, 0, 0, [query])
    with pytest.raises(ValueError):
        m.sample_bump(0.0, 1, seed=0)


def test_lipschitz_probe_constant_zero():
    base = BaseFunctional("const", ex.parse_coefficient("2"), 0.0, 1.0)
    rep = m.lipschitz_preservation_probe(base, 4, 200, seed=5, pair_count=6)
    assert rep.details["max_quotient"] == 0.0
    assert rep.passed


def test_lipschitz_probe_coordinate_and_mean():
    reg = m.FUNCTIONALS
    for name in ("coordinate", "mean"):
        rep = m.lipschitz_preservation_probe(reg[name], 8, 1500, seed=6, pair_count=12)
        assert rep.passed, rep.to_json()


def test_uniform_convergence_second_moment():
    # bias ~ bump_m2/k^2: k in {2, 8} separates by ~0.037, far beyond MC noise
    fam = default_test_family(count=8, n_atoms=4, seed=13)
    rep = m.uniform_convergence_probe(m.FUNCTIONALS["second-moment"],
                                      [2, 8], fam, 40_000, seed=14)
    assert rep.passed, rep.details
    sups = rep.details["sup_errors"]
    assert sups[1] < sups[0]


def test_uniform_convergence_coordinate_bound():
    """Zero-bias functional: assert the sup <= 1/k + noise bound, not the drop."""
    fam = default_test_family(count=8, n_atoms=4, seed=15)
    rep = m.uniform_convergence_probe(m.FUNCTIONALS["coordinate"],
                                      [4, 16], fam, 5000, seed=16)
    for sup, se, k in zip(rep.details["sup_errors"], rep.details["sup_std_errors"], [4, 16]):
        assert sup <= 1.0 / k + 3.0 * se


def test_convexity_linear_lift_cancels():
    base = m.FUNCTIONALS["mean"]
    g = np.random.default_rng(17)
    segs = [(g.uniform(-1, 1, 1), g.uniform(-1, 1, 1),
             g.uniform(-2, 2, (3, 1)), g.uniform(-2, 2, (3, 1)),
             float(g.uniform(0.2, 0.8))) for _ in range(5)]
    rep = m.convexity_preservation_probe(base, 4, 500, 18, segs)
    assert rep.passed
    assert rep.details["max_replicate_abs_defect"] <= 1e-12


def test_convexity_endpoints_bitwise_zero():
    base = m.FUNCTIONALS["second-moment"]
    Xa, Ya = np.array([[0.5], [1.0]]), np.array([[-0.5], [0.2]])
    for lam in (0.0, 1.0):
        vals = _coupled_values(base, 4, 0.25, 64, 19,
                               [(np.zeros(1), Xa), (np.zeros(1), Ya),
                                (np.zeros(1), lam * Xa + (1 - lam) * Ya)])
        delta = lam * vals[0] + (1 - lam) * vals[1] - vals[2]
        assert np.all(delta == 0.0)


def test_coupled_queries_must_share_atom_shape():
    """One index draw serves every query, so an atom count that differs is refused."""
    base = m.FUNCTIONALS["mean"]
    with pytest.raises(ValueError, match="one atom shape"):
        _coupled_values(base, 4, 0.25, 8, 1, [(np.zeros(1), np.zeros((2, 1))),
                                              (np.zeros(1), np.zeros((3, 1)))])


def test_convexity_second_moment_pointwise():
    """Squared norm is convex pointwise under the shared-sample coupling."""
    base = m.FUNCTIONALS["second-moment"]
    g = np.random.default_rng(20)
    segs = [(np.zeros(1), np.zeros(1),
             g.uniform(-2, 2, (4, 1)), g.uniform(-2, 2, (4, 1)),
             float(g.uniform(0.2, 0.8))) for _ in range(4)]
    rep = m.convexity_preservation_probe(base, 4, 800, 21, segs)
    assert rep.passed
    for x, y, Xa, Ya, lam in segs:
        vals = _coupled_values(base, 4, 0.25, 800, 23, [(x, Xa), (y, Ya),
                               (lam * x + (1 - lam) * y, lam * Xa + (1 - lam) * Ya)])
        delta = lam * vals[0] + (1 - lam) * vals[1] - vals[2]
        assert delta.min() >= -1e-12


def test_general_entry_decouples_width_and_samples():
    """psi_{N,eps}: wider mollifier means larger second-moment bias at fixed N."""
    from mfclab.mollify import smooth_eval_general

    base = m.FUNCTIONALS["second-moment"]
    mu = np.array([[0.5], [-0.5]])
    wide, _ = smooth_eval_general(base, 8, 0.5, 40_000, 31, [0.0], mu)
    narrow, _ = smooth_eval_general(base, 8, 0.05, 40_000, 31, [0.0], mu)
    bump_m2 = m.bump_constants(1)["second_moment"]
    assert abs(wide - (0.25 + bump_m2 * 0.25)) < 3e-3
    assert abs(narrow - (0.25 + bump_m2 * 0.0025)) < 3e-3
