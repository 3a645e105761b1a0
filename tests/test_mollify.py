import json
from dataclasses import replace

import numpy as np
import pytest

import mfclab as m
from mfclab import expressions as ex
from mfclab import mollify, rng
from mfclab.measures import mean_se
from mfclab.mollify import BaseFunctional, _bump_unit_draws, _coupled_values, default_test_family


def test_bump_constants_one_dim():
    c = m.bump_constants(1)
    # int_{-1}^{1} exp(1/(x^2-1)) dx = 0.443994..., so C = 1/that
    assert abs(c["normalizer"] - 2.25228362) < 1e-6
    assert abs(c["acceptance_rate"] - 0.60345016) < 1e-6


def _bump_offsets(epsilon, d, seed, count):
    """`count` offsets of eta_epsilon and their proposal count, drawn as the
    smoothed evaluations draw them: unit bumps of slots 0 .. count - 1, scaled."""
    draws, proposals = _bump_unit_draws(seed, np.arange(count, dtype=np.uint64), d)
    offsets = epsilon * draws
    assert np.all(np.linalg.norm(offsets, axis=-1) < epsilon)
    return offsets, proposals


def test_bump_support_and_symmetry():
    offs, props = _bump_offsets(0.25, 1, seed=7, count=50_000)
    assert np.all(np.abs(offs) < 0.25)
    se = offs.std(ddof=1) / np.sqrt(offs.size)
    assert abs(offs.mean()) < 4.0 * se


def test_bump_acceptance_rate_matches_quadrature():
    count = 50_000
    offs, props = _bump_offsets(1.0, 1, seed=8, count=count)
    rate = count / props
    want = m.bump_constants(1)["acceptance_rate"]
    se = np.sqrt(want * (1 - want) / props)
    assert abs(rate - want) < 4.0 * se


def test_bump_second_moment():
    offs, _ = _bump_offsets(1.0, 2, seed=9, count=50_000)
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
        runs.append(_coupled_values(base, [(4, 0.25)], 51, 29, queries)[0])
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


def _round_by_round_draws(seed, slots, d, max_rounds):
    """The sampler as it was before it drew rounds ahead and directions late:
    per round, the d direction normals and the two uniforms of every pending slot."""
    slots = np.asarray(slots, dtype=np.uint64)
    flat = slots.reshape(-1)
    out = np.empty((flat.size, d))
    proposals = 0
    pending = np.arange(flat.size)
    for rnd in range(max_rounds):
        if not pending.size:
            break
        idx = flat[pending]
        z = rng.normals(seed, rng.TAG_MOLLIFY_OFFSET, idx, np.uint64(2 * rnd), d)
        u = rng.uniforms(seed, rng.TAG_MOLLIFY_OFFSET, idx, np.uint64(2 * rnd + 1), 2)
        proposals += idx.size
        norm = np.sqrt((z ** 2).sum(axis=-1, keepdims=True))
        direction = z / norm
        radius = u[..., 0] ** (1.0 / d)
        y = direction * radius[..., None]
        accept = u[..., 1] < np.exp(1.0 / (radius ** 2 - 1.0) + 1.0)
        out[pending[accept]] = y[accept]
        pending = pending[~accept]
    if pending.size:
        raise RuntimeError("bump rejection sampling did not terminate")
    return out.reshape(slots.shape + (d,)), proposals


@pytest.mark.parametrize("max_rounds", [1, 2, 3, 5, mollify._MAX_REJECTION_ROUNDS])
@pytest.mark.parametrize("count", [1, 37, 5_000, 70_000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sampler_matches_round_by_round_draws(monkeypatch, d, count, max_rounds):
    """Drawing rounds ahead (several per pass below _BATCH pending slots) and
    directions only for accepted proposals serves the round-by-round draws and
    proposal count bit for bit, or refuses exactly when the round limit does.
    The slot counts start below and above _BATCH, and 70,000 spans three Philox tiles."""
    assert 37 < mollify._BATCH < 5_000 and 2 * rng._TILE < 70_000
    monkeypatch.setattr(mollify, "_MAX_REJECTION_ROUNDS", max_rounds)
    slots = np.arange(count, dtype=np.uint64) * np.uint64(3) + np.uint64(d)
    try:
        want = _round_by_round_draws(41, slots, d, max_rounds)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="did not terminate"):
            _bump_unit_draws(41, slots, d)
        return
    draws, proposals = _bump_unit_draws(41, slots, d)
    assert draws.tobytes() == want[0].tobytes() and proposals == want[1]


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
    base = m.FUNCTIONALS["second-moment"]
    fam = default_test_family(count=3, seed=4)
    together = m.smooth_eval(base, 16, 300, 9, fam)
    alone = [mean_se(_coupled_values(base, [(16, 1.0 / 16)], 300, 9, [(x, a)])[0, 0])
             for x, a in fam]
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
    [rep] = m.lipschitz_preservation_probe(base, [4], 200, seed=5, pair_count=6)
    assert rep.details["max_quotient"] == 0.0
    assert rep.passed


def test_lipschitz_probe_coordinate_and_mean():
    reg = m.FUNCTIONALS
    for name in ("coordinate", "mean"):
        [rep] = m.lipschitz_preservation_probe(reg[name], [8], 1500, seed=6, pair_count=12)
        assert rep.passed, rep.to_json()


@pytest.mark.parametrize("chunk", [3, 12])
def test_lipschitz_k_list_matches_per_k_calls(monkeypatch, chunk):
    """One k_list call, unsorted and with a repeated k, writes the reports of one
    call per k bit for bit, also when chunk edges cut replicates: at 12 slots a
    chunk draws 2 replicates of k = 4 (10 slots), so a 3-slot replicate of k = 2
    straddles slot 10, and at 3 slots each chunk draws one replicate of k = 4."""
    monkeypatch.setattr(mollify, "_CHUNK", chunk)
    for name in ("coordinate", "second-moment"):
        base = m.FUNCTIONALS[name]
        together = m.lipschitz_preservation_probe(base, [4, 1, 4, 2], 31, seed=8, pair_count=5)
        alone = [r for k in (4, 1, 4, 2)
                 for r in m.lipschitz_preservation_probe(base, [k], 31, seed=8, pair_count=5)]
        assert [r.name for r in together] == [f"lipschitz-preservation[{name},k={k}]"
                                              for k in (4, 1, 4, 2)]
        assert [json.dumps(r.to_json()) for r in together] == \
            [json.dumps(r.to_json()) for r in alone]


@pytest.mark.parametrize("chunk", [3, 12])
@pytest.mark.parametrize("d", [1, 2])
def test_coupled_levels_match_single_level_calls(monkeypatch, chunk, d):
    """Several (n_samples, eps) levels priced on one draw give each level's values
    of a call of its own, bit for bit, in d = 1 and 2 (a functional reading the
    mean's last coordinate, the state and the second moment)."""
    monkeypatch.setattr(mollify, "_CHUNK", chunk)
    base = BaseFunctional("mixed", ex.parse_coefficient(f"x[0] * m1[{d - 1}] + m2"), 1.0, 1.0)
    g = np.random.default_rng(50 + d)
    queries = [(g.uniform(-1, 1, d), g.uniform(-2, 2, (3, d))) for _ in range(2)]
    levels = [(4, 0.3), (1, 0.5), (4, 0.3), (2, 0.1)]
    together = _coupled_values(base, levels, 31, 12, queries)
    assert together.shape == (4, 2, 31)
    for got, level in zip(together, levels):
        assert got.tobytes() == _coupled_values(base, [level], 31, 12, queries)[0].tobytes()


def test_lipschitz_k_list_draws_each_slot_and_index_once(monkeypatch):
    """A k_list call draws, per priced pair, the bump slots and index counters of
    its largest k alone: pairs * mc_reps * (k_max + 1) and pairs * mc_reps * k_max."""
    slots, indices = [], []

    def counted_bumps(seed, slots_, dim):
        slots.append(np.size(slots_))
        return _bump_unit_draws(seed, slots_, dim)

    def counted_uniforms(seed, tag, i0, i1, count):
        if tag == rng.TAG_MOLLIFY_INDEX:
            indices.append(np.broadcast(i0, i1).size * ((count + 1) // 2))
        return uniforms(seed, tag, i0, i1, count)

    uniforms = rng.uniforms
    monkeypatch.setattr(mollify, "_bump_unit_draws", counted_bumps)
    monkeypatch.setattr(rng, "uniforms", counted_uniforms)
    reports = m.lipschitz_preservation_probe(m.FUNCTIONALS["mean"], [4, 16, 2], 40, seed=3,
                                             pair_count=6)
    pairs = reports[0].samples
    assert pairs == 6
    assert sum(slots) == pairs * 40 * 17
    assert sum(indices) == pairs * 40 * 16


@pytest.mark.parametrize("name", ["coordinate", "mean"])
def test_lipschitz_probe_refuses_half_the_declared_constant(name):
    """Negative control: the probe passes the registry's L = 1 and fails L = 0.5,
    because the smoothed quotients of these linear functionals reach about 0.85."""
    base = m.FUNCTIONALS[name]
    declared = m.lipschitz_preservation_probe(base, [4, 16], 400, seed=11)
    halved = m.lipschitz_preservation_probe(replace(base, lipschitz_L=0.5), [4, 16], 400,
                                            seed=11)
    assert all(r.passed for r in declared), [r.to_json() for r in declared]
    assert not any(r.passed for r in halved), [r.to_json() for r in halved]


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
        vals = _coupled_values(base, [(4, 0.25)], 64, 19,
                               [(np.zeros(1), Xa), (np.zeros(1), Ya),
                                (np.zeros(1), lam * Xa + (1 - lam) * Ya)])[0]
        delta = lam * vals[0] + (1 - lam) * vals[1] - vals[2]
        assert np.all(delta == 0.0)


def test_coupled_queries_must_share_atom_shape():
    """One index draw serves every query, so an atom count that differs is refused."""
    base = m.FUNCTIONALS["mean"]
    with pytest.raises(ValueError, match="one atom shape"):
        _coupled_values(base, [(4, 0.25)], 8, 1, [(np.zeros(1), np.zeros((2, 1))),
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
        vals = _coupled_values(base, [(4, 0.25)], 800, 23, [(x, Xa), (y, Ya),
                               (lam * x + (1 - lam) * y, lam * Xa + (1 - lam) * Ya)])[0]
        delta = lam * vals[0] + (1 - lam) * vals[1] - vals[2]
        assert delta.min() >= -1e-12


def test_general_entry_decouples_width_and_samples():
    """psi_{N,eps}: wider mollifier means larger second-moment bias at fixed N."""
    base = m.FUNCTIONALS["second-moment"]
    mu = np.array([[0.5], [-0.5]])
    (wide, _), (narrow, _) = (mean_se(_coupled_values(base, [(8, eps)], 40_000, 31,
                                                      [(np.zeros(1), mu)])[0, 0])
                              for eps in (0.5, 0.05))
    bump_m2 = m.bump_constants(1)["second_moment"]
    assert abs(wide - (0.25 + bump_m2 * 0.25)) < 3e-3
    assert abs(narrow - (0.25 + bump_m2 * 0.0025)) < 3e-3


def test_smooth_eval_second_moment_at_a_dirac_is_the_bump_bias():
    """phi_k of m2 at (0, delta_0) is E[(1/k) sum_i y_i^2] = eps^2 int z^2 eta dz,
    eps = 1/k: the k samples sit at the atom, so only the width of the bump
    shows. At k = 4 that is 0.009882; a doubled width reads four times it."""
    want = m.bump_constants(1)["second_moment"] / 4 ** 2
    [(mean, se)] = m.smooth_eval(m.FUNCTIONALS["second-moment"], 4, 2000, 3,
                                 [(np.zeros(1), np.zeros((1, 1)))])
    assert abs(mean - want) < 5.0 * se
