import re

import numpy as np
import pytest

import mfclab as m
from conftest import traced_peak
from mfclab.measures import _as_atoms


def test_moment_examples():
    """rnorm(x, r)^r is the r-th moment (1/n) sum_i |x_i|^r."""
    assert m.rnorm(np.array([[0.0]]), 2.0) ** 2.0 == 0.0
    assert m.rnorm(np.array([[1.0], [-1.0]]), 2.0) ** 2.0 == 1.0
    assert m.rnorm(np.array([[3.0, 4.0]]), 1.0) ** 1.0 == 5.0


def test_rnorm_examples():
    assert abs(m.rnorm(np.array([[3.0], [4.0]]), 2.0) - np.sqrt(12.5)) < 1e-12
    assert m.rnorm(np.array([[0.0], [0.0]]), 1.5) == 0.0
    assert abs(m.rnorm(np.ones((4, 1)), 1.0) - 1.0) < 1e-15


def test_rnorm_over_leading_axes():
    """A batch (..., n, d) gives the r-norm of each atom tuple (up to rounding:
    numpy's array and scalar powers may differ in the last bits)."""
    g = np.random.default_rng(0)
    x = g.normal(size=(3, 4, 5, 2))
    for r in (1.0, 1.5, 2.0):
        batch = m.rnorm(x, r)
        assert batch.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert abs(batch[idx] - m.rnorm(x[idx], r)) <= 1e-14 * batch[idx]


def test_r_domain_errors():
    with pytest.raises(ValueError):
        m.rnorm(np.array([[1.0]]), 0.5)
    with pytest.raises(ValueError):
        m.rnorm(np.array([[1.0]]), 2.5)
    with pytest.raises(ValueError):
        m.wasserstein_r(np.array([[1.0]]), np.array([[1.0]]), 3.0)


def test_wasserstein_examples():
    mu = np.array([[0.0], [2.0]])
    nu = np.array([[1.0], [3.0]])
    assert m.wasserstein_r(mu, mu, 1.5) == 0.0
    # both bijections by hand: (1+1)/2 = 1 and (3+1)/2 = 2
    assert abs(m.wasserstein_r(mu, nu, 1.0) - 1.0) < 1e-14


def test_distance_to_origin_is_moment():
    g = np.random.default_rng(1)
    for _ in range(30):
        n, d = g.integers(1, 7), g.integers(1, 4)
        x = g.normal(size=(n, d))
        r = g.choice([1.0, 1.5, 2.0])
        delta0 = np.zeros((n, d))
        want = m.rnorm(x, r)
        assert abs(m.wasserstein_r(x, delta0, r) - want) < 1e-12


def test_sorted_coupling_unequal_counts():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.0], [0.5], [1.0]])
    # refine to 6 segments: |F^-1 - G^-1| on each sixth
    av = np.repeat(np.sort(a[:, 0]), 3)
    bv = np.repeat(np.sort(b[:, 0]), 2)
    want = np.mean(np.abs(av - bv))
    assert abs(m.wasserstein_r(a, b, 1.0) - want) < 1e-15
    with pytest.raises(m.UnsupportedShapeError):
        m.wasserstein_r(np.zeros((2, 2)), np.zeros((3, 2)), 1.0)
    # the common refinement is the equal-count problem on duplicated atoms
    g = np.random.default_rng(8)
    for n, k in [(2, 4), (4, 2), (2, 3), (3, 2), (4, 8), (1, 5)]:
        x, y = g.normal(size=(n, 1)), g.normal(size=(k, 1))
        lcm = n * k // np.gcd(n, k)
        for r in (1.0, 1.5, 2.0):
            want = m.brute_force_wasserstein(m.duplicate_atoms(x, lcm // n),
                                              m.duplicate_atoms(y, lcm // k), r)
            assert abs(m.wasserstein_r(x, y, r) - want) < 1e-12


def test_1d_matches_brute_force_at_r1_and_on_ties():
    """d = 1 takes the sorted coupling. At r = 1 the optimal coupling is not
    unique, and atoms clipped at +-2 (as the Lipschitz probe's pairs are) tie."""
    g = np.random.default_rng(9)
    for _ in range(40):
        n = int(g.integers(2, 8))
        x, y = g.normal(size=(n, 1)), g.normal(size=(n, 1))
        assert abs(m.wasserstein_r(x, y, 1.0) - m.brute_force_wasserstein(x, y, 1.0)) < 1e-12
        x, y = (np.clip(g.uniform(-3.0, 3.0, size=(n, 1)), -2.0, 2.0) for _ in range(2))
        for r in (1.0, 1.5, 2.0):
            assert abs(m.wasserstein_r(x, y, r) - m.brute_force_wasserstein(x, y, r)) < 1e-12


def test_1d_is_the_assignment_solve_bit_for_bit():
    """On distinct atoms at r > 1 the optimal bijection is unique, and the sorted
    coupling sums its terms in the assignment solve's order: same bits."""
    from scipy.optimize import linear_sum_assignment

    g = np.random.default_rng(10)
    for _ in range(60):
        n = int(g.integers(1, 9))
        x, y = g.uniform(-2.0, 2.0, size=(n, 1)), g.uniform(-2.0, 2.0, size=(n, 1))
        for r in (1.5, 2.0):
            cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2) ** r
            rows, cols = linear_sum_assignment(cost)
            assert m.wasserstein_r(x, y, r) == float(cost[rows, cols].mean() ** (1.0 / r))


def test_duplicate_atoms():
    x = np.array([[1.0], [2.0]])
    assert np.array_equal(m.duplicate_atoms(x, 1), x)
    assert np.array_equal(m.duplicate_atoms(np.array([[1.0]]), 3), np.ones((3, 1)))
    dup = m.duplicate_atoms(x, 4)
    assert m.wasserstein_r(x, dup, 1.5) == 0.0


def test_brute_force_matches_assignment():
    g = np.random.default_rng(2)
    for _ in range(40):
        n, d = g.integers(2, 8), g.integers(1, 4)
        x, y = g.normal(size=(n, d)), g.normal(size=(n, d))
        r = g.choice([1.0, 1.5, 2.0])
        assert abs(m.wasserstein_r(x, y, r) - m.brute_force_wasserstein(x, y, r)) < 1e-12


def test_brute_force_refuses_large_n():
    with pytest.raises(ValueError):
        m.brute_force_wasserstein(np.zeros((9, 1)), np.zeros((9, 1)), 1.0)


def test_sorted_pairing_optimal_in_1d():
    g = np.random.default_rng(3)
    for _ in range(20):
        n = g.integers(2, 7)
        x, y = g.normal(size=(n, 1)), g.normal(size=(n, 1))
        r = g.choice([1.0, 1.5, 2.0])
        sorted_cost = np.mean(np.abs(np.sort(x[:, 0]) - np.sort(y[:, 0])) ** r) ** (1.0 / r)
        assert abs(m.brute_force_wasserstein(x, y, r) - sorted_cost) < 1e-12


def test_triangle_inequality():
    g = np.random.default_rng(4)
    for _ in range(40):
        n, d = g.integers(2, 7), g.integers(1, 3)
        r = g.choice([1.0, 1.5, 2.0])
        a, b, c = (g.normal(size=(n, d)) for _ in range(3))
        dab = m.wasserstein_r(a, b, r)
        dbc = m.wasserstein_r(b, c, r)
        dac = m.wasserstein_r(a, c, r)
        assert dac <= dab + dbc + 1e-12


def test_permutation_invariance():
    g = np.random.default_rng(5)
    x, y = g.normal(size=(6, 2)), g.normal(size=(6, 2))
    base = m.wasserstein_r(x, y, 1.5)
    for _ in range(5):
        assert abs(m.wasserstein_r(x[g.permutation(6)], y[g.permutation(6)], 1.5) - base) < 1e-12


def test_metric_monotone_in_r():
    g = np.random.default_rng(6)
    for _ in range(20):
        n, d = g.integers(2, 6), g.integers(1, 3)
        x, y = g.normal(size=(n, d)), g.normal(size=(n, d))
        r, s = sorted(g.uniform(1.0, 2.0, size=2))
        assert m.wasserstein_r(x, y, r) <= m.wasserstein_r(x, y, s) + 1e-12


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: _as_atoms(np.zeros((2, 2, 1))), ValueError,
     "atoms must have shape (n, d), got (2, 2, 1)"),
    (lambda: m.duplicate_atoms(np.zeros((2, 1)), 0), ValueError,
     "duplication factor must be >= 1"),
    (lambda: m.wasserstein_r(np.zeros((2, 1)), np.zeros((2, 2)), 1.0), m.UnsupportedShapeError,
     "dimension mismatch: 1 vs 2"),
    (lambda: m.wasserstein_r(np.zeros((2, 2)), np.zeros((3, 2)), 1.0), m.UnsupportedShapeError,
     "unequal atom counts requires d = 1"),
    # the common refinement of 3,163 and 3,167 atoms (both prime) has 10,017,221
    (lambda: m.wasserstein_r(np.zeros(3163), np.zeros(3167), 1.0), m.UnsupportedShapeError,
     "common refinement of sizes 3163 and 3167 is too large (10017221)"),
    (lambda: m.brute_force_wasserstein(np.zeros((2, 1)), np.zeros((3, 1)), 1.0),
     m.UnsupportedShapeError, "oracle requires equal atom counts"),
], ids=["atoms-3d", "duplicate-0", "w-unequal-d", "w-unequal-counts-d2", "w-refinement-too-large",
        "brute-force-unequal-counts"])
def test_shape_guards_raise_before_allocating(call, error, fragment):
    def refused():
        with pytest.raises(error, match=re.escape(fragment)):
            call()

    assert traced_peak(refused) < 2 ** 20
