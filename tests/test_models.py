import re

import numpy as np
import pytest

import mfclab as m
from mfclab import expressions as ex
from mfclab.models import _lifted_batch


def test_l2_conjugate_examples():
    assert m.l2_conjugate(np.array([3.0]), 1.0) == 4.5
    assert m.l2_conjugate(np.zeros(2), 2.0) == 0.0
    assert m.l2_conjugate(np.array([1.0, 1.0]), 2.0) == 0.5


def test_feedback_map_examples():
    assert np.array_equal(m.feedback_map(np.array([4.0]), 2.0), np.array([2.0]))
    assert np.all(m.feedback_map(np.zeros(3), 0.7) == 0.0)


def test_feedback_gradient_roundtrip():
    """Dl2(a) = kappa*a, so Dl2(feedback_map(p)) = p identically."""
    g = np.random.default_rng(0)
    for _ in range(100):
        kappa = g.uniform(0.1, 5.0)
        p = g.normal(size=g.integers(1, 4))
        back = kappa * m.feedback_map(p, kappa)
        assert np.max(np.abs(back - p)) <= 1e-14 * max(1.0, np.max(np.abs(p)))


def test_young_fenchel():
    """a.p <= l2(a) + l2*(p), equality iff a = feedback_map(p)."""
    g = np.random.default_rng(1)
    for _ in range(200):
        kappa = g.uniform(0.2, 4.0)
        d = g.integers(1, 4)
        a, p = g.normal(size=d), g.normal(size=d)
        lhs = float(a @ p)
        rhs = 0.5 * kappa * float(a @ a) + m.l2_conjugate(p, kappa)
        assert lhs <= rhs + 1e-12
        astar = m.feedback_map(p, kappa)
        gap = 0.5 * kappa * float(astar @ astar) + m.l2_conjugate(p, kappa) - float(astar @ p)
        assert abs(gap) <= 1e-12


def test_hamiltonian_examples():
    atoms = np.array([[0.5]])
    lq = m.REGISTRY["LQ-decoupled"]
    drift1 = m.model_from_json(
        {"d": 1, "d_prime": 1, "b": ["1"], "sigma": [["0"]], "l1": "0",
         "kappa": 1.0, "UT": "m2"})
    lconst = m.model_from_json(
        {"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["0"]], "l1": "3",
         "kappa": 1.0, "UT": "m2"})
    # H = p^2/2; -2 + 2; -3
    for model, p, want in ((lq, 2.0, 2.0), (drift1, 2.0, 0.0), (lconst, 0.0, -3.0)):
        b, _, l1, _ = _lifted_batch(model, atoms)
        assert m.hamiltonian(b, l1, np.array([[p]]), model.kappa).tolist() == [want]


def test_hamiltonian_decomposition_exact():
    """Same arithmetic path as the sub-evaluations, atom by atom over a batch."""
    model = m.REGISTRY["tanh-interaction"]
    g = np.random.default_rng(2)
    atoms, p = g.normal(size=(20, 3, 1)), g.normal(size=(20, 3, 1))
    b, _, l1, _ = _lifted_batch(model, atoms)
    want = -(b * p).sum(-1) - l1 + m.l2_conjugate(p, model.kappa)
    assert np.array_equal(m.hamiltonian(b, l1, p, model.kappa), want)


def test_hamiltonian_duality_with_feedback_map():
    """H = sup_a [(a - b).p - l1 - l2(a)], attained at a* = feedback_map(p)."""
    g = np.random.default_rng(3)
    for _ in range(50):
        kappa = g.uniform(0.1, 5.0)
        shape = (8, int(g.integers(1, 4)), int(g.integers(1, 4)))  # (P, n, d)
        b, p, a = (g.normal(scale=3.0, size=shape) for _ in range(3))
        l1 = g.normal(scale=3.0, size=shape[:-1])

        def objective(a):
            return ((a - b) * p).sum(-1) - l1 - 0.5 * kappa * (a ** 2).sum(-1)

        H = m.hamiltonian(b, l1, p, kappa)
        scale = 1.0 + np.abs(b * p).sum(-1) + np.abs(l1) + (p ** 2).sum(-1) / kappa
        assert np.all(np.abs(H - objective(m.feedback_map(p, kappa))) <= 1e-12 * scale)
        assert np.all(H >= objective(a) - 1e-12 * scale)


def test_lifted_coefficients_examples():
    meanfield = m.model_from_json(
        {"d": 1, "d_prime": 1, "b": ["m1[0]"], "sigma": [["2"]], "l1": "0",
         "kappa": 1.0, "UT": "0.5*m2"})
    B, S, L1, UT = _lifted_batch(meanfield, np.array([[0.0], [2.0]]))
    assert np.array_equal(B, np.array([[1.0], [1.0]]))       # mean = 1
    assert np.all(S == 2.0)
    assert np.array_equal(L1, np.zeros(2))                   # per atom
    UT = _lifted_batch(meanfield, np.array([[1.0], [1.0]]))[3]
    assert UT == 0.5


def test_lifted_constant_terminal_has_the_batch_shape():
    model = m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                               "l1": "0", "kappa": 1.0, "UT": "1"})
    UT = _lifted_batch(model, np.zeros((4, 3, 2, 1)))[3]
    assert UT.shape == (4, 3) and np.all(UT == 1.0)


def test_lifted_permutation_equivariance():
    model = m.REGISTRY["tanh-interaction"]
    atoms = np.array([[0.3], [1.2], [-0.7], [0.1]])
    perm = np.array([2, 0, 3, 1])
    a = _lifted_batch(model, atoms)
    # n=4 feature means are permutation-sensitive in float; compare against the
    # same-mean evaluation by fixing the atom order in the features
    b = _lifted_batch(model, atoms[perm])
    for ca, cb in zip(a[:3], b[:3]):   # B, Sigma, L1 permute with the atoms
        assert np.allclose(ca[perm], cb, atol=1e-13)
    assert abs(a[3] - b[3]) < 1e-13


def test_terminal_rejects_state_variable():
    with pytest.raises(ValueError):
        m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                           "l1": "0", "kappa": 1.0, "UT": "x[0]"})


def test_kappa_positive():
    with pytest.raises(ValueError):
        m.model_from_json({"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]],
                           "l1": "0", "kappa": 0.0, "UT": "m2"})
    with pytest.raises(ValueError):
        m.l2_conjugate(np.array([1.0]), -1.0)
    with pytest.raises(ValueError, match="kappa must be positive"):
        m.feedback_map(np.array([1.0]), 0.0)


def test_registry_contents():
    names = sorted(m.REGISTRY)
    assert names == ["LQ-decoupled", "LQ-mean-reverting", "tanh-interaction"]
    with pytest.raises(KeyError):
        m.REGISTRY["nope"]


def test_sigma_shape_validation():
    with pytest.raises(ValueError):
        m.model_from_json({"d": 2, "d_prime": 1, "b": ["0", "0"], "sigma": [["1"]],
                           "l1": "0", "kappa": 1.0, "UT": "m2"})


@pytest.mark.parametrize("doc, fragment", [
    ({"d": 2, "d_prime": 1, "b": ["0"], "sigma": [["1"], ["1"]], "l1": "0", "kappa": 1.0,
      "UT": "m2"}, "drift needs 2 component expressions"),
    ({"d": 1, "b": ["0"], "l1": "0"},
     "model document missing keys: ['UT', 'd_prime', 'kappa', 'sigma']"),
], ids=["drift-length", "missing-keys"])
def test_model_document_guards(doc, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        m.model_from_json(doc)
