"""Atom arrays on R^d: moments, r-norms, Wasserstein distances, duplication.

An n-point atom array plays two roles at once: the empirical measure
mu_x = (1/n) sum_i delta_{x_i}, and the piecewise-constant random variable
sum_i x_i 1_{((i-1)/n, i/n)} on (0,1) whose push-forward is mu_x. Order matters
for the second reading, not for the first.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class UnsupportedShapeError(ValueError):
    """Transport between unequal atom counts in dimension d > 1."""


def _as_atoms(obj) -> np.ndarray:
    """Coerce to a (n, d) float array; a 1-D input is n atoms in d = 1."""
    a = np.asarray(obj, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError(f"atoms must have shape (n, d), got {a.shape}")
    return a


def _check_r(r: float):
    if not (1.0 <= r <= 2.0):
        raise ValueError(f"r must lie in [1, 2], got {r}")


def moments(atoms):
    """(m1, m2): mean and second moment of each empirical measure; atoms (..., n, d)."""
    a = np.asarray(atoms, dtype=np.float64)
    return a.mean(axis=-2), (a ** 2).sum(axis=-1).mean(axis=-1)


def rnorm(x, r: float):
    """|x|_r = n^{-1/r} (sum_i |x_i|^r)^{1/r} over leading axes; x (..., n, d) -> (...).

    rnorm(x, r)^r is the r-th moment (1/n) sum_i |x_i|^r of mu_x.
    """
    _check_r(r)
    a = np.asarray(x, dtype=np.float64)
    return (np.sqrt((a ** 2).sum(axis=-1)) ** r).mean(axis=-1) ** (1.0 / r)


def mean_se(samples):
    """Monte Carlo mean of the samples and its standard error (0 for one sample)."""
    v = np.asarray(samples, dtype=np.float64)
    se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
    return float(v.mean()), se


def duplicate_atoms(x, m: int):
    """Repeat each atom m times; the induced empirical measure is unchanged."""
    if m < 1:
        raise ValueError("duplication factor must be >= 1")
    return np.repeat(_as_atoms(x), m, axis=0)


def _sorted_distance_1d(a: np.ndarray, b: np.ndarray, r: float) -> float:
    """Monotone coupling on the common refinement, optimal in d = 1 for any atom
    counts and every r >= 1. Each copy of a_i meets the b value of the same rank,
    and the terms are summed in the order of `a`, so equal counts give the
    assignment solve's sum term for term."""
    n, m = a.size, b.size
    lcm = n * m // math.gcd(n, m)
    if lcm > 10_000_000:
        raise UnsupportedShapeError(
            f"common refinement of sizes {n} and {m} is too large ({lcm})"
        )
    av = np.repeat(a, lcm // n)
    partner = np.empty(lcm)
    partner[np.argsort(av, kind="stable")] = np.repeat(np.sort(b), lcm // m)
    return float(np.mean(np.abs(av - partner) ** r) ** (1.0 / r))


def wasserstein_r(mu, nu, r: float) -> float:
    """Wasserstein distance d_r between empirical measures.

    d = 1, any atom counts: the sorted (monotone) coupling. d >= 2: equal atom
    counts only, exact optimal bijection via a shortest-augmenting-path
    assignment solve on the cost matrix |x_i - y_j|^r.
    """
    _check_r(r)
    a, b = _as_atoms(mu), _as_atoms(nu)
    if a.shape[1] != b.shape[1]:
        raise UnsupportedShapeError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    if a.shape[1] == 1:
        return _sorted_distance_1d(a[:, 0], b[:, 0], r)
    if a.shape[0] != b.shape[0]:
        raise UnsupportedShapeError(
            "transport between unequal atom counts requires d = 1"
        )
    from scipy.optimize import linear_sum_assignment

    diff = a[:, None, :] - b[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** r
    rows, cols = linear_sum_assignment(cost)
    return float((cost[rows, cols].mean()) ** (1.0 / r))


def brute_force_wasserstein(mu, nu, r: float) -> float:
    """Exact minimum over all n! bijections; oracle for `wasserstein_r`."""
    _check_r(r)
    a, b = _as_atoms(mu), _as_atoms(nu)
    n = a.shape[0]
    if b.shape[0] != n:
        raise UnsupportedShapeError("oracle requires equal atom counts")
    if n > 8:
        raise ValueError(f"brute force refused for n = {n} > 8")
    diff = a[:, None, :] - b[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** r
    idx = np.arange(n)
    best = min(cost[idx, perm].sum() for perm in itertools.permutations(range(n)))
    return float((best / n) ** (1.0 / r))
