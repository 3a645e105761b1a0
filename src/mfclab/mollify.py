"""Wasserstein-space smoothing of functionals phi(x, mu), with probes.

The smoothed functional at level k replaces mu by a k-sample empirical measure
whose samples and evaluation point are jittered by draws from the normalized
bump density of width eps = 1/k:

    phi_k(x, mu) = E[ phi(x - y_0, (1/k) sum_i delta_{X_i - y_i}) ],

X_i i.i.d. from mu (uniform over atoms with replacement), y_j i.i.d. with
density eta_eps. We evaluate the outer expectation by Monte Carlo, so every
probe threshold carries explicit std-error slack. Comparative probes
(Lipschitz quotients, convexity defects) couple all evaluations on common
random numbers; the convexity coupling draws one shared atom index per sample
so the pair (X_i, Y_i) is a copy of the random vector (X, Y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expressions as ex
from . import rng
from .measures import _as_atoms, mean_se, moments, wasserstein_r
from .reports import ProbeReport

_MAX_REJECTION_ROUNDS = 10_000
_CHUNK = 1 << 18  # bump slots whose draws and rejection temporaries are held at once


# -- bump density --------------------------------------------------------------


@lru_cache(maxsize=8)
def bump_constants(d: int) -> dict:
    """Quadrature facts about the standard mollifier eta on R^d.

    eta(z) = C exp(1/(|z|^2 - 1)) on |z| < 1, with C fixed by integral one.
    """
    from scipy.integrate import quad

    surf = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    raw, _ = quad(lambda r: r ** (d - 1) * math.exp(1.0 / (r * r - 1.0)), 0.0, 1.0)
    integral = surf * raw
    second_raw, _ = quad(lambda r: r ** (d + 1) * math.exp(1.0 / (r * r - 1.0)), 0.0, 1.0)
    return {
        "normalizer": 1.0 / integral,
        "acceptance_rate": integral * math.e / vol,
        "second_moment": surf * second_raw / integral,  # int |z|^2 eta dz
        "ball_volume": vol,
    }


def _bump_unit_draws(seed: int, slots: np.ndarray, d: int):
    """Rejection-sample the unit bump for each slot; returns draws and proposal count.

    Per (slot, round): d direction normals and two uniforms (radius, accept),
    all counter-keyed, so each slot's stream is independent of the others.
    """
    slots = np.asarray(slots, dtype=np.uint64)
    flat = slots.reshape(-1)
    out = np.empty((flat.size, d))
    proposals = 0
    pending = np.arange(flat.size)     # C order, as a boolean mask would select
    for rnd in range(_MAX_REJECTION_ROUNDS):
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


def sample_bump(epsilon: float, d: int, seed: int, count: int = 1):
    """Draws from eta_epsilon (support strictly inside the epsilon-ball).

    Returns (offsets (count, d), proposal_count); the ratio count/proposals
    estimates the rejection acceptance rate.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    draws, proposals = _bump_unit_draws(seed, np.arange(count, dtype=np.uint64), d)
    offsets = epsilon * draws
    assert np.all(np.linalg.norm(offsets, axis=-1) < epsilon)
    return offsets, proposals


# -- functionals ----------------------------------------------------------------


@dataclass(frozen=True)
class BaseFunctional:
    """phi(x, mu) with user-declared Lipschitz metadata w.r.t. |.| x d_r."""

    name: str
    expr: ex.Expr
    lipschitz_L: float
    lipschitz_r: float

    def evaluate(self, x, mu) -> float:
        atoms = _as_atoms(mu)
        xv = np.zeros(atoms.shape[1]) if x is None else np.asarray(x, dtype=np.float64)
        return float(self.evaluate_batch(xv, atoms))

    def evaluate_batch(self, x, atoms):
        """x (..., d), atoms (..., k, d) -> (...)."""
        return ex.evaluate(self.expr, x, *moments(atoms))


# Probe functionals; L constants hold on the radius-2 test family used by the
# verification suite (atoms in the 2-ball, mollifier offsets below 1/4).
FUNCTIONALS = {
    "coordinate": BaseFunctional("coordinate", ex.parse_coefficient("x[0]"), 1.0, 1.0),
    "mean": BaseFunctional("mean", ex.parse_coefficient("m1[0]"), 1.0, 1.0),
    "second-moment": BaseFunctional("second-moment", ex.parse_coefficient("m2"), 4.5, 1.0),
}


def _coupled_values(base: BaseFunctional, n_samples: int, eps: float, mc_reps: int,
                    seed: int, queries) -> np.ndarray:
    """Per-replicate smoothed values for several (x, atoms) queries sharing draws.

    One set of n_samples atom indices and n_samples+1 bump offsets of width eps
    per replicate, reused across all queries (common random numbers), so the
    queries must share one atom shape (n_atoms, d). Returns (len(queries), mc_reps).
    Replicates are priced _CHUNK bump slots at a time (one replicate at least);
    replicate r's slots stay r*(n_samples+1) + j, so the chunking changes no value.
    """
    shapes = {np.shape(atoms) for _, atoms in queries}
    if len(shapes) != 1:
        raise ValueError(f"coupled queries must share one atom shape, got {sorted(shapes)}")
    (n_atoms, d), = shapes
    out = np.empty((len(queries), mc_reps))
    per_chunk = max(1, _CHUNK // (n_samples + 1))
    for start in range(0, mc_reps, per_chunk):
        reps = np.arange(start, min(start + per_chunk, mc_reps), dtype=np.uint64)[:, None]
        u_idx = rng.uniforms(seed, rng.TAG_MOLLIFY_INDEX, reps,
                             np.arange(n_samples, dtype=np.uint64)[None, :], 1)[..., 0]
        idx = np.minimum((u_idx * n_atoms).astype(np.int64), n_atoms - 1)  # (reps, N)
        slots = reps * (n_samples + 1) + np.arange(n_samples + 1, dtype=np.uint64)
        offsets = eps * _bump_unit_draws(seed, slots, d)[0]                # (reps, N+1, d)
        for qi, (x, atoms) in enumerate(queries):
            a = np.asarray(atoms, dtype=np.float64)
            sampled = a[idx] - offsets[:, 1:, :]                            # (reps, N, d)
            xs = np.asarray(x, dtype=np.float64) - offsets[:, 0, :]         # (reps, d)
            out[qi, start:start + reps.size] = base.evaluate_batch(xs, sampled)
    return out


def smooth_eval_general(base: BaseFunctional, n_samples: int, epsilon: float,
                        mc_reps: int, seed: int, x, mu):
    """Low-level entry with the sample count and mollifier width decoupled."""
    vals = _coupled_values(base, n_samples, epsilon, mc_reps, seed,
                           [(np.asarray(x, dtype=np.float64), _as_atoms(mu))])
    return mean_se(vals[0])


def smooth_eval(base: BaseFunctional, k: int, mc_reps: int, seed: int, queries) -> list:
    """Monte Carlo estimates of phi_k at (x, mu) queries sharing one atom shape,
    all priced on one draw; returns one (mean, std_error) per query."""
    if k < 1 or mc_reps < 1:
        raise ValueError("need k >= 1 and mc_reps >= 1")
    vals = _coupled_values(base, k, 1.0 / k, mc_reps, seed,
                           [(np.asarray(x, dtype=np.float64), _as_atoms(mu)) for x, mu in queries])
    return [mean_se(v) for v in vals]


# -- probes ---------------------------------------------------------------------


# Seed of the fixed stream the Lipschitz probe draws its pairs from.
_PAIR_SEED = 1


def _probe_pairs(pair_count: int):
    """Deterministic ((x, mu), (y, nu)) pairs in d = 1 with four atoms each, inside
    the radius-2 ball the registry's declared constants hold on; alternates far
    pairs with small perturbations of the first leg."""
    g = np.random.default_rng(_PAIR_SEED)
    pairs = []
    for j in range(pair_count):
        x = g.uniform(-2.0, 2.0, size=1)
        a = g.uniform(-2.0, 2.0, size=(4, 1))
        if j % 2 == 0:
            y = g.uniform(-2.0, 2.0, size=1)
            b = g.uniform(-2.0, 2.0, size=(4, 1))
        else:
            y = x + g.uniform(-0.2, 0.2, size=1)
            b = a + g.uniform(-0.2, 0.2, size=(4, 1))
        pairs.append(((x, a), (y, np.clip(b, -2.0, 2.0))))
    return pairs


def lipschitz_preservation_probe(base: BaseFunctional, k: int, mc_reps: int, seed: int,
                                 pair_count: int = 24) -> ProbeReport:
    """Checks |phi_k(x,mu) - phi_k(y,nu)| <= L (|x-y| + d_r) up to CRN noise."""
    quotients = []
    stat = -np.inf
    skipped = 0
    for pi, ((x, a), (y, b)) in enumerate(_probe_pairs(pair_count)):
        denom = float(np.linalg.norm(x - y)) + wasserstein_r(a, b, base.lipschitz_r)
        if denom < 1e-8:
            skipped += 1
            continue
        vals = _coupled_values(base, k, 1.0 / k, mc_reps, seed + pi, [(x, a), (y, b)])
        diff_mean, diff_se = mean_se(vals[0] - vals[1])
        quotients.append(abs(diff_mean) / denom)
        stat = max(stat, (abs(diff_mean) - 3.0 * diff_se) / denom)
    return ProbeReport(
        name=f"lipschitz-preservation[{base.name},k={k}]",
        samples=pair_count - skipped,
        statistic=float(stat),
        threshold=base.lipschitz_L,
        direction="leq",
        provenance={"k": k, "mc_reps": mc_reps, "seed": seed, "pair_seed": _PAIR_SEED},
        details={"max_quotient": float(max(quotients)), "skipped": skipped,
                 "declared_L": base.lipschitz_L},
    )


def default_test_family(count: int = 20, n_atoms: int = 5, d: int = 1,
                        radius: float = 2.0, seed: int = 7):
    """Fixed bounded family of (x, atoms) pairs inside the radius ball (M_2 <= radius^2)."""
    g = np.random.default_rng(seed)
    fam = []
    for _ in range(count):
        x = g.uniform(-radius, radius, size=d) / np.sqrt(d)
        a = g.uniform(-radius, radius, size=(n_atoms, d)) / np.sqrt(d)
        fam.append((x, a))
    return fam


def default_segment_family(count: int, seed: int):
    """Convexity segments (x, y, X, Y, lam), d = 1: x, y in [-1, 1], 4 atoms in [-2, 2]."""
    g = np.random.default_rng(seed)
    return [(g.uniform(-1, 1, 1), g.uniform(-1, 1, 1), g.uniform(-2, 2, (4, 1)),
             g.uniform(-2, 2, (4, 1)), float(g.uniform(0.2, 0.8))) for _ in range(count)]


def uniform_convergence_probe(base: BaseFunctional, k_list, test_family,
                              mc_reps: int, seed: int) -> ProbeReport:
    """Sup |phi_k - phi| over the family per k: non-increasing, and the largest k
    beats the smallest beyond 3 SE. Also reports whether the k-sample term or
    the mollifier-width term appears to dominate (ratio of sup to 1/k)."""
    sups, ses = [], []
    for ki, k in enumerate(k_list):
        vals = _coupled_values(base, k, 1.0 / k, mc_reps, seed + 1009 * ki, test_family)
        best, best_se = -np.inf, 0.0
        for qi, (x, atoms) in enumerate(test_family):
            mean, se = mean_se(vals[qi])
            err = abs(mean - base.evaluate(x, atoms))
            if err > best:
                best, best_se = err, se
        sups.append(best)
        ses.append(best_se)
    worst_increase = max(
        (sups[i + 1] - sups[i] - 3.0 * (ses[i] + ses[i + 1]) for i in range(len(sups) - 1)),
        default=-np.inf,
    )
    drop = sups[-1] - sups[0] + 3.0 * (ses[0] + ses[-1])
    return ProbeReport(
        name=f"uniform-convergence[{base.name}]",
        samples=len(test_family) * len(k_list),
        statistic=float(max(worst_increase, drop)),
        threshold=0.0,
        direction="lt",
        provenance={"k_list": list(k_list), "seed": seed},
        details={"sup_errors": [float(s) for s in sups],
                 "sup_std_errors": [float(s) for s in ses],
                 "sup_times_k": [float(s * k) for s, k in zip(sups, k_list)]},
    )


def convexity_preservation_probe(base: BaseFunctional, k: int, mc_reps: int, seed: int,
                                 segments) -> ProbeReport:
    """Coupled convexity defect of the lift along segments ((x,X) -> (y,Y)).

    Delta = lam phi_k(x,X) + (1-lam) phi_k(y,Y) - phi_k(lam x + (1-lam) y, ...)
    estimated with shared atom indices and shared offsets; for a convex lift
    the defect is nonnegative up to paired MC noise. The floor absorbs float
    rounding of the algebraically exact cancellation for linear lifts.
    """
    margins = []
    max_rep_abs = 0.0
    for si, (x, y, Xa, Ya, lam) in enumerate(segments):
        Xa = _as_atoms(Xa)
        Ya = _as_atoms(Ya)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        mix = (lam * x + (1 - lam) * y, lam * Xa + (1 - lam) * Ya)
        vals = _coupled_values(base, k, 1.0 / k, mc_reps, seed + 211 * si,
                               [(x, Xa), (y, Ya), mix])
        delta = lam * vals[0] + (1 - lam) * vals[1] - vals[2]
        mean, se = mean_se(delta)
        margins.append(mean + 3.0 * se)
        max_rep_abs = max(max_rep_abs, float(np.abs(delta).max()))
    return ProbeReport(
        name=f"convexity-preservation[{base.name},k={k}]",
        samples=len(segments),
        statistic=float(min(margins)),
        threshold=-1e-12,
        direction="geq",
        provenance={"k": k, "mc_reps": mc_reps, "seed": seed},
        details={"max_replicate_abs_defect": max_rep_abs},
    )
