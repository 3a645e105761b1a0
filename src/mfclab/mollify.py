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
so the pair (X_i, Y_i) is a copy of the random vector (X, Y). The Lipschitz
probe prices every k of its k_list on one draw per pair: level k reads a prefix
of the largest k's atom indices and bump offsets, which are the draws a probe
at k alone makes.
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
# (slot, round) pairs a call draws ahead once fewer slots pend: 2^8 to 2^14 ran
# full mollify-m2 within noise of each other, and 2^12 draws 8.62 M Philox
# counters in it against 9.19 M at 2^13 and 10.0 M at 2^14
_BATCH = 1 << 12
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

    Round r of a slot is the two uniforms (radius, accept) of counter block
    2r + 1 and the d direction normals of block 2r, keyed by (seed, slot), so
    each draw is a pure function of its counter, whenever and with whatever
    else it is drawn. A pass draws the uniforms of every pending slot: one
    round while _BATCH or more slots pend, else about _BATCH / pending rounds
    ahead. Each slot keeps its first accepted round; rounds drawn after it are
    never read. Only then, with the uniforms freed, are normals drawn, for the
    accepted (slot, round) pairs alone: a rejected proposal's direction is
    never used. The radius, accept and direction arithmetic are the
    round-by-round sampler's elementwise operations on operands of the same
    layout, so every draw is bit for bit the one it makes. The proposal count
    is the sum over slots of (first accepted round + 1), which is the
    round-by-round count.
    """
    slots = np.asarray(slots, dtype=np.uint64)
    flat = slots.reshape(-1)
    out = np.empty((flat.size, d))
    proposals = 0
    pending = np.arange(flat.size)     # slots not yet accepted, ascending
    rnd = 0
    while pending.size and rnd < _MAX_REJECTION_ROUNDS:
        count = min(max(1, _BATCH // pending.size), _MAX_REJECTION_ROUNDS - rnd)
        rounds = np.arange(rnd, rnd + count, dtype=np.uint64)
        idx = flat[pending]
        u = rng.uniforms(seed, rng.TAG_MOLLIFY_OFFSET, idx[:, None],
                         np.uint64(2) * rounds + np.uint64(1), 2)      # (pending, count, 2)
        radius = u[..., 0] ** (1.0 / d)
        accept = u[..., 1] < np.exp(1.0 / (radius ** 2 - 1.0) + 1.0)
        del u
        slot = np.flatnonzero(accept.any(axis=1))     # pending slots with an acceptance
        first = accept[slot].argmax(axis=1)           # each one's first accepted round
        del accept
        radius = radius[slot, first]
        proposals += int(first.sum()) + slot.size + count * (pending.size - slot.size)
        z = rng.normals(seed, rng.TAG_MOLLIFY_OFFSET, idx[slot],
                        np.uint64(2) * rounds[first], d)
        norm = np.sqrt((z ** 2).sum(axis=-1, keepdims=True))
        out[pending[slot]] = z / norm * radius[:, None]
        pending = np.delete(pending, slot)
        rnd += count
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


def _coupled_values(base: BaseFunctional, levels, mc_reps: int, seed: int,
                    queries) -> np.ndarray:
    """Per-replicate smoothed values for several (x, atoms) queries sharing draws,
    at each (n_samples, eps) level of `levels`.

    Replicate r of a level with n_samples N uses the atom indices of counters
    (r, j), j < N, and the bump offsets of slots r*(N+1) + j, j <= N, scaled by
    eps; all queries reuse them (common random numbers), so they must share one
    atom shape (n_atoms, d). Returns (len(levels), len(queries), mc_reps).
    Each level's draws are a prefix of the largest level's, so every index and
    bump slot is drawn once for all levels: replicates are priced in chunks of
    about _CHUNK slots of the largest level (one replicate at least), and a
    chunk reads the slots that earlier chunks drew and no later chunk reads
    again. A value depends on neither the chunking nor the other levels. The
    draws held at once are 8*d B per slot and 8 B per index: one chunk for a
    single level, and at most mc_reps*(N_max - N_min) slots more for several.
    In d = 1 with k up to 64 that is about 1 MB at 1,000 replicates and 4 MB at
    4,000.
    """
    shapes = {np.shape(atoms) for _, atoms in queries}
    if len(shapes) != 1:
        raise ValueError(f"coupled queries must share one atom shape, got {sorted(shapes)}")
    (n_atoms, d), = shapes
    queries = [(np.asarray(x, dtype=np.float64), np.asarray(atoms, dtype=np.float64))
               for x, atoms in queries]
    top = max(n for n, _ in levels)
    low = min(n for n, _ in levels)
    out = np.empty((len(levels), len(queries), mc_reps))
    held, first = np.empty((0, d)), 0          # bump draws of slots first, first + 1, ...
    per_chunk = max(1, _CHUNK // (top + 1))
    for start in range(0, mc_reps, per_chunk):
        stop = min(start + per_chunk, mc_reps)
        reps = np.arange(start, stop, dtype=np.uint64)[:, None]
        u_idx = rng.uniforms(seed, rng.TAG_MOLLIFY_INDEX, reps,
                             np.arange(top, dtype=np.uint64)[None, :], 1)[..., 0]
        idx = np.minimum((u_idx * n_atoms).astype(np.int64), n_atoms - 1)  # (reps, top)
        slots = np.arange(first + len(held), stop * (top + 1), dtype=np.uint64)
        held = np.concatenate([held, _bump_unit_draws(seed, slots, d)[0]])
        for li, (n, eps) in enumerate(levels):
            offsets = eps * held[start * (n + 1) - first:stop * (n + 1) - first].reshape(
                stop - start, n + 1, d)                                     # (reps, N+1, d)
            for qi, (x, atoms) in enumerate(queries):
                sampled = atoms[idx[:, :n]] - offsets[:, 1:, :]             # (reps, N, d)
                out[li, qi, start:stop] = base.evaluate_batch(x - offsets[:, 0, :], sampled)
        held, first = held[stop * (low + 1) - first:], stop * (low + 1)
    return out


def smooth_eval_general(base: BaseFunctional, n_samples: int, epsilon: float,
                        mc_reps: int, seed: int, x, mu):
    """Low-level entry with the sample count and mollifier width decoupled."""
    vals = _coupled_values(base, [(n_samples, epsilon)], mc_reps, seed,
                           [(np.asarray(x, dtype=np.float64), _as_atoms(mu))])
    return mean_se(vals[0, 0])


def smooth_eval(base: BaseFunctional, k: int, mc_reps: int, seed: int, queries) -> list:
    """Monte Carlo estimates of phi_k at (x, mu) queries sharing one atom shape,
    all priced on one draw; returns one (mean, std_error) per query."""
    if k < 1 or mc_reps < 1:
        raise ValueError("need k >= 1 and mc_reps >= 1")
    vals = _coupled_values(base, [(k, 1.0 / k)], mc_reps, seed,
                           [(np.asarray(x, dtype=np.float64), _as_atoms(mu)) for x, mu in queries])
    return [mean_se(v) for v in vals[0]]


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


def lipschitz_preservation_probe(base: BaseFunctional, k_list, mc_reps: int, seed: int,
                                 pair_count: int = 24) -> list:
    """Checks |phi_k(x,mu) - phi_k(y,nu)| <= L (|x-y| + d_r) up to CRN noise at each
    k of k_list; one report per k, in k_list's order. Every k of a pair is priced
    on one draw (seed + pair index), each k reading its prefix of it."""
    quotients = [[] for _ in k_list]
    stats = [-np.inf] * len(k_list)
    skipped = 0
    for pi, ((x, a), (y, b)) in enumerate(_probe_pairs(pair_count)):
        denom = float(np.linalg.norm(x - y)) + wasserstein_r(a, b, base.lipschitz_r)
        if denom < 1e-8:
            skipped += 1
            continue
        vals = _coupled_values(base, [(k, 1.0 / k) for k in k_list], mc_reps, seed + pi,
                               [(x, a), (y, b)])
        for ki, v in enumerate(vals):
            diff_mean, diff_se = mean_se(v[0] - v[1])
            quotients[ki].append(abs(diff_mean) / denom)
            stats[ki] = max(stats[ki], (abs(diff_mean) - 3.0 * diff_se) / denom)
    return [ProbeReport(
        name=f"lipschitz-preservation[{base.name},k={k}]",
        samples=pair_count - skipped,
        statistic=float(stat),
        threshold=base.lipschitz_L,
        direction="leq",
        provenance={"k": k, "mc_reps": mc_reps, "seed": seed, "pair_seed": _PAIR_SEED},
        details={"max_quotient": float(max(q)), "skipped": skipped,
                 "declared_L": base.lipschitz_L},
    ) for k, q, stat in zip(k_list, quotients, stats)]


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
        vals = _coupled_values(base, [(k, 1.0 / k)], mc_reps, seed + 1009 * ki, test_family)[0]
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
        vals = _coupled_values(base, [(k, 1.0 / k)], mc_reps, seed + 211 * si,
                               [(x, Xa), (y, Ya), mix])[0]
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
