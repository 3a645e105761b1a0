"""Euler-Maruyama integration of the n-particle common-noise system.

One Wiener increment per (path, step) drives *all* particles in that path
(common noise, no idiosyncratic noise). The lifted atom dynamics execute the
identical per-atom update, so finite and lifted trajectories agree bit for bit
under shared increments; that discrete identity is what the cost-lift checks
in `verify` lean on. Each step also records the atom means of l1 and l2 at its
left endpoint, from the features it computes for b and sigma, so that the cost
quadrature only sums them.

Every full-ensemble caller integrates through `path_blocks`: blocks of
consecutive paths, each holding at most BLOCK_BYTES of states, controls and
running costs, driven by slices of the ensemble's one draw of increments.
Callers reduce each block to per-path arrays before the next is integrated, and
a trajectory dump writes each block's rows as it is reduced, so memory does not
grow with the number of paths P, and the outputs are those of one integration
of the whole ensemble. `path_sups` reads a block in tiles of a few time steps,
so its temporaries stay far below the block itself.

A path that leaves the ball |x| <= BLOWUP_LIMIT (or turns non-finite) ends the
integration: the integrator raises FloatingPointError at that step, naming how
many paths left and when (and which paths the block held, when the ensemble
has more than one), so every PathBundle it returns is finite. An l1 value
that is not finite ends it too, with the EvaluationError that names l1.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .measures import _as_atoms, mean_se, rnorm
from .models import ModelSpec
from .reports import write_csv

BLOWUP_LIMIT = 1.0e8
# states, controls and running costs that one block holds at most (one path at least)
BLOCK_BYTES = 20 * 2 ** 20
# values per path_sups tile: on a block of 100 paths, 201 steps and 64 atoms
# (9.8 MiB of states) 2^15 ran in 10.4 ms with a 0.74 MiB traced peak, 2^14 in
# 12.8 ms, 2^16 in 10.2 ms (1.47 MiB) and the whole block in 14.8 ms (29.45 MiB)
_TILE = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    t0: float
    T: float
    steps: int
    n_paths: int
    seed: int

    def __post_init__(self):
        if not self.T > self.t0:
            raise ValueError("need T > t0")
        if self.steps < 1 or self.n_paths < 1:
            raise ValueError("steps and n_paths must be >= 1")

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.steps


@dataclass
class Policy:
    """A control: fn(k, t, states (P, n, d)) -> controls (P, n, d) at step k.

    Not frozen, and the integrator looks `fn` up at every step, so a wrapper
    bound to `fn` after construction sees every call.
    """

    fn: Callable[[int, float, np.ndarray], np.ndarray]
    label: str


def zero_control() -> Policy:
    return Policy(lambda k, t, states: np.zeros_like(states), "zero")


def open_loop(schedule) -> Policy:
    """Deterministic per-step control tuples, shape (steps, n, d)."""
    schedule = np.asarray(schedule, dtype=np.float64)
    if schedule.ndim != 3:
        raise ValueError("schedule must have shape (steps, n, d)")
    if not np.all(np.isfinite(schedule)):
        raise ValueError("schedule must be finite")
    return Policy(lambda k, t, states: np.broadcast_to(schedule[k], states.shape), "open-loop")


@dataclass
class PathBundle:
    """Monte Carlo ensemble with shared (per path) Wiener increments."""

    dt: float
    states: np.ndarray         # (P, steps+1, n, d)
    control_trace: np.ndarray  # (P, steps, n, d)
    l1: np.ndarray             # (P, steps): atom mean of l1 at each left endpoint
    l2: np.ndarray             # (P, steps): atom mean of l2 of each step's controls

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


def wiener_increments(cfg: SimConfig, d_prime: int) -> np.ndarray:
    """Common-noise increments (P, steps, d'), each ~ N(0, dt I).

    Draw (p, k, j) comes from the counter (seed; p, k, block(j)), so the array
    is bit-identical however path generation is scheduled or partitioned.
    """
    paths = np.arange(cfg.n_paths, dtype=np.uint64)[:, None]
    steps = np.arange(cfg.steps, dtype=np.uint64)[None, :]
    z = rng.normals(cfg.seed, rng.TAG_WIENER, paths, steps, d_prime)
    z *= np.sqrt(cfg.dt)     # in place: the same bits as sqrt(dt) * z, no second array
    return z


def _integrate(model, cfg, x0, policy, increments, span=None):
    atoms = _as_atoms(x0)
    n, d = atoms.shape
    if d != model.d:
        raise ValueError(f"initial state dimension {d} != model dimension {model.d}")
    if increments is None:
        increments = wiener_increments(cfg, model.d_prime)
    P, S = cfg.n_paths, cfg.steps
    if increments.shape != (P, S, model.d_prime):
        raise ValueError(f"increments shape {increments.shape} does not match config")

    states = np.empty((P, S + 1, n, d))
    trace = np.empty((P, S, n, d))
    l1, l2 = np.empty((P, S)), np.empty((P, S))
    cur = np.broadcast_to(atoms, (P, n, d)).copy()
    states[:, 0] = cur
    for k in range(S):
        t = cfg.t0 + k * cfg.dt
        a = np.asarray(policy.fn(k, t, cur), dtype=np.float64)
        if a.shape != cur.shape:
            raise ValueError(f"policy returned shape {a.shape}, want {cur.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"policy produced non-finite controls at step {k}")
        trace[:, k] = a
        l2[:, k] = model.l2(trace[:, k]).mean(axis=-1)
        # Non-strict: a drift or sigma value that is not finite yields non-finite
        # states, which the check below reports as a blow-up. l1 is strict.
        with np.errstate(over="ignore", invalid="ignore"):
            m1, m2 = model.features(cur)
            m1b, m2b = m1[:, None, :], m2[:, None]
            l1[:, k] = model.l1_at(cur, m1b, m2b).mean(axis=-1)
            B = model.drift_at(cur, m1b, m2b, strict=False)
            sig = model.sigma_at(cur, m1b, m2b, strict=False)
            nxt = cur + (-a + B) * cfg.dt + np.einsum("pnij,pj->pni", sig, increments[:, k])
        inside = np.abs(nxt) <= BLOWUP_LIMIT  # False on NaN and inf too
        if not inside.all():
            count = int((~inside.all(axis=(1, 2))).sum())
            where = "" if span is None else f" (paths {span[0]}-{span[0] + P - 1} of {span[1]})"
            raise FloatingPointError(f"{count} of {P} paths{where} blew up at step {k + 1} of {S}")
        states[:, k + 1] = nxt
        cur = nxt
    return PathBundle(cfg.dt, states, trace, l1, l2)


def simulate_particles(model: ModelSpec, cfg: SimConfig, x0, policy: Policy,
                       increments: np.ndarray | None = None, *, span=None) -> PathBundle:
    """Integrate dX_i = [-a_i + b(X_i, mu_X)] ds + sigma(X_i, mu_X) dW, shared W.

    `span` = (index of the first path, ensemble size) marks the paths as one
    block of a larger ensemble; the blow-up message names them by it.
    """
    return _integrate(model, cfg, x0, policy, increments, span)


def simulate_lifted_atoms(model: ModelSpec, cfg: SimConfig, atoms, lifted_policy: Policy,
                          increments: np.ndarray | None = None, *, span=None) -> PathBundle:
    """Integrate the lifted SDE restricted to E_n: dX = [-a + B(X)] ds + Sigma(X) dW.

    Controls are piecewise constant on the atom partition (one d-vector per
    atom), so the update coincides with the finite system's, atom by atom.
    `span` is simulate_particles'.
    """
    return _integrate(model, cfg, atoms, lifted_policy, increments, span)


def path_blocks(model: ModelSpec, cfg: SimConfig, x0, policy: Policy,
                increments: np.ndarray | None = None, lifted: bool = False):
    """Integrate the ensemble of `cfg` block by block: yield one PathBundle per
    block of consecutive paths, in path order.

    A block holds at most BLOCK_BYTES of float64 states, controls and running
    costs, and one path at least. The increments are drawn once for the whole
    ensemble (or passed in) and sliced, and each path's update reads only its
    own row, so the blocks' per-path results are those of one integration of
    the whole ensemble, bit for bit. `lifted` integrates the lifted atom dynamics.

    Reduce the blocks through map(): it drops each block once reduced, whereas
    a for-loop variable keeps the last block alive while the next integrates.
    """
    n, d = _as_atoms(x0).shape
    if increments is None:
        increments = wiener_increments(cfg, model.d_prime)
    P = cfg.n_paths
    if increments.shape != (P, cfg.steps, model.d_prime):
        raise ValueError(f"increments shape {increments.shape} does not match config")
    size = max(1, BLOCK_BYTES // (((2 * cfg.steps + 1) * n * d + 2 * cfg.steps) * 8))
    integrate = simulate_lifted_atoms if lifted else simulate_particles
    for start in range(0, P, size):
        stop = min(start + size, P)
        yield integrate(model, replace(cfg, n_paths=stop - start), x0, policy,
                        increments[start:stop], span=None if size >= P else (start, P))


def path_sups(bundle: PathBundle, r: float) -> np.ndarray:
    """Per-path (sup_k |X_k|_r, sup_k |X_k - X_0|_r), shape (2, P).

    The steps are read in tiles of about _TILE values, one step at least, and
    each tile's maxima are folded into the two running ones. A (path, step) norm
    reads only that path's X_k and X_0, and a maximum does not depend on order,
    so the tiling changes no bit.
    """
    states = bundle.states
    P, K1 = states.shape[:2]
    steps = max(1, _TILE // (P * states[0, 0].size))
    sups = np.full((2, P), -np.inf)
    for start in range(0, K1, steps):
        tile = states[:, start:start + steps]
        np.maximum(sups[0], rnorm(tile, r).max(axis=1), out=sups[0])
        np.maximum(sups[1], rnorm(tile - states[:, :1], r).max(axis=1), out=sups[1])
    return sups


def path_statistics(sups: np.ndarray, increments: np.ndarray, dt: float) -> dict:
    """Monte Carlo counterparts of the a-priori path estimates, with std errors,
    from the ensemble's path_sups (blocks concatenated) and its increments."""
    sup_norm, sup_dev = sups
    return {
        "mean_sup_rnorm": mean_se(sup_norm),
        "mean_sup_deviation": mean_se(sup_dev),
        "increment_mean": mean_se(increments.reshape(-1)),
        "increment_var_over_dt": float(increments.var(ddof=1) / dt),
        "n_paths": sup_norm.size,
        # the integrator refuses a blown-up ensemble, so this is 0; results.csv
        # keeps the row, and perfbench's simulate-mc check reads it
        "dead_paths": 0,
    }


def dump_trajectories(blocks, path) -> None:
    """CSV dump with columns (path, step, particle, coord, value) of an ensemble
    given as an iterable of its path_blocks, path indices counted across the
    blocks. Each block is consumed as its rows are written, and its values are
    turned into Python floats one path at a time."""
    def rows():
        start = 0
        for bundle in blocks:
            for p, traj in enumerate(bundle.states, start):
                for index, v in zip(np.ndindex(traj.shape), traj.reshape(-1).tolist()):
                    yield [p, *index, repr(v)]
            start += bundle.n_paths
            del bundle, traj  # so that the next block integrates without this one
    write_csv(path, ["path", "step", "particle", "coord", "value"], rows())
