"""Euler-Maruyama integration of the n-particle common-noise system.

One Wiener increment per (path, step) drives *all* particles in that path
(common noise, no idiosyncratic noise). The lifted atom dynamics execute the
identical per-atom update, so finite and lifted trajectories agree bit for bit
under shared increments; that discrete identity is what the cost-lift checks
in `verify` lean on.

A path that leaves the ball |x| <= BLOWUP_LIMIT (or turns non-finite) ends the
integration: the integrator raises FloatingPointError at that step, naming how
many paths left and when, so every PathBundle it returns is finite.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import rng
from .measures import _as_atoms, mean_se, rnorm
from .models import ModelSpec
from .reports import write_csv

BLOWUP_LIMIT = 1.0e8


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
    increments: np.ndarray     # (P, steps, d')
    control_trace: np.ndarray  # (P, steps, n, d)

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
    return np.sqrt(cfg.dt) * z


def _integrate(model, cfg, x0, policy, increments):
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
        # Non-strict: a coefficient that overflows or leaves its domain yields
        # non-finite states, which the check below reports as a blow-up.
        with np.errstate(over="ignore", invalid="ignore"):
            m1, m2 = model.features(cur)
            m1b, m2b = m1[:, None, :], m2[:, None]
            B = model.drift_at(cur, m1b, m2b, strict=False)
            sig = model.sigma_at(cur, m1b, m2b, strict=False)
            nxt = cur + (-a + B) * cfg.dt + np.einsum("pnij,pj->pni", sig, increments[:, k])
        inside = np.abs(nxt) <= BLOWUP_LIMIT  # False on NaN and inf too
        if not inside.all():
            count = int((~inside.all(axis=(1, 2))).sum())
            raise FloatingPointError(f"{count} of {P} paths blew up at step {k + 1} of {S}")
        states[:, k + 1] = nxt
        cur = nxt
    return PathBundle(cfg.dt, states, increments, trace)


def simulate_particles(model: ModelSpec, cfg: SimConfig, x0, policy: Policy,
                       increments: np.ndarray | None = None) -> PathBundle:
    """Integrate dX_i = [-a_i + b(X_i, mu_X)] ds + sigma(X_i, mu_X) dW, shared W."""
    return _integrate(model, cfg, x0, policy, increments)


def simulate_lifted_atoms(model: ModelSpec, cfg: SimConfig, atoms, lifted_policy: Policy,
                          increments: np.ndarray | None = None) -> PathBundle:
    """Integrate the lifted SDE restricted to E_n: dX = [-a + B(X)] ds + Sigma(X) dW.

    Controls are piecewise constant on the atom partition (one d-vector per
    atom), so the update coincides with the finite system's, atom by atom.
    """
    return _integrate(model, cfg, atoms, lifted_policy, increments)


def path_statistics(bundle: PathBundle, r: float, baseline: PathBundle | None = None) -> dict:
    """Monte Carlo counterparts of the a-priori path estimates, with std errors."""
    sup_norm = rnorm(bundle.states, r).max(axis=1)
    dev = bundle.states - bundle.states[:, :1]
    sup_dev = rnorm(dev, r).max(axis=1)
    incr = bundle.increments
    out = {
        "mean_sup_rnorm": mean_se(sup_norm),
        "mean_sup_deviation": mean_se(sup_dev),
        "increment_mean": mean_se(incr.reshape(-1)),
        "increment_var_over_dt": float(incr.var(ddof=1) / bundle.dt),
        "n_paths": bundle.n_paths,
        # the integrator refuses a blown-up ensemble, so this is 0; results.csv
        # keeps the row, and perfbench's simulate-mc check reads it
        "dead_paths": 0,
    }
    if baseline is not None:
        diff = bundle.states - baseline.states
        out["mean_sup_diff"] = mean_se(rnorm(diff, r).max(axis=1))
    return out


def dump_trajectories(bundle: PathBundle, path) -> None:
    """CSV dump with columns (path, step, particle, coord, value)."""
    values = bundle.states.reshape(-1).tolist()
    rows = ([*index, repr(v)] for index, v in zip(np.ndindex(bundle.states.shape), values))
    write_csv(path, ["path", "step", "particle", "coord", "value"], rows)
