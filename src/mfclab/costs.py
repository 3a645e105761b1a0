"""Monte Carlo cost functionals for the finite and lifted control problems.

Left-endpoint quadrature matches the integrator's control convention, so the
discrete cost is exactly consistent with the discrete dynamics. The lifted
cost evaluates L1, L2, U_T on atom paths; since the lifted integrands are the
atom averages of the finite ones, the two costs agree bit for bit on shared
noise (discrete form of the cost lift identity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import mean_se
from .models import ModelSpec
from .simulate import (
    PathBundle,
    Policy,
    SimConfig,
    simulate_lifted_atoms,
    simulate_particles,
    wiener_increments,
)


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    n_paths: int
    running_l1: float
    running_l2: float
    terminal: float

    def __post_init__(self):
        if self.mean != self.running_l1 + self.running_l2 + self.terminal:
            raise ValueError("mean must equal the sum of the breakdown means")


def _per_path_terms(model: ModelSpec, bundle: PathBundle):
    """Per-path (running_l1, running_l2, terminal), left-endpoint quadrature."""
    states = bundle.states          # (P, K+1, n, d)
    controls = bundle.control_trace  # (P, K, n, d)
    dt = bundle.dt
    left = states[:, :-1]
    m1, m2 = model.features(left)
    l1 = model.l1_at(left, m1[..., None, :], m2[..., None]).mean(axis=-1)  # (P, K)
    l2 = model.l2(controls).mean(axis=-1)                                  # (P, K)
    m1T, m2T = model.features(states[:, -1])
    term = np.asarray(model.terminal_at(m1T, m2T), dtype=np.float64)
    return dt * l1.sum(axis=1), dt * l2.sum(axis=1), term


def _estimate(model: ModelSpec, bundle: PathBundle) -> tuple[CostEstimate, np.ndarray]:
    """Cost estimate of an integrated ensemble, and its per-path totals (P,)."""
    c1, c2, cT = _per_path_terms(model, bundle)
    totals = c1 + c2 + cT
    _, se = mean_se(totals)
    m1, m2, mT = float(c1.mean()), float(c2.mean()), float(cT.mean())
    est = CostEstimate(
        mean=m1 + m2 + mT,
        std_error=se,
        n_paths=totals.size,
        running_l1=m1,
        running_l2=m2,
        terminal=mT,
    )
    return est, totals


def cost_finite(model: ModelSpec, cfg: SimConfig, x0, policy: Policy,
                increments: np.ndarray | None = None) -> CostEstimate:
    """J_n estimate: path average of the running-plus-terminal quadrature."""
    bundle = simulate_particles(model, cfg, x0, policy, increments)
    return _estimate(model, bundle)[0]


def cost_lifted(model: ModelSpec, cfg: SimConfig, atoms, lifted_policy: Policy,
                increments: np.ndarray | None = None) -> CostEstimate:
    """J estimate on the atom representation (E_n restriction of the lifted problem)."""
    bundle = simulate_lifted_atoms(model, cfg, atoms, lifted_policy, increments)
    return _estimate(model, bundle)[0]


@dataclass(frozen=True)
class PolicyComparison:
    labels: tuple
    estimates: tuple          # CostEstimate per policy, input order
    ranking: tuple            # indices sorted by mean cost, best first
    diff_vs_best: tuple       # (mean difference, paired SE) per policy


def policy_compare(model: ModelSpec, cfg: SimConfig, x0, policies) -> PolicyComparison:
    """Evaluate all policies on identical noise (common random numbers)."""
    if len(policies) < 2:
        raise ValueError("need at least two policies to compare")
    increments = wiener_increments(cfg, model.d_prime)
    estimates, per_path = zip(*(
        _estimate(model, simulate_particles(model, cfg, x0, pol, increments))
        for pol in policies))
    order = tuple(int(i) for i in np.argsort([e.mean for e in estimates], kind="stable"))
    best = per_path[order[0]]
    return PolicyComparison(
        labels=tuple(p.label for p in policies),
        estimates=estimates,
        ranking=order,
        diff_vs_best=tuple(mean_se(totals - best) for totals in per_path),
    )
