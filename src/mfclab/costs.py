"""Monte Carlo cost functionals for the finite and lifted control problems.

Left-endpoint quadrature matches the integrator's control convention, so the
discrete cost is exactly consistent with the discrete dynamics; the integrator
records the integrands at each left endpoint, and only U_T is evaluated here.
The lifted cost takes L1, L2, U_T on atom paths; since the lifted integrands
are the atom averages of the finite ones, the two costs agree bit for bit on
shared noise (discrete form of the cost lift identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .measures import mean_se
from .models import ModelSpec
from .simulate import PathBundle, Policy, SimConfig, path_blocks, wiener_increments


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
    """Per-path (running_l1, running_l2, terminal), left-endpoint quadrature of
    the integrands the integrator recorded, and U_T at the final states."""
    m1T, m2T = model.features(bundle.states[:, -1])
    term = np.asarray(model.terminal_at(m1T, m2T), dtype=np.float64)
    return bundle.dt * bundle.l1.sum(axis=1), bundle.dt * bundle.l2.sum(axis=1), term


def _estimate(block_terms) -> tuple[CostEstimate, np.ndarray]:
    """Cost estimate of an ensemble, and its per-path totals (P,), from the
    _per_path_terms of each of its blocks, in path order. A constant terminal
    cost is one 0-d value, the same in every block, and stays one."""
    c1, c2, cT = (np.concatenate(part) if np.ndim(part[0]) else part[0]
                  for part in zip(*block_terms))
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


def _price(model: ModelSpec, cfg: SimConfig, x0, policy: Policy,
           increments: np.ndarray | None = None,
           lifted: bool = False) -> tuple[CostEstimate, np.ndarray]:
    """_estimate of the ensemble that path_blocks integrates, one block at a time."""
    blocks = path_blocks(model, cfg, x0, policy, increments, lifted)
    return _estimate(list(map(_per_path_terms, repeat(model), blocks)))


def cost_finite(model: ModelSpec, cfg: SimConfig, x0, policy: Policy,
                increments: np.ndarray | None = None) -> CostEstimate:
    """J_n estimate: path average of the running-plus-terminal quadrature."""
    return _price(model, cfg, x0, policy, increments)[0]


def cost_lifted(model: ModelSpec, cfg: SimConfig, atoms, lifted_policy: Policy,
                increments: np.ndarray | None = None) -> CostEstimate:
    """J estimate on the atom representation (E_n restriction of the lifted problem)."""
    return _price(model, cfg, atoms, lifted_policy, increments, lifted=True)[0]


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
    estimates, per_path = zip(*(_price(model, cfg, x0, pol, increments) for pol in policies))
    order = tuple(int(i) for i in np.argsort([e.mean for e in estimates], kind="stable"))
    best = per_path[order[0]]
    return PolicyComparison(
        labels=tuple(p.label for p in policies),
        estimates=estimates,
        ranking=order,
        diff_vs_best=tuple(mean_se(totals - best) for totals in per_path),
    )
