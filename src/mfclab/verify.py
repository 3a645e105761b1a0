"""Numerical certification of the structural identities.

The projection property is observed at atom level: equal empirical measures
force equal values, so u_{mn}(t, dup(x, m)) must match u_n(t, x) from an
*independent* grid solve. The cost lift identity is exact (bit-level) at the
discrete level because the lifted atom dynamics execute the same per-atom
update. Regularity probes report sampled constants; hard assertions are
reserved for benchmarks with derived closed forms.
"""

from __future__ import annotations

import numpy as np

from .costs import _estimate, _per_path_terms, _price, cost_finite, cost_lifted
from .hjb import MAX_AXES, GridValueFunction, sized_grid, solve_hjb, synthesize_feedback
from .measures import _as_atoms, duplicate_atoms, mean_se, rnorm
from .models import ModelSpec
from .reports import ProbeReport
from .simulate import Policy, SimConfig, path_blocks, wiener_increments


def duplication_times(t0: float, T: float) -> tuple:
    """The times the duplication probe compares its two solves at by default."""
    return t0, 0.5 * (t0 + T), T


def duplication_consistency(u_small: GridValueFunction, u_big: GridValueFunction, test_points,
                            compare_times=None, threshold: float = 2e-2) -> ProbeReport:
    """Compare two independent solves, u_n and u_{mn} with m = u_big.n / u_small.n,
    on duplicated atoms: each test point holds the n atoms of u_small."""
    n, m = u_small.n, u_big.n // u_small.n
    ends = np.array([u.times[[0, -1]] for u in (u_small, u_big)])
    if u_small.model != u_big.model or u_big.n != n * m or not np.array_equal(*ends):
        raise ValueError("solves do not fit: u_big needs u_small's model and horizon, m*n atoms")
    if not len(test_points):
        raise ValueError("duplication consistency needs at least one test point")
    t0, T = ends[0].tolist()
    times = list(duplication_times(t0, T) if compare_times is None else compare_times)
    small = np.stack([_as_atoms(x).reshape(-1) for x in test_points])
    big = np.stack([duplicate_atoms(x, m).reshape(-1) for x in test_points])
    gaps = np.array([np.abs(u_big.value_at(t, big) - u_small.value_at(t, small))
                     for t in times])                        # (times, points)
    # the gap between the two terminal slices, where U_T factors through the measure
    terminal = [all(u.slice_for_time(t) == len(u.times) - 1 for u in (u_small, u_big))
                for t in times]
    terminal_gap = max((float(g.max()) for g, last in zip(gaps, terminal) if last), default=0.0)
    return ProbeReport(
        name=f"duplication-consistency[{u_small.model.name},n={n}->{u_big.n}]",
        samples=len(test_points) * len(times),
        statistic=float(gaps.max()),
        threshold=threshold,
        provenance={"model": u_small.model.name, "base_n": n, "m": m,
                    "grid_small": u_small.grid.to_json(), "grid_big": u_big.grid.to_json()},
        details={"terminal_gap": terminal_gap, "times": times},
    )


def cost_identity_check(model: ModelSpec, cfg: SimConfig, x0, policy,
                        threshold: float = 1e-12) -> ProbeReport:
    """Discrete cost lift identity: finite and lifted costs on shared noise."""
    increments = wiener_increments(cfg, model.d_prime)
    cf = cost_finite(model, cfg, x0, policy, increments)
    cl = cost_lifted(model, cfg, x0, policy, increments)
    scale = max(abs(cf.mean), abs(cl.mean), 1.0)
    rel = abs(cf.mean - cl.mean) / scale
    return ProbeReport(
        name=f"cost-identity[{model.name}]",
        samples=cfg.n_paths,
        statistic=rel,
        threshold=threshold,
        provenance={"model": model.name, "seed": cfg.seed, "policy": policy.label},
        details={"finite_mean": cf.mean, "lifted_mean": cl.mean,
                 "bit_identical": cf.mean == cl.mean},
    )


def semiconcavity_report(value_fn, pairs, lambdas, name: str,
                         expected: float | None = None,
                         tol: float | None = None) -> ProbeReport:
    """Midpoint-defect constants of a value source on atom tuples.

    S(lam, X, Y) = lam V(X) + (1-lam) V(Y) - V(lam X + (1-lam) Y), normalized by
    lam (1-lam) ||X - Y||^2 with the E-norm |x - y|_2 on atoms. The details hold
    the sup (semiconcavity constant estimate) and inf (semiconvexity) over the
    samples. Hard-asserts |ratio - expected| <= tol when a derived constant
    exists (LQ/affine benchmarks), otherwise report-only.
    """
    sup_ratio, inf_ratio = -np.inf, np.inf
    used = 0
    for X, Y in pairs:
        Xa, Ya = _as_atoms(X), _as_atoms(Y)
        dist = rnorm(Xa - Ya, 2.0)
        if dist < 1e-8:  # coincident pair: no segment to test
            continue
        vx, vy = value_fn(Xa), value_fn(Ya)
        for lam in lambdas:
            if lam <= 0.0 or lam >= 1.0:
                continue
            vmix = value_fn(lam * Xa + (1 - lam) * Ya)
            S = lam * vx + (1 - lam) * vy - vmix
            ratio = S / (lam * (1 - lam) * dist ** 2)
            sup_ratio = max(sup_ratio, ratio)
            inf_ratio = min(inf_ratio, ratio)
            used += 1
    est = {"semiconcavity": float(sup_ratio), "semiconvexity": float(inf_ratio),
           "samples": used}
    stat = est["semiconcavity"] if expected is None else max(
        abs(est["semiconcavity"] - expected), abs(est["semiconvexity"] - expected))
    return ProbeReport(name=name, samples=used, statistic=stat,
                       threshold=None if expected is None else tol, details=est)


# Constant control offsets the feedback must beat.
_FEEDBACK_OFFSETS = (-0.2, -0.15, -0.1, -0.05, 0.05, 0.1, 0.15, 0.2)


def feedback_roundtrip(model: ModelSpec, cfg: SimConfig, x0,
                       u: GridValueFunction) -> ProbeReport:
    """Lift-project state identity plus a local optimality sweep.

    (a) the synthesized feedback, lifted to atoms and simulated through the
    lifted dynamics, reproduces the finite trajectories bit for bit (compared
    block by block);
    (b) on common noise, no constant-offset perturbation of the feedback beats
    it beyond two paired std errors.
    """
    atoms = _as_atoms(x0)
    policy = synthesize_feedback(u)
    increments = wiener_increments(cfg, model.d_prime)

    def compare(fin, lif):
        return np.max(np.abs(fin.states - lif.states)), _per_path_terms(model, fin)

    gaps, fin_terms = zip(*map(compare, path_blocks(model, cfg, atoms, policy, increments),
                               path_blocks(model, cfg, atoms, policy, increments, lifted=True)))
    state_gap = float(np.max(gaps))

    perturbed = []
    for off in _FEEDBACK_OFFSETS:
        for axis in range(model.d):
            e = np.zeros(model.d)
            e[axis] = off
            perturbed.append(Policy(lambda k, t, states, e=e: policy.fn(k, t, states) + e,
                                    f"feedback{off:+.2f}e{axis}"))

    base_totals = _estimate(fin_terms)[1]
    margins = []
    worst_delta = np.inf
    for pol in perturbed:
        mean, se = mean_se(_price(model, cfg, atoms, pol, increments)[1] - base_totals)
        margins.append(mean + 2.0 * se)
        worst_delta = min(worst_delta, mean)
    stat = min(margins) if state_gap == 0.0 else -np.inf
    return ProbeReport(
        name=f"feedback-roundtrip[{model.name}]",
        samples=len(perturbed),
        statistic=float(stat),
        threshold=0.0,
        direction="geq",
        provenance={"model": model.name, "seed": cfg.seed, "offsets": list(_FEEDBACK_OFFSETS)},
        details={"state_gap": state_gap, "worst_cost_delta": worst_delta,
                 "feedback_cost": float(base_totals.mean())},
    )


def permutation_invariance_probe(u: GridValueFunction, threshold: float = 1e-9) -> ProbeReport:
    """Max over core nodes and stored slices of |u(t,(a,b)) - u(t,(b,a))| (n=2, d=1).

    On equal axes the solver stores u_2 on the sorted cone, one value per
    orbit, so the residual is exactly 0.0 by construction and the probe
    certifies a tautology (ROADMAP item 18).
    """
    if u.n != 2 or u.d != 1:
        raise ValueError("permutation probe implemented for n=2, d=1 grids")
    core = u.core_mask()
    worst = 0.0
    for k in range(u.values.shape[0]):
        v = u.values[k]
        worst = max(worst, float(np.max(np.abs(v - v.T)[core])))
    return ProbeReport(
        name=f"permutation-invariance[{u.model.name}]",
        samples=int(core.sum()) * u.values.shape[0],
        statistic=worst,
        threshold=threshold,
        provenance={"model": u.model.name, "grid": u.grid.to_json()},
    )


def time_holder_probe(u: GridValueFunction, r: float) -> ProbeReport:
    """Ratios |u(s,x) - u(t,x)| / ((1 + |x|_r) sqrt(s-t)) over up to 5 dyadic gaps.

    Bounded-and-non-increasing is the pass condition, so two gaps of >= 4 steps
    (K/2, K/4) must fit: K >= 16. The probe needs every slice stored, so run it
    on solves below the storage cap (e.g. n=1).
    """
    if u.values.shape[0] != u.grid.time_steps + 1:
        raise ValueError("time-Holder probe needs all slices stored")
    K = u.grid.time_steps
    gaps = [K >> j for j in range(1, 6) if K >> j >= 4]  # K/2, K/4, ... rounded down
    if len(gaps) < 2:
        raise ValueError(f"time-Holder probe needs at least 16 time steps, got {K}")
    core = u.core_mask()
    weight = (1.0 + rnorm(u.grid.node_atoms(u.n, u.d), r))[core]
    ratios = []
    for g in gaps:
        worst = 0.0
        for k0 in range(0, K - g + 1, max(1, g // 2)):
            dv = np.abs(u.values[k0 + g] - u.values[k0])[core]
            worst = max(worst, float(np.max(dv / weight)) / np.sqrt(g * u.dt))
        ratios.append(worst)
    increases = max(
        (ratios[i + 1] - ratios[i] for i in range(len(ratios) - 1)), default=0.0
    )
    return ProbeReport(
        name=f"time-holder[{u.model.name}]",
        samples=len(gaps),
        statistic=float(increases),
        threshold=0.0,
        direction="leq",
        provenance={"model": u.model.name, "gaps_in_steps": gaps},
        details={"ratios": [float(x) for x in ratios], "bound": float(max(ratios))},
    )


def convergence_sweep(model: ModelSpec, atom_families: dict, grid_axis, t0: float, T: float,
                      mc_cfg: SimConfig | None = None) -> list:
    """Value sequence u_n(t0, x(n)) along measure-convergent atom families.

    atom_families maps n -> atom array (n, d). For n*d <= MAX_AXES the value
    comes from a grid solve; beyond that from the Monte Carlo cost of the
    per-atom application of the smallest-n synthesized feedback (an upper
    bound; exact for decoupled benchmarks), which needs that n to be 1. A grid
    row keeps only its t0 slice unless its feedback drives Monte Carlo rows.
    Returns rows of dicts.
    """
    mc_rows = max(atom_families) * model.d > MAX_AXES
    if mc_rows and (mc_cfg is None or min(atom_families) != 1 or model.d > MAX_AXES):
        raise ValueError("MC mode needs mc_cfg and a grid-feasible smallest n = 1, "
                         "whose feedback is applied atom by atom")
    rows = []
    prev = None
    for n in sorted(atom_families):
        atoms = _as_atoms(atom_families[n])
        nd = n * model.d
        if nd <= MAX_AXES:
            feeds_mc = mc_rows and n == min(atom_families)
            u = solve_hjb(model, n, sized_grid(model, n, [grid_axis] * nd, t0, T), t0, T,
                          read_times=None if feeds_mc else [t0])
            value = u.value_at(t0, atoms.reshape(-1))
            se = 0.0
            mode = "grid"
            if feeds_mc:
                base_feedback = synthesize_feedback(u)
        else:
            def per_atom(k, t, states, fb=base_feedback):
                P, nn, d = states.shape
                flat = states.reshape(P * nn, 1, d)
                return fb.fn(k, t, flat).reshape(P, nn, d)
            est = cost_finite(model, mc_cfg, atoms, Policy(per_atom, "per-atom-feedback"))
            value, se, mode = est.mean, est.std_error, "mc-upper-bound"
        gap = None if prev is None else value - prev
        rows.append({"n": n, "value": float(value), "std_error": float(se),
                     "mode": mode, "gap_to_previous": None if gap is None else float(gap)})
        prev = value
    return rows
