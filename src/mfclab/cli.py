"""Experiment orchestration: config parsing, dispatch, CSV/JSON artifacts.

Exit codes: 0 all hard-assert probes passed, 1 runtime failure or a failed
probe, 2 config error. The whole config, every probe spec included, is
schema-checked before any compute starts. CSV bodies are byte-stable across
reruns of the same config; timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import json
import math
import os
import sys
import threading
import time
from dataclasses import replace
from datetime import datetime, timezone

import jsonschema
import numpy as np

from . import __version__, verify
from .costs import _estimate, _per_path_terms
from .hjb import MAX_AXES, riccati_lq_value, sized_grid, solve_hjb
from .measures import _as_atoms, duplicate_atoms
from .models import REGISTRY, model_from_json
from .mollify import (
    FUNCTIONALS,
    convexity_preservation_probe,
    default_segment_family,
    default_test_family,
    lipschitz_preservation_probe,
    smooth_eval,
    uniform_convergence_probe,
)
from .reports import REPORT_HEADER, atomic_write, report_row, write_csv
from .simulate import (SimConfig, dump_trajectories, open_loop, path_blocks, path_statistics,
                       path_sups, wiener_increments, zero_control)

# The mollify kind runs the probes it selects in this order.
MOLLIFY_PROBES = ("lipschitz-preservation", "uniform-convergence", "convexity-preservation")


def _object(required, **properties) -> dict:
    """Schema of a JSON object that holds these keys, `required` among them, and no other."""
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": False}


_NUMBER = {"type": "number"}
# a point or a list of atoms: numbers, or lists of numbers (one per atom)
_POINT = {"type": "array", "minItems": 1,
          "items": {"anyOf": [_NUMBER, {"type": "array", "items": _NUMBER}]}}
# a seed plus a probe's fixed offsets (such as 1009 * k) stays below 2^64, the
# width of a Philox key
_SEED = {"type": "integer", "minimum": 0, "maximum": 2 ** 63 - 1}
_COUNT = {"type": "integer", "minimum": 1}
_R = {"type": "number", "minimum": 1, "maximum": 2}
_COUNTS = {"type": "array", "minItems": 1, "items": _COUNT}  # a non-empty list of counts
_HORIZON = {"t0": _NUMBER, "T": _NUMBER}
_SMOOTHING = {"functional": {"enum": sorted(FUNCTIONALS)}, "k_list": _COUNTS,
              "mc_reps": _COUNT}

_MODEL_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["registry"]},
        {"required": ["d", "d_prime", "b", "sigma", "l1", "kappa", "UT"]},
    ],
    "properties": {
        "registry": {"enum": sorted(REGISTRY)},
        "name": {"type": "string"},
        "d": _COUNT,
        "d_prime": _COUNT,
        "b": {"type": "array", "items": {"type": "string"}},
        "sigma": {"type": "array", "items": {"type": "array", "items": {"type": "string"}}},
        "l1": {"type": "string"},
        "kappa": {"type": "number", "exclusiveMinimum": 0},
        "UT": {"type": "string"},
    },
    "additionalProperties": False,
}
_SIM_SCHEMA = _object(["t0", "T", "steps", "n_paths"], **_HORIZON, steps=_COUNT, n_paths=_COUNT)
_HORIZON_SCHEMA = _object(["t0", "T"], **_HORIZON)

# one grid axis: [lo, hi, points]; lo < hi is checked with the values
_AXIS = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "prefixItems": [{"type": "number"}, {"type": "number"}, {"type": "integer", "minimum": 8}],
}
_GRID_SCHEMA = _object(["axes"], time_steps=_COUNT,
                       axes={"type": "array", "minItems": 1, "maxItems": MAX_AXES, "items": _AXIS},
                       margin={"type": "number", "minimum": 0, "exclusiveMaximum": 0.5})


# -- probes: each runner maps (spec, model, horizon, grids) to a list of reports ----
# `_plan` resolves them; grids maps a grid key to (n, sized grid) per solve.

_DEFAULT_MODEL = {"registry": "LQ-decoupled"}  # when neither spec nor config names one
_MC_REPS = 4000  # Monte Carlo replicates of a mollifier probe without `mc_reps`


def _spec_horizon(block, pointer):
    """(t0, T) of a probe spec, horizon or sim block, [0, 1] where it sets neither;
    T <= t0 is a config error at `pointer`."""
    t0, T = block.get("t0", 0.0), block.get("T", 1.0)
    if not T > t0:
        raise ConfigError(f"bad horizon at {pointer}: need T > t0, got t0 = {t0}, T = {T}")
    return t0, T


def _probe_cost_identity(spec, model, horizon, grids):
    sim = SimConfig(seed=spec["seed"], **spec["sim"])
    x0 = np.asarray(spec["x0"], dtype=np.float64)
    g = np.random.default_rng(spec["seed"])
    schedule = g.normal(size=(sim.steps,) + _as_atoms(x0).shape)
    return [verify.cost_identity_check(model, sim, x0, open_loop(schedule),
                                       threshold=spec.get("threshold", 1e-12))]


def _probe_duplication(spec, model, horizon, grids):
    # each solve keeps only the slices the probe compares: at t0, the midpoint and T
    times = verify.duplication_times(*horizon)
    u_big, u_small = (solve_hjb(model, *grids[k], *horizon, read_times=times)
                      for k in ("grid_big", "grid_small"))
    pts = [np.reshape(p, (u_small.n, model.d)) for p in spec["test_points"]]
    return [verify.duplication_consistency(u_small, u_big, pts,
                                           threshold=spec.get("threshold", 2e-2))]


def _probe_feedback(spec, model, horizon, grids):
    u = solve_hjb(model, *grids["grid"], *horizon)
    sim = SimConfig(seed=spec["seed"], **spec["sim"])
    return [verify.feedback_roundtrip(model, sim, np.reshape(spec["x0"], (u.n, model.d)), u)]


def _probe_permutation(spec, model, horizon, grids):
    u = solve_hjb(model, *grids["grid"], *horizon)
    return [verify.permutation_invariance_probe(u, threshold=spec.get("threshold", 1e-9))]


def _probe_time_holder(spec, model, horizon, grids):
    n, grid = grids["grid"]
    u = solve_hjb(model, n, grid, *horizon, max_stored_slices=grid.time_steps + 1)
    return [verify.time_holder_probe(u, spec.get("r", 1.0))]


def _probe_lipschitz(spec, model, horizon, grids):
    return lipschitz_preservation_probe(FUNCTIONALS[spec["functional"]], spec["k_list"],
                                        spec.get("mc_reps", _MC_REPS), spec["seed"])


def _probe_uniform(spec, model, horizon, grids):
    fam = default_test_family(seed=spec["seed"] + 1)
    return [uniform_convergence_probe(FUNCTIONALS[spec["functional"]], spec["k_list"],
                                      fam, spec.get("mc_reps", _MC_REPS), spec["seed"])]


def _probe_convexity(spec, model, horizon, grids):
    segs = default_segment_family(spec.get("segments", 6), spec["seed"] + 2)
    return [convexity_preservation_probe(FUNCTIONALS[spec["functional"]],
                                         spec["k_list"][0], spec.get("mc_reps", _MC_REPS),
                                         spec["seed"], segs)]


def _spec(tag, required, **properties) -> dict:
    """Closed schema of a config (tag `kind`) or a probe spec (tag `probe`): the
    tag, a seed, and the keys its runner reads; any other key is a violation."""
    return _object([tag, *required], **{tag: {"type": "string"}}, seed=_SEED, **properties)


def _tagged(key, table) -> dict:
    """Schema of an object whose `key` names the `table` entry whose schema applies."""
    return {
        "type": "object",
        "required": [key],
        "properties": {key: {"enum": list(table)}},
        "allOf": [{"if": {"required": [key], "properties": {key: {"const": name}}},
                   "then": schema}
                  for name, (schema, *_) in table.items()],
    }


# probe name -> (JSON schema of its spec, runner, solves), in alphabetical order.
# The solves map each grid key to the particle count n of the solve on that grid,
# a function of the spec.
_SOLVE_AT_N = {"grid": lambda s: s.get("n", 1)}
PROBES = {
    "convexity-preservation": (
        _spec("probe", ["functional", "k_list"], **_SMOOTHING, segments=_COUNT),
        _probe_convexity, {}),
    "cost-identity": (
        _spec("probe", ["sim", "x0"], model=_MODEL_SCHEMA, sim=_SIM_SCHEMA, x0=_POINT,
              threshold=_NUMBER),
        _probe_cost_identity, {}),
    "duplication-consistency": (
        _spec("probe", ["base_n", "m", "grid_small", "grid_big", "test_points"], **_HORIZON,
              model=_MODEL_SCHEMA, base_n=_COUNT, m=_COUNT, grid_small=_GRID_SCHEMA,
              grid_big=_GRID_SCHEMA, threshold=_NUMBER,
              test_points={"type": "array", "minItems": 1, "items": _POINT}),
        _probe_duplication,
        {"grid_small": lambda s: s["base_n"], "grid_big": lambda s: s["base_n"] * s["m"]}),
    "feedback-roundtrip": (
        _spec("probe", ["grid", "sim", "x0"], **_HORIZON, model=_MODEL_SCHEMA, n=_COUNT,
              grid=_GRID_SCHEMA, sim=_SIM_SCHEMA, x0=_POINT),
        _probe_feedback, _SOLVE_AT_N),
    "lipschitz-preservation": (
        _spec("probe", ["functional", "k_list"], **_SMOOTHING),
        _probe_lipschitz, {}),
    "permutation-invariance": (
        _spec("probe", ["grid"], **_HORIZON, model=_MODEL_SCHEMA, grid=_GRID_SCHEMA,
              threshold=_NUMBER),
        _probe_permutation, {"grid": lambda s: 2}),
    "time-holder": (
        _spec("probe", ["grid"], **_HORIZON, model=_MODEL_SCHEMA, n=_COUNT, grid=_GRID_SCHEMA,
              r=_R),
        _probe_time_holder, _SOLVE_AT_N),
    "uniform-convergence": (
        _spec("probe", ["functional", "k_list"], **_SMOOTHING),
        _probe_uniform, {}),
}


def _kind(required, **properties) -> dict:
    """Closed schema of a config: a required seed, an optional `out_dir`, its own keys."""
    return _spec("kind", ["seed", *required], out_dir={"type": "string"}, **properties)


# kind -> (JSON schema of its config, name of its runner, solves); the order is the
# schema's enum order. Every runner maps (plan, out_dir, jobs) to (summary,
# reports), plan being `_plan`'s list, the config's entry first. They are looked
# up by name when called, so a wrapper bound to the module attribute
# (perfbench/tracer.py wraps _run_verify) is the one that runs.
KINDS = {
    "simulate": (
        _kind(["model", "sim", "x0"], model=_MODEL_SCHEMA, sim=_SIM_SCHEMA, x0=_POINT, r=_R,
              dump_trajectories={"type": "boolean"}),
        "_run_simulate", {}),
    "solve-hjb": (
        _kind(["model", "grid"], model=_MODEL_SCHEMA, grid=_GRID_SCHEMA,
              horizon=_HORIZON_SCHEMA, n=_COUNT, x0=_POINT, dump_cadence=_COUNT),
        "_run_solve", _SOLVE_AT_N),
    "verify": (
        _kind([], probes={"type": "array", "items": _tagged("probe", PROBES)},
              model=_MODEL_SCHEMA),
        "_run_verify", {}),
    "mollify": (
        _kind([], k_list=_COUNTS, mollify=_object(
            [], functional=_SMOOTHING["functional"], mc_reps=_COUNT, segments=_COUNT,
            probes={"type": "array", "items": {"enum": list(MOLLIFY_PROBES)}})),
        "_run_mollify", {}),
    "sweep": (
        _kind(["model", "sweep"], model=_MODEL_SCHEMA, horizon=_HORIZON_SCHEMA, sweep=_object(
            ["base_atoms", "grid_axis"], base_atoms=_POINT, grid_axis=_AXIS,
            duplications=_COUNTS, sim=_SIM_SCHEMA)),
        "_run_sweep", {}),
}

CONFIG_SCHEMA = _tagged("kind", KINDS)


class ConfigError(Exception):
    pass


# A JSON number such as 8.0 is an integer to JSON Schema, but not to range() or
# np.empty(), which would fail on it after the check has passed. A number is
# finite: json reads NaN, Infinity and 1e400 as floats (an int of any size is
# finite; math.isfinite would overflow on it). The schema itself is checked by
# the tests; meta-validating it on every run would take far longer.
_CONFIG_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda checker, v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda checker, v: (checker.is_type(v, "integer")
                                      or isinstance(v, float) and math.isfinite(v))}),
)(CONFIG_SCHEMA)


def _load_config(path: str, seed=None) -> tuple:
    """(plan, config): the config at `path`, with `seed` (when given) in place of
    its own, checked and resolved by `_plan`."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON at byte offset {e.pos}: {e.msg}") from e
    if seed is not None and isinstance(cfg, dict):
        cfg["seed"] = seed
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config schema violation at {error.json_path}: {error.message}")
    return list(_plan(cfg)), cfg


def _plan(cfg):
    """Each spec of a schema-valid config resolved once to (spec, model, (t0, T),
    counts): the config (its `horizon` block as the horizon; the mollify kind's
    resolved `mollify` block in its place), each probe spec and each probe that
    block selects. A probe's seed defaults to the config's, a model to the
    config's and then to LQ-decoupled, a horizon to [0, 1]; counts maps each
    solve's grid key to its n (the sweep's: each n to its atoms). A config error
    names its pointer: a bad model, T <= t0, a sim window its solve does not
    cover, a grid with lo >= hi or whose axis count is not n*d, a point that is
    not n*d numbers inside each grid it is read on (lo <= x <= hi), atoms
    not in R^d, or a sweep whose Monte Carlo rows cannot run."""
    probes = [(f"$.probes[{i}]", p) for i, p in enumerate(cfg.get("probes", []))]
    top = cfg
    if cfg["kind"] == "mollify":
        # the block with its defaults, `k_list` and the seed: the spec of each probe it
        # selects and of the sample evaluations
        top = {"seed": cfg["seed"], "functional": "mean", **cfg.get("mollify", {}),
               "k_list": cfg.get("k_list", [4, 16, 64])}
        selected = top.pop("probes", MOLLIFY_PROBES)
        probes = [("$.mollify", dict(top, probe=n)) for n in MOLLIFY_PROBES if n in selected]
    specs = [("$", top, KINDS[cfg["kind"]][2], (cfg.get("horizon", {}), "$.horizon"))]
    specs += [(pointer, {"seed": cfg["seed"], **p}, PROBES[p["probe"]][2], (p, pointer))
              for pointer, p in probes]
    for pointer, spec, solves, horizon in specs:
        try:
            model = model_from_json(spec.get("model", cfg.get("model", _DEFAULT_MODEL)))
        except ValueError as e:
            raise ConfigError(f"bad model at {pointer}.model: {e}") from e
        d = model.d
        t0, T = _spec_horizon(*horizon)
        sim = _spec_horizon(spec.get("sim", {}), f"{pointer}.sim")
        # a feedback from a solve is simulated inside its horizon; a sweep's Monte
        # Carlo row stands for u_n(t0, x), so its window is the horizon
        if "sim" in spec and solves and not (t0 <= sim[0] and sim[1] <= T):
            raise ConfigError(f"bad sim window at {pointer}.sim: [{sim[0]}, {sim[1]}] "
                              f"is not inside the horizon [{t0}, {T}]")
        sweep = spec.get("sweep", {})
        if "sim" in sweep and _spec_horizon(sweep["sim"], "$.sweep.sim") != (t0, T):
            raise ConfigError(f"bad sim window at $.sweep.sim: [{sweep['sim']['t0']}, "
                              f"{sweep['sim']['T']}] is not the horizon [{t0}, {T}]")
        counts = {key: count(spec) for key, count in solves.items()}
        axes = [(f"{pointer}.{key}", axis) for key in counts for axis in spec[key]["axes"]]
        if sweep:
            axes.append(("$.sweep.grid_axis", sweep["grid_axis"]))
        for where, (lo, hi, _) in axes:
            if not lo < hi:
                raise ConfigError(f"bad grid at {where}: an axis needs lo < hi, got [{lo}, {hi}]")
        for key, n in counts.items():
            if len(spec[key]["axes"]) != n * d:
                raise ConfigError(f"bad grid at {pointer}.{key}: {len(spec[key]['axes'])} axes "
                                  f"but n*d = {n}*{d} = {n * d}")
        # a solve's point is its n*d coordinates; an x0 without a grid solve and the
        # sweep's base atoms are atoms in R^d, n = None
        points = [(f"test_points[{j}]", point, counts["grid_small"])
                  for j, point in enumerate(spec.get("test_points", []))]
        if "x0" in spec:
            points.append(("x0", spec["x0"], counts.get("grid")))
        if sweep:
            points.append(("sweep.base_atoms", sweep["base_atoms"], None))
        for key, point, n in points:
            # the schema lets each item be a number or a list of numbers
            if len({len(a) if isinstance(a, list) else None for a in point}) > 1:
                raise ConfigError(f"bad point at {pointer}.{key}: a point is a list of numbers "
                                  f"or a list of atoms of equal length")
            arr = np.asarray(point, dtype=np.float64)
            atom_d = None if n else _as_atoms(arr).shape[1]
            if n and arr.size != n * d:
                raise ConfigError(f"bad point at {pointer}.{key}: {arr.size} numbers but n*d = "
                                  f"{n}*{d} = {n * d}")
            if atom_d is not None and atom_d != d:
                raise ConfigError(f"bad point at {pointer}.{key}: atoms in R^{atom_d} but the "
                                  f"model's d = {d}")
            # a solve's point, duplicated to the n of each grid of its spec, lies in
            # that grid; the sweep's atoms lie on its one axis
            grids = ([(f"{pointer}.{k}", spec[k]["axes"], c // n) for k, c in counts.items()]
                     if n else [("$.sweep.grid_axis", [sweep["grid_axis"]], 1)] if sweep else [])
            for grid, grid_axes, m in grids:
                x = duplicate_atoms(arr.reshape(-1, d), m).reshape(-1)
                lo, hi, _ = np.broadcast_arrays(*np.array(grid_axes)[:, :2].T, x)
                for i in np.flatnonzero((x < lo) | (x > hi))[:1]:
                    raise ConfigError(f"bad point at {pointer}.{key}: coordinate {i}, {x[i]}, "
                                      f"is outside [{lo[i]}, {hi[i]}] of {grid}")
        # a sweep row past MAX_AXES is priced by Monte Carlo, under `sim`, with the
        # feedback of the smallest n's grid solve applied atom by atom, so n = 1
        fams = {len(a): a for a in (duplicate_atoms(sweep["base_atoms"], m)
                                    for m in sweep.get("duplications", [1, 2]))} if sweep else {}
        if fams and min(fams) * d > MAX_AXES:
            raise ConfigError(f"bad sweep at $.sweep.duplications: the smallest n*d = "
                              f"{min(fams) * d} > {MAX_AXES} has no grid solve")
        if fams and max(fams) * d > MAX_AXES and "sim" not in sweep:
            raise ConfigError(f"bad sweep at $.sweep: n*d = {max(fams) * d} > {MAX_AXES} needs "
                              f"`sim` for its Monte Carlo rows")
        if fams and max(fams) * d > MAX_AXES and min(fams) > 1:
            raise ConfigError(f"bad sweep at $.sweep: its Monte Carlo rows apply the smallest "
                              f"family's feedback atom by atom, which needs n = 1, not {min(fams)}")
        yield spec, model, (t0, T), fams or counts


def _sized_grids(spec, counts, model, horizon) -> dict:
    """{grid key: (n, grid)} for each solve of a resolved spec, each grid sized once."""
    t0, T = horizon
    return {key: (n, sized_grid(model, n, t0=t0, T=T, **spec[key])) for key, n in counts.items()}


def _run_simulate(plan, out_dir, jobs):
    [(cfg, model, _, _)] = plan
    sim = SimConfig(seed=cfg["seed"], **cfg["sim"])
    x0 = _as_atoms(np.asarray(cfg["x0"], dtype=np.float64))
    r, dump = cfg.get("r", 2.0), cfg.get("dump_trajectories", False)
    increments = wiener_increments(sim, model.d_prime)
    reduced = []

    def reduce_block(bundle):
        reduced.append((path_sups(bundle, r), _per_path_terms(model, bundle)))
        return bundle

    blocks = map(reduce_block, path_blocks(model, sim, x0, zero_control(), increments))
    if dump:  # each block's rows are written once it is reduced
        dump_trajectories(blocks, os.path.join(out_dir, "trajectories.csv"))
    else:  # drops each block once reduced
        collections.deque(blocks, maxlen=0)
    sups, terms = zip(*reduced)
    stats = path_statistics(np.concatenate(sups, axis=1), increments, sim.dt)
    est, _ = _estimate(terms)
    rows = [[k, repr(v[0]), repr(v[1])] if isinstance(v, tuple) else [k, repr(v), ""]
            for k, v in sorted(stats.items())]
    write_csv(os.path.join(out_dir, "results.csv"), ["statistic", "value", "std_error"], rows)
    summary = {"statistics": {k: list(v) if isinstance(v, tuple) else v for k, v in stats.items()},
               "zero_control_cost": {"mean": est.mean, "std_error": est.std_error}}
    return summary, []


def _value_dump(u, cadence):
    """results.csv of a solve as text, one chunk per dumped slice: the bytes of
    csv.writer's rows [slice, node_index, repr(value)], none of which needs quoting."""
    yield "slice,node_index,value\r\n"
    tails = [f",{idx}," for idx in range(u.values[0].size)]
    for k in range(0, u.values.shape[0], cadence):
        reprs = map(repr, u.values[k].reshape(-1).tolist())
        yield f"{k}" + f"\r\n{k}".join(map(str.__add__, tails, reprs)) + "\r\n"


def _run_solve(plan, out_dir, jobs):
    [(cfg, model, horizon, counts)] = plan
    [(n, grid)] = _sized_grids(cfg, counts, model, horizon).values()
    u = solve_hjb(model, n, grid, *horizon)
    cadence = cfg.get("dump_cadence", 1)
    atomic_write(os.path.join(out_dir, "results.csv"), _value_dump(u, cadence), newline="")
    sidecar = {"grid": grid.to_json(), "model": model.name, "n": n,
               "t0": horizon[0], "T": horizon[1], "dump_cadence": cadence,
               "stored_times": u.times.tolist()}
    atomic_write(os.path.join(out_dir, "grid.json"),
                 json.dumps(sidecar, indent=2, sort_keys=True))
    summary = {key: sidecar[key] for key in ("grid", "stored_times")}
    if all(lo <= 0 <= hi for lo, hi, _ in grid.axes):  # a lookup off the grid is clamped
        summary["value_at_origin"] = u.value_at(horizon[0], np.zeros(len(grid.axes)))
    if "x0" in cfg:
        pt = np.asarray(cfg["x0"], dtype=np.float64).reshape(-1)
        summary["value_at_x0"] = u.value_at(horizon[0], pt)
        lq = REGISTRY["LQ-decoupled"]
        if replace(model, name=lq.name) == lq:  # the oracle's coefficients, not its name
            summary["riccati_value_at_x0"] = riccati_lq_value(
                1.0, model.kappa, horizon[1], horizon[0], pt.reshape(n, model.d),
                rk_steps=10 * grid.time_steps)
    return summary, []


def _verify_probe(spec, model, horizon, counts):
    """Run one probe spec resolved by `_plan`, its grids sized here."""
    return PROBES[spec["probe"]][1](spec, model, horizon,
                                    _sized_grids(spec, counts, model, horizon))


def _exit_with_parent(parent):
    """Initializer of a pool worker: a daemon thread ends the worker once `parent`
    is no longer its parent, so that no worker outlives a killed run."""
    def watch():
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _run_verify(plan, out_dir, jobs):
    probes = plan[1:]
    if jobs > 1 and len(probes) > 1:
        # one forked worker per concurrent probe (POSIX), so that the probes do
        # not share a GIL. fork, not spawn: no other Python thread runs here when
        # the pool forks (it starts its own after its workers), and a spawned
        # worker would import numpy, scipy and mfclab again. Imported here, so
        # that a serial run does not pay for it.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor
        with ProcessPoolExecutor(min(jobs, len(probes)),
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_exit_with_parent, initargs=(os.getpid(),)) as pool:
            per_spec = list(pool.map(_verify_probe, *zip(*probes)))
    else:  # in this process: a single probe or --jobs 1 forks nothing
        per_spec = [_verify_probe(*entry) for entry in probes]
    reports = [r for rs in per_spec for r in rs]
    return {"probes": [r.to_json() for r in reports]}, reports


def _run_mollify(plan, out_dir, jobs):
    summary, reports = _run_verify(plan, out_dir, jobs)
    spec = plan[0][0]
    fam = default_test_family(count=3, seed=spec["seed"] + 3)
    estimates = smooth_eval(FUNCTIONALS[spec["functional"]], spec["k_list"][-1],
                            spec.get("mc_reps", _MC_REPS), spec["seed"], fam)
    summary["sample_evaluations"] = [{"point": i, "estimate": list(est)}
                                     for i, est in enumerate(estimates)]
    return summary, reports


def _run_sweep(plan, out_dir, jobs):
    [(cfg, model, horizon, families)] = plan
    block = cfg["sweep"]
    mc_cfg = SimConfig(seed=cfg["seed"], **block["sim"]) if "sim" in block else None
    rows = verify.convergence_sweep(model, families, tuple(block["grid_axis"]), *horizon,
                                    mc_cfg=mc_cfg)
    csv_rows = [[r["n"], repr(r["value"]), repr(r["std_error"]), r["mode"],
                 "" if r["gap_to_previous"] is None else repr(r["gap_to_previous"])]
                for r in rows]
    write_csv(os.path.join(out_dir, "results.csv"),
              ["n", "value", "std_error", "mode", "gap_to_previous"], csv_rows)
    return {"sweep": rows}, []


def _cmd_run(args) -> int:
    try:
        plan, cfg = _load_config(args.config, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.get("out_dir", ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
        summary, reports = globals()[KINDS[cfg["kind"]][1]](plan, out_dir, args.jobs)
        if "probes" in summary:  # a probe kind's table, header only when it ran none
            write_csv(os.path.join(out_dir, "results.csv"), REPORT_HEADER, map(report_row, reports))
        atomic_write(os.path.join(out_dir, "summary.json"),
                     json.dumps(summary, indent=2, sort_keys=True, default=float))
        import scipy    # for the manifest alone, so `mfclab list` never loads it
        manifest = {
            "config_sha256": hashlib.sha256(
                json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
            "seed": cfg["seed"],
            "versions": {"mfclab": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__,
                         "python": ".".join(map(str, sys.version_info[:3]))},
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        atomic_write(os.path.join(out_dir, "manifest.json"),
                     json.dumps(manifest, indent=2, sort_keys=True))
    except Exception as e:  # runtime failure contract: exit 1 with diagnostic
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if reports:
        if args.format == "json":
            print(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True))
        else:
            csv.writer(sys.stdout, lineterminator="\n").writerows(map(report_row, reports))
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print(f"failed probes: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_list(args) -> int:
    catalog = {"models": sorted(REGISTRY), "functionals": sorted(FUNCTIONALS),
               "probes": sorted(PROBES)}
    if args.format == "json":
        print(json.dumps(catalog, indent=2, sort_keys=True))
    else:
        for section, names in catalog.items():
            print(f"{section}:")
            for name in names:
                print(f"  {name}")
    return 0


def _count_arg(text) -> int:
    """argparse type of a count: an integer >= 1; anything else is a usage error."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfclab",
        description="mean-field control numerics: simulate, solve, verify, mollify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("--config", required=True, help="JSON experiment config")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="override config seed")
    runp.add_argument("--jobs", type=_count_arg, default=1,
                      help="probes run at once, each in a forked worker process (>= 1)")
    runp.add_argument("--format", choices=["csv", "json"], default="csv")
    runp.set_defaults(fn=_cmd_run)
    listp = sub.add_parser("list", help="print model and probe catalogs")
    listp.add_argument("--format", choices=["csv", "json"], default="csv")
    listp.set_defaults(fn=_cmd_list)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
