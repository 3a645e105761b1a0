"""Experiment orchestration: config parsing, dispatch, CSV/JSON artifacts.

Exit codes: 0 all hard-assert probes passed, 1 runtime failure or a failed
probe, 2 config error. The whole config, every probe spec included, is
schema-checked before any compute starts. CSV bodies are byte-stable across
reruns of the same config; timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import jsonschema
import numpy as np
import scipy

from . import __version__, verify
from .costs import _estimate
from .hjb import GridSpec, riccati_lq_value, sized_grid, solve_hjb
from .measures import _as_atoms, duplicate_atoms
from .models import REGISTRY, model_from_json
from .mollify import (
    SmoothedFunctional,
    convexity_preservation_probe,
    default_segment_family,
    default_test_family,
    functional_registry,
    lipschitz_preservation_probe,
    smooth_eval,
    uniform_convergence_probe,
)
from .reports import REPORT_HEADER, atomic_write, report_row, write_csv
from .simulate import (OpenLoopSchedule, SimConfig, ZeroControl, dump_trajectories,
                       path_statistics, simulate_particles)

# The mollify kind runs the probes it selects in this order.
MOLLIFY_PROBES = ("lipschitz-preservation", "uniform-convergence", "convexity-preservation")

_NUMBER = {"type": "number"}
_ARRAY = {"type": "array"}
_SEED = {"type": "integer", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_R = {"type": "number", "minimum": 1, "maximum": 2}
_K_LIST = {"type": "array", "minItems": 1, "items": _COUNT}
_HORIZON = {"t0": _NUMBER, "T": _NUMBER}
_SMOOTHING = {"functional": {"enum": sorted(functional_registry())}, "k_list": _K_LIST,
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

_SIM_SCHEMA = {
    "type": "object",
    "required": ["t0", "T", "steps", "n_paths"],
    "properties": {
        **_HORIZON,
        "steps": _COUNT,
        "n_paths": _COUNT,
    },
    "additionalProperties": False,
}

# one grid axis: [lo, hi, points]
_AXIS = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "prefixItems": [{"type": "number"}, {"type": "number"}, {"type": "integer"}],
}

_GRID_SCHEMA = {
    "type": "object",
    "required": ["axes"],
    "properties": {
        "axes": {"type": "array", "minItems": 1, "maxItems": 3, "items": _AXIS},
        "time_steps": _COUNT,
        "margin": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5},
    },
    "additionalProperties": False,
}


# -- probes: each runner maps (spec, config) to a list of reports ------------------


def _spec_model(spec, cfg):
    return model_from_json(spec.get("model", cfg.get("model", {"registry": "LQ-decoupled"})))


def _spec_horizon(spec):
    return spec.get("t0", 0.0), spec.get("T", 1.0)


def _probe_cost_identity(spec, cfg):
    model = _spec_model(spec, cfg)
    seed = spec.get("seed", cfg["seed"])
    sim = SimConfig(seed=seed, **spec["sim"])
    x0 = np.asarray(spec["x0"], dtype=np.float64)
    g = np.random.default_rng(seed)
    schedule = g.normal(size=(sim.steps,) + _as_atoms(x0).shape)
    return [verify.cost_identity_check(model, sim, x0, OpenLoopSchedule(schedule),
                                       threshold=spec.get("threshold", 1e-12))]


def _probe_duplication(spec, cfg):
    model = _spec_model(spec, cfg)
    horizon = _spec_horizon(spec)
    gs = _grid_from_config(spec["grid_small"], model, spec["base_n"], horizon)
    gb = _grid_from_config(spec["grid_big"], model, spec["base_n"] * spec["m"], horizon)
    pts = [np.asarray(p, dtype=np.float64) for p in spec["test_points"]]
    return [verify.duplication_consistency(
        model, spec["base_n"], spec["m"], gs, gb, horizon[0], horizon[1], pts,
        threshold=spec.get("threshold", 2e-2))]


def _probe_feedback(spec, cfg):
    model = _spec_model(spec, cfg)
    horizon = _spec_horizon(spec)
    n = spec.get("n", 1)
    grid = _grid_from_config(spec["grid"], model, n, horizon)
    u = solve_hjb(model, n, grid, horizon[0], horizon[1])
    sim = SimConfig(seed=spec.get("seed", cfg["seed"]), **spec["sim"])
    return [verify.feedback_roundtrip(model, sim, np.asarray(spec["x0"], dtype=np.float64), u)]


def _probe_permutation(spec, cfg):
    model = _spec_model(spec, cfg)
    horizon = _spec_horizon(spec)
    grid = _grid_from_config(spec["grid"], model, 2, horizon)
    u = solve_hjb(model, 2, grid, horizon[0], horizon[1])
    return [verify.permutation_invariance_probe(u, threshold=spec.get("threshold", 1e-9))]


def _probe_time_holder(spec, cfg):
    model = _spec_model(spec, cfg)
    horizon = _spec_horizon(spec)
    n = spec.get("n", 1)
    grid = _grid_from_config(spec["grid"], model, n, horizon)
    u = solve_hjb(model, n, grid, horizon[0], horizon[1],
                  max_stored_slices=grid.time_steps + 1)
    return [verify.time_holder_probe(u, spec.get("r", 1.0))]


def _smoothing(spec, cfg):
    """(base functional, MC replicates, seed) of a mollifier probe spec."""
    return (functional_registry()[spec["functional"]], spec.get("mc_reps", 4000),
            spec.get("seed", cfg["seed"]))


def _probe_lipschitz(spec, cfg):
    base, reps, seed = _smoothing(spec, cfg)
    return [lipschitz_preservation_probe(base, k, reps, seed) for k in spec["k_list"]]


def _probe_uniform(spec, cfg):
    base, reps, seed = _smoothing(spec, cfg)
    fam = default_test_family(seed=seed + 1)
    return [uniform_convergence_probe(base, spec["k_list"], fam, reps, seed)]


def _probe_convexity(spec, cfg):
    base, reps, seed = _smoothing(spec, cfg)
    segs = default_segment_family(spec.get("segments", 6), seed + 2)
    return [convexity_preservation_probe(base, spec["k_list"][0], reps, seed, segs)]


def _spec(required, **properties) -> dict:
    """Schema of a probe spec: the probe name, an optional seed, the probe's own keys."""
    return {
        "type": "object",
        "required": ["probe", *required],
        "properties": {"probe": {"type": "string"}, "seed": _SEED, **properties},
        "additionalProperties": False,
    }


# probe name -> (JSON schema of its spec, runner)
PROBES = {
    "convexity-preservation": (
        _spec(["functional", "k_list"], **_SMOOTHING, segments=_COUNT),
        _probe_convexity),
    "cost-identity": (
        _spec(["sim", "x0"], model=_MODEL_SCHEMA, sim=_SIM_SCHEMA, x0=_ARRAY, threshold=_NUMBER),
        _probe_cost_identity),
    "duplication-consistency": (
        _spec(["base_n", "m", "grid_small", "grid_big", "test_points"], **_HORIZON,
              model=_MODEL_SCHEMA, base_n=_COUNT, m=_COUNT, grid_small=_GRID_SCHEMA,
              grid_big=_GRID_SCHEMA, test_points={"type": "array", "items": _ARRAY},
              threshold=_NUMBER),
        _probe_duplication),
    "feedback-roundtrip": (
        _spec(["grid", "sim", "x0"], **_HORIZON, model=_MODEL_SCHEMA, n=_COUNT,
              grid=_GRID_SCHEMA, sim=_SIM_SCHEMA, x0=_ARRAY),
        _probe_feedback),
    "lipschitz-preservation": (
        _spec(["functional", "k_list"], **_SMOOTHING),
        _probe_lipschitz),
    "permutation-invariance": (
        _spec(["grid"], **_HORIZON, model=_MODEL_SCHEMA, grid=_GRID_SCHEMA, threshold=_NUMBER),
        _probe_permutation),
    "time-holder": (
        _spec(["grid"], **_HORIZON, model=_MODEL_SCHEMA, n=_COUNT, grid=_GRID_SCHEMA, r=_R),
        _probe_time_holder),
    "uniform-convergence": (
        _spec(["functional", "k_list"], **_SMOOTHING),
        _probe_uniform),
}

# kind -> (config keys it requires, name of its runner); the order is the schema's
# enum order. Every runner maps (config, out_dir, jobs) to (summary, reports). They
# are looked up by name when called, so a wrapper bound to the module attribute
# (perfbench/tracer.py wraps _run_verify) is the one that runs.
KINDS = {
    "simulate": (["model", "sim", "x0"], "_run_simulate"),
    "solve-hjb": (["model", "grid"], "_run_solve"),
    "verify": ([], "_run_verify"),
    "mollify": ([], "_run_mollify"),
    "sweep": (["model", "sweep"], "_run_sweep"),
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["kind", "seed"],
    "properties": {
        "kind": {"enum": list(KINDS)},
        "seed": _SEED,
        "model": _MODEL_SCHEMA,
        "sim": _SIM_SCHEMA,
        "grid": _GRID_SCHEMA,
        "horizon": {
            "type": "object",
            "required": ["t0", "T"],
            "properties": _HORIZON,
            "additionalProperties": False,
        },
        "x0": _ARRAY,
        "n": _COUNT,
        "r": _R,
        "probes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["probe"],
                "properties": {"probe": {"enum": sorted(PROBES)}},
                "allOf": [{"if": {"required": ["probe"], "properties": {"probe": {"const": name}}},
                           "then": schema}
                          for name, (schema, _) in PROBES.items()],
            },
        },
        "k_list": _K_LIST,
        "mollify": {
            "type": "object",
            "properties": {
                "functional": _SMOOTHING["functional"],
                "probes": {"type": "array", "items": {"enum": list(MOLLIFY_PROBES)}},
                "mc_reps": _COUNT,
                "segments": _COUNT,
            },
            "additionalProperties": False,
        },
        "sweep": {
            "type": "object",
            "required": ["base_atoms", "grid_axis"],
            "properties": {
                "base_atoms": _ARRAY,
                "grid_axis": _AXIS,
                "duplications": {"type": "array", "items": _COUNT},
                "sim": _SIM_SCHEMA,
            },
            "additionalProperties": False,
        },
        "out_dir": {"type": "string"},
        "dump_cadence": _COUNT,
        "dump_trajectories": {"type": "boolean"},
    },
    "additionalProperties": False,
    "allOf": [{"if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
               "then": {"required": required}}
              for kind, (required, _) in KINDS.items()],
}

class ConfigError(Exception):
    pass


# A JSON number such as 8.0 is an integer to JSON Schema, but not to range() or
# np.empty(), which would fail on it after the check has passed. The schema
# itself is checked by the tests; meta-validating it on every run would take
# far longer than validating the config.
_CONFIG_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool)),
)(CONFIG_SCHEMA)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON at byte offset {e.pos}: {e.msg}") from e
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config schema violation at {error.json_path}: {error.message}")
    _check_values(cfg)
    return cfg


# probe name -> {grid key in its spec: particle count n of the solve on that grid}
_PROBE_GRIDS = {
    "duplication-consistency": lambda s: {"grid_small": s["base_n"],
                                          "grid_big": s["base_n"] * s["m"]},
    "feedback-roundtrip": lambda s: {"grid": s.get("n", 1)},
    "permutation-invariance": lambda s: {"grid": 2},
    "time-holder": lambda s: {"grid": s.get("n", 1)},
}


def _check_values(cfg) -> None:
    """What a schema-valid config can still get wrong, named by pointer: a bad
    expression, shape or index in a model document, T <= t0, or a grid whose
    axis count is not n*d."""
    probes = [(f"$.probes[{i}]", p) for i, p in enumerate(cfg.get("probes", []))]
    models = {}
    for pointer, spec in [("$", cfg)] + probes:
        if "model" in spec:
            try:
                models[pointer] = model_from_json(spec["model"])
            except ValueError as e:
                raise ConfigError(f"bad model at {pointer}.model: {e}") from e
    horizons = [("$.horizon", cfg.get("horizon")), ("$.sim", cfg.get("sim")),
                ("$.sweep.sim", cfg.get("sweep", {}).get("sim"))]
    grids = [("$.grid", cfg["grid"], cfg.get("n", 1), "$")] if cfg["kind"] == "solve-hjb" else []
    for pointer, spec in probes:
        horizons += [(pointer, spec), (f"{pointer}.sim", spec.get("sim"))]
        counts = _PROBE_GRIDS.get(spec["probe"], lambda s: {})(spec)
        grids += [(f"{pointer}.{key}", spec[key], n, pointer) for key, n in counts.items()]
    for pointer, block in horizons:
        t0, T = _spec_horizon(block or {})  # an absent block is the default (0, 1)
        if not T > t0:
            raise ConfigError(f"bad horizon at {pointer}: need T > t0, got t0 = {t0}, T = {T}")
    for pointer, grid, n, owner in grids:
        d = models.get(owner, models.get("$", REGISTRY["LQ-decoupled"])).d
        if len(grid["axes"]) != n * d:
            raise ConfigError(f"bad grid at {pointer}: {len(grid['axes'])} axes "
                              f"but n*d = {n}*{d} = {n * d}")


def _grid_from_config(block: dict, model, n, horizon) -> GridSpec:
    return sized_grid(model, n, block["axes"], horizon[0], horizon[1],
                      time_steps=block.get("time_steps"), margin=block.get("margin", 0.25))


def _horizon(cfg) -> tuple:
    """(t0, T) of the config's horizon block; (0, 1) without one."""
    horizon = cfg.get("horizon", {"t0": 0.0, "T": 1.0})
    return horizon["t0"], horizon["T"]


def _run_simulate(cfg, out_dir, jobs):
    model = model_from_json(cfg["model"])
    sim = SimConfig(seed=cfg["seed"], **cfg["sim"])
    x0 = _as_atoms(np.asarray(cfg["x0"], dtype=np.float64))
    bundle = simulate_particles(model, sim, x0, ZeroControl())
    if bundle.any_dead:
        dead = bundle.dead_step[bundle.dead_step >= 0]
        raise FloatingPointError(f"{dead.size} of {bundle.n_paths} paths blew up; "
                                 f"the first at step {dead.min()} of {bundle.steps}")
    if cfg.get("dump_trajectories", False):
        dump_trajectories(bundle, os.path.join(out_dir, "trajectories.csv"))
    stats = path_statistics(bundle, cfg.get("r", 2.0))
    rows = [[k, repr(v[0]), repr(v[1])] if isinstance(v, tuple) else [k, repr(v), ""]
            for k, v in sorted(stats.items())]
    write_csv(os.path.join(out_dir, "results.csv"), ["statistic", "value", "std_error"], rows)
    est, _ = _estimate(model, bundle)
    summary = {"statistics": {k: list(v) if isinstance(v, tuple) else v for k, v in stats.items()},
               "zero_control_cost": {"mean": est.mean, "std_error": est.std_error}}
    return summary, []


def _run_solve(cfg, out_dir, jobs):
    model = model_from_json(cfg["model"])
    n = cfg.get("n", 1)
    horizon = _horizon(cfg)
    grid = _grid_from_config(cfg["grid"], model, n, horizon)
    u = solve_hjb(model, n, grid, horizon[0], horizon[1])
    cadence = cfg.get("dump_cadence", 1)
    rows = ([k, idx, repr(v)]
            for k, values in zip(range(0, u.values.shape[0], cadence), u.values[::cadence])
            for idx, v in enumerate(values.reshape(-1).tolist()))
    write_csv(os.path.join(out_dir, "results.csv"), ["slice", "node_index", "value"], rows)
    sidecar = {"grid": grid.to_json(), "model": model.name, "n": n,
               "t0": horizon[0], "T": horizon[1], "dump_cadence": cadence,
               "stored_times": u.times.tolist()}
    atomic_write(os.path.join(out_dir, "grid.json"),
                 json.dumps(sidecar, indent=2, sort_keys=True))
    summary = {
        "grid": grid.to_json(),
        "stored_times": u.times.tolist(),
        "value_at_origin": u.value_at(horizon[0], np.zeros(len(grid.axes))),
    }
    if "x0" in cfg:
        pt = np.asarray(cfg["x0"], dtype=np.float64).reshape(-1)
        summary["value_at_x0"] = u.value_at(horizon[0], pt)
        if model.name == "LQ-decoupled":
            summary["riccati_value_at_x0"] = riccati_lq_value(
                1.0, model.kappa, horizon[1], horizon[0], pt.reshape(n, model.d),
                rk_steps=10 * grid.time_steps)
    return summary, []


def _verify_probe(spec, cfg):
    return PROBES[spec["probe"]][1](spec, cfg)


def _run_verify(cfg, out_dir, jobs):
    probes = cfg.get("probes", [])
    if jobs > 1 and len(probes) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            per_spec = list(pool.map(lambda s: _verify_probe(s, cfg), probes))
    else:
        per_spec = [_verify_probe(s, cfg) for s in probes]
    reports = [r for rs in per_spec for r in rs]
    return {"probes": [r.to_json() for r in reports]}, reports


def _run_mollify(cfg, out_dir, jobs):
    # the mollify block, with its defaults, is the spec of every probe it selects
    spec = {"functional": "mean", **cfg.get("mollify", {}),
            "k_list": cfg.get("k_list", [4, 16, 64])}
    selected = spec.pop("probes", MOLLIFY_PROBES)
    reports = []
    for name in MOLLIFY_PROBES:
        if name in selected:
            reports += _verify_probe(dict(spec, probe=name), cfg)
    base, reps, seed = _smoothing(spec, cfg)
    sf = SmoothedFunctional(base, spec["k_list"][-1], reps, seed)
    fam = default_test_family(count=3, seed=seed + 3)
    evals = [{"point": i, "estimate": list(smooth_eval(sf, x, a))} for i, (x, a) in enumerate(fam)]
    return {"probes": [r.to_json() for r in reports], "sample_evaluations": evals}, reports


def _run_sweep(cfg, out_dir, jobs):
    block = cfg["sweep"]
    model = model_from_json(cfg["model"])
    horizon = _horizon(cfg)
    fams = {}
    for m in block.get("duplications", [1, 2]):
        arr = duplicate_atoms(block["base_atoms"], m)
        fams[arr.shape[0]] = arr
    mc_cfg = None
    if "sim" in block:
        mc_cfg = SimConfig(seed=cfg["seed"], **block["sim"])
    rows = verify.convergence_sweep(model, fams, tuple(block["grid_axis"]),
                                    horizon[0], horizon[1], mc_cfg=mc_cfg)
    csv_rows = [[r["n"], repr(r["value"]), repr(r["std_error"]), r["mode"],
                 "" if r["gap_to_previous"] is None else repr(r["gap_to_previous"])]
                for r in rows]
    write_csv(os.path.join(out_dir, "results.csv"),
              ["n", "value", "std_error", "mode", "gap_to_previous"], csv_rows)
    return {"sweep": rows}, []


def _cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = args.out or cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    try:
        summary, reports = globals()[KINDS[cfg["kind"]][1]](cfg, out_dir, args.jobs)
        if reports:
            write_csv(os.path.join(out_dir, "results.csv"), REPORT_HEADER, map(report_row, reports))
    except Exception as e:  # runtime failure contract: exit 1 with diagnostic
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    atomic_write(os.path.join(out_dir, "summary.json"),
                 json.dumps(summary, indent=2, sort_keys=True, default=float))
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
    catalog = {"models": sorted(REGISTRY), "functionals": sorted(functional_registry()),
               "probes": sorted(PROBES)}
    if args.format == "json":
        print(json.dumps(catalog, indent=2, sort_keys=True))
    else:
        for section, names in catalog.items():
            print(f"{section}:")
            for name in names:
                print(f"  {name}")
    return 0


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
    runp.add_argument("--jobs", type=int, default=1, help="concurrent probes")
    runp.add_argument("--format", choices=["csv", "json"], default="csv")
    runp.set_defaults(fn=_cmd_run)
    listp = sub.add_parser("list", help="print model and probe catalogs")
    listp.add_argument("--format", choices=["csv", "json"], default="csv")
    listp.set_defaults(fn=_cmd_list)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
