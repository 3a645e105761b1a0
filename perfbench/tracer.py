"""Traced `mfclab` invocation: spans at every layer boundary, plus layer metrics.

Run as a program, it imports mfclab, wraps the layer functions listed in
LAYERS (rebinding every `from .x import y` copy as well), runs the CLI with
the remaining arguments and writes the spans as JSON when the CLI returns:

    PYTHONPATH=src python perfbench/tracer.py --spans spans.json --run-id 0 -- \
        run --config cfg.json --out out/

Nothing under src/ is modified. A span is (id, parent, layer, name, start,
end, run, thread, counts); spans opened in a worker thread with no open span
of their own take the innermost open span of the main thread as parent.
Counts are computed from argument and result shapes at the boundary, so they
repeat exactly. `layer_metrics` turns one invocation's spans into the
per-layer figures; it needs neither mfclab nor numpy.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time

# layer -> functions (or Class.method) whose calls become spans: the public
# functions, plus the private ones a per-layer count or time is read from
LAYERS = {
    "cli": ("main", "_run_verify", "_verify_probe"),
    "hjb": ("solve_hjb", "required_time_steps", "riccati_lq_value", "synthesize_feedback",
            "grid_gradient"),
    "simulate": ("simulate_particles", "simulate_lifted_atoms", "wiener_increments",
                 "path_statistics", "dump_trajectories"),
    "costs": ("cost_finite", "cost_lifted", "policy_compare", "_per_path_terms"),
    "expressions": ("evaluate", "parse_coefficient"),
    "models": ("model_from_json", "_lifted_batch", "ModelSpec.features", "ModelSpec.drift_at",
               "ModelSpec.sigma_at", "ModelSpec.l1_at", "ModelSpec.terminal_at"),
    "rng": ("normals", "uniforms", "pair_normals", "pair_uniforms"),
    "mollify": ("lipschitz_preservation_probe", "uniform_convergence_probe",
                "convexity_preservation_probe", "smooth_eval", "smooth_eval_general",
                "sample_bump", "_bump_unit_draws", "default_test_family", "bump_constants"),
    "measures": ("wasserstein_r", "brute_force_wasserstein", "duplicate_atoms"),
    "verify": ("duplication_consistency", "cost_identity_check", "feedback_roundtrip",
               "permutation_invariance_probe", "time_holder_probe", "semiconcavity_report",
               "convergence_sweep"),
}

VERIFY_PROBES = ("cost-identity", "duplication-consistency", "feedback-roundtrip")


# -- counts taken at the boundary -------------------------------------------------


def _size(*arrays) -> int:
    import numpy as np
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _tree_nodes(e) -> int:
    from mfclab import expressions as ex
    if isinstance(e, ex.BinOp):
        return 1 + _tree_nodes(e.left) + _tree_nodes(e.right)
    if isinstance(e, (ex.Neg, ex.Call)):
        return 1 + _tree_nodes(e.arg)
    return 1


_NODE_COUNTS: dict = {}


def _count_evaluate(args, out):
    import numpy as np
    e = args["e"]
    if id(e) not in _NODE_COUNTS:
        _NODE_COUNTS[id(e)] = (e, _tree_nodes(e))       # keep e alive: ids stay unique
    return {"evals": 1, "node_elements": _NODE_COUNTS[id(e)][1] * int(np.size(out))}


def _count_solve(args, out):
    grid = args["grid"]
    return {f"node_steps_nd{len(grid.axes)}": math.prod(grid.shape()) * grid.time_steps,
            "stored_bytes": int(out.values.nbytes)}


def _count_integration(args, out):
    P, K1, n, _ = out.states.shape
    return {"integrations": 1, "particle_steps": P * (K1 - 1) * n,
            "state_bytes": int(out.states.nbytes + out.control_trace.nbytes)}


def _count_quadrature(args, out):
    P, K1, n, _ = args["bundle"].states.shape
    return {"quadrature_particle_steps": P * (K1 - 1) * n}


def _count_blocks(args, out):
    # normals/uniforms: one Philox block per pair of values per index pair
    return {"counters": _size(args["i0"], args["i1"]) * ((args["count"] + 1) // 2)}


def _count_bump(args, out):
    import numpy as np
    return {"bump_accepts": int(np.size(args["slots"])), "bump_proposals": int(out[1])}


COUNTERS = {
    "expressions.evaluate": _count_evaluate,
    "hjb.solve_hjb": _count_solve,
    "simulate.simulate_particles": _count_integration,
    "simulate.simulate_lifted_atoms": _count_integration,
    "costs._per_path_terms": _count_quadrature,
    "rng.normals": _count_blocks,
    "rng.uniforms": _count_blocks,
    "rng.pair_normals": lambda a, out: {"counters": _size(a["i0"], a["i1"], a["i2"])},
    "rng.pair_uniforms": lambda a, out: {"counters": _size(a["i0"], a["i1"], a["i2"])},
    "mollify._bump_unit_draws": _count_bump,
    "measures.wasserstein_r": lambda a, out: {"wasserstein_calls": 1},
    "cli._verify_probe": lambda a, out: {"probe": a["spec"]["probe"]},
    "hjb.feedback_query": lambda a, out: {"queries": int(a["states"].shape[0])},
}


# -- recording ------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; spans are written out once the run ends."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._threads: dict = {}

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        counter = COUNTERS.get(key)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self._record(sid, parent, layer, name, start, end, {"raised": 1})
                raise
            end = time.perf_counter()
            stack.pop()
            counts = {}
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, out)
            if key == "hjb.synthesize_feedback":
                out.fn = self.wrap("hjb", "feedback_query", out.fn)
            self._record(sid, parent, layer, name, start, end, counts)
            return out

        return traced

    def _record(self, sid, parent, layer, name, start, end, counts):
        thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
        self.spans.append({"id": sid, "parent": parent, "layer": layer, "name": name,
                           "start": start, "end": end, "run": self.run_id,
                           "thread": thread, "counts": counts})


def install(tracer: Tracer) -> list:
    """Wrap every function in LAYERS and rebind all copies; returns missing names."""
    import importlib
    import pkgutil

    import mfclab

    for info in pkgutil.iter_modules(mfclab.__path__):
        importlib.import_module(f"mfclab.{info.name}")
    replaced = {}
    missing = []
    for layer, names in LAYERS.items():
        module = sys.modules[f"mfclab.{layer}"]
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                missing.append(f"{layer}.{name}")
                continue
            wrapped = tracer.wrap(layer, name, fn)
            setattr(owner, attr, wrapped)
            replaced[id(fn)] = (fn, wrapped)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "mfclab" or mod_name.startswith("mfclab."):
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])
    return missing


# -- metrics from spans -----------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([k for k in kids if k[1] > k[0]])
    return out


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced invocation (0 where a layer did no such work)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def dur(s):
        return s["end"] - s["start"]

    def named(layer, *names):
        return [s for s in spans if s["layer"] == layer and (not names or s["name"] in names)]

    def count(key, pool=spans):
        return sum(s["counts"].get(key, 0) for s in pool)

    m = {f"{layer}.self_s": sum(selfs[s["id"]] for s in named(layer)) for layer in LAYERS}
    roots = [s for s in spans if s["parent"] is None]
    m["trace.root_s"] = sum(dur(s) for s in roots)

    solves = named("hjb", "solve_hjb")
    for nd in (1, 2, 3):
        key = f"node_steps_nd{nd}"
        mine = [s for s in solves if key in s["counts"]]
        m[f"hjb.ns_per_node_step.nd{nd}"] = _ratio(sum(map(dur, mine)), count(key, mine), 1e9)
    m["hjb.node_steps"] = sum(count(f"node_steps_nd{nd}", solves) for nd in (1, 2, 3))
    m["hjb.stored_bytes"] = count("stored_bytes", solves)
    m["hjb.riccati_s"] = sum(map(dur, named("hjb", "riccati_lq_value")))
    queries = named("hjb", "feedback_query")
    m["hjb.feedback_ns_per_query"] = _ratio(sum(map(dur, queries)), count("queries", queries), 1e9)

    integrations = named("simulate", "simulate_particles", "simulate_lifted_atoms")
    m["simulate.integrations"] = count("integrations", integrations)
    m["simulate.particle_steps"] = count("particle_steps", integrations)
    m["simulate.ns_per_particle_step"] = _ratio(sum(map(dur, integrations)),
                                                m["simulate.particle_steps"], 1e9)
    m["simulate.state_bytes"] = count("state_bytes", integrations)
    m["simulate.path_stats_s"] = sum(map(dur, named("simulate", "path_statistics")))

    m["costs.ns_per_particle_step"] = _ratio(m["costs.self_s"],
                                             count("quadrature_particle_steps"), 1e9)

    evals = named("expressions", "evaluate")
    m["expressions.evals"] = count("evals", evals)
    m["expressions.ns_per_node"] = _ratio(sum(map(dur, evals)), count("node_elements", evals), 1e9)

    outer_rng = [s for s in named("rng")
                 if s["parent"] is None or by_id[s["parent"]]["layer"] != "rng"]
    m["rng.counters"] = count("counters", outer_rng)
    m["rng.ns_per_counter"] = _ratio(sum(map(dur, outer_rng)), m["rng.counters"], 1e9)

    m["mollify.bump_proposals"] = count("bump_proposals")
    m["mollify.bump_accepts"] = count("bump_accepts")
    m["mollify.bump_accept_ratio"] = _ratio(m["mollify.bump_accepts"], m["mollify.bump_proposals"])

    wass = named("measures", "wasserstein_r")
    m["measures.wasserstein_calls"] = count("wasserstein_calls", wass)
    m["measures.wasserstein_s"] = sum(map(dur, wass))

    probes = named("cli", "_verify_probe")
    for p in VERIFY_PROBES:
        m[f"verify.probe_s.{p}"] = sum(dur(s) for s in probes if s["counts"].get("probe") == p)
    run_verify = sum(map(dur, named("cli", "_run_verify")))
    m["verify.jobs_overlap"] = _ratio(sum(map(dur, probes)), run_verify)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for mfclab's CLI, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.run_id)
    missing = install(tracer)
    from mfclab import cli
    try:
        code = cli.main(cli_args)
    finally:
        with open(args.spans, "w") as fh:
            json.dump({"missing": missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
