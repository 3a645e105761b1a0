"""The benchmark's tracer (perfbench/tracer.py) wraps mfclab functions by name
and its counters bind their arguments by name; a rename breaks the traced run.

The tracer module is loaded by path and never installed: install() would
rebind mfclab's functions for the rest of the test session.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

import mfclab as m
from conftest import cut_into_blocks

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# function -> the parameters the tracer's COUNTERS read from its bound arguments
COUNTED_PARAMETERS = {
    "cli._verify_probe": ("spec",),
    "costs._per_path_terms": ("bundle",),
    "mollify._bump_unit_draws": ("slots",),
    "hjb.solve_hjb": ("grid",),
    "expressions.evaluate": ("e",),
    "rng.normals": ("i0", "i1", "count"),
    "rng.uniforms": ("i0", "i1", "count"),
    "rng.pair_normals": ("i0", "i1", "i2"),
    "rng.pair_uniforms": ("i0", "i1", "i2"),
    "hjb.feedback_query": ("states",),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lq_solve():
    model = m.REGISTRY["LQ-decoupled"]
    grid = m.sized_grid(model, 1, [(-1.0, 1.0, 9)], 0.0, 0.1)
    return model, m.solve_hjb(model, 1, grid, 0.0, 0.1)


def _feedback_query():
    """The closure the tracer wraps as hjb.feedback_query: synthesize_feedback(u).fn."""
    return m.synthesize_feedback(_lq_solve()[1]).fn


def _counting_feedback(calls):
    """synthesize_feedback, with `fn` rebound to a counting wrapper after the
    policy is built, as the tracer rebinds it."""
    def build(u):
        policy = m.synthesize_feedback(u)
        fn = policy.fn
        policy.fn = lambda k, t, states: calls.append(k) or fn(k, t, states)
        return policy
    return build


def _resolve(layer: str, name: str):
    """Look the name up the way tracer.install() does."""
    if (layer, name) == ("hjb", "feedback_query"):
        return _feedback_query()
    module = importlib.import_module(f"mfclab.{layer}")
    owner_name, _, attr = name.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return vars(owner).get(attr) if owner is not None else None


def test_every_traced_layer_function_resolves():
    tracer = _load_tracer()
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names if _resolve(layer, name) is None]
    assert missing == []


def test_counted_functions_keep_their_parameter_names():
    tracer = _load_tracer()
    for key, params in COUNTED_PARAMETERS.items():
        assert key in tracer.COUNTERS, key
        layer, _, name = key.partition(".")
        signature = inspect.signature(_resolve(layer, name))
        assert set(params) <= set(signature.parameters), (key, signature)


def test_integration_counter_reads_path_bundle_fields():
    # the integration counter reads out.states and out.control_trace
    fields = {f.name for f in dataclasses.fields(m.PathBundle)}
    assert {"states", "control_trace"} <= fields


def test_block_counts_sum_to_the_one_block_counts(monkeypatch):
    """Each block of an ensemble is the PathBundle of one simulate_particles
    call, looked up when called as the tracer's wrapper would be, and the
    integration and quadrature counters read it as they read a whole ensemble:
    over the blocks, their particle steps, quadrature particle steps and state
    bytes sum to the counts of the same ensemble run as one block."""
    from mfclab import simulate
    tracer = _load_tracer()
    model = m.REGISTRY["tanh-interaction"]
    cfg = m.SimConfig(t0=0.0, T=0.5, steps=8, n_paths=10, seed=3)
    x0 = np.array([[0.5], [-1.0]])
    integrate = simulate.simulate_particles
    returned = []
    monkeypatch.setattr(simulate, "simulate_particles",
                        lambda *a, **kw: returned.append(integrate(*a, **kw)) or returned[-1])

    def counts():
        total = Counter()
        for bundle in m.path_blocks(model, cfg, x0, m.zero_control()):
            assert bundle is returned[-1]
            total.update(tracer._count_integration({}, bundle))
            total.update(tracer._count_quadrature({"bundle": bundle}, None))
        return total

    whole = counts()
    cut_into_blocks(monkeypatch, 3, cfg.steps, 2)
    blocks = counts()
    assert (whole["integrations"], blocks["integrations"]) == (1, 4)
    for key in ("particle_steps", "quadrature_particle_steps", "state_bytes"):
        assert blocks[key] == whole[key], key


def test_solve_hjb_evaluates_node_coefficients_once(monkeypatch):
    """The tracer's models layer times _lifted_batch; each solve must call it once."""
    from mfclab import hjb
    model = m.REGISTRY["tanh-interaction"]
    grid = m.sized_grid(model, 2, [(-1.0, 1.0, 9)] * 2, 0.0, 0.1)
    calls = []
    lifted = hjb._lifted_batch
    monkeypatch.setattr(hjb, "_lifted_batch", lambda *a: calls.append(1) or lifted(*a))
    m.solve_hjb(model, 2, grid, 0.0, 0.1)
    assert len(calls) == 1


def test_feedback_rebound_after_synthesis_sees_every_step():
    """The tracer counts hjb.feedback_query by rebinding synthesize_feedback(u).fn
    once the policy exists: the integrator must look fn up at every step."""
    model, u = _lq_solve()
    cfg = m.SimConfig(t0=0.0, T=0.1, steps=5, n_paths=3, seed=1)
    calls = []
    policy = _counting_feedback(calls)(u)
    m.simulate_particles(model, cfg, np.array([[0.2]]), policy)
    assert calls == list(range(cfg.steps))


def test_feedback_roundtrip_shifted_policies_call_the_rebound_feedback(monkeypatch):
    """Each shifted policy of feedback_roundtrip queries the feedback once per step,
    through the fn bound at call time."""
    from mfclab import verify
    model, u = _lq_solve()
    cfg = m.SimConfig(t0=0.0, T=0.1, steps=5, n_paths=3, seed=1)
    calls = []
    monkeypatch.setattr(verify, "synthesize_feedback", _counting_feedback(calls))
    verify.feedback_roundtrip(model, cfg, np.array([[0.2]]), u)
    # finite and lifted runs of the feedback, then one run per offset and axis
    runs = 2 + len(verify._FEEDBACK_OFFSETS) * model.d
    assert calls == list(range(cfg.steps)) * runs
