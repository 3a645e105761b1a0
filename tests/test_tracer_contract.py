"""The benchmark's tracer (perfbench/tracer.py) wraps mfclab functions by name
and its counters bind their arguments by name; a rename breaks the traced run.

The tracer module is loaded by path and never installed: install() would
rebind mfclab's functions for the rest of the test session.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(layer: str, name: str):
    """Look the name up the way tracer.install() does."""
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
