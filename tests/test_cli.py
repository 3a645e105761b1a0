import contextlib
import csv
import importlib
import io
import json
import math
import os
import pickle
import pkgutil
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import cut_into_blocks, recording_solves, traced_peak
import mfclab
from mfclab import (REGISTRY, CFLError, EvaluationError, ExpressionSyntaxError,
                    UnsupportedShapeError, cli, reports, simulate, sized_grid, solve_hjb)
from mfclab.cli import main


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _listed_probes():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["list", "--format", "json"])
    return json.loads(out.getvalue())["probes"]


LISTED_PROBES = _listed_probes()

_GRID_1D = {"axes": [[-3.0, 3.0, 17]]}
_GRID_2D = {"axes": [[-3.0, 3.0, 17]] * 2}
_SIM = {"t0": 0.0, "T": 0.5, "steps": 4, "n_paths": 4}
_D1_MODEL = {"d": 1, "d_prime": 1, "b": ["0"], "sigma": [["1"]], "l1": "0", "kappa": 1.0,
             "UT": "m2"}
_D2_MODEL = dict(_D1_MODEL, d=2, b=["0", "0"], sigma=[["1"], ["1"]])
# One small config per kind that runs to exit 0.
SMALL_CONFIGS = {
    "simulate": {"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": _SIM, "x0": [[0.0]]},
    "solve-hjb": {"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL, "grid": _GRID_1D},
    "verify": {"kind": "verify", "seed": 1, "probes": []},
    "mollify": {"kind": "mollify", "seed": 1, "k_list": [2],
                "mollify": {"probes": [], "mc_reps": 50}},
    "sweep": {"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
        "base_atoms": [[0.1]], "grid_axis": [-3.0, 3.0, 17], "duplications": [1]}},
}
# One small valid spec per probe name, too small for every verdict to pass.
SMALL_SPECS = {
    "convexity-preservation": {"functional": "mean", "k_list": [2], "mc_reps": 50,
                               "segments": 2},
    "cost-identity": {"sim": _SIM, "x0": [[0.5]]},
    "duplication-consistency": {"base_n": 1, "m": 2, "grid_small": _GRID_1D,
                                "grid_big": _GRID_2D, "test_points": [[0.5]]},
    "feedback-roundtrip": {"grid": _GRID_1D, "sim": _SIM, "x0": [[0.5]]},
    "lipschitz-preservation": {"functional": "mean", "k_list": [2, 4], "mc_reps": 50},
    "permutation-invariance": {"grid": _GRID_2D},
    "time-holder": {"grid": _GRID_1D},
    "uniform-convergence": {"functional": "mean", "k_list": [2, 8], "mc_reps": 50},
}


def test_list_contains_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "LQ-decoupled" in out
    models = [l.strip() for l in out.splitlines() if l.startswith("  ")]
    assert models == sorted(models) or True  # sections are individually sorted


def test_list_json_machine_mode(capsys):
    assert main(["list", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "LQ-decoupled" in doc["models"]
    assert doc["models"] == sorted(doc["models"])
    assert doc["probes"] == sorted(doc["probes"])


def test_list_stable_across_runs(capsys):
    main(["list"])
    first = capsys.readouterr().out
    main(["list"])
    assert capsys.readouterr().out == first


def test_config_schema_is_valid():
    type(cli._CONFIG_VALIDATOR).check_schema(cli.CONFIG_SCHEMA)


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"kind": "simulate", ')
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "byte offset" in err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config: ")


def test_unknown_key_exits_2_with_pointer(tmp_path, capsys):
    cases = [
        ({"kind": "simulate", "seed": 1, "bogus": 1}, "$"),
        # a key that a kind's runner does not read, valid as it is for another kind
        *[(dict(SMALL_CONFIGS[kind], **extra), "$") for kind, extra in [
            ("simulate", {"n": 1}), ("simulate", {"horizon": {"t0": 0.0, "T": 2.0}}),
            ("simulate", {"dump_cadence": 2}), ("solve-hjb", {"sim": _SIM}),
            ("solve-hjb", {"r": 1.5}), ("verify", {"horizon": {"t0": 0.0, "T": 2.0}}),
            ("verify", {"x0": [[0.5]]}), ("mollify", {"model": {"registry": "LQ-decoupled"}}),
            ("sweep", {"x0": [[0.0]]})]],
        ({"kind": "mollify", "seed": 1, "mollify": {"probes": ["nope"]}}, "$.mollify.probes[0]"),
        ({"kind": "mollify", "seed": 1, "mollify": {"mc_reps": "many"}}, "$.mollify.mc_reps"),
        ({"kind": "mollify", "seed": 1, "mollify": {"functional": "nope"}},
         "$.mollify.functional"),
        ({"kind": "mollify", "seed": 1, "k_list": []}, "$.k_list"),
        ({"kind": "simulate", "seed": 1}, "$"),
        ({"kind": "solve-hjb", "seed": 1}, "$"),
        ({"kind": "sweep", "seed": 1, "model": {"registry": "LQ-decoupled"}, "sweep": {}},
         "$.sweep"),
        ({"kind": "sweep", "seed": 1, "model": {"registry": "LQ-decoupled"},
          "sweep": {"base_atoms": [[1.0]], "grid_axis": [-3.0, 3.0, 61], "bogus": 1}},
         "$.sweep"),
        ({"kind": "simulate", "seed": 1, "model": dict(_D1_MODEL, b=["x[3]"]),
          "sim": {"t0": 0.0, "T": 1.0, "steps": 4, "n_paths": 2}, "x0": [[0.0]]}, "$.model"),
        ({"kind": "solve-hjb", "seed": 1, "model": dict(_D1_MODEL, l1="x[0"),
          "grid": _GRID_1D}, "$.model"),
        ({"kind": "verify", "seed": 1, "probes": [
            {"probe": "time-holder", "grid": _GRID_1D},
            {"probe": "time-holder", "grid": _GRID_1D, "model": dict(_D1_MODEL, UT="m1[1]")}]},
         "$.probes[1].model"),
        # T <= t0 in a horizon, a probe spec or a sim block
        ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL, "grid": _GRID_1D,
          "horizon": {"t0": 1.0, "T": 1.0}}, "$.horizon"),
        ({"kind": "verify", "seed": 1, "probes": [{"probe": "time-holder", "grid": _GRID_1D,
                                                  "T": -1.0}]}, "$.probes[0]"),
        ({"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": dict(_SIM, T=0.0),
          "x0": [[0.0]]}, "$.sim"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["cost-identity"], probe="cost-identity", sim=dict(_SIM, t0=0.5))]},
         "$.probes[0].sim"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[1.0]], "grid_axis": [-3.0, 3.0, 17], "sim": dict(_SIM, T=-1.0)}},
         "$.sweep.sim"),
        # grid axis count != n*d
        ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL, "n": 2, "grid": _GRID_1D},
         "$.grid"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 grid_small=_GRID_2D)]}, "$.probes[0].grid_small"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 grid_big=_GRID_1D)]}, "$.probes[0].grid_big"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["feedback-roundtrip"], probe="feedback-roundtrip", n=2)]},
         "$.probes[0].grid"),
        ({"kind": "verify", "seed": 1, "probes": [{"probe": "time-holder", "grid": _GRID_2D}]},
         "$.probes[0].grid"),
        ({"kind": "verify", "seed": 1, "probes": [
            {"probe": "permutation-invariance", "grid": _GRID_1D}]}, "$.probes[0].grid"),
        ({"kind": "verify", "seed": 1, "model": _D2_MODEL, "probes": [
            {"probe": "time-holder", "grid": _GRID_1D}]}, "$.probes[0].grid"),
        # a sim window the solve's horizon does not cover
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["feedback-roundtrip"], probe="feedback-roundtrip",
                 sim=dict(_SIM, T=1.3))]}, "$.probes[0].sim"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[1.0]], "grid_axis": [-3.0, 3.0, 17], "sim": dict(_SIM, T=1.5)}},
         "$.sweep.sim"),
        # points that are not the n atoms in R^d of their solve
        ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL, "n": 2, "grid": _GRID_2D,
          "x0": [0.1, 0.2, 0.3]}, "$.x0"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 test_points=[[0.5], [0.5, 0.2]])]}, "$.probes[0].test_points[1]"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["feedback-roundtrip"], probe="feedback-roundtrip",
                 x0=[[0.5], [0.2]])]}, "$.probes[0].x0"),
        ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL, "grid": _GRID_1D,
          "x0": [float("nan")]}, "$.x0[0]"),
        ({"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": _SIM,
          "x0": [[0.5], [0.2, 0.3]]}, "$.x0"),
        # a coordinate that is not a JSON number, which numpy would read as one
        ({"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": _SIM,
          "x0": [["0.5"], [0.2]]}, "$.x0[0][0]"),
        ({"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": _SIM,
          "x0": [[0.5], [True]]}, "$.x0[1][0]"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 test_points=[[0.5], ["0.2"]])]}, "$.probes[0].test_points[1][0]"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[0.1], [None]], "grid_axis": [-3.0, 3.0, 17]}},
         "$.sweep.base_atoms[1][0]"),
        # points outside a grid they are read on (lo <= x <= hi): an x0 on its solve's
        # grid, a test point on grid_small and, duplicated, on grid_big, and the
        # sweep's base atoms on grid_axis
        ({"kind": "solve-hjb", "seed": 1, "model": {"registry": "LQ-decoupled"},
          "grid": _GRID_1D, "x0": [10.0]}, "$.x0"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["feedback-roundtrip"], probe="feedback-roundtrip", x0=[[3.2]],
                 sim=dict(_SIM, T=1.0, steps=20, n_paths=50))]}, "$.probes[0].x0"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 test_points=[[0.5], [5.0]], threshold=1.0)]}, "$.probes[0].test_points[1]"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 grid_big={"axes": [[-3.0, 3.0, 17], [-1.0, 1.0, 17]]},
                 test_points=[[0.5], [-1.5]], threshold=1.0)]}, "$.probes[0].test_points[1]"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[0.1], [3.5]], "grid_axis": [-3.0, 3.0, 17], "duplications": [1]}},
         "$.sweep.base_atoms"),
        # an empty point
        ({"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": _SIM, "x0": []}, "$.x0"),
        ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL, "grid": _GRID_1D, "x0": []},
         "$.x0"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [], "grid_axis": [-3.0, 3.0, 17]}}, "$.sweep.base_atoms"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 test_points=[[0.5], []])]}, "$.probes[0].test_points[1]"),
        # a duplication probe with no point to compare, a sweep with no family
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 test_points=[])]}, "$.probes[0].test_points"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[0.1]], "grid_axis": [-3.0, 3.0, 17], "duplications": []}},
         "$.sweep.duplications"),
        # atoms that are not in R^d, where no solve sizes the point
        ({"kind": "simulate", "seed": 1, "model": _D2_MODEL, "sim": _SIM, "x0": [[0.5]]},
         "$.x0"),
        ({"kind": "verify", "seed": 1, "model": _D2_MODEL, "probes": [
            dict(SMALL_SPECS["cost-identity"], probe="cost-identity", x0=[[1.0]])]},
         "$.probes[0].x0"),
        ({"kind": "sweep", "seed": 1, "model": _D2_MODEL, "sweep": {
            "base_atoms": [[1.0]], "grid_axis": [-3.0, 3.0, 17]}}, "$.sweep.base_atoms"),
        # grid axes that GridSpec rejects: fewer than 8 points, lo >= hi
        ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL,
          "grid": {"axes": [[-1.0, 1.0, 5]]}}, "$.grid.axes[0][2]"),
        ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL,
          "grid": {"axes": [[1.0, -1.0, 21]]}}, "$.grid"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
                 grid_big={"axes": [[-3.0, 3.0, 17], [3.0, -3.0, 17]]})]},
         "$.probes[0].grid_big"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["feedback-roundtrip"], probe="feedback-roundtrip",
                 grid={"axes": [[-3.0, 3.0, 7]]})]}, "$.probes[0].grid.axes[0][2]"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[1.0]], "grid_axis": [-2.0, 2.0, 5]}}, "$.sweep.grid_axis[2]"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[1.0]], "grid_axis": [2.0, -2.0, 17]}}, "$.sweep.grid_axis"),
        # sweeps whose Monte Carlo rows (n*d > 3) cannot run: no sim, or no grid row
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[0.1]], "grid_axis": [-3.0, 3.0, 17], "duplications": [1, 4]}},
         "$.sweep"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[0.1]], "grid_axis": [-3.0, 3.0, 17], "duplications": [4]}},
         "$.sweep.duplications"),
        ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
            "base_atoms": [[0.1]], "grid_axis": [-3.0, 3.0, 17], "duplications": [4],
            "sim": dict(_SIM, T=1.0)}}, "$.sweep.duplications"),
        # Monte Carlo rows apply the smallest family's feedback atom by atom: n = 1 only
        ({"kind": "sweep", "seed": 1, "model": {"registry": "LQ-decoupled"}, "sweep": {
            "base_atoms": [[0.5], [-0.5]], "grid_axis": [-3.0, 3.0, 17], "duplications": [1, 4],
            "sim": {"t0": 0.0, "T": 1.0, "steps": 8, "n_paths": 50}}}, "$.sweep"),
        # a config number that is not finite (json writes NaN and Infinity)
        ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL, "grid": _GRID_1D,
          "horizon": {"t0": -math.inf, "T": 1.0}}, "$.horizon.t0"),
        ({"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": dict(_SIM, T=math.inf),
          "x0": [[0.0]]}, "$.sim.T"),
        (dict(SMALL_CONFIGS["solve-hjb"], model=dict(_D1_MODEL, kappa=math.inf)),
         "$.model.kappa"),
        (dict(SMALL_CONFIGS["solve-hjb"], model=dict(_D1_MODEL, kappa=math.nan)),
         "$.model.kappa"),
        (dict(SMALL_CONFIGS["simulate"], r=math.nan), "$.r"),
        (dict(SMALL_CONFIGS["solve-hjb"], grid=dict(_GRID_1D, margin=math.nan)),
         "$.grid.margin"),
        (dict(SMALL_CONFIGS["solve-hjb"], grid={"axes": [[-math.inf, 3.0, 17]]}),
         "$.grid.axes[0][0]"),
        ({"kind": "verify", "seed": 1, "probes": [
            {"probe": "permutation-invariance", "grid": _GRID_2D, "threshold": math.nan}]},
         "$.probes[0].threshold"),
        ({"kind": "verify", "seed": 1, "probes": [
            dict(SMALL_SPECS["cost-identity"], probe="cost-identity", threshold=math.inf)]},
         "$.probes[0].threshold"),
    ]
    for doc, pointer in cases:
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2, doc
        assert f"at {pointer}: " in capsys.readouterr().err, doc
    # the schema refuses an empty point before numpy reads it
    cfg = _write(tmp_path / "c.json", dict(SMALL_CONFIGS["simulate"], x0=[]))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: config schema violation at $.x0: [] should be non-empty\n")


@pytest.mark.parametrize("doc, pointer", [
    ({"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": _SIM, "x0": [0.5, [1.0]]},
     "$.x0"),
    ({"kind": "simulate", "seed": 1, "model": _D1_MODEL, "sim": _SIM, "x0": [[0.5], 1.0]},
     "$.x0"),
    ({"kind": "simulate", "seed": 1, "model": _D2_MODEL, "sim": _SIM,
      "x0": [[0.5], [1.0, 2.0]]}, "$.x0"),
    ({"kind": "solve-hjb", "seed": 1, "model": _D1_MODEL, "grid": _GRID_1D, "x0": [[0.5], []]},
     "$.x0"),
    ({"kind": "verify", "seed": 1, "probes": [
        dict(SMALL_SPECS["cost-identity"], probe="cost-identity", x0=[[0.5], [0.2, 0.3]])]},
     "$.probes[0].x0"),
    ({"kind": "verify", "seed": 1, "probes": [
        dict(SMALL_SPECS["duplication-consistency"], probe="duplication-consistency",
             test_points=[[0.5], [0.5, [0.2]]])]}, "$.probes[0].test_points[1]"),
    ({"kind": "sweep", "seed": 1, "model": _D1_MODEL, "sweep": {
        "base_atoms": [[0.1], 0.2], "grid_axis": [-3.0, 3.0, 17]}}, "$.sweep.base_atoms"),
], ids=["x0-number-then-atom", "x0-atom-then-number", "x0-atoms-of-two-lengths",
        "x0-empty-atom", "probe-x0", "test-point", "sweep-base-atoms"])
def test_ragged_point_exits_2_in_the_projects_words(tmp_path, capsys, doc, pointer):
    """A point that mixes numbers and atoms, or holds atoms of unequal length,
    passes the schema and is refused before numpy reads it."""
    cfg = _write(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad point at {pointer}: a point is a list of numbers or a list of "
        f"atoms of equal length\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", list(SMALL_CONFIGS))
def test_small_config_of_each_kind_runs(tmp_path, kind):
    cfg = _write(tmp_path / "c.json", SMALL_CONFIGS[kind])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("doc, argv", [
    (SMALL_CONFIGS["simulate"], ["--seed", "-1"]),
    (SMALL_CONFIGS["mollify"], ["--seed", "-1"]),
    # a Philox key keeps 64 bits, so 2^64 would run as seed 0
    (dict(SMALL_CONFIGS["simulate"], seed=2 ** 64), []),
], ids=["simulate-override", "mollify-override", "config-2^64"])
def test_bad_seed_exits_2_at_seed(tmp_path, capsys, doc, argv):
    cfg = _write(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), *argv]) == 2
    assert "config schema violation at $.seed: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    cfg = _write(tmp_path / "c.json", SMALL_CONFIGS["verify"])
    with pytest.raises(SystemExit) as exited:
        main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs])
    assert exited.value.code == 2
    assert "argument --jobs: need an integer >= 1" in capsys.readouterr().err


def test_readme_configs_are_valid(tmp_path):
    """Every fenced json block of README.md that names a `kind` passes the checks
    a run applies before any compute starts."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = [b for b in re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
              if '"kind"' in b]
    assert blocks
    for i, block in enumerate(blocks):
        cli._load_config(_write(tmp_path / f"c{i}.json", json.loads(block)))


def test_simulate_end_to_end_and_reproducible(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "kind": "simulate",
        "seed": 9,
        "model": {"registry": "LQ-decoupled"},
        "sim": {"t0": 0.0, "T": 0.5, "steps": 8, "n_paths": 16},
        "x0": [[1.0]],
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("results.csv", "summary.json", "manifest.json"):
        assert (out1 / name).exists()
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert "mfclab" in manifest["versions"]


@pytest.mark.parametrize("kind, flat, nested", [
    ("simulate", {"x0": [0.1, -0.2]}, {"x0": [[0.1], [-0.2]]}),
    ("sweep", {"sweep": dict(SMALL_CONFIGS["sweep"]["sweep"], base_atoms=[0.1, -0.2])},
     {"sweep": dict(SMALL_CONFIGS["sweep"]["sweep"], base_atoms=[[0.1], [-0.2]])}),
])
def test_flat_atom_list_is_n_atoms_in_r1(tmp_path, kind, flat, nested):
    """A flat list of atoms is n atoms in R^1: it runs as its (n, 1) nesting does."""
    outs = []
    for i, extra in enumerate((flat, nested)):
        cfg = _write(tmp_path / f"c{i}.json", dict(SMALL_CONFIGS[kind], **extra))
        outs.append(tmp_path / f"o{i}")
        assert main(["run", "--config", cfg, "--out", str(outs[-1])]) == 0
    assert (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()


@pytest.mark.parametrize("block_paths, blocks", [(None, 1), (5, 4)],
                         ids=["one-block", "several-blocks"])
def test_simulate_integrates_once(tmp_path, monkeypatch, block_paths, blocks):
    """Each block of paths is integrated once, and the artifacts do not depend
    on how the ensemble is cut into blocks."""
    cfg = _write(tmp_path / "c.json", {
        "kind": "simulate",
        "seed": 9,
        "model": {"registry": "LQ-decoupled"},
        "sim": {"t0": 0.0, "T": 0.5, "steps": 8, "n_paths": 16},
        "x0": [[1.0]],
        "dump_trajectories": True,
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
    calls = cut_into_blocks(monkeypatch, block_paths, 8, 1)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == blocks
    for name in ("results.csv", "summary.json", "trajectories.csv"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_trajectory_dump_holds_one_block(tmp_path, monkeypatch):
    """A simulate run that dumps its trajectories writes each block's rows once
    the block is reduced, and drops the block before the next integrates: over
    six blocks of 214 kB it peaks below one and a half blocks plus 256 KiB of
    slack (the file's write buffers, one path's rows, per-step temporaries).
    Holding the last block while the next integrates took two blocks plus the
    slack, and keeping every block for the dump took six."""
    steps, n, block_paths = 40, 32, 10
    cfg = _write(tmp_path / "c.json", {
        "kind": "simulate", "seed": 5, "model": {"registry": "tanh-interaction"},
        "sim": {"t0": 0.0, "T": 1.0, "steps": steps, "n_paths": 6 * block_paths},
        "x0": np.linspace(-1.0, 1.0, n)[:, None].tolist(), "dump_trajectories": True})
    plan, _ = cli._load_config(cfg)
    calls = cut_into_blocks(monkeypatch, block_paths, steps, n)
    monkeypatch.setattr(simulate, "_TILE", 1024)  # path_sups temporaries far below a block
    block = simulate.BLOCK_BYTES
    out = tmp_path / "o"
    out.mkdir()
    peak = traced_peak(lambda: cli._run_simulate(plan, str(out), 1))
    assert len(calls) == 6
    assert (out / "trajectories.csv").stat().st_size > 6 * block
    assert peak < 1.5 * block + 2 ** 18


# b = x^3 drives paths from x0 = 3 (or 6) to overflow within 50 steps, and some
# of the 4 paths from x0 = 0.9 under the grid feedback at seed 2. Every such run
# ends in the integrator's one message, at the first step a path leaves.
_CUBIC = {"d": 1, "d_prime": 1, "b": ["x[0]^3"], "sigma": [["1"]], "l1": "0", "kappa": 1.0,
          "UT": "0.5*m2"}
_BLOW_UP_SIM = {"t0": 0.0, "T": 1.0, "steps": 50, "n_paths": 4}
_BLOW_UP_MESSAGE = (r"runtime failure: FloatingPointError: "
                    r"\d+ of 4 paths blew up at step \d+ of 50\n")


def test_blow_up_in_a_later_block_names_its_paths(tmp_path, capsys, monkeypatch):
    """At seed 3 from x0 = 0.5, paths 0, 1 and 3 stay in the ball and path 2
    leaves it. Cut into blocks of two paths, the ensemble fails in its second
    block, and the message names that block's paths; as one block, it keeps
    the one-block text. Either way the run exits 1 and writes nothing."""
    cfg = _write(tmp_path / "c.json", {"kind": "simulate", "seed": 3, "model": _CUBIC,
                                       "sim": _BLOW_UP_SIM, "x0": [[0.5]]})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    whole = capsys.readouterr().err
    assert re.fullmatch(r"runtime failure: FloatingPointError: "
                        r"1 of 4 paths blew up at step \d+ of 50\n", whole)
    cut_into_blocks(monkeypatch, 2, 50, 1)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == whole.replace("1 of 4 paths",
                                                    "1 of 2 paths (paths 2-3 of 4)")
    assert list(out.iterdir()) == []


def test_simulate_peak_rss_does_not_grow_with_paths(tmp_path):
    """An ensemble the size of the benchmark's simulate-mc (tanh-interaction,
    64 atoms, P = 1000, K = 200) is integrated block by block: the run peaks
    below 150 MB, where holding every path took about 534 MB.

    The run's own rusage comes from os.wait4 (RUSAGE_CHILDREN is the max over
    every child). It is started by a small launcher process, because Linux
    carries the RSS high-water mark of the process a child was forked from
    across exec, and this test process may be far larger than the run."""
    cfg = _write(tmp_path / "c.json", {
        "kind": "simulate",
        "seed": 1901,
        "model": {"registry": "tanh-interaction"},
        "sim": {"t0": 0.0, "T": 1.0, "steps": 200, "n_paths": 1000},
        "x0": np.random.default_rng(1901).normal(size=(64, 1)).tolist(),
    })
    launcher = ("import os, subprocess, sys\n"
                "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
                "_, status, usage = os.wait4(proc.pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-m", "mfclab.cli",
                           "run", "--config", cfg, "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert maxrss_kib / 1024.0 < 150.0  # ru_maxrss is in KiB on Linux


def test_blown_up_simulate_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {
        "kind": "simulate",
        "seed": 1,
        "model": dict(_CUBIC, l1="0.5*x[0]^2"),
        "sim": _BLOW_UP_SIM,
        "x0": [[3.0]],
    })
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert re.search(_BLOW_UP_MESSAGE, capsys.readouterr().err)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("doc", [
    {"kind": "verify", "seed": 1, "probes": [
        {"probe": "cost-identity", "model": _CUBIC, "sim": _BLOW_UP_SIM, "x0": [[3.0]]}]},
    # the noise drives paths off the grid, where the clamped feedback cannot hold x^3
    {"kind": "sweep", "seed": 1, "model": dict(_CUBIC, sigma=[["3"]]),
     "sweep": {"base_atoms": [[1.5]], "grid_axis": [-2.0, 2.0, 41], "duplications": [1, 4],
               "sim": _BLOW_UP_SIM}},
    {"kind": "verify", "seed": 2, "probes": [
        {"probe": "feedback-roundtrip", "model": _CUBIC, "grid": {"axes": [[-1.0, 1.0, 41]]},
         "sim": _BLOW_UP_SIM, "x0": [[0.9]]}]},
], ids=["cost-identity", "sweep-mc", "feedback-roundtrip"])
def test_blown_up_cost_estimate_exits_1(tmp_path, capsys, doc):
    cfg = _write(tmp_path / "c.json", doc)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert re.search(_BLOW_UP_MESSAGE, capsys.readouterr().err)
    assert not (out / "summary.json").exists()


def test_scipy_submodules_load_only_where_called(tmp_path):
    """`list`, a simulate run, a solve (its summary reads values off the grid),
    a grid-feedback round trip and a mollify run (its Lipschitz denominators are
    d = 1 Wasserstein distances) never call the assignment solver, the
    quadrature or scipy's interpolators, so they must not import them. None of
    them runs probes concurrently, so none imports the process pool either.
    `list` imports no scipy at all: only a run's manifest reads its version."""
    configs = [_write(tmp_path / f"c{i}.json", doc) for i, doc in enumerate([
        {"kind": "simulate", "seed": 3, "model": {"registry": "tanh-interaction"},
         "sim": _SIM, "x0": [[0.5], [-0.5]]},
        {"kind": "solve-hjb", "seed": 3, "model": {"registry": "LQ-decoupled"}, "grid": _GRID_1D,
         "horizon": {"t0": 0.0, "T": 0.2}, "x0": [0.5]},
        {"kind": "verify", "seed": 3, "probes": [
            dict(SMALL_SPECS["feedback-roundtrip"], probe="feedback-roundtrip")]},
    ])]
    mollify = _write(tmp_path / "m.json", {
        "kind": "mollify", "seed": 3, "k_list": [4, 16],
        "mollify": {"functional": "second-moment", "probes": list(cli.MOLLIFY_PROBES),
                    "mc_reps": 50}})
    script = (
        "import sys\n"
        "from mfclab.cli import main\n"
        "assert main(['list']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
        f"for cfg in {configs!r}:\n"
        f"    assert main(['run', '--config', cfg, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        # exit 1 is the second moment's failing uniform-convergence verdict
        f"assert main(['run', '--config', {mollify!r}, '--out', {str(tmp_path / 'm')!r}]) in (0, 1)\n"
        "heavy = ('scipy.optimize', 'scipy.interpolate', 'scipy.integrate', 'multiprocessing',\n"
        "         'concurrent.futures')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    # every selected probe reported: the run got past the Lipschitz denominators
    assert len(json.loads((tmp_path / "m" / "summary.json").read_text())["probes"]) == 4


def test_seed_override(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "kind": "simulate",
        "seed": 9,
        "model": {"registry": "LQ-decoupled"},
        "sim": {"t0": 0.0, "T": 0.5, "steps": 4, "n_paths": 4},
        "x0": [[0.0]],
    })
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "123"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 123


def _table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_verify_empty_probes_ok(tmp_path):
    cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 3, "probes": []})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["probes"] == []
    assert _table(out / "results.csv") == [list(reports.REPORT_HEADER)]


@pytest.mark.parametrize("kind", ["verify", "mollify"])
def test_run_of_no_probes_replaces_an_earlier_table(tmp_path, kind):
    """A rerun into an earlier run's --out that runs no probes leaves the
    header-only table, not the earlier run's rows."""
    out = tmp_path / "o"
    earlier = _write(tmp_path / "earlier.json", {"kind": "verify", "seed": 2, "probes": [
        {"probe": "cost-identity", **SMALL_SPECS["cost-identity"]}]})
    assert main(["run", "--config", earlier, "--out", str(out)]) == 0
    assert len(_table(out / "results.csv")) > 1
    cfg = _write(tmp_path / "c.json", SMALL_CONFIGS[kind])
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert _table(out / "results.csv") == [list(reports.REPORT_HEADER)]


def test_verify_cost_identity_probe(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "kind": "verify",
        "seed": 5,
        "probes": [{
            "probe": "cost-identity",
            "model": {"registry": "LQ-mean-reverting"},
            "sim": {"t0": 0.0, "T": 0.5, "steps": 6, "n_paths": 4},
            "x0": [[0.5], [1.0]],
        }],
    })
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert rows[0] == "probe,statistic,threshold,pass"
    assert rows[1].endswith("true")


def test_failing_probe_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {
        "kind": "verify",
        "seed": 5,
        "probes": [{
            "probe": "cost-identity",
            "model": {"registry": "LQ-decoupled"},
            "sim": {"t0": 0.0, "T": 0.5, "steps": 4, "n_paths": 4},
            "x0": [[0.5]],
            "threshold": -1.0,
        }],
    })
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "failed probes" in capsys.readouterr().err


def test_runtime_failure_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {
        "kind": "solve-hjb",
        "seed": 1,
        "model": {"registry": "LQ-decoupled"},
        "n": 1,
        "grid": {"axes": [[-3.0, 3.0, 61]], "time_steps": 2},
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "CFLError" in capsys.readouterr().err


def test_failed_run_writes_no_new_artifact(tmp_path, capsys):
    """The running cost log(x[0]) is refused by the integrator, at the first
    step a path starts at x <= 0: the earlier run's artifacts stay as they were."""
    out = tmp_path / "o"
    good = _write(tmp_path / "good.json",
                  dict(SMALL_CONFIGS["simulate"], dump_trajectories=True))
    assert main(["run", "--config", good, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    bad = _write(tmp_path / "bad.json", dict(
        SMALL_CONFIGS["simulate"], model=dict(_D1_MODEL, l1="log(x[0])"), x0=[[0.5]],
        sim={"t0": 0.0, "T": 1.0, "steps": 10, "n_paths": 20}, dump_trajectories=True))
    assert main(["run", "--config", bad, "--out", str(out)]) == 1
    assert ("runtime failure: EvaluationError: log(x[0]) has a value that is not finite"
            in capsys.readouterr().err)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("artifact", ["summary.json", "manifest.json"])
def test_artifact_write_failure_exits_1(tmp_path, capsys, artifact):
    (tmp_path / "o" / artifact).mkdir(parents=True)
    cfg = _write(tmp_path / "c.json", SMALL_CONFIGS["verify"])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: IsADirectoryError: ") and err.count("\n") == 1


@pytest.mark.parametrize("l1", ["1e400*x[0]^2", "exp(-1e400*x[0]^2)"])
def test_literal_that_overflows_is_a_bad_model(tmp_path, capsys, l1):
    """1e400 is not a double: the model does not parse, even where the values
    its expression would take stay finite."""
    cfg = _write(tmp_path / "c.json", dict(
        SMALL_CONFIGS["solve-hjb"], model=dict(_D1_MODEL, l1=l1),
        grid={"axes": [[-1.0, 1.0, 9]], "time_steps": 4}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    offset = l1.index("1e400")
    assert capsys.readouterr().err == (f"config error: bad model at $.model: syntax error at "
                                       f"offset {offset}: number 1e400 is not a finite double\n")


@pytest.mark.parametrize("l1, offset", [
    ("(" * 2000 + "1" + ")" * 2000, 200),           # the 201st nested parenthesis
    ("+".join(["x[0]"] * 1000), 999),               # the 200th +, whose sum is 201 high
    ("-" * 1000 + "x[0]", 200),                     # the 201st unary minus
    ("^".join(["x[0]"] * 1000), 1000),              # the 201st power operand
    ("exp(" * 1000 + "x[0]" + ")" * 1000, 800),     # the 201st nested call
], ids=["parentheses", "flat-sum", "minus-chain", "power-chain", "nested-exp"])
def test_expression_deeper_than_the_limit_is_a_bad_model(tmp_path, capsys, l1, offset):
    cfg = _write(tmp_path / "c.json", dict(
        SMALL_CONFIGS["solve-hjb"], model=dict(_D1_MODEL, l1=l1),
        grid={"axes": [[-1.0, 1.0, 9]]}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: bad model at $.model: syntax error at "
                                       f"offset {offset}: nested deeper than 200 levels\n")


def test_uncreatable_out_dir_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", SMALL_CONFIGS["verify"])
    (tmp_path / "o").write_text("a file, not a directory")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: FileExistsError: ") and err.count("\n") == 1


# 0 at x[0] = 0, by way of -1/0 = -inf
_FLAT_AT_0 = "exp(-1/x[0]^2)"


@pytest.mark.parametrize("doc", [
    dict(SMALL_CONFIGS["solve-hjb"], model=dict(_D1_MODEL, b=[_FLAT_AT_0]),
         grid={"axes": [[-2.0, 2.0, 41]]}, horizon={"t0": 0.0, "T": 0.5}),
    dict(SMALL_CONFIGS["simulate"], model=dict(_D1_MODEL, b=[_FLAT_AT_0], l1=_FLAT_AT_0),
         x0=[[0.0], [1.0]]),
], ids=["solve-hjb", "simulate"])
def test_finite_coefficient_values_are_valid_in_every_layer(tmp_path, doc):
    """A grid node or an atom at 0 meets -1/0 inside exp(-1/x[0]^2), whose value
    there is 0: the solver, the integrator and the cost quadrature accept it."""
    cfg = _write(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_non_finite_running_cost_is_refused_at_its_step(tmp_path, capsys):
    """Under b = x^3 from x0 = 3 the paths pass x = 4, where log(4 - x[0]) stops
    being finite, a few steps before they leave the ball: the integrator names
    l1 at that step instead of reporting the later blow-up."""
    cfg = _write(tmp_path / "c.json", {"kind": "simulate", "seed": 2,
                                       "model": dict(_CUBIC, l1="log(4 - x[0])"),
                                       "sim": _BLOW_UP_SIM, "x0": [[3.0]]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("runtime failure: EvaluationError: log(4 - x[0]) has "
                                       "a value that is not finite\n")
    blow_up = _write(tmp_path / "b.json", {"kind": "simulate", "seed": 2, "model": _CUBIC,
                                           "sim": _BLOW_UP_SIM, "x0": [[3.0]]})
    assert main(["run", "--config", blow_up, "--out", str(tmp_path / "o")]) == 1
    assert re.fullmatch(_BLOW_UP_MESSAGE, capsys.readouterr().err)


def test_non_finite_drift_is_a_blow_up(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", dict(
        SMALL_CONFIGS["simulate"], model=dict(_D1_MODEL, b=["x[0] + 1/(1-1)"]),
        sim={"t0": 0.0, "T": 1.0, "steps": 10, "n_paths": 20}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert ("runtime failure: FloatingPointError: 20 of 20 paths blew up at step 1 of 10"
            in capsys.readouterr().err)


def test_non_finite_running_cost_names_its_expression(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", dict(SMALL_CONFIGS["solve-hjb"],
                                           model=dict(_D1_MODEL, l1="log(x[0])")))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert ("runtime failure: EvaluationError: log(x[0]) has a value that is not finite"
            in capsys.readouterr().err)


def test_solve_hjb_end_to_end(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "kind": "solve-hjb",
        "seed": 1,
        "model": {"registry": "LQ-decoupled"},
        "n": 1,
        "grid": {"axes": [[-3.0, 3.0, 61]]},
        "horizon": {"t0": 0.0, "T": 1.0},
        "x0": [1.0],
    })
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    want = 0.25 + 0.5 * np.log(2.0)
    assert abs(summary["value_at_x0"] - want) < 2e-2
    assert abs(summary["riccati_value_at_x0"] - want) < 1e-8


def test_solve_hjb_stores_T_itself(tmp_path):
    """With 49 steps on [0, 1], t0 + K dt misses T = 1; the last stored time is T."""
    cfg = _write(tmp_path / "c.json", {
        "kind": "solve-hjb", "seed": 1, "model": {"registry": "LQ-decoupled"},
        "grid": {"axes": [[-2.0, 2.0, 9]], "time_steps": 49}})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for artifact in ("summary.json", "grid.json"):
        assert json.loads((out / artifact).read_text())["stored_times"][-1] == 1.0, artifact


def test_value_at_origin_only_on_a_grid_that_holds_it(tmp_path):
    """A lookup off the grid reads the clamped edge value, so a grid without the
    origin writes no `value_at_origin`; one that holds it still does."""
    for lo, holds in [(1.0, False), (-3.0, True)]:
        cfg = _write(tmp_path / "c.json", {
            "kind": "solve-hjb", "seed": 1, "model": {"registry": "LQ-decoupled"},
            "grid": {"axes": [[lo, 3.0, 17]]}, "x0": [2.0]})
        out = tmp_path / f"o{lo}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert ("value_at_origin" in summary) == holds and "value_at_x0" in summary, lo


def test_riccati_oracle_before_time_zero(tmp_path):
    """The LQ value depends on T - t only: a horizon [-0.5, 0.5] exits 0 and
    reports the oracle value of the horizon [0, 1]."""
    summaries = []
    for t0, T in [(-0.5, 0.5), (0.0, 1.0)]:
        cfg = _write(tmp_path / "c.json", {
            "kind": "solve-hjb", "seed": 1, "model": {"registry": "LQ-decoupled"},
            "grid": {"axes": [[-3.0, 3.0, 41]]}, "horizon": {"t0": t0, "T": T}, "x0": [1.0]})
        out = tmp_path / f"o{t0}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summaries.append(json.loads((out / "summary.json").read_text()))
    assert summaries[0]["riccati_value_at_x0"] == summaries[1]["riccati_value_at_x0"]


def test_riccati_oracle_needs_lq_decoupled_coefficients(tmp_path):
    """The oracle solves LQ-decoupled's problem; a model that only borrows the
    name gets none, one with the same coefficients still gets it, under any
    name or none (a document without a name is "custom")."""
    lq_named = {"name": "LQ-decoupled", "d": 1, "d_prime": 1, "kappa": 1.0}
    same = dict(b=["0"], sigma=[["1"]], l1="0", UT="0.5*m2")
    models = {"borrowed name": dict(lq_named, b=["-2*x[0]"], sigma=[["0.3"]], l1="x[0]^2",
                                    UT="m2"),
              "same coefficients": dict(lq_named, **same),
              "same coefficients, no name": {"d": 1, "d_prime": 1, "kappa": 1.0, **same}}
    for label, model in models.items():
        cfg = _write(tmp_path / "c.json", {"kind": "solve-hjb", "seed": 1, "model": model,
                                           "grid": {"axes": [[-3.0, 3.0, 41]]}, "x0": [0.5]})
        out = tmp_path / label
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "value_at_x0" in summary
        assert ("riccati_value_at_x0" in summary) == label.startswith("same"), label


def test_solve_without_time_steps_uses_the_hjb_rule(tmp_path):
    grid = {"axes": [[-2.0, 2.0, 21]] * 2, "margin": 0.2}
    cfg = _write(tmp_path / "c.json", {
        "kind": "solve-hjb",
        "seed": 1,
        "model": {"registry": "LQ-mean-reverting"},
        "n": 2,
        "grid": grid,
        "horizon": {"t0": 0.25, "T": 0.75},
    })
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    want = sized_grid(REGISTRY["LQ-mean-reverting"], 2, grid["axes"], 0.25, 0.75,
                      margin=0.2)
    assert json.loads((out / "grid.json").read_text())["grid"] == want.to_json()
    default_horizon = sized_grid(REGISTRY["LQ-mean-reverting"], 2, grid["axes"], 0.0, 1.0)
    assert want.time_steps != default_horizon.time_steps


def test_verify_concurrent_jobs_match_serial(tmp_path, capsys):
    """--jobs runs the probes of a verify config and those a mollify block selects
    in worker processes; the artifacts, stdout, stderr and exit code are those of
    --jobs 1, with every verdict passing and with a failing one."""
    probes = [{
        "probe": "cost-identity",
        "model": {"registry": name},
        "sim": {"t0": 0.0, "T": 0.5, "steps": 6, "n_paths": 4},
        "x0": [[0.5]],
    } for name in ("LQ-decoupled", "LQ-mean-reverting", "tanh-interaction")]
    mollify = {"kind": "mollify", "seed": 5, "k_list": [2, 4],
               "mollify": {"mc_reps": 200, "segments": 2}}
    docs = [
        ({"kind": "verify", "seed": 5, "probes": probes}, "3", 0),
        ({"kind": "verify", "seed": 5, "probes": [probes[0], dict(probes[1], threshold=-1.0)]},
         "2", 1),
        (dict(mollify, mollify=dict(mollify["mollify"], probes=["lipschitz-preservation",
                                                                "convexity-preservation"])),
         "2", 0),
        # the uniform-convergence verdict fails at these sizes
        (mollify, "3", 1),
    ]
    for doc, jobs, want in docs:
        cfg = _write(tmp_path / "c.json", doc)
        runs = []
        for argv in ([], ["--jobs", jobs]):
            out = tmp_path / f"o{len(runs)}"
            code = main(["run", "--config", cfg, "--out", str(out), *argv])
            std = capsys.readouterr()
            runs.append((code, std.out, std.err,
                         *((out / a).read_bytes() for a in ("results.csv", "summary.json"))))
        assert runs[0] == runs[1] and runs[0][1], doc
        assert runs[0][0] == want and runs[0][2].startswith("failed probes: ") == bool(want), doc


@pytest.mark.parametrize("error", [
    CFLError(1e-3, 5e-4, 20),
    ExpressionSyntaxError("unexpected end of input", 7, ("number", "(")),
    FloatingPointError("1 of 4 paths blew up at step 2 of 4"),
], ids=lambda e: type(e).__name__)
def test_probe_error_in_a_worker_is_reported_as_in_process(tmp_path, capsys, monkeypatch, error):
    """An exception a probe raises in a pool worker reaches the run as itself:
    --jobs 2 exits as --jobs 1 does, with the same `runtime failure:` line."""
    def fail(spec, model, horizon, grids):
        raise error

    schema, _, solves = cli.PROBES["time-holder"]
    monkeypatch.setitem(cli.PROBES, "time-holder", (schema, fail, solves))
    cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 1, "probes": [
        {"probe": name, **SMALL_SPECS[name]} for name in ("cost-identity", "time-holder")]})
    runs = []
    for jobs in ("1", "2"):
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs])
        runs.append((code, capsys.readouterr().err))
    assert runs[0] == runs[1] == (1, f"runtime failure: {type(error).__name__}: {error}\n")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_a_killed_worker_ends_the_run_at_once(tmp_path, capsys, monkeypatch):
    """A --jobs 2 worker that dies (SIGKILL) breaks the pool: the run exits 1 with
    BrokenProcessPool at once, writes no artifact, and the pool ends its other
    worker, which would otherwise sleep for a minute."""
    def die(spec, model, horizon, grids):
        os.kill(os.getpid(), signal.SIGKILL)

    def sleep(spec, model, horizon, grids):
        time.sleep(60)

    for name, runner in (("time-holder", die), ("cost-identity", sleep)):
        schema, _, solves = cli.PROBES[name]
        monkeypatch.setitem(cli.PROBES, name, (schema, runner, solves))
    cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 1, "probes": [
        {"probe": name, **SMALL_SPECS[name]} for name in ("cost-identity", "time-holder")]})
    before = _children(os.getpid())
    start = time.monotonic()
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert time.monotonic() - start < 30
    assert (code, capsys.readouterr().err) == (1, (
        "runtime failure: BrokenProcessPool: A process in the process pool was terminated "
        "abruptly while the future was running or pending.\n"))
    assert list((tmp_path / "o").iterdir()) == []
    assert not any(map(_alive, set(_children(os.getpid())) - set(before)))


def test_every_exception_class_pickles():
    """What a worker process raises is pickled to the run: every exception class
    of mfclab comes back with its type, message and attributes."""
    errors = [cli.ConfigError("bad grid at $.grid: an axis needs lo < hi, got [1, 0]"),
              CFLError(1e-3, 5e-4, 20),
              ExpressionSyntaxError("unexpected end of input", 7, ("number", "(")),
              EvaluationError("x[2] is not given"),
              UnsupportedShapeError("unequal atom counts in d = 2")]
    modules = [importlib.import_module(f"mfclab.{info.name}")
               for info in pkgutil.iter_modules(mfclab.__path__)]
    classes = {c for m in modules for c in vars(m).values() if isinstance(c, type)
               and issubclass(c, BaseException) and c.__module__ == m.__name__}
    assert {type(e) for e in errors} == classes
    for e in errors:
        back = pickle.loads(pickle.dumps(e))
        assert (type(back), str(back), vars(back)) == (type(e), str(e), vars(e))


def test_jobs_forks_one_worker_per_concurrent_probe(tmp_path, monkeypatch):
    """The pool forks min(jobs, probes) workers; --jobs 1 and a single probe run
    in this process and fork none."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    specs = [{"probe": "cost-identity", **SMALL_SPECS["cost-identity"], "seed": s}
             for s in range(3)]
    for probes, jobs, want in [(specs, "8", 3), (specs, "2", 2), (specs, "1", 0),
                               (specs[:1], "8", 0)]:
        cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 1, "probes": probes})
        forks.clear()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs]) == 0
        assert len(forks) == want, (len(probes), jobs)


def _children(pid) -> dict:
    """{(pid, start time): state letter} of the live processes whose parent is `pid`."""
    out = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # ended while we read
            continue
        if int(fields[1]) == pid:
            out[int(stat.parent.name), fields[19]] = fields[0]
    return out


def _alive(process) -> bool:
    """Whether (pid, start time) still runs: not ended, not a zombie, pid not reused."""
    pid, start = process
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    except OSError:
        return False
    return fields[19] == start and fields[0] not in "ZX"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_no_worker_outlives_a_killed_run(tmp_path):
    """SIGKILL of a `run --jobs 2` in the middle of its marches: its two pool
    workers end within seconds instead of running on re-parented."""
    grid = {"axes": [[-3.0, 3.0, 81]] * 2}
    cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 1, "probes": [
        {"probe": "permutation-invariance", "grid": grid, "T": 4.0}] * 2})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "mfclab.cli", "run", "--config", cfg,
                             "--out", str(tmp_path / "o"), "--jobs", "2"],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = {}
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert len(workers) == 2
        time.sleep(0.5)
        assert proc.poll() is None, "the run ended before it was killed"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        proc.kill()
        proc.wait()
        for pid, _ in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


def test_each_spec_builds_its_model_once(tmp_path, monkeypatch):
    """A three-probe verify config is resolved once: one model for the config and
    one per probe, none rebuilt to run the probes."""
    calls = []
    build = cli.model_from_json
    monkeypatch.setattr(cli, "model_from_json", lambda doc: calls.append(doc) or build(doc))
    cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 2, "probes": [
        {"probe": name, **SMALL_SPECS[name]}
        for name in ("cost-identity", "duplication-consistency", "time-holder")]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1)
    assert len(calls) == 4


def test_points_on_the_grid_edge_are_inside(tmp_path):
    for doc in [dict(SMALL_CONFIGS["solve-hjb"], x0=[3.0]),
                dict(SMALL_CONFIGS["sweep"], sweep=dict(SMALL_CONFIGS["sweep"]["sweep"],
                                                        base_atoms=[[-3.0]]))]:
        cfg = _write(tmp_path / "c.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0, doc


def test_run_format_json_stdout(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {
        "kind": "verify",
        "seed": 5,
        "probes": [{
            "probe": "cost-identity",
            "model": {"registry": "LQ-decoupled"},
            "sim": {"t0": 0.0, "T": 0.5, "steps": 4, "n_paths": 4},
            "x0": [[0.5]],
        }],
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["passed"] is True


def test_solve_dump_cadence_and_sidecar(tmp_path):
    """The value dump holds every cadence-th stored slice, byte for byte as
    csv.writer writes the rows [slice, node_index, repr(value)]."""
    model = REGISTRY["LQ-decoupled"]
    for n, axes, cadence in [(1, [[-2.0, 2.0, 17]], 4), (2, [[-2.0, 2.0, 9]] * 2, 1)]:
        cfg = _write(tmp_path / "c.json", {
            "kind": "solve-hjb",
            "seed": 1,
            "model": {"registry": "LQ-decoupled"},
            "n": n,
            "grid": {"axes": axes},
            "horizon": {"t0": 0.0, "T": 0.2},
            "dump_cadence": cadence,
        })
        out = tmp_path / f"o{n}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        side = json.loads((out / "grid.json").read_text())
        assert side["grid"]["axes"] == axes and side["dump_cadence"] == cadence
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        u = solve_hjb(model, n, sized_grid(model, n, axes, 0.0, 0.2), 0.0, 0.2)
        want = [[str(k), str(idx), repr(float(v))]
                for k in range(0, u.values.shape[0], cadence)
                for idx, v in enumerate(u.values[k].reshape(-1))]
        assert len(want) > u.values[0].size and rows == want
        text = io.StringIO(newline="")
        csv.writer(text).writerows([["slice", "node_index", "value"], *want])
        assert (out / "results.csv").read_bytes() == text.getvalue().encode()


def _csv_writer_dump(values, cadence):
    """What csv.writer writes for the rows [slice, node_index, repr(value)] of
    every cadence-th slice of a stack."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows([["slice", "node_index", "value"],
                                *([k, idx, repr(v)] for k in range(0, len(values), cadence)
                                  for idx, v in enumerate(values[k].reshape(-1).tolist()))])
    return text.getvalue()


def _dump_counting_reprs(monkeypatch, values, cadence):
    """cli._value_dump of a stack of slices, and the number of values it formats
    (calls to repr) for each dumped slice."""
    calls = []
    monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    chunks, counts = [], []
    for chunk in cli._value_dump(SimpleNamespace(values=values), cadence):
        chunks.append(chunk)
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == 0       # the header
    return "".join(chunks), counts[1:]


def _distinct_bit_patterns(values, cadence):
    return [np.unique(values[k].reshape(-1).view(np.int64)).size
            for k in range(0, len(values), cadence)]


@pytest.mark.parametrize("cadence", [1, 2, 3])
def test_value_dump_formats_each_distinct_value_once(monkeypatch, cadence):
    """Repeated values, 0.0 beside -0.0, a subnormal and both infinities dump as
    csv.writer writes them, and each slice formats one value per distinct bit
    pattern: 0.0 and -0.0 are two, 1.0 written three times is one."""
    base = np.array([[0.0, -0.0, 1.0, 1.0], [5e-324, np.inf, -np.inf, 1.0], [0.1, -0.1, 0.0, 0.3]])
    values = np.stack([base, 2.0 * base, np.full_like(base, -0.0), base[::-1], base.T.reshape(3, 4)])
    text, counts = _dump_counting_reprs(monkeypatch, values, cadence)
    assert text == _csv_writer_dump(values, cadence)
    assert counts == _distinct_bit_patterns(values, cadence)
    assert counts[0] == 9


@pytest.mark.parametrize("name", sorted(REGISTRY))
@pytest.mark.parametrize("n, points", [(1, 41), (2, 21), (3, 11)])
def test_value_dump_of_a_solve_is_csv_writers(monkeypatch, name, n, points):
    """A solve's dump is csv.writer's, byte for byte, at cadence 1 and 3. Each
    slice formats one value per distinct bit pattern, which for n >= 2 is far
    fewer than its nodes: u_n is symmetric in the atoms."""
    model = REGISTRY[name]
    grid = sized_grid(model, n, [[-2.0, 2.0, points]] * n, 0.0, 0.5)
    values = solve_hjb(model, n, grid, 0.0, 0.5).values
    for cadence in (1, 3):
        text, counts = _dump_counting_reprs(monkeypatch, values, cadence)
        assert text == _csv_writer_dump(values, cadence)
        assert counts == _distinct_bit_patterns(values, cadence)
    if n >= 2:
        assert max(counts) <= math.comb(points + n - 1, n) < values[0].size


def test_mollify_kind(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "kind": "mollify",
        "seed": 4,
        "k_list": [2, 4],
        "mollify": {"functional": "mean", "probes": ["lipschitz-preservation"], "mc_reps": 400},
    })
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["probes"]) == 2


def test_sweep_kind(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "kind": "sweep",
        "seed": 6,
        "model": {"registry": "LQ-decoupled"},
        "sweep": {"base_atoms": [[1.0]], "duplications": [1, 2],
                  "grid_axis": [-3.0, 3.0, 61]},
    })
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert rows[0] == "n,value,std_error,mode,gap_to_previous"
    assert len(rows) == 3


def test_duplication_probe_keeps_the_compared_slices(tmp_path, monkeypatch):
    """Both solves of the duplication probe keep at most the three slices it
    compares (t0, the midpoint and T), and read at each of those times bit for
    bit what a solve keeping every stored slice reads. The small solve's 604
    steps store every third slice, so its midpoint, step 302, is not one of
    them: it reads the nearest stored slice, step 303."""
    calls = recording_solves(monkeypatch, cli)
    spec = {"probe": "duplication-consistency", "t0": 0.1, "T": 0.7, "base_n": 1, "m": 3,
            "grid_small": {"axes": [[-2.0, 2.0, 41]], "time_steps": 604},
            "grid_big": {"axes": [[-2.0, 2.0, 9]] * 3}, "test_points": [[0.5]],
            "threshold": 0.1}
    cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 1, "probes": [spec]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    times = (0.1, 0.5 * (0.1 + 0.7), 0.7)
    pts = np.random.default_rng(2).uniform(-2.0, 2.0, (16, 3))
    assert sorted(u.n for _, _, u in calls) == [1, 3]
    for args, kwargs, u in calls:
        full = solve_hjb(*args)
        assert kwargs == {"read_times": times} and u.values.shape[0] <= 3
        assert full.values.shape[0] > 3
        for t in times:
            got = u.value_at(t, pts[:, :u.n])
            assert got.tobytes() == full.value_at(t, pts[:, :u.n]).tobytes()


@pytest.mark.parametrize("name", LISTED_PROBES)
def test_verify_runs_every_listed_probe(tmp_path, capsys, name):
    cfg = _write(tmp_path / "c.json",
                 {"kind": "verify", "seed": 2, "probes": [{"probe": name, **SMALL_SPECS[name]}]})
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    # at these sizes a verdict may fail (exit 1), but the probe must run
    assert code in (0, 1) and "runtime failure" not in err and "config error" not in err, err
    with open(out / "results.csv", newline="") as fh:
        reported = [row[0] for row in csv.reader(fh)][1:]
    assert reported and all(r.startswith(name) for r in reported)


@pytest.mark.parametrize("name", LISTED_PROBES)
def test_probe_spec_without_keys_exits_2(tmp_path, capsys, name):
    cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 2, "probes": [{"probe": name}]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "at $.probes[0]: " in err and "is a required property" in err


def test_invalid_second_probe_fails_before_first_computes(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.verify, "cost_identity_check", lambda *a, **k: calls.append(a))
    cfg = _write(tmp_path / "c.json", {"kind": "verify", "seed": 2, "probes": [
        {"probe": "cost-identity", **SMALL_SPECS["cost-identity"]},
        {"probe": "duplication-consistency", "base_n": 1},
    ]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "at $.probes[1]: " in capsys.readouterr().err
    assert calls == []


def test_artifact_modes_follow_umask(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "kind": "simulate",
        "seed": 9,
        "model": {"registry": "LQ-decoupled"},
        "sim": {"t0": 0.0, "T": 0.5, "steps": 4, "n_paths": 4},
        "x0": [[1.0]],
        "dump_trajectories": True,
    })
    out = tmp_path / "o"
    old = os.umask(0o027)
    try:
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "results.csv", "summary.json", "trajectories.csv"]
    for p in out.iterdir():
        assert p.stat().st_mode & 0o777 == 0o640, p.name


def test_failed_csv_write_keeps_the_old_file(tmp_path):
    """Rows stream into a temporary file; a row source that fails part way
    leaves the old artifact in place and no temporary file behind."""
    path = tmp_path / "results.csv"
    path.write_text("old\n")

    def rows():
        yield [1, 2]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        reports.write_csv(path, ["a", "b"], rows())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]
