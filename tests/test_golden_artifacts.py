"""The behaviour contract, pinned: the benchmark workloads' toy configs at seed 1
write byte-identical results.csv, summary.json and grid.json, with the same
exit code, as when the pins below were made.

perfbench/workloads.py builds the configs. It is loaded by path and only read,
as test_tracer_contract.py loads the tracer. Only a change to a random stream
or to an artifact's format may regenerate the pins (ROADMAP.md, "Rules").
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mfclab.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 1

# workload -> (exit code, {artifact: SHA-256}); mollify-m2 exits 1 on its known
# uniform-convergence failure
PINS = {
    "mollify-m2": (1, {
        "results.csv": "6660bf48dba2d0380aec848312514329435ba7c38b3a92ce9d594ccc90f4be6f",
        "summary.json": "a0590b6cd2c7c157adf735191e7f53303dd2d890acc42dfcba018985b65260fd"}),
    "simulate-mc": (0, {
        "results.csv": "7f1d6992a8780a19a650a2d118ea0b869997e21fa84f5c9819a32be109f3bdb2",
        "summary.json": "564e6e34b71b8ba864f609f80e5fd7ddf809abf6361c327a2b47e714271f6652"}),
    "solve-n2": (0, {
        "grid.json": "143b917d92628fea6e8a369af7d7bc2152549dcc5f760c1a54996e3f97220b7e",
        "results.csv": "1794c17964ef2abd2bcff738719031998b2a8f0cf50c11dd7408844404558383",
        "summary.json": "fcfd05d6d24507497f0c55e1d88ec7436c8947aae481d10aa1c853788c5c9269"}),
    "verify-n3": (0, {
        "results.csv": "f490ec5ece3c60eb2fe627e48d5a7752aacb996fc3dc7558ca4155bd69a84237",
        "summary.json": "488107f62dde2f4a4d92b58e6bef8627623e487dd66bedc2ec543e71c30d4248"}),
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_pins_cover_every_workload():
    assert sorted(PINS) == sorted(_load_workloads().WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_toy_run_matches_its_pins(name, tmp_path, capsys):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(workload.config(SEED, toy=True)))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--jobs", str(workload.jobs)])
    hashes = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
              for a in workloads.STABLE_ARTIFACTS if (out / a).is_file()}
    assert (code, hashes) == PINS[name], capsys.readouterr().err
