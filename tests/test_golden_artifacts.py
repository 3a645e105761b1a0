"""The behaviour contract, pinned: the benchmark workloads' toy configs and one
sweep config, at seeds 1 and 2, and the full-size mollify-m2 config at seed 1,
write byte-identical results.csv, summary.json and grid.json, with the same
exit code, as when the pins below were made.

perfbench/workloads.py builds the configs. It is loaded by path and only read,
as test_tracer_contract.py loads the tracer. Only a change to a random stream,
to an artifact's format or to the solver's scheme may regenerate the pins
(ROADMAP.md, "Rules"), and then only the pins that the change moves.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mfclab.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# workload -> {seed: (exit code, {artifact: SHA-256})}; mollify-m2 exits 1 on its
# known uniform-convergence failure
PINS = {
    "mollify-m2": {
        1: (1, {"results.csv": "6660bf48dba2d0380aec848312514329435ba7c38b3a92ce9d594ccc90f4be6f",
                "summary.json": "a0590b6cd2c7c157adf735191e7f53303dd2d890acc42dfcba018985b65260fd"}),
        2: (1, {"results.csv": "0384d3ad89dcf585da2365111ef6ec67a1b796f6c847d7d03d487fbc7887ebad",
                "summary.json": "22d5f8538040803dd466c19b666ddb201f2e63e3d1280205b5bc5fc61aace53c"})},
    "simulate-mc": {
        1: (0, {"results.csv": "7f1d6992a8780a19a650a2d118ea0b869997e21fa84f5c9819a32be109f3bdb2",
                "summary.json": "564e6e34b71b8ba864f609f80e5fd7ddf809abf6361c327a2b47e714271f6652"}),
        2: (0, {"results.csv": "b871023f73d69dbe5c5760474839e844e4a60a58ddea574944458c0228b4e7ff",
                "summary.json": "dceab560d9cb14e7ea021f0f65cf96c8b2bc513740a59f186765d7b719d6b696"})},
    "solve-n2": {
        1: (0, {"grid.json": "143b917d92628fea6e8a369af7d7bc2152549dcc5f760c1a54996e3f97220b7e",
                "results.csv": "d00d4c860ab4dc7ad449a863b9663a109e896d017a705834748fd0129177206e",
                "summary.json": "fcfd05d6d24507497f0c55e1d88ec7436c8947aae481d10aa1c853788c5c9269"}),
        2: (0, {"grid.json": "143b917d92628fea6e8a369af7d7bc2152549dcc5f760c1a54996e3f97220b7e",
                "results.csv": "d00d4c860ab4dc7ad449a863b9663a109e896d017a705834748fd0129177206e",
                "summary.json": "a6dce3093d78a1b3e5d5d83d6d5f9f22d32ad8f76697eeb52ae05099a25a8735"})},
    "verify-n3": {
        1: (0, {"results.csv": "78f3bbed13fe0b743f89c64a0a29366f95827856ec2f143495f5fe8b569bf163",
                "summary.json": "2f6b15e99296597c45d3e76647c4e95f8450fb1326242f3785c1382833d9dabe"}),
        2: (0, {"results.csv": "8a715f7c64441b3e1869a6cd836f0ede17feecb8bffbb125542b7c536deeef8c",
                "summary.json": "2812da86daf963e344d8e36b471ab3e4730dd93149cc59a7eb45b1d8c15df02c"})},
}

# The full-size mollify-m2 config at seed 1: its 1,000 replicates put up to 65,000
# bump slots in one sampler call, more than one Philox tile and enough that the
# sampler draws one round per pass at first; the toy config's 50 replicates
# (at most 3,250 slots) reach neither.
FULL_PINS = {
    "mollify-m2": {
        1: (1, {"results.csv": "28a627b901cb8d4b550f1925ce51ceb3e9334cfe3ed4572a902159704f3f1313",
                "summary.json": "e1cc2962396c6c86d8926dc26ff70aa7f43f40abe1f6bfd5b6b6ac972ab86e7a"})},
}


# No workload runs the sweep kind, so its config is pinned here: grid rows at
# n = 1 and 2, and a Monte Carlo row at n = 4.
SWEEP_CONFIG = {"kind": "sweep", "model": {"registry": "LQ-decoupled"},
                "horizon": {"t0": 0.0, "T": 1.0},
                "sweep": {"base_atoms": [[0.5]], "grid_axis": [-3.0, 3.0, 17],
                          "duplications": [1, 2, 4],
                          "sim": {"t0": 0.0, "T": 1.0, "steps": 8, "n_paths": 50}}}
SWEEP_PINS = {
    1: (0, {"results.csv": "de7cc79f8ec1548efea906ab7baafc1ba53617c2c7d60cb75ce67b02e08294a4",
            "summary.json": "920d506eb5b98a0913d9bac6a66e310fcf371356010111ccd959d862ac56f3d2"}),
    2: (0, {"results.csv": "18a37582eb6c2229d5e0703a543fca632013155b94d8e45529230b1677a60c65",
            "summary.json": "13e2e72f5eb92ae7a4d2965df7e392698dfe142ca91d81cacc5d34012185e0e7"}),
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _run(doc, out, jobs, artifacts):
    """(exit code, {artifact: SHA-256}) of one run of the config `doc` into `out`."""
    cfg = out.with_suffix(".json")
    cfg.write_text(json.dumps(doc))
    code = main(["run", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)])
    return code, {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
                  for a in artifacts if (out / a).is_file()}


def test_pins_cover_every_workload():
    assert sorted(PINS) == sorted(_load_workloads().WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_toy_run_matches_its_pins(name, tmp_path, capsys):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    for seed, pin in PINS[name].items():
        got = _run(workload.config(seed, toy=True), tmp_path / f"out-{seed}", workload.jobs,
                   workloads.STABLE_ARTIFACTS)
        assert got == pin, (seed, capsys.readouterr().err)


@pytest.mark.parametrize("name", sorted(FULL_PINS))
def test_full_size_run_matches_its_pins(name, tmp_path, capsys):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    for seed, pin in FULL_PINS[name].items():
        got = _run(workload.config(seed, toy=False), tmp_path / f"out-{seed}", workload.jobs,
                   workloads.STABLE_ARTIFACTS)
        assert got == pin, (seed, capsys.readouterr().err)


def test_sweep_run_matches_its_pins(tmp_path, capsys):
    artifacts = _load_workloads().STABLE_ARTIFACTS
    for seed, pin in SWEEP_PINS.items():
        got = _run(dict(SWEEP_CONFIG, seed=seed), tmp_path / f"out-{seed}", 1, artifacts)
        assert got == pin, (seed, capsys.readouterr().err)
