"""Smoke test of the benchmark at toy sizes.

    python -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced, and checks the metric
names and units against BENCHMARK.json, the self-time bookkeeping of the
trace, the failure accounting and the result line's shape.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted(name):
    result = run.measure(name, seed=1, seconds=0, trace=False, toy=True)["result"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"], result
    assert result["attempted"] >= run.MIN_ROUNDS


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_layer_metrics(name):
    out = run.measure(name, seed=2, seconds=0, trace=True, toy=True)
    result = out["result"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert result["correct"], result
    traced = [inv for inv in out["record"]["invocations"] if inv["layer"] is not None]
    assert len(traced) >= run.MIN_TRACED_ROUNDS
    for run_id, inv in enumerate(traced):
        assert {s["run"] for s in inv["spans"]} == {run_id}
        layer = inv["layer"]
        selfs = sum(layer[f"{lay}.self_s"] for lay in run.tracer.LAYERS)
        assert selfs > 0
        # Self times never count an instant twice within one thread, so they sum
        # to at most the traced wall time of each thread that ran spans. With
        # --jobs 1 that is the root span alone.
        threads = {s["thread"] for s in inv["spans"]}
        busy = sum(run.tracer._covered([(s["start"], s["end"]) for s in inv["spans"]
                                        if s["thread"] == t]) for t in threads)
        assert selfs <= busy + 1e-6
        if len(threads) == 1:
            assert busy <= layer["trace.root_s"] + 1e-6


def test_config_error_is_a_failed_operation(tmp_path):
    workload = WORKLOADS["simulate-mc"]
    cfg = dict(workload.config(1, toy=True), bogus=1)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    inv = run.invoke(workload, 1, cfg_path, cfg, tmp_path, deadline=time.monotonic() + 120)
    assert inv.exit_code == 2
    assert run.account(workload, [inv]) == (1, 1, False)


def test_known_failure_counts_but_stays_correct():
    workload = WORKLOADS["mollify-m2"]
    ok = run.Invocation([], 1.0, 1.0, 1.0, 1, "", verdicts=[(workload.known_failures[0], False),
                                                        ("convexity-preservation[x]", True)])
    assert run.account(workload, [ok]) == (3, 1, True)
    bad = run.Invocation([], 1.0, 1.0, 1.0, 1, "", verdicts=[("convexity-preservation[x]", False)])
    assert run.account(workload, [bad]) == (2, 1, False)


def test_result_line_and_missing_program(tmp_path):
    cmd = SPEC["command"] + ["--workload", "simulate-mc", "--seed", "3", "--seconds", "0",
                             "--trace", "0", "--toy"]
    done = subprocess.run([sys.executable] + cmd[1:], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    # a checkout holding only the benchmark must fail without a result
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = subprocess.run([sys.executable] + cmd[1:], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert bare.returncode != 0
    assert '"metrics"' not in bare.stdout
