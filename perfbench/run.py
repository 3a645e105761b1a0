"""mfclab benchmark: closed-loop `mfclab run` invocations on seeded workloads.

    python3 perfbench/run.py --workload solve-n2 --seed 1 --seconds 30 --trace 0

One client runs one `mfclab run` at a time, each in a fresh interpreter with
PYTHONPATH=src (the package is not installed), until --seconds have passed
(and at least MIN_ROUNDS rounds ran). Every other round (and each of the
first MIN_SETUPS) also times set-up: a fresh interpreter that imports every
layer and computes nothing (`mfclab list --format json`).

--trace 0 reports the end-to-end metrics (medians over the rounds):
  wall_norm_s  wall time of one `mfclab run`, interpreter start and imports
               included, scaled to the host speed of REF_PROBE_S (see below)
  setup_s      wall time of the import-only invocation
  peak_rss_mb  max RSS of the `mfclab run` child (wait4 rusage of that child)
The speed of a shared host drifts by up to ~1.5x over minutes, so the median
wall time of a run moves with the host, not only with the program. Before each
invocation the benchmark times PROBES_PER_ROUND calls of speed_probe(), fixed
numpy and interpreter work that does not touch mfclab, and reports
    wall_norm_s = median(wall) * REF_PROBE_S / median(probe).
A change to mfclab moves wall_norm_s as it moves the wall time; a slower host
moves both factors. The raw median wall time (wall_s) and the probe times are
printed and kept in the record.
--trace 1 alternates an untraced invocation with a traced one (perfbench/
tracer.py, same process as mfclab) and reports the per-layer metrics of the
traced ones (medians) plus trace.overhead_frac, the traced wall time over the
untraced wall time, minus one.

Every invocation is checked: exit code (1 exactly when a probe verdict
failed), the artifact set, byte-identical results.csv / summary.json /
grid.json across all invocations of the config, and the workload's oracle
checks (workloads.py). One operation is the invocation itself plus each probe
verdict it writes; failed verdicts listed as known failures of the workload
are counted as failed but leave `correct` true. The human-readable lines
before the final JSON line also give oracle_err (on the workloads with an
oracle), failed_frac and the environment; the full record, spans included,
is written under perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer
from workloads import STABLE_ARTIFACTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"

MIN_ROUNDS = 3          # timed rounds: enough for a median and the byte-identity check
MIN_SETUPS = 3          # set-up timings per untraced run, at the least
PROBES_PER_ROUND = 3
REF_PROBE_S = 0.115     # speed_probe() median on a 2-vCPU x86-64 VM (Python 3.11, numpy 2)
MIN_TRACED_ROUNDS = 2
HARD_LIMIT_S = 150.0    # stop starting rounds past this, whatever --seconds says

E2E_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s", "cli.artifact_bytes": "B",
    "hjb.self_s": "s", "hjb.ns_per_node_step.nd1": "ns", "hjb.ns_per_node_step.nd2": "ns",
    "hjb.ns_per_node_step.nd3": "ns", "hjb.node_steps": "count", "hjb.stored_bytes": "B",
    "hjb.riccati_s": "s", "hjb.feedback_ns_per_query": "ns",
    "simulate.self_s": "s", "simulate.ns_per_particle_step": "ns",
    "simulate.integrations": "count", "simulate.particle_steps": "count",
    "simulate.path_stats_s": "s", "simulate.state_bytes": "B",
    "costs.self_s": "s", "costs.ns_per_particle_step": "ns",
    "expressions.self_s": "s", "expressions.evals": "count", "expressions.ns_per_node": "ns",
    "models.self_s": "s",
    "rng.self_s": "s", "rng.counters": "count", "rng.ns_per_counter": "ns",
    "mollify.self_s": "s", "mollify.bump_proposals": "count", "mollify.bump_accepts": "count",
    "mollify.bump_accept_ratio": "ratio",
    "measures.self_s": "s", "measures.wasserstein_calls": "count", "measures.wasserstein_s": "s",
    "verify.self_s": "s", "verify.probe_s.cost-identity": "s",
    "verify.probe_s.duplication-consistency": "s", "verify.probe_s.feedback-roundtrip": "s",
    "verify.jobs_overlap": "ratio",
    "oracle_err": "abs",
    "trace.overhead_frac": "ratio",
}
# Counts must repeat exactly between traced invocations of one config. The
# artifact total is left out: it includes the manifest's timestamp.
EXACT_COUNTS = tuple(k for k, unit in LAYER_UNITS.items()
                     if unit in ("count", "B") and k != "cli.artifact_bytes")


class SetupError(RuntimeError):
    """The program cannot be started at all; no result is printed."""


@dataclass
class Invocation:
    argv: list
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    stderr: str
    verdicts: list = field(default_factory=list)    # (probe name, passed)
    problems: list = field(default_factory=list)
    artifact_bytes: int = 0
    hashes: dict = field(default_factory=dict)
    oracle_err: float | None = None
    layer: dict | None = None
    spans: list | None = None

    def to_json(self) -> dict:
        return dict(vars(self))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, cwd: Path, deadline: float):
    """Run argv to completion -> (wall s, max RSS MB, CPU s, exit code, stderr tail)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (cwd / "stderr.txt").read_text(errors="replace")[-2000:]
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, proc.returncode, stderr


def speed_probe() -> float:
    """Seconds for fixed work of the three kinds mfclab does (none of it mfclab's).

    A numpy stencil sweep (like the FD march and the integrator), an
    interpreter loop (like per-step Python code) and float formatting (like
    the CSV artifact writer). The host's slowdowns hit the three unequally, and
    each workload mixes them differently, so the probe holds all three.
    """
    start = time.perf_counter()
    a = np.linspace(0.0, 1.0, 1 << 18)
    for _ in range(60):
        b = a[2:] - 2.0 * a[1:-1] + a[:-2]
        a[1:-1] += 0.1 * b
    s = 0
    for i in range(200_000):
        s += i * i % 7
    x = [i * 0.37 for i in range(30_000)]
    "".join("%d,%d,%.17g\n" % (k % 257, k, v) for k, v in enumerate(x))
    return time.perf_counter() - start


def time_setup(workdir: Path, deadline: float) -> float:
    wall, _, _, code, stderr = spawn([sys.executable, "-m", "mfclab.cli", "list", "--format", "json"],
                                  workdir, deadline)
    try:
        listing = json.loads((workdir / "stdout.txt").read_text())
    except json.JSONDecodeError:
        listing = {}
    if code != 0 or "models" not in listing:
        raise SetupError(f"`mfclab list` failed with exit {code}: {stderr.strip()}")
    return wall


def _read_verdicts(path: Path) -> list:
    with open(path, newline="") as fh:
        return [(row["probe"], row["pass"] == "true") for row in csv.DictReader(fh)]


def invoke(workload, seed: int, cfg_path: Path, cfg: dict, workdir: Path, deadline: float,
           traced_spans: Path | None = None, run_id: int = 0) -> Invocation:
    """One `mfclab run` (traced when traced_spans is given), then its output checks."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    cli = ["run", "--config", str(cfg_path), "--out", str(out), "--jobs", str(workload.jobs)]
    if traced_spans is None:
        argv = [sys.executable, "-m", "mfclab.cli"] + cli
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(traced_spans),
                "--run-id", str(run_id), "--"] + cli
        traced_spans.unlink(missing_ok=True)
    wall, rss, cpu, code, stderr = spawn(argv, workdir, deadline)
    inv = Invocation(argv=argv[1:], wall_s=wall, peak_rss_mb=rss, cpu_s=cpu, exit_code=code,
                     stderr=stderr)
    if code not in (0, 1):
        inv.problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
        return inv
    missing = [a for a in workload.artifacts if not (out / a).is_file()]
    if missing:
        inv.problems.append(f"missing artifacts {missing} (exit {code}): {stderr.strip()[-300:]}")
        return inv
    inv.artifact_bytes = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    inv.hashes = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
                  for a in STABLE_ARTIFACTS if (out / a).is_file()}
    if cfg["kind"] in ("verify", "mollify"):
        inv.verdicts = _read_verdicts(out / "results.csv")
    if code != (1 if any(not ok for _, ok in inv.verdicts) else 0):
        inv.problems.append(f"exit code {code} disagrees with the verdicts {inv.verdicts}")
    try:
        problems, inv.oracle_err = workload.check(seed, cfg, out)
        inv.problems += problems
    except (OSError, KeyError, ValueError, TypeError) as e:
        inv.problems.append(f"output check raised {type(e).__name__}: {e}")
    if inv.oracle_err is not None and not inv.oracle_err < float("inf"):
        inv.problems.append(f"oracle_err {inv.oracle_err!r} is not finite")
    if traced_spans is not None:
        if not traced_spans.is_file():
            inv.problems.append("the traced run wrote no spans")
            return inv
        spans = json.loads(traced_spans.read_text())
        if spans["missing"]:
            inv.problems.append(f"tracer found no {spans['missing']}")
        inv.spans = spans["spans"]
        inv.layer = tracer.layer_metrics(inv.spans)
        inv.layer["cli.artifact_bytes"] = inv.artifact_bytes
        inv.layer["oracle_err"] = inv.oracle_err or 0.0
    return inv


def account(workload, invocations) -> tuple:
    """(attempted, failed, correct): one operation per invocation and per verdict."""
    attempted = failed = 0
    correct = bool(invocations)
    reference = invocations[0].hashes if invocations else {}
    for inv in invocations:
        if inv.hashes != reference:
            inv.problems.append("artifact bytes differ from the first invocation of this config")
        attempted += 1 + len(inv.verdicts)
        failed += bool(inv.problems) + sum(not ok for _, ok in inv.verdicts)
        unknown = [name for name, ok in inv.verdicts
                   if not ok and name not in workload.known_failures]
        correct = correct and not inv.problems and not unknown
    return attempted, failed, correct


def environment() -> dict:
    mem = None
    try:
        with open("/proc/meminfo") as fh:
            mem = next((line.split(":")[1].strip() for line in fh if line.startswith("MemTotal")),
                       None)
    except OSError:
        pass
    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "mem_total": mem,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def measure(workload_name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run the closed loop for one workload; returns the result and the full record."""
    workload = WORKLOADS[workload_name]
    cfg = workload.config(seed, toy)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S + 25.0
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    try:
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        time_setup(workdir, deadline)            # warm-up: .pyc files and the page cache
        setups, probes, runs, traced = [], [], [], []
        rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS

        last_round = 0.0

        def more():
            # start a round only if at least half of it fits in --seconds, so
            # the run ends within half a round of --seconds on average
            elapsed = time.monotonic() - start
            return len(runs) < rounds or (elapsed + 0.5 * last_round < seconds
                                          and elapsed < HARD_LIMIT_S)

        while more():
            round_start = time.monotonic()
            if trace:                            # alternate which of the pair runs first
                for traced_turn in (False, True) if len(runs) % 2 == 0 else (True, False):
                    if traced_turn:
                        traced.append(invoke(workload, seed, cfg_path, cfg, workdir, deadline,
                                             traced_spans=workdir / "spans.json",
                                             run_id=len(traced)))
                    else:
                        runs.append(invoke(workload, seed, cfg_path, cfg, workdir, deadline))
            else:
                if len(setups) < MIN_SETUPS or len(runs) % 2 == 0:
                    setups.append(time_setup(workdir, deadline))
                probes += [speed_probe() for _ in range(PROBES_PER_ROUND)]
                runs.append(invoke(workload, seed, cfg_path, cfg, workdir, deadline))
            if runs[-1].problems and runs[-1].exit_code not in (0, 1):
                break                            # the program does not run this config at all
            last_round = time.monotonic() - round_start
        invocations = runs + traced
        attempted, failed, correct = account(workload, invocations)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    oracle = [inv.oracle_err for inv in invocations if inv.oracle_err is not None]
    if trace:
        layers = [inv.layer for inv in traced if inv.layer is not None]
        if not layers:
            correct = False
            layers = [{}]
        metrics = {name: {"value": _median([m.get(name, 0.0) for m in layers]), "unit": unit}
                   for name, unit in LAYER_UNITS.items() if name != "trace.overhead_frac"}
        for name in EXACT_COUNTS:
            if len({m.get(name) for m in layers}) > 1:
                correct = False
                traced[0].problems.append(f"count {name} differs between traced invocations")
        overhead = _median([t.wall_s for t in traced]) / _median([r.wall_s for r in runs]) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        wall = _median([r.wall_s for r in runs])
        values = {"wall_norm_s": wall * REF_PROBE_S / _median(probes), "setup_s": _median(setups),
                  "peak_rss_mb": _median([r.peak_rss_mb for r in runs])}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "toy": toy, "config": cfg, "environment": environment(),
        "oracle_err": oracle[0] if oracle else None,
        "failed_frac": failed / attempted if attempted else 1.0,
        "known_failures": list(workload.known_failures),
        "setup_s": setups, "speed_probe_s": probes,
        "invocations": [inv.to_json() for inv in invocations],
        "result": result,
    }
    return {"result": result, "record": record}


def report(record: dict) -> None:
    """Human-readable lines: every metric by name with its unit, then the record path."""
    result = record["result"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"invocations {len(record['invocations'])}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    if record["speed_probe_s"]:
        walls = [inv["wall_s"] for inv in record["invocations"] if inv["layer"] is None]
        print(f"wall_s {_median(walls)!r} s (raw median, not scaled)")
        print(f"speed_probe_s {_median(record['speed_probe_s'])!r} s (reference {REF_PROBE_S} s)")
    oracle = record["oracle_err"]
    if "oracle_err" not in result["metrics"]:
        print(f"oracle_err {oracle!r} abs" if oracle is not None
              else "oracle_err absent (this workload has no oracle)")
    print(f"failed_frac {record['failed_frac']!r} ratio "
          f"({result['failed']} failed of {result['attempted']} operations)")
    if record["known_failures"]:
        print(f"known failures counted in failed_frac: {', '.join(record['known_failures'])}")
    for i, inv in enumerate(record["invocations"]):
        for problem in inv["problems"]:
            print(f"problem in invocation {i}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mfclab benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "mfclab" / "cli.py").is_file():
        print(f"benchmark error: no mfclab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except SetupError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    record = out["record"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, sort_keys=True))
    report(record)
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
