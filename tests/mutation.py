"""Mutation battery: plant one defect at a time in a numerical kernel and see
which tests that are not bit-pins fail.

    python tests/mutation.py    # every mutant, about 10 minutes on 2 cores

Each mutant is (name, file, exact old text, new text); the old text must occur
exactly once in the file. A mutant is applied to a temporary copy of src/,
tests/, perfbench/, pyproject.toml and README.md, never to this checkout, and
the copy runs `pytest -m "not pin"`. A mutant that no such test catches is a
gap in the oracle tests: a pin fails on every change, right or wrong. The
first row, with no mutation, must read 0. Prints a Markdown table; exits 1
when that row does not, or a mutant fails no test. pytest does not collect
this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")    # a test reads README

HJB, SIM, MOL, RNG = (f"src/mfclab/{f}.py" for f in ("hjb", "simulate", "mollify", "rng"))
MUTANTS = [
    ("none", None, None, None),
    ("HJB: cross-derivative terms dropped", HJB,
     "for a, bb, views in ghost.corners]", "for a, bb, views in ghost.corners if False]"),
    ("HJB: LLF viscosity dropped", HJB,
     "theta = np.maximum(0.0, np.subtract(speeds, credit, out=speeds), out=speeds)",
     "theta = np.multiply(speeds, 0.0, out=speeds)"),
    ("HJB: quadratic ghost", HJB,
     "v[0], v[-1] = 2 * v[1] - v[2], 2 * v[-2] - v[-3]",
     "v[0], v[-1] = 3 * v[1] - 3 * v[2] + v[3], 3 * v[-2] - 3 * v[-3] + v[-4]"),
    ("HJB: drift sign flipped", HJB,
     "negb = (-b.reshape(-1, nd)).T.copy()", "negb = b.reshape(-1, nd).T.copy()"),
    ("HJB: l1 dropped from the Hamiltonian", HJB,
     "np.add(np.subtract(H, l1, out=H), np.divide", "np.add(H, np.divide"),
    ("Feedback: gradient halved", HJB,
     "feedback_map(g * u.n, u.model.kappa)", "feedback_map(g * u.n / 2, u.model.kappa)"),
    ("Integrator: drift sign flipped", SIM,
     "nxt = cur + (-a + B) * cfg.dt", "nxt = cur + (-a - B) * cfg.dt"),
    ("Integrator: sigma scaled by 1.05", SIM,
     'np.einsum("pnij,pj->pni", sig,', 'np.einsum("pnij,pj->pni", 1.05 * sig,'),
    ("Mollifier: bump width doubled", MOL,
     "offsets = eps * held[", "offsets = 2 * eps * held["),
    ("Philox: one round dropped", RNG, "for r in range(10):", "for r in range(9):"),
]


def _matches_once(path: Path, old: str) -> None:
    count = path.read_text().count(old)
    if count != 1:
        raise SystemExit(f"{path}: {old!r} occurs {count} times, not once")


def run(mutant) -> list:
    """The tests not marked pin that fail on a copy with `mutant` applied."""
    _, path, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="mfclab-mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tmp / name,
                                ignore=shutil.ignore_patterns("__pycache__", "_work"))
            else:
                shutil.copy2(ROOT / name, tmp / name)
        if path is not None:
            _matches_once(tmp / path, old)
            (tmp / path).write_text((tmp / path).read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-m", "not pin",
                              "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                             cwd=tmp, env=env, capture_output=True, text=True).stdout
    return [line.split()[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]


def main() -> int:
    for _, path, old, _ in MUTANTS[1:]:
        _matches_once(ROOT / path, old)     # before any run, so a stale mutant costs no time
    print("| Mutant | Failing tests not marked `pin` | First of them |")
    print("|---|---|---|")
    wrong = []
    for mutant in MUTANTS:
        failed = run(mutant)
        first = ", ".join(f"`{t.split('::')[-1]}`" for t in failed[:3])
        print(f"| {mutant[0]} | {len(failed)} | {first} |", flush=True)
        if (mutant[1] is None) == bool(failed):    # the control fails, or a mutant passes
            wrong.append(mutant[0])
    if wrong:
        print(f"wrong rows: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
