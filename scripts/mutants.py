#!/usr/bin/env python3
"""Mutation battery: small deliberate faults that the checks must catch.

Each mutant replaces one exact text of a file with a wrong one.  The battery
applies it to a temporary copy of src/, tests/, scripts/ and perfbench/ (the
layering tests read perfbench/tracer.py), never to the checkout, runs tier-1
with -x and then scripts/check_artifacts.py in that copy, and prints whether
the mutant was killed and by which test or check.  Every old text must occur
exactly once in its file, so a mutant that has gone stale stops the battery
before any run.

    python3 scripts/mutants.py    # exit 1 if a mutant survives
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
ENGINE = "src/realshadows/engine.py"

#: (file, exact old text, new text, reason)
MUTANTS = [
    (
        "src/realshadows/channels.py",
        "lambda_sym=(d + alpha - 2.0) / ((d - 1.0) * (d + 2.0)),",
        "lambda_sym=(d + alpha - 2.0) / ((d - 1.0) * (d + 2.0)) * (1.0 + 1e-6),",
        "O(d) lambda_sym off by 1e-6",
    ),
    (
        ENGINE,
        "np.var(table, axis=1, ddof=1)",
        "np.var(table, axis=1, ddof=0)",
        "empirical variance with ddof 0",
    ),
    (
        ENGINE,
        "last = values[..., head:].mean(",
        "last = values[..., head : head + size].mean(",
        "median of means drops the remainder",
    ),
    (
        "src/realshadows/variance.py",
        "weight = math.prod(2.0 / k for k in sizes)",
        "weight = math.prod(2.0 / k for k in sizes) * (1.0 + 1e-9)",
        "site cubature weight off by 1e-9",
    ),
    (
        ENGINE,
        "target = uniforms * total",
        "target = uniforms * total * (1.0 - 1e-3)",
        "local inverse-CDF target off by 1e-3",
    ),
    (
        ENGINE,
        "k = np.minimum(np.searchsorted(cum, column_rng.generator.random(s)), len(cum) - 1)",
        "k = np.zeros(s, dtype=np.intp)",
        "global mixture column always 0",
    ),
    (
        "src/realshadows/sampling.py",
        "phase = np.where(zero, 1.0, w / size)",
        "phase = np.ones_like(w)",
        "2x2 frame without its column phase",
    ),
    (
        ENGINE,
        "_PROB_SUM_TOL = 1e-6",
        "_PROB_SUM_TOL = 1e-1",
        "Born mass tolerance loosened to 1e-1",
    ),
    (
        ENGINE,
        "for f in range(len(spec.groups))]",
        "for f in reversed(range(len(spec.groups)))]",
        "full vectors join the factors in reverse order",
    ),
    (
        "src/realshadows/pauli.py",
        'overlap.real if self.letters[j] == "X" else overlap.imag',
        'overlap.real if self.letters[j] == "X" else -overlap.imag',
        "per-site Y expectation with the wrong sign",
    ),
    (
        "src/realshadows/channels.py",
        "lam = 1.0 / (d + 1.0)",
        "lam = 1.0 / (d + 1.0) * (1.0 + 1e-6)",
        "U(d) eigenvalue off by 1e-6",
    ),
    (
        ENGINE,
        "        if isinstance(value, bool):\n            raise ValueError\n",
        "",
        "a boolean accepted as a real number",
    ),
    (
        "src/realshadows/cli.py",
        "except RecursionError:",
        "except MemoryError:",
        "a too deeply nested config escapes as a traceback",
    ),
    (
        "src/realshadows/__init__.py",
        '__version__ = "0.1.0"\n',
        '__version__ = "0.1.0"\n\nfrom .engine import run_experiment\n',
        "the package root re-exports a name again",
    ),
]


def _mutated_copy(tmp: Path, path: str, old: str, new: str) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, tmp / name)
    target = tmp / path
    target.write_text(target.read_text().replace(old, new))


def _verdict(path: str, old: str, new: str) -> tuple[bool, str]:
    """(killed, what killed it) for one mutant, in a fresh copy."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _mutated_copy(tmp, path, old, new)
        src = os.pathsep.join([str(tmp / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=src)
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if tests.returncode != 0:
            found = re.search(r"^(?:FAILED|ERROR) (\S+)", tests.stdout, re.MULTILINE)
            return True, found.group(1) if found else f"tier-1 (exit {tests.returncode})"
        artifacts = subprocess.run(
            [sys.executable, "scripts/check_artifacts.py"],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if artifacts.returncode != 0:
            return True, "scripts/check_artifacts.py"
        return False, ""


def main() -> int:
    for number, (path, old, _, _) in enumerate(MUTANTS, 1):
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            raise SystemExit(f"mutant {number}: its old text occurs {count} times in {path}")
    killed = 0
    for number, (path, old, new, reason) in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        dead, by = _verdict(path, old, new)
        killed += dead
        verdict = f"killed by {by}" if dead else "SURVIVED"
        print(f"{number:2d} {reason} ({path}): {verdict} [{time.perf_counter() - start:.0f} s]")
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
