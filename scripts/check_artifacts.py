#!/usr/bin/env python3
"""Same-seed artifact check: regenerate five CSVs and compare them with the
references committed under tests/data/.

The runs are the `run_estimate_demo.py` configuration (local orthogonal,
n = 3), a small global orthogonal one (n = 4, computational basis, Pauli
strings, a basis projector and random symmetric observables), two ratio
sweeps (n = 1..5 and n = 6..7, 10 instances per n, seed 5) and a full-rank
local one (n = 6, alternating orthogonal and unitary sites, maximally mixed
state, 2,000 shots in 134 chain-rule chunks of up to 15).  Text cells must
match exactly and each numeric cell x within 1e-12 * (1 + |x|), so that BLAS
builds that round differently still pass.

    python3 scripts/check_artifacts.py           # compare; exit 1 on a mismatch
    python3 scripts/check_artifacts.py --update  # rewrite the references
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from realshadows.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run_estimate_demo import CONFIG as DEMO_CONFIG  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
RTOL = 1e-12
TEXT_COLUMNS = ("observable_id", "bias_warning")

GLOBAL_CONFIG = {
    "seed": 11,
    "n": 4,
    "ensemble": {"scope": "global", "groups": ["orthogonal"], "basis": "computational"},
    "state": {"kind": "random_pure", "seed": 5},
    "shots": 4000,
    "batches": 8,
    "allow_bias": True,
    "observables": [
        {"id": "ZZII", "kind": "pauli", "string": "ZZII"},
        {"id": "XYYZ", "kind": "pauli", "string": "XYYZ"},
        {"id": "IXIX", "kind": "pauli", "string": "IXIX", "coefficient": 0.5},
        {"id": "IIII", "kind": "pauli", "string": "IIII"},
        {"id": "proj", "kind": "basis_projector", "index": 9},
        {"id": "YIXZ", "kind": "pauli", "string": "YIXZ"},
        {"id": "sym0", "kind": "random_symmetric", "seed": 3},
        {"id": "sym1", "kind": "random_symmetric", "seed": 4},
    ],
}

MIXED_LOCAL_CONFIG = {
    "seed": 12,
    "n": 6,
    "ensemble": {"scope": "local", "groups": ["orthogonal", "unitary"] * 3},
    "state": {"kind": "maximally_mixed"},
    "shots": 2000,
    "batches": 4,
    "observables": [
        {"id": "ZIXIZI", "kind": "pauli", "string": "ZIXIZI"},
        {"id": "IYIIIY", "kind": "pauli", "string": "IYIIIY"},
        {"id": "proj", "kind": "basis_projector", "index": 37},
    ],
}

RATIO_SWEEP = ["ratio-sweep", "--n-min", "1", "--n-max", "5", "--instances", "10", "--seed", "5"]
RATIO_SWEEP_LARGE = ["ratio-sweep", "--n-min", "6", "--n-max", "7"] + RATIO_SWEEP[5:]

#: Each reference with its run: an estimate configuration or CLI arguments.
RUNS = {
    "demo_local_n3.csv": DEMO_CONFIG,
    "global_orthogonal_n4.csv": GLOBAL_CONFIG,
    "ratio_sweep_n1-5.csv": RATIO_SWEEP,
    "ratio_sweep_n6-7.csv": RATIO_SWEEP_LARGE,
    "local_mixed_full_rank_n6.csv": MIXED_LOCAL_CONFIG,
}


def _run(run, workdir: Path, name: str) -> str:
    csv = workdir / name
    if isinstance(run, dict):
        path = workdir / (name + ".json")
        path.write_text(json.dumps(dict(run, emit={"csv": str(csv)})))
        argv = ["estimate", "--config", str(path)]
    else:
        argv = run + ["--out", str(csv)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{name}: {argv[0]} exited with {code}")
    return csv.read_text()


def _mismatches(reference: str, fresh: str) -> list[str]:
    ref_lines, new_lines = reference.strip().split("\n"), fresh.strip().split("\n")
    if ref_lines[0] != new_lines[0] or len(ref_lines) != len(new_lines):
        return ["header or row count differs"]
    header = ref_lines[0].split(",")
    bad = []
    for ref_line, new_line in zip(ref_lines[1:], new_lines[1:]):
        for column, a, b in zip(header, ref_line.split(","), new_line.split(",")):
            if column in TEXT_COLUMNS or a == "" or b == "":
                ok = a == b
            else:
                x, y = float(a), float(b)
                ok = abs(x - y) <= RTOL * (1.0 + abs(x))
            if not ok:
                bad.append(f"{column}: {a} != {b} (row {ref_line.split(',')[0]})")
    return bad


def check(update: bool) -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in RUNS.items():
            fresh = _run(run, Path(tmp), name)
            reference = DATA / name
            if update:
                DATA.mkdir(parents=True, exist_ok=True)
                reference.write_text(fresh)
                print(f"{name}: reference written")
                continue
            bad = _mismatches(reference.read_text(), fresh)
            failures += bool(bad)
            print(f"{name}: {'FAIL' if bad else 'PASS'}")
            for line in bad:
                print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite the references")
    sys.exit(check(parser.parse_args().update))
