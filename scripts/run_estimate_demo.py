#!/usr/bin/env python3
"""Demo estimation run: local orthogonal shadows of a random 3-qubit state.

Writes demo_out.csv (+ metadata sidecar) into the working directory and
prints the per-observable reports.
"""

import json
import sys
import tempfile
from pathlib import Path

from realshadows.cli import main

CONFIG = {
    "seed": 2024,
    "n": 3,
    "ensemble": {"scope": "local", "groups": ["orthogonal"]},
    "state": {"kind": "random_pure", "seed": 7},
    "shots": 50000,
    "batches": 10,
    "observables": [
        {"id": "ZZI", "kind": "pauli", "string": "ZZI"},
        {"id": "XIX", "kind": "pauli", "string": "XIX"},
        {"id": "ZXZ", "kind": "pauli", "string": "ZXZ"},
    ],
    "emit": {"csv": "demo_out.csv"},
    "epsilon": 0.05,
}

if __name__ == "__main__":
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(CONFIG, fh)
        config_path = fh.name
    try:
        code = main(["estimate", "--config", config_path])
    finally:
        Path(config_path).unlink()
    sys.exit(code)
