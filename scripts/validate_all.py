#!/usr/bin/env python3
"""Run the full validator battery: twirls, channels, and variance predictors."""

import sys

from realshadows.cli import main

RUNS = [
    ["validate-twirl", "--d", "2", "--k", "2", "--samples", "50000"],
    ["validate-twirl", "--d", "2", "--k", "3", "--samples", "50000"],
    ["validate-twirl", "--d", "4", "--k", "2", "--samples", "50000"],
    ["validate-twirl", "--d", "4", "--k", "3", "--samples", "50000"],
    ["validate-twirl", "--d", "8", "--k", "2", "--samples", "50000"],
    ["validate-twirl", "--d", "8", "--k", "3", "--samples", "5000"],
    ["validate-channel", "--d", "4", "--ensemble", "global-orthogonal"],
    ["validate-channel", "--d", "4", "--ensemble", "global-unitary"],
    ["validate-channel", "--d", "2", "--ensemble", "global-orthogonal", "--basis", "sh"],
    ["validate-channel", "--d", "8", "--ensemble", "local-orthogonal"],
    ["validate-channel", "--d", "8", "--ensemble", "local-unitary"],
    ["validate-variance", "--d", "2", "--shots", "20000"],
    ["validate-variance", "--d", "4", "--shots", "100000"],
    ["validate-variance", "--d", "8", "--shots", "40000"],
]

if __name__ == "__main__":
    worst = 0
    for argv in RUNS:
        print(f"$ realshadows {' '.join(argv)}")
        worst = max(worst, main(argv))
        print()
    sys.exit(worst)
