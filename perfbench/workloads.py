"""Seeded workload definitions for the realshadows benchmark.

Every input the package sees (state seed, observable seeds, run seed, CLI
seeds) is derived here from the benchmark's ``--seed``; workload choice and
sizes live here, not in ``src/``.  Nothing in this module imports numpy or
the package, so the orchestrator can read the workload list cheaply.

A workload *unit* is one in-process ``realshadows`` CLI invocation sequence:
one ``estimate`` call for the estimate workloads, one pass of the oracle
battery for ``oracle-battery``.  The battery's twirl oracle is called through
the public ``realshadows.commutant`` functions rather than ``validate-twirl``,
whose verdict is wrong on some seeds (see README.md, "Known defect").  The warm-up runs the same commands at
reduced size so that every code path (and LAPACK, and the commutant basis
cache) is hot before the first timed unit.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

N_QUBITS = 6

LOCAL_SHOTS = 1000
LOCAL_PAULIS = 6
GLOBAL_SHOTS = 500
GLOBAL_SYMMETRIC = 24
GLOBAL_PAULIS = 24
BATCHES = 10
WARMUP_SHOTS = 20

RATIO_N_MAX = 7
# Per n, so 420 instances over n = 1..7.  The strict-decrease check needs
# this many: the n = 2 -> 3 gap is ~0.7 sqrt(instances) standard errors, so
# 15 instances failed it on 2 of 200 seeds while 60 put it past 5 sigma.
RATIO_INSTANCES = 60
TWIRL_D, TWIRL_K, TWIRL_SAMPLES = 4, 3, 2000
TWIRL_VECTORS = 3  # |0>, a random real and a random complex vector, as validate-twirl
CHANNEL_D, CHANNEL_SAMPLES = 16, 20000

WHY = {
    "local-mixed-n6": (
        "Born sampling through full 2^n product matrices is ~98% of the unit; "
        "exercises factor-wise Born sampling (ROADMAP item 2) while the oracles idle"
    ),
    "global-real-n6-many": (
        "measure once, estimate many: Born sampling, dense estimation and QR Haar "
        "sampling all carry weight, so trading one side for another shows"
    ),
    "oracle-battery": (
        "no shot sampling: ratio sweep, twirl and channel oracles exercise variance, "
        "commutant, channels and batched Haar sampling while bypassing engine"
    ),
}


@dataclass
class Twirl:
    """The twirl oracle's arguments: validate-twirl's, called per function."""

    d: int
    k: int
    samples: int
    seed: int


@dataclass
class Unit:
    """The inputs of one workload unit, as the package sees them."""

    commands: list[list[str]]  # argv lists for realshadows.cli.main
    csv: str  # the artifact whose bytes must repeat across units
    shots: int  # shots (estimate) or Monte Carlo samples (oracle) per unit
    config: dict | None = None  # the estimate config, for target computation
    twirl: Twirl | None = None  # run after the commands, inside the unit


@dataclass
class Inputs:
    kind: str  # "estimate" | "oracle"
    unit: Unit
    warmup: Unit
    generated: dict = field(default_factory=dict)  # recorded in the env line


def _seed_stream(workload: str, seed: int) -> random.Random:
    # str seeding hashes with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"realshadows-bench/{workload}/{seed}")


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _pauli(rng: random.Random, alphabet_for_site) -> str:
    while True:
        letters = [rng.choice(alphabet_for_site(j)) for j in range(N_QUBITS)]
        if any(c != "I" for c in letters):
            return "".join(letters)


def _local_config(rng: random.Random) -> dict:
    groups = ["orthogonal" if j % 2 == 0 else "unitary" for j in range(N_QUBITS)]
    # Visible strings: Y only on unitary sites.
    visible = [
        _pauli(rng, lambda j: "IXZ" if groups[j] == "orthogonal" else "IXYZ")
        for _ in range(LOCAL_PAULIS - 1)
    ]
    # One string with Y on an orthogonal site: invisible, needs allow_bias.
    site = rng.choice([j for j, g in enumerate(groups) if g == "orthogonal"])
    letters = list(_pauli(rng, lambda j: "IXYZ"))
    letters[site] = "Y"
    observables = [
        {"id": f"p{i}", "kind": "pauli", "string": s}
        for i, s in enumerate(visible + ["".join(letters)])
    ]
    observables.append(
        {"id": "proj", "kind": "basis_projector", "index": rng.randrange(2**N_QUBITS)}
    )
    return {
        "seed": _draw_seed(rng),
        "n": N_QUBITS,
        "ensemble": {"scope": "local", "groups": groups},
        "state": {"kind": "random_pure", "seed": _draw_seed(rng)},
        "shots": LOCAL_SHOTS,
        "batches": BATCHES,
        "observables": observables,
        "allow_bias": True,
    }


def _global_config(rng: random.Random) -> dict:
    observables = [
        {"id": f"sym{i}", "kind": "random_symmetric", "seed": _draw_seed(rng)}
        for i in range(GLOBAL_SYMMETRIC)
    ]
    for i in range(GLOBAL_PAULIS):
        # An even number of Y letters keeps the string real symmetric, hence
        # visible to the real-basis orthogonal channel: no --allow-bias needed,
        # so the CLI's invisible-component pre-check runs on every observable.
        letters = list(_pauli(rng, lambda j: "IXYZ"))
        ys = [j for j, c in enumerate(letters) if c == "Y"]
        if len(ys) % 2:
            letters[ys[-1]] = "Z"
        observables.append({"id": f"pauli{i}", "kind": "pauli", "string": "".join(letters)})
    return {
        "seed": _draw_seed(rng),
        "n": N_QUBITS,
        "ensemble": {"scope": "global", "groups": ["orthogonal"], "basis": "computational"},
        "state": {"kind": "random_pure", "seed": _draw_seed(rng)},
        "shots": GLOBAL_SHOTS,
        "batches": BATCHES,
        "observables": observables,
    }


def _estimate_unit(config: dict, workdir: str, tag: str) -> Unit:
    csv = os.path.join(workdir, f"{tag}.csv")
    cfg = dict(config, emit={"csv": csv})
    path = os.path.join(workdir, f"{tag}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return Unit(
        commands=[["estimate", "--config", path]],
        csv=csv,
        shots=cfg["shots"],
        config=cfg,
    )


def _oracle_unit(seeds: list[int], workdir: str, tag: str, scale: float) -> Unit:
    instances = max(2, int(RATIO_INSTANCES * scale))
    twirl = max(10, int(TWIRL_SAMPLES * scale))
    channel = max(10, int(CHANNEL_SAMPLES * scale))
    csv = os.path.join(workdir, f"{tag}-ratio.csv")
    commands = [
        ["ratio-sweep", "--n-min", "1", "--n-max", str(RATIO_N_MAX),
         "--instances", str(instances), "--seed", str(seeds[0]), "--out", csv],
        ["validate-channel", "--d", str(CHANNEL_D), "--ensemble", "global-orthogonal",
         "--basis", "sh", "--samples", str(channel), "--seed", str(seeds[2])],
    ]
    return Unit(
        commands=commands,
        csv=csv,
        shots=TWIRL_VECTORS * twirl + channel,
        twirl=Twirl(TWIRL_D, TWIRL_K, twirl, seeds[1]),
    )


def make_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    """Generate (and write under `workdir`) the inputs of one workload."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    rng = _seed_stream(workload, seed)
    if workload == "oracle-battery":
        seeds = [_draw_seed(rng) for _ in range(3)]
        return Inputs(
            "oracle",
            unit=_oracle_unit(seeds, workdir, "unit", 1.0),
            warmup=_oracle_unit(seeds, workdir, "warmup", 0.01),
            generated={"cli_seeds": seeds},
        )
    config = _local_config(rng) if workload == "local-mixed-n6" else _global_config(rng)
    warm = dict(config, shots=WARMUP_SHOTS, batches=1)
    return Inputs(
        "estimate",
        unit=_estimate_unit(config, workdir, "unit"),
        warmup=_estimate_unit(warm, workdir, "warmup"),
        generated={"run_seed": config["seed"], "state_seed": config["state"]["seed"]},
    )
