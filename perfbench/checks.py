"""The correctness gate behind ``failed_frac``.

Each check returns a list of failure messages (empty on success) and counts
as one attempted check, except the per-row target check, which counts one
check per estimate row.  The functions take artifact bytes and oracle
values, so the self-test can feed them corrupted artifacts directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

#: |mean - target| may exceed 5 sigma by this much: the invisible rows have
#: pred_var = 0 and a target that is zero only up to floating-point roundoff.
TARGET_ATOL = 1e-9
TARGET_SIGMAS = 5.0
#: Twirl oracle: validate-twirl's exact tolerance and its per-entry z limit.
TWIRL_EXACT_TOL = 1e-10
TWIRL_MAX_Z = 6.0


@dataclass
class Gate:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode("utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV row")
    return header, rows


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def check_strict_json(gate: Gate, data: bytes, label: str) -> None:
    try:
        json.loads(data, parse_constant=_reject_constant)
        ok = True
    except ValueError:
        ok = False
    gate.check(ok, f"{label}: not strict JSON")


def check_finite_csv(gate: Gate, data: bytes, label: str) -> list[dict] | None:
    """Every numeric cell must be finite; returns the rows as dicts."""
    try:
        header, rows = parse_csv(data)
    except (UnicodeDecodeError, ValueError) as exc:
        gate.check(False, f"{label}: unparseable CSV ({exc})")
        return None
    records = [dict(zip(header, r)) for r in rows]
    bad = []
    for rec in records:
        for key, cell in rec.items():
            if key in ("observable_id", "bias_warning") or cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                bad.append(f"{key}={cell!r}")
                continue
            if not math.isfinite(value):
                bad.append(f"{key}={cell}")
    gate.check(not bad and bool(records), f"{label}: non-finite or empty cells {bad[:3]}")
    return records


def check_targets(gate: Gate, rows: list[dict], targets: dict[str, dict[str, float]]) -> None:
    """|mean - target| <= 5 sqrt(pred_var / shots) for every estimate row.

    `targets[id]` holds "plain" = Tr[O rho] and "visible" =
    Tr[visible_projector(O) rho]; bias_warning rows use the latter.
    """
    for row in rows:
        oid = row["observable_id"]
        try:
            mean = float(row["mean"])
            shots = int(row["shots"])
            pred_var = float(row["pred_var"])
            target = targets[oid]["visible" if row["bias_warning"] == "true" else "plain"]
        except (KeyError, ValueError):
            gate.check(False, f"row {oid!r}: missing mean, shots, pred_var or oracle target")
            continue
        bound = TARGET_SIGMAS * math.sqrt(max(pred_var, 0.0) / shots) + TARGET_ATOL
        gate.check(
            abs(mean - target) <= bound,
            f"row {oid!r}: |mean - target| = {abs(mean - target):.3g} > {bound:.3g}",
        )
    gate.check(
        {row["observable_id"] for row in rows} == set(targets),
        "estimate rows do not match the configured observables",
    )


def check_ratio_sweep(gate: Gate, rows: list[dict]) -> None:
    """The per-n mean of Var_O/Var_U must decrease strictly in n."""
    sums: dict[int, list[float]] = {}
    for row in rows:
        sums.setdefault(int(row["n"]), []).append(float(row["ratio"]))
    means = [sum(v) / len(v) for _, v in sorted(sums.items())]
    ok = len(means) >= 2 and all(a > b for a, b in zip(means, means[1:]))
    gate.check(ok, f"ratio-sweep means not strictly decreasing in n: {means}")


def check_output(gate: Gate, stdout: str, label: str) -> None:
    gate.check("FAIL" not in stdout, f"{label}: validator printed FAIL")


def check_exit(gate: Gate, code: int, label: str) -> None:
    gate.check(code == 0, f"{label}: exit code {code}")


def check_identical(gate: Gate, first: bytes, again: bytes, label: str) -> None:
    gate.check(first == again, f"{label}: same-seed repetition is not byte-identical")


def check_twirl(gate: Gate, output: str, reference: list[dict] | None) -> list[dict] | None:
    """Per vector: the Gram projection equals the closed form within 1e-10,
    no Monte Carlo entry is beyond 6 sigma of it, and the results repeat the
    reference unit's bit for bit.  Returns the parsed results.

    validate-twirl also fails when more than 2% of entries are beyond 3 sigma;
    that rule is left out because the entries are correlated (see README.md).
    """
    try:
        results = [json.loads(line) for line in output.splitlines()]
        rows = [(r["vector"], float(r["exact_err"]), float(r["max_z"]), r["digest"]) for r in results]
    except (KeyError, TypeError, ValueError):
        gate.check(False, "twirl: unparseable oracle output")
        return None
    gate.check(len(rows) == 3, f"twirl: {len(rows)} vectors instead of 3")
    for label, exact_err, max_z, _ in rows:
        gate.check(exact_err <= TWIRL_EXACT_TOL,
                   f"twirl {label}: |gram - closed| = {exact_err:.3g} > {TWIRL_EXACT_TOL:g}")
        gate.check(max_z <= TWIRL_MAX_Z,
                   f"twirl {label}: Monte Carlo entry at {max_z:.2f} sigma > {TWIRL_MAX_Z:g}")
    if reference is not None:
        gate.check(results == reference, "twirl: same-seed repetition is not bit-identical")
    return results
