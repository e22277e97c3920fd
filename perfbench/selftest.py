"""Self-test of the benchmark's correctness gate and tracer.

    python3 perfbench/selftest.py            # from the repository root, ~2 minutes

1. Each kind of corrupted artifact (shifted mean, NaN, non-strict JSON, a
   flipped byte between same-seed repetitions, a non-monotone ratio sweep,
   a validator FAIL, a non-zero exit) raises failed_frac above 0, while the
   genuine artifacts score 0.
2. The tracer tolerates wrapped names the package no longer has: they are
   listed as missing, the metrics built on them are absent, and the traced
   self times still sum to no more than the unit's wall time.
3. The unmodified package scores failed_frac = 0 on every workload at
   several seeds, through run.py itself.
4. BENCHMARK.json names exactly the metrics run.py reports.

Exits 0 when every case passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

os.environ.update(run.THREAD_PINS)  # before worker imports numpy
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
_results: list[tuple[str, bool]] = []


def expect(label: str, ok: bool) -> None:
    _results.append((label, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {label}")


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _score(inputs, targets, runs) -> float:
    """failed_frac of a fresh gate over (codes, outputs, {path: bytes}) runs."""
    checker = worker.UnitChecker(inputs, targets)
    for codes, outputs, files in runs:
        for path, data in files.items():
            _write(path, data)
        checker(codes, outputs)
    return checker.gate.failed / checker.gate.attempted


def gate_cases(cli, workdir: str) -> None:
    inputs = workloads.make_inputs("global-real-n6-many", 1, workdir)
    targets = worker.compute_targets(inputs.unit.config)
    _, codes, outputs = worker.run_commands(cli, inputs.unit)
    csv = inputs.unit.csv
    meta = csv + ".meta.json"
    with open(csv, "rb") as fh:
        good = fh.read()
    with open(meta, "rb") as fh:
        good_meta = fh.read()
    genuine = (codes, outputs, {csv: good, meta: good_meta})
    expect("genuine estimate artifacts score 0", _score(inputs, targets, [genuine, genuine]) == 0)

    header, *rows = good.decode().strip().split("\n")
    cells = rows[0].split(",")
    shifted = cells.copy()
    shifted[1] = repr(float(cells[1]) + 0.5)
    bad = "\n".join([header, ",".join(shifted), *rows[1:]]).encode() + b"\n"
    expect("shifted mean raises failed_frac",
           _score(inputs, targets, [(codes, outputs, {csv: bad, meta: good_meta})]) > 0)

    nan = cells.copy()
    nan[3] = "nan"
    bad = "\n".join([header, ",".join(nan), *rows[1:]]).encode() + b"\n"
    expect("NaN in the CSV raises failed_frac",
           _score(inputs, targets, [(codes, outputs, {csv: bad, meta: good_meta})]) > 0)

    bad_meta = good_meta.replace(b'"seed":', b'"nan_field": NaN, "seed":', 1)
    expect("non-strict meta JSON raises failed_frac",
           _score(inputs, targets, [(codes, outputs, {csv: good, meta: bad_meta})]) > 0)

    last_row = good.rindex(b"\n", 0, len(good) - 1) + 1
    i = good.index(b",", good.index(b",", last_row) + 1) - 1  # last digit of its mean
    flipped = good[:i] + bytes([good[i] ^ 0x01]) + good[i + 1:]
    expect("a flipped byte between same-seed repetitions raises failed_frac",
           _score(inputs, targets, [genuine, (codes, outputs, {csv: flipped, meta: good_meta})]) > 0)

    expect("a non-zero exit code raises failed_frac",
           _score(inputs, targets, [([1], outputs, {csv: good, meta: good_meta})]) > 0)

    oracle = workloads.make_inputs("oracle-battery", 1, workdir)
    _, codes, outputs = worker.run_commands(cli, oracle.unit)
    ratio = oracle.unit.csv
    with open(ratio, "rb") as fh:
        good = fh.read()
    expect("genuine oracle outputs score 0", _score(oracle, {}, [(codes, outputs, {ratio: good})]) == 0)
    header, *rows = good.decode().strip().split("\n")
    lowered = [",".join(r.split(",")[:4] + ["0.1"]) if r.startswith("1,") else r for r in rows]
    bad = "\n".join([header, *lowered]).encode() + b"\n"
    expect("a non-monotone ratio sweep raises failed_frac",
           _score(oracle, {}, [(codes, outputs, {ratio: bad})]) > 0)
    failing = [o.replace("PASS", "FAIL") for o in outputs]
    expect("a validator printing FAIL raises failed_frac",
           _score(oracle, {}, [(codes, failing, {ratio: good})]) > 0)

    twirl = [json.loads(line) for line in outputs[-1].splitlines()]

    def with_twirl(**change):
        results = [dict(r, **change) if i == 1 else r for i, r in enumerate(twirl)]
        return outputs[:-1] + ["\n".join(json.dumps(r) for r in results)]

    expect("a Gram projection off the closed form raises failed_frac",
           _score(oracle, {}, [(codes, with_twirl(exact_err=1e-6), {ratio: good})]) > 0)
    expect("a Monte Carlo twirl beyond 6 sigma raises failed_frac",
           _score(oracle, {}, [(codes, with_twirl(max_z=float("nan")), {ratio: good})]) > 0)
    expect("a twirl that differs between same-seed repetitions raises failed_frac",
           _score(oracle, {}, [(codes, outputs, {ratio: good}),
                               (codes, with_twirl(digest="0" * 16), {ratio: good})]) > 0)


def tracer_cases(cli, workdir: str) -> None:
    inputs = workloads.make_inputs("local-mixed-n6", 1, workdir)
    renamed = dict(tracing.WRAPPED)
    renamed["engine"] = tuple(
        "_has_invisible_component_renamed" if n == "_has_invisible_component" else n
        for n in renamed["engine"]
    ) + ("simulate_measurement_deleted",)
    saved, tracing.WRAPPED = tracing.WRAPPED, renamed
    try:
        tracer = tracing.Tracer()
    finally:
        tracing.WRAPPED = saved
    expect("renamed and deleted names are listed as missing",
           {"engine._has_invisible_component_renamed", "engine.simulate_measurement_deleted"}
           <= set(tracer.missing))
    tracer.install()
    try:
        wall, codes, _ = worker.run_commands(cli, inputs.warmup)
    finally:
        tracer.uninstall()
    metrics = tracing.unit_metrics(tracer, wall)
    expect("the traced unit still succeeds", codes == [0])
    expect("a metric built on a missing name is absent", metrics["engine.invisible_check_calls"] is None)
    expect("metrics on present names are still reported", metrics["engine.born_us_per_shot"] is not None)
    expect("traced self times sum to no more than the unit wall time",
           metrics["trace.self_sum_ms"] <= metrics["trace.unit_wall_ms"])
    expect("uninstall restores the originals",
           not hasattr(sys.modules["realshadows.engine"].collect_records, "__wrapped__"))


def seed_cases() -> None:
    for name in workloads.WHY:
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True,
            )
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                ok = proc.returncode == 0 and res["failed"] == 0 and res["correct"]
            except (IndexError, ValueError, KeyError):
                ok = False
            expect(f"{name} seed {seed}: failed_frac = 0", ok)


def benchmark_json_case() -> None:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect("BENCHMARK.json end_to_end matches run.py",
           [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END))
    expect("BENCHMARK.json per_layer matches run.py",
           [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER))
    expect("BENCHMARK.json workloads match workloads.py",
           {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY)


def main() -> int:
    if not os.path.isfile(os.path.join("src", "realshadows", "__init__.py")):
        print("error: run from a realshadows checkout", file=sys.stderr)
        return 2
    worker._import_package(os.getcwd())
    cli = sys.modules["realshadows.cli"]
    workdir = os.path.join(run.WORKDIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        gate_cases(cli, workdir)
        tracer_cases(cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    benchmark_json_case()
    seed_cases()
    failed = [label for label, ok in _results if not ok]
    print(f"{len(_results) - len(failed)} of {len(_results)} self-test cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
