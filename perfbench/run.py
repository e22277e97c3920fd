"""realshadows benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload local-mixed-n6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, end-to-end metrics

Each metric is printed by name with its unit; the last line of standard
output is one JSON object with keys correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).  All
timed load runs in one worker process with BLAS/OpenMP threads pinned to 1;
set-up is measured in that process and in SETUP_PROBES extra ones, one at a
time.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402  (none of these import numpy: threads are pinned in the worker)
from tracer import MODULES  # noqa: E402
from worker import PINNED_THREAD_VARS  # noqa: E402

SETUP_PROBES = 4  # extra set-up-only processes; setup_s is the median of 5
DEADLINE_S = 170.0  # per workload run, inside the 180 s a run may take
WORKDIR = os.path.join(".bench_build", "perfbench")
THREAD_PINS = {var: "1" for var in PINNED_THREAD_VARS}

#: (name, unit, better) of every end-to-end metric, reported with --trace 0.
END_TO_END = (
    ("run_s", "s", "lower"),
    ("shots_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

_MODULE_METRICS = tuple(
    (f"{module}.{suffix}", unit, "lower")
    for module in MODULES
    for suffix, unit in (("self_ms", "ms"), ("calls", "count"), ("errors", "count"))
)

#: (name, unit, better) of every per-layer metric, reported with --trace 1.
PER_LAYER = _MODULE_METRICS + (
    ("engine.born_us_per_shot", "us", "lower"),
    ("engine.born_share", "fraction", "lower"),
    ("engine.collect_peak_mib", "MiB", "lower"),
    ("engine.records_mib", "MiB", "lower"),
    ("engine.estimate_us_per_shot_obs", "us", "lower"),
    ("engine.estimate_pauli_local_us", "us", "lower"),
    ("engine.estimate_dense_us", "us", "lower"),
    ("engine.per_shot_estimates_calls", "count", "lower"),
    ("engine.build_observable_calls", "count", "lower"),
    ("engine.invisible_check_calls", "count", "lower"),
    ("engine.build_state_ms", "ms", "lower"),
    ("sampling.transform_us_per_shot", "us", "lower"),
    ("sampling.haar_us_per_matrix", "us", "lower"),
    ("channels.pseudo_inverse_ms", "ms", "lower"),
    ("channels.pseudo_inverse_calls", "count", "lower"),
    ("channels.visible_projector_ms", "ms", "lower"),
    ("channels.visible_projector_calls", "count", "lower"),
    ("variance.predict_variance_ms", "ms", "lower"),
    ("variance.predict_variance_calls", "count", "lower"),
    ("channels.mc_channel_us_per_sample", "us", "lower"),
    ("commutant.mc_twirl_us_per_sample", "us", "lower"),
    ("commutant.twirl_project_ms", "ms", "lower"),
    ("variance.ratio_instance_us", "us", "lower"),
    ("bases.basis_from_tag_ms", "ms", "lower"),
    ("cli.artifact_write_ms", "ms", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.unit_wall_ms", "ms", "lower"),
    ("trace.self_sum_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.units", "count", "higher"),
    ("trace.missing_names", "count", "lower"),
    ("trace.absent_metrics", "count", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to measuring a failure)."""


def _spawn_worker(args, workdir: str, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env.pop("PYTHONPATH", None)  # the worker imports the package from ./src only
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    cmd += ["--t-spawn", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result:\n{proc.stdout[-2000:]}") from exc


def measure_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn_worker(args, workdir, deadline, True)["setup_s"])
        result = _spawn_worker(args, workdir, deadline, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setups"] = setups + [result["setup_s"]]
    return result


def end_to_end(result: dict) -> dict[str, float]:
    run_s = statistics.median(result["walls"])
    return {
        "run_s": run_s,
        "shots_per_s": result["shots"] / run_s,
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def per_layer(result: dict) -> tuple[dict[str, float], list[str]]:
    layer = result["layer"]
    absent = [name for name, _, _ in PER_LAYER if layer.get(name) is None
              and name != "trace.absent_metrics"]
    layer["trace.absent_metrics"] = len(absent)
    # Absent metrics carry 0.0 in the JSON line and are listed by name above it.
    return {name: float(layer.get(name) or 0.0) for name, _, _ in PER_LAYER}, absent


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args, result: dict) -> dict:
    """Print the human-readable block and return the JSON result object."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload: {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print(f"why: {workloads.WHY[args.workload]}")
    if args.trace:
        values, absent = per_layer(result)
        spec = PER_LAYER
    else:
        values, absent = end_to_end(result), []
        spec = END_TO_END
    for name, unit, better in spec:
        shown = "absent" if name in absent else _fmt(values[name])
        print(f"  {name:34s} {shown:>12s} {unit:8s} ({better} is better)")
    print(f"  {'failed_frac':34s} {_fmt(failed / attempted):>12s} {'fraction':8s} "
          f"(lower is better; {failed} of {attempted} checks failed)")
    if args.trace:
        print(f"  absent metrics: {', '.join(absent) or 'none'}")
        print(f"  wrapped names missing from the package: {', '.join(result['missing']) or 'none'}")
        print(f"  tracing overhead: {_fmt(values['trace.overhead_frac'])} of the untraced run_s "
              f"({len(result['walls'])} untraced, {len(result['traced_walls'])} traced units)")
    else:
        print(f"  run_s is the median of {len(result['walls'])} units; "
              f"setup_s the median of {len(result['setups'])} set-ups")
    print("  wait time: not applicable (one process, no queue or concurrency)")
    for failure in result["failures"]:
        print(f"  FAILED CHECK: {failure}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    units = {name: unit for name, unit, _ in spec}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WHY])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "realshadows", "__init__.py")):
        print("error: run from a realshadows checkout (src/realshadows is missing)", file=sys.stderr)
        return 2
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    objs = {}
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        try:
            objs[name] = report(one, measure_workload(one))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        print(json.dumps(objs[names[0]]))
    else:
        print(json.dumps({
            "correct": all(o["correct"] for o in objs.values()),
            "attempted": sum(o["attempted"] for o in objs.values()),
            "failed": sum(o["failed"] for o in objs.values()),
            "metrics": {f"{n}/{k}": v for n, o in objs.items() for k, v in o["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
