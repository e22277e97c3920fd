"""The measuring process: set up one workload, run timed units, check them.

Started by ``run.py`` with BLAS/OpenMP thread variables already pinned in its
environment (they must be set before numpy is imported).  It prints one JSON
line with the raw measurements, which ``run.py`` aggregates.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --t-spawn EPOCH --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

PINNED_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_UNITS = 2  # the byte-identity check needs a pair

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import workloads  # noqa: E402


def _import_package(root: str):
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread variables were checked")
    unpinned = [v for v in PINNED_THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise RuntimeError(f"thread variables not pinned to 1: {unpinned}")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import realshadows.cli  # noqa: F401  (imports every module of the package)

    package = sys.modules["realshadows"]
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"realshadows imported from {package.__file__}, not from {src}")
    return package


def _git_commit(root: str) -> str | None:
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(root: str, args) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (AttributeError, TypeError, ValueError):
        pass
    return {
        "thread_env": {v: os.environ.get(v) for v in PINNED_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": _git_commit(root),
        "source_sha256_16": _source_digest(root),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


def compute_targets(config: dict) -> dict[str, dict[str, float]]:
    """Tr[O rho] and Tr[visible_projector(O) rho] per observable id, from the
    state the benchmark generated, through public engine/channels functions."""
    import numpy as np
    from realshadows.channels import channel_for, visible_projector
    from realshadows.engine import ExperimentConfig, build_observable, build_state

    cfg = ExperimentConfig.from_dict(config)
    rho = build_state(cfg.state, cfg.n)
    desc = channel_for(cfg.ensemble_spec())
    targets = {}
    for obs in cfg.observables:
        oid, o = build_observable(obs, cfg.n)
        matrix = o.to_matrix() if hasattr(o, "to_matrix") else np.asarray(o)
        targets[oid] = {
            "plain": float(np.trace(matrix @ rho).real),
            "visible": float(np.trace(visible_projector(desc, matrix) @ rho).real),
        }
    return targets


def run_twirl(twirl: workloads.Twirl) -> str:
    """The twirl oracle on validate-twirl's three input vectors, through the
    public commutant functions; returns one JSON object per vector, per line.

    validate-twirl itself is not run: its verdict is wrong on some seeds (see
    README.md, "Known defect").  The same work is done here and judged by
    checks.check_twirl.
    """
    import numpy as np
    from realshadows import commutant, sampling

    d, k = twirl.d, twirl.k
    rng = sampling.RngStream(twirl.seed)
    real = rng.child(1).generator.standard_normal(d)
    vectors = {
        "computational |0>": np.eye(d, dtype=complex)[:, 0],
        "random real": (real / np.linalg.norm(real)).astype(complex),
        "random complex": sampling.haar_state_vector(rng.child(2), d),
    }
    lines = []
    for label, vector in vectors.items():
        alpha_w = float(np.abs(np.sum(vector**2)) ** 2)
        pi = np.outer(vector, vector.conj())
        pik = functools.reduce(np.kron, [pi] * k)
        gram = commutant.twirl_project(pik, "O", k)
        closed = commutant.closed_form_twirl(alpha_w, d, k)
        mc = commutant.mc_twirl(rng.child(3), pik, "O", k, twirl.samples)
        z = np.abs(mc.mean - closed) / np.maximum(mc.stderr, 1e-12)
        lines.append(json.dumps({
            "vector": label,
            "exact_err": float(np.max(np.abs(gram - closed))),
            "max_z": float(np.max(z)),
            "digest": hashlib.sha256(gram.tobytes() + mc.mean.tobytes()).hexdigest()[:16],
        }))
    return "\n".join(lines)


def run_commands(cli, unit: workloads.Unit) -> tuple[float, list[int], list[str]]:
    """Time one unit: every command through cli.main, stdout captured, then
    the twirl oracle if the unit has one (its code and output come last)."""
    for stale in (unit.csv, unit.csv + ".meta.json"):  # a unit that writes nothing must fail
        if os.path.exists(stale):
            os.remove(stale)
    codes, outputs = [], []
    start = time.perf_counter()
    for argv in unit.commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                codes.append(cli.main(argv))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                codes.append(-1)
        outputs.append(out.getvalue())
    if unit.twirl is not None:
        try:
            outputs.append(run_twirl(unit.twirl))
            codes.append(0)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outputs.append("")
            codes.append(-1)
    return time.perf_counter() - start, codes, outputs


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


class UnitChecker:
    """Applies every check of the gate to one unit's outputs."""

    def __init__(self, inputs: workloads.Inputs, targets):
        self.inputs = inputs
        self.targets = targets
        self.gate = checks.Gate()
        self.reference: bytes | None = None
        self.twirl_reference: list[dict] | None = None

    def __call__(self, codes: list[int], outputs: list[str]) -> int:
        """Check one unit; returns the total size in bytes of its artifacts."""
        gate, unit = self.gate, self.inputs.unit
        labels = [argv[0] for argv in unit.commands] + (["twirl"] if unit.twirl else [])
        for label, code, out in zip(labels, codes, outputs):
            checks.check_exit(gate, code, label)
            if label.startswith("validate"):
                checks.check_output(gate, out, label)
        if unit.twirl is not None:
            twirl = checks.check_twirl(gate, outputs[len(unit.commands)], self.twirl_reference)
            if self.twirl_reference is None:
                self.twirl_reference = twirl
        label = os.path.basename(unit.csv)
        data = _read(unit.csv)
        if data is None:
            gate.check(False, f"{label}: missing")
            return 0
        artifact_bytes = len(data)
        rows = checks.check_finite_csv(gate, data, label)
        if self.inputs.kind == "estimate":
            meta = _read(unit.csv + ".meta.json") or b""
            artifact_bytes += len(meta)
            checks.check_strict_json(gate, meta, label + ".meta.json")
            if rows is not None:
                checks.check_targets(gate, rows, self.targets)
        elif rows is not None:
            checks.check_ratio_sweep(gate, rows)
        if self.reference is None:
            self.reference = data
        else:
            checks.check_identical(gate, self.reference, data, label)
        return artifact_bytes


def _median_metrics(samples: list[dict]) -> dict[str, float | None]:
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples if s.get(key) is not None]
        out[key] = statistics.median(values) if values else None
    return out


def _traced_run(cli, unit, tracer):
    tracer.reset()
    tracer.install()
    try:
        return run_commands(cli, unit)
    finally:
        tracer.uninstall()


def measure(cli, inputs, checker, seconds: float, trace: bool) -> dict:
    unit = inputs.unit
    walls: list[float] = []
    start = time.perf_counter()
    if not trace:
        while len(walls) < MIN_UNITS or time.perf_counter() - start < seconds:
            wall, codes, outputs = run_commands(cli, unit)
            walls.append(wall)
            checker(codes, outputs)
        return {"walls": walls}

    import tracer as tracing

    tracer = tracing.Tracer()
    traced_walls, per_unit = [], []
    # Alternate untraced and traced units so drift hits both sides alike.
    while len(traced_walls) < MIN_UNITS or time.perf_counter() - start < seconds:
        wall, codes, outputs = run_commands(cli, unit)
        walls.append(wall)
        checker(codes, outputs)
        wall, codes, outputs = _traced_run(cli, unit, tracer)
        traced_walls.append(wall)
        metrics = tracing.unit_metrics(tracer, wall)
        metrics["cli.artifact_bytes"] = checker(codes, outputs)
        checker.gate.check(
            metrics["trace.self_sum_ms"] <= metrics["trace.unit_wall_ms"],
            "traced self times sum to more than the unit's wall time",
        )
        per_unit.append(metrics)
    layer = _median_metrics(per_unit)
    if inputs.kind == "estimate":
        # One extra traced unit with tracemalloc on inside collect_records; its
        # times are not used, since tracemalloc slows every allocation.
        tracer.measure_memory = True
        _, codes, outputs = _traced_run(cli, unit, tracer)
        checker(codes, outputs)
    layer.update(tracing.memory_metrics(tracer))
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    layer["trace.overhead_s"] = traced - untraced
    layer["trace.overhead_frac"] = (traced - untraced) / untraced
    layer["trace.units"] = len(traced_walls)
    layer["trace.missing_names"] = len(tracer.missing)
    return {"walls": walls, "traced_walls": traced_walls, "layer": layer, "missing": tracer.missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True, help="epoch time of the spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    package = _import_package(root)
    cli = sys.modules["realshadows.cli"]
    inputs = workloads.make_inputs(args.workload, args.seed, args.workdir)
    targets = compute_targets(inputs.unit.config) if inputs.kind == "estimate" else {}
    run_commands(cli, inputs.warmup)
    setup_s = time.time() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = UnitChecker(inputs, targets)
    result = measure(cli, inputs, checker, args.seconds, bool(args.trace))
    env = environment(root, args)
    env.update(package_version=package.__version__, units=len(result["walls"]),
               generated=inputs.generated)
    result.update(
        setup_s=setup_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        shots=inputs.unit.shots,
        attempted=checker.gate.attempted,
        failed=checker.gate.failed,
        failures=checker.gate.failures[:20],
        env=env,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
