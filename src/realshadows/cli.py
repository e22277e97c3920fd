"""Command-line workbench: estimation runs, validators, and the ratio sweep.

Exit codes: 0 pass, 1 validation fail, 2 usage error (a size limit
included), 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .bases import basis_from_tag
from .channels import (
    EnsembleSpec,
    apply_channel,
    channel_for,
    ensemble_from_tag,
    global_ensemble,
    local_ensemble,
    mc_channel,
    visible_dimension,
)
from .commutant import closed_form_twirl, mc_twirl, twirl_project
from .engine import ConfigError, ExperimentConfig, collect_records, per_shot_table, run_experiment
from .linalg import ResourceLimitError, check_entries, check_qubit_count, kron
from .pauli import BasisProjector
from .sampling import MAX_SEED, RngStream, haar_state_vector
from .variance import (
    check_local_cubature,
    predict_variance,
    random_symmetric_observable,
    ratio_sweep,
    write_ratio_csv,
)

EXIT_PASS = 0
EXIT_VALIDATION_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _mc_agreement(diff, stderr) -> tuple[int, float, bool]:
    """Agreement check of Monte Carlo estimates with their exact values: the
    entries of a channel or twirl mean, or one empirical variance.  Passes
    when no entry is beyond 6 sigma.  Entries that are equal by symmetry
    cross 3 sigma together, so their count is returned for display only; a
    real discrepancy drives the largest z-score up without bound as samples
    grow.
    """
    z = diff / np.maximum(stderr, 1e-12)  # floor: exact entries have zero spread
    beyond_3_sigma = int(np.sum(diff > 3.0 * stderr + 1e-12))
    max_z = float(np.max(z))
    return beyond_3_sigma, max_z, max_z <= 6.0


def _require_at_least(flag: str, value: int, low: int, why: str = "") -> None:
    if value < low:
        raise ConfigError(f"{flag} must be at least {low}{why}, got {value}")


def _qubit_count(d: int) -> int:
    """n for a dimension d = 2^n with n >= 1, else a ConfigError."""
    if d < 2 or d & (d - 1):
        raise ConfigError(f"dimension {d} is not a power of two >= 2")
    return d.bit_length() - 1


#: A standard error needs at least two samples.
_FOR_A_STDERR = " for a standard error"


_ENSEMBLE_CHOICES = ("global-orthogonal", "global-unitary", "local-orthogonal", "local-unitary")


def _ensemble_from_flag(name: str, n: int, basis_tag: str) -> EnsembleSpec:
    scope, group = name.split("-", 1)
    try:
        return ensemble_from_tag(scope, (group,), basis_tag, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _reject_constant(name: str):
    raise ConfigError(f"the configuration holds {name}, which JSON does not allow")


def _load_config(path: str, overrides: argparse.Namespace) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh, parse_constant=_reject_constant)
        except RecursionError:  # nesting deeper than the interpreter's stack
            raise json.JSONDecodeError("nesting too deep to decode", "", 0) from None
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    if overrides.seed is not None:
        raw["seed"] = overrides.seed
    if overrides.shots is not None:
        raw["shots"] = overrides.shots
    if overrides.out is not None:
        emit = {} if raw.get("emit") is None else raw["emit"]
        raw["emit"] = dict(emit, csv=overrides.out) if isinstance(emit, dict) else emit
    if overrides.allow_bias:
        raw["allow_bias"] = True
    return ExperimentConfig.from_dict(raw)


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args)
    reports = run_experiment(config)
    for r in reports:
        print(
            f"{r.observable_id}: mean={r.mean:.6g} mom={r.median_of_means:.6g} "
            f"emp_var={r.empirical_variance:.6g} shots={r.shots} bias_warning={r.bias_warning}"
        )
    if config.out_csv:
        print(f"wrote {config.out_csv} and {config.out_csv}.meta.json")
    return EXIT_PASS


def cmd_validate_channel(args: argparse.Namespace) -> int:
    n = _qubit_count(args.d)
    if args.d > 16:
        raise ConfigError("Monte Carlo channel validation is limited to d <= 16")
    _require_at_least("--samples", args.samples, 2, _FOR_A_STDERR)
    spec = _ensemble_from_flag(args.ensemble, n, args.basis)
    desc = channel_for(spec)
    rng = RngStream(args.seed)
    gen = RngStream(args.seed, (1,)).generator
    a = gen.standard_normal((args.d, args.d)) + 1j * gen.standard_normal((args.d, args.d))
    a = 0.5 * (a + a.conj().T)
    exact = apply_channel(desc, a)
    mc, stderr = mc_channel(rng, spec, a, args.samples)
    diff = np.abs(mc - exact)
    worst = float(np.max(diff))
    sigma_violations, max_z, passed = _mc_agreement(diff, stderr)
    print(f"ensemble: {spec.label()}")
    if len(desc.spectra) == 1:
        (sp,) = desc.spectra
        print(
            f"spectrum: trace=1, sym={sp.lambda_sym:.10g}, anti={sp.lambda_anti:.10g}, "
            f"p_alpha={sp.p_alpha:.10g}, alpha={sp.alpha:.10g}"
        )
        if visible_dimension(desc) == 2 and args.d == 2:
            print("visible space: span{I, Y} (trace + antisymmetric blocks)")
    print(f"visible dimension: {visible_dimension(desc)} of {args.d**2}")
    print(f"max entrywise |MC - closed form|: {worst:.3e}")
    print(f"entries beyond 3 sigma: {sigma_violations} of {diff.size} (max z = {max_z:.2f})")
    print(f"channel validation: {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_VALIDATION_FAIL


def cmd_validate_twirl(args: argparse.Namespace) -> int:
    if args.k not in (2, 3):
        raise ConfigError("k must be 2 or 3")
    _require_at_least("--d", args.d, 2)
    if args.d**args.k > 512:
        raise ConfigError("d^k must not exceed 512")
    _require_at_least("--samples", args.samples, 2, _FOR_A_STDERR)
    rng = RngStream(args.seed)
    real = rng.child(1).generator.standard_normal(args.d)
    vectors = {
        "computational |0>": np.eye(args.d, dtype=complex)[:, 0],
        "random real": (real / np.linalg.norm(real)).astype(complex),
        "random complex": haar_state_vector(rng.child(2), args.d),
    }
    failures = 0
    for label, vector in vectors.items():
        alpha_w = float(np.abs(np.sum(vector**2)) ** 2)
        pi = np.outer(vector, vector.conj())
        pik = kron(*([pi] * args.k))
        gram = twirl_project(pik, "O", args.k)
        closed = closed_form_twirl(alpha_w, args.d, args.k)
        exact_err = float(np.max(np.abs(gram - closed)))
        mc = mc_twirl(rng.child(3), pik, "O", args.k, args.samples)
        diff = np.abs(mc.mean - closed)
        mc_violations, max_z, mc_ok = _mc_agreement(diff, mc.stderr)
        ok = exact_err <= 1e-10 and mc_ok
        failures += 0 if ok else 1
        print(
            f"{label}: alpha_w={alpha_w:.6f} |gram - closed|={exact_err:.3e} "
            f"MC>3sigma entries={mc_violations}/{diff.size} (max z = {max_z:.2f}) "
            f"-> {'PASS' if ok else 'FAIL'}"
        )
    print(f"twirl validation: {'PASS' if failures == 0 else 'FAIL'}")
    return EXIT_PASS if failures == 0 else EXIT_VALIDATION_FAIL


def cmd_validate_variance(args: argparse.Namespace) -> int:
    n = _qubit_count(args.d)
    check_qubit_count(n)
    _require_at_least("--shots", args.shots, 2, " for an empirical variance")
    # As ExperimentConfig.from_dict: a local shot draws n 2x2 factors, a global one a d-vector.
    check_entries(args.shots * max(args.d, 4 * n), f"{args.shots} shots at d = {args.d}")
    groups = ("orthogonal", "unitary")
    # Orthogonal and unitary sites in turn: the local predictor on mixed groups.
    local = local_ensemble([groups[j % 2] for j in range(n)], n)
    check_local_cubature(local.groups)
    z, mixed = np.diag([1.0, -1.0]), np.eye(2) * np.sqrt(0.5)  # rho = I/2
    pinned_real, pinned_unitary = (
        predict_variance(global_ensemble(g, basis_from_tag("computational", 1)), z, mixed)
        for g in groups
    )
    print(f"pinned d=2 A=Z rho=I/2: real={pinned_real}, unitary={pinned_unitary}")
    ok = pinned_real == 2.0 and pinned_unitary == 3.0
    psi = haar_state_vector(RngStream(args.seed, (10,)), args.d)[:, None]
    a = random_symmetric_observable(RngStream(args.seed, (11,)), args.d)
    # Each ensemble also estimates a basis projector from the same records.
    index = int(RngStream(args.seed, (13,)).generator.integers(args.d))
    observables = [a, BasisProjector.from_index(index, n)]
    specs = [global_ensemble(g, basis_from_tag("computational", n)) for g in groups] + [local]
    for spec in specs:
        records = collect_records(RngStream(args.seed, (12,)), psi, spec, args.shots)
        for observable, values in zip(observables, per_shot_table(records, observables)):
            predicted = predict_variance(spec, observable, psi)
            empirical = np.var(values, ddof=1)
            # A sample variance's standard error, from the shots' fourth moment.
            stderr = np.std((values - values.mean()) ** 2, ddof=1) / np.sqrt(args.shots)
            _, z, case_ok = _mc_agreement(abs(empirical - predicted), stderr)
            ok = ok and case_ok
            label = spec.label() + ("" if observable is a else f" projector:{index}")
            print(
                f"{label}: empirical={empirical:.6g} predicted={predicted:.6g} "
                f"z={z:.2f} -> {'PASS' if case_ok else 'FAIL'}"
            )
    print(f"variance validation: {'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_VALIDATION_FAIL


def cmd_ratio_sweep(args: argparse.Namespace) -> int:
    if args.n_max > 7:
        raise ConfigError("ratio sweep is limited to n <= 7")
    _require_at_least("--n-min", args.n_min, 1)
    _require_at_least("--n-max", args.n_max, args.n_min, " (--n-min)")
    _require_at_least("--instances", args.instances, 2, _FOR_A_STDERR)
    n_values = list(range(args.n_min, args.n_max + 1))
    # Five CSV cells per instance and n.
    check_entries(
        args.instances * len(n_values) * 5, f"{args.instances} instances at {len(n_values)} n values"
    )
    rows, summary = ratio_sweep(n_values, args.instances, args.seed)
    for entry in summary:
        print(
            f"n={entry['n']}: mean ratio Var_O/Var_U = {entry['mean_ratio']:.4f} "
            f"+- {entry['stderr']:.4f}"
        )
    if args.out:
        write_ratio_csv(args.out, rows)
        print(f"wrote {args.out}")
    return EXIT_PASS


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process.  Each subcommand names its `cmd_*` function,
    which `main` looks up in this module at call time."""
    parser = argparse.ArgumentParser(
        prog="realshadows",
        description="Orthogonal-group (real) classical shadows workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="run a shadow estimation experiment from a config")
    p.add_argument("--config", required=True, help="JSON experiment configuration")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path (overrides config)")
    p.add_argument("--allow-bias", action="store_true")
    p.set_defaults(handler=cmd_estimate.__name__)

    p = sub.add_parser("validate-channel", help="Monte Carlo check of a measurement channel")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--ensemble", choices=_ENSEMBLE_CHOICES, default="global-orthogonal")
    p.add_argument("--basis", default="computational")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_validate_channel.__name__)

    p = sub.add_parser("validate-twirl", help="closed form vs Gram projection vs Monte Carlo")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_validate_twirl.__name__)

    p = sub.add_parser("validate-variance", help="exact predictors vs empirical variance")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_validate_variance.__name__)

    p = sub.add_parser("ratio-sweep", help="exact variance-ratio sweep over system sizes")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_ratio_sweep.__name__)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
            raise ConfigError(f"--seed must be in [0, {MAX_SEED}], got {args.seed}")
        return globals()[args.handler](args)
    except (ConfigError, ResourceLimitError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
