"""Closed-form variance predictors and bounds for shadow estimators.

All predictors consume the true simulated state: they are validation oracles,
not estimators of unknown states.  Global formulas are exact; the local
results are exact for single Pauli strings (their second moment is state
independent) and upper bounds for general local operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    EnsembleSpec,
    InvisibleObservableError,
    channel_for,
    factor_visible_dimension,
    pauli_inverse_eigenvalue,
)
from .linalg import as_operator, norm_inf, sym_part, traceless_part
from .pauli import PAULIS, PauliString
from .sampling import RngStream, random_pure_state

#: An observable with ||A - A^T|| above this fraction of ||A|| is treated as
#: having an antisymmetric part.
_ANTISYM_RTOL = 1e-12


@dataclass
class VariancePrediction:
    kind: str  # "exact" | "upper_bound"
    value: float
    assumptions: str = ""


def _as_matrix(observable) -> np.ndarray:
    if isinstance(observable, PauliString):
        return observable.to_matrix()
    return as_operator(observable)


def _trace_product(x: np.ndarray, y: np.ndarray) -> float:
    """Re Tr[x y] in O(d^2), without forming the product."""
    return float(np.sum(x * y.T).real)


def var_global_real(a, rho, d: int | None = None) -> VariancePrediction:
    """Exact estimator variance for global orthogonal shadows, real basis."""
    m = _as_matrix(a)
    state = as_operator(rho)
    dim = m.shape[0]
    if d is not None and d != dim:
        raise ValueError("stated dimension does not match the observable")
    s0 = traceless_part(sym_part(m))
    value = (dim + 2.0) / (2.0 * dim + 8.0) * (
        _trace_product(s0, s0) + 4.0 * _trace_product(state @ s0, s0)
    ) - _trace_product(s0, state) ** 2
    return VariancePrediction("exact", float(value), assumptions="global orthogonal, alpha = d")


def var_global_unitary(a, rho) -> VariancePrediction:
    """Exact estimator variance for global unitary shadows."""
    m = _as_matrix(a)
    state = as_operator(rho)
    dim = m.shape[0]
    a0 = traceless_part(m)
    value = (dim + 1.0) / (dim + 2.0) * (
        _trace_product(a0, a0) + 2.0 * _trace_product(state @ a0, a0)
    ) - _trace_product(state, a0) ** 2
    return VariancePrediction("exact", float(value), assumptions="global unitary")


def reality_interpolation(a, d: int, alpha: float) -> np.ndarray:
    """The effective observable A_tilde seen through a reality-alpha channel."""
    m = as_operator(a)
    denom = d * (d - 2.0 + alpha)
    if abs(d - 2.0 + alpha) < 1e-12:
        raise ValueError("degenerate at d - 2 + alpha = 0; use the spectral treatment")
    return ((d * d - alpha) * m + (alpha * d + alpha - 2.0 * d) * m.T) / denom


def var_global_alpha(a, rho, d: int, alpha: float) -> VariancePrediction:
    """Exact estimator variance for global orthogonal shadows with a basis of
    total reality alpha.

    Checked by simulation for symmetric observables only: an observable with
    an antisymmetric part is mispredicted when alpha != d, so
    `predict_variance` gives no prediction for it there.
    """
    m = _as_matrix(a)
    state = as_operator(rho)
    if m.shape[0] != d:
        raise ValueError("stated dimension does not match the observable")
    tilde = reality_interpolation(m, d, alpha)
    t0 = tilde - (np.trace(m) / d) * np.eye(d)
    p_alpha = (d * d - alpha) / ((d - 1.0) * (d + 2.0))
    prefactor = 1.0 / ((1.0 - p_alpha) ** 2 * d * (d - 1.0) * (d + 2.0) * (d + 4.0))
    t0_t = t0.T
    state_t0 = state @ t0
    state_t0_t = state @ t0_t
    term_plain = (d * d - 3.0 * alpha + 2.0 * d) * (
        _trace_product(t0, t0) + 2.0 * _trace_product(state_t0, t0)
    )
    term_transposed = (alpha * d + alpha - 2.0 * d) * (
        _trace_product(t0, t0_t)
        + 2.0 * _trace_product(state_t0, t0_t)
        + 2.0 * _trace_product(state_t0_t, t0)
        + 2.0 * _trace_product(state_t0_t, t0_t)
    )
    value = prefactor * (term_plain + term_transposed) - _trace_product(t0, state) ** 2
    return VariancePrediction(
        "exact", float(value), assumptions=f"global orthogonal, alpha = {alpha}"
    )


def overlap_f(p: PauliString, q: PauliString) -> float:
    """Overlap factor for two locally real Pauli strings: 0 on a non-identity
    mismatch, else 2**s with s the number of matching non-identity sites."""
    if p.n != q.n:
        raise ValueError("Pauli strings act on different qubit counts")
    if not (p.locally_real and q.locally_real):
        raise ValueError("overlap_f is defined for locally real (Y-free) strings")
    s = 0
    for a, b in zip(p.letters, q.letters):
        if a == "I" or b == "I":
            continue
        if a != b:
            return 0.0
        s += 1
    return float(2**s)


def _qubit_component_norms(a: np.ndarray, n: int, j: int) -> dict[str, float]:
    left = 2**j
    right = 2 ** (n - 1 - j)
    a6 = a.reshape(left, 2, right, left, 2, right)
    out = {}
    for letter in ("X", "Y", "Z"):
        comp = np.einsum("im,lmrLiR->lrLR", PAULIS[letter], a6) / 2.0
        out[letter] = float(np.linalg.norm(comp))
    return out


def _require_visible(spec: EnsembleSpec, spectra, j: int, letter: str) -> None:
    if pauli_inverse_eigenvalue(spectra[j], letter) == 0.0:
        raise InvisibleObservableError(
            f"qubit {j}: {letter} is outside the visible space of its {spec.groups[j]} channel"
        )


def _pauli_second_moment(spectra, p: PauliString) -> float:
    """E[o^2] of a Pauli string under a local ensemble, exact for any state:
    E[<v|P|v>^2] = lambda on each site, so a site contributes
    lambda^-2 * lambda = 1/lambda.  It is 0 when a site annihilates its letter."""
    value = float(abs(p.coefficient) ** 2)
    for sp, letter in zip(spectra, p.letters):
        value *= pauli_inverse_eigenvalue(sp, letter)
    return value


def bound_local(observable, spec: EnsembleSpec) -> VariancePrediction:
    """Variance upper bound for local shadows.

    A single Pauli string gets its exact second moment, |c|^2 times the
    product of its per-site M^-1 eigenvalues.  A general k-local operator
    gets ||A||_inf^2 times the visible operator dimension of each qubit in its
    support (3 orthogonal, 4 unitary).  A component that a site's channel
    annihilates is rejected: the observable is invisible there.
    """
    if spec.scope != "local":
        raise ValueError("local bounds need a local ensemble")
    spectra = channel_for(spec).spectra
    if isinstance(observable, PauliString):
        if observable.n != spec.n:
            raise ValueError("observable and ensemble qubit counts differ")
        for j in observable.support:
            _require_visible(spec, spectra, j, observable.letters[j])
        return VariancePrediction(
            "upper_bound", _pauli_second_moment(spectra, observable), "single Pauli string"
        )
    if isinstance(observable, (list, tuple)):
        if any(p.n != spec.n for p in observable):
            raise ValueError("observable and ensemble qubit counts differ")
        m = np.sum([p.to_matrix() for p in observable], axis=0)
        support = sorted(set().union(*(p.support for p in observable)))
        for p in observable:
            for j in p.support:
                _require_visible(spec, spectra, j, p.letters[j])
    else:
        m = as_operator(observable)
        if m.shape[0] != spec.d:
            raise ValueError("observable dimension does not match the ensemble")
        tol = 1e-12 * max(1.0, float(np.linalg.norm(m)))
        support = []
        for j in range(spec.n):
            norms = _qubit_component_norms(m, spec.n, j)
            for letter, norm in norms.items():
                if norm > tol:
                    _require_visible(spec, spectra, j, letter)
            if max(norms.values()) > tol:
                support.append(j)
    value = float(norm_inf(m)) ** 2
    for j in support:
        value *= factor_visible_dimension(spectra[j], 2)
    return VariancePrediction(
        "upper_bound", value, assumptions="k-local operator, spectral-norm bound"
    )


def predict_variance(spec: EnsembleSpec, observable, rho=None) -> VariancePrediction | None:
    """Best available variance prediction for an observable under an ensemble."""
    if spec.scope == "local" and isinstance(observable, PauliString):
        second = _pauli_second_moment(channel_for(spec).spectra, observable)
        if second == 0.0:
            return VariancePrediction("exact", 0.0, "the estimator is identically zero")
        if rho is None:
            return VariancePrediction("upper_bound", second, "state-independent second moment")
        mean = _trace_product(observable.to_matrix(), as_operator(rho))
        return VariancePrediction("exact", float(second - mean**2), "local Pauli")
    if spec.scope == "local":
        try:
            return bound_local(observable, spec)
        except InvisibleObservableError:
            return None
    if rho is None:
        return None
    d = spec.d
    if spec.groups[0] == "unitary":
        return var_global_unitary(_as_matrix(observable), rho)
    alpha = spec.basis.alpha_total
    if abs(alpha - d) <= 1e-12:
        return var_global_real(_as_matrix(observable), rho)
    if abs(d - 2.0 + alpha) < 1e-12:
        return None  # degenerate spectrum; no closed form at this point
    m = _as_matrix(observable)
    if np.linalg.norm(m - m.T) > _ANTISYM_RTOL * np.linalg.norm(m):
        return None  # var_global_alpha is unverified off symmetric observables
    return var_global_alpha(m, rho, d, alpha)


# ---------------------------------------------------------------------------
# Random instances for the variance-ratio experiment.


def random_symmetric_observable(rng: RngStream, d: int) -> np.ndarray:
    """A random symmetric observable: complex entries uniform in [-1, 1]^2,
    adjoint added, Schatten-2-normalized, restricted to the symmetric
    component (the part both protocols estimate without bias)."""
    gen = rng.generator
    m = gen.uniform(-1.0, 1.0, (d, d)) + 1j * gen.uniform(-1.0, 1.0, (d, d))
    a = m + m.conj().T
    a = a / np.linalg.norm(a)
    return sym_part(a)


def ratio_instance(rng: RngStream, d: int) -> tuple[float, float, float]:
    """(var_real, var_unitary, ratio) for one random state/observable pair."""
    rho = random_pure_state(rng.child(0), d)
    a = random_symmetric_observable(rng.child(1), d)
    var_real = var_global_real(a, rho).value
    var_unitary = var_global_unitary(a, rho).value
    return var_real, var_unitary, var_real / var_unitary


def ratio_sweep(n_values, instances: int, seed: int):
    """Exact-predictor variance-ratio sweep over system sizes.

    Returns (rows, summary): one row per instance with the CSV schema
    (n, instance_id, var_real_exact, var_unitary_exact, ratio) and one summary
    entry per n with the mean ratio and its standard error.
    """
    rows = []
    summary = []
    for n in n_values:
        d = 2**n
        base = RngStream(seed, (int(n),))
        ratios = np.empty(instances)
        for i in range(instances):
            var_real, var_unitary, ratio = ratio_instance(base.child(i), d)
            ratios[i] = ratio
            rows.append(
                {
                    "n": int(n),
                    "instance_id": i,
                    "var_real_exact": var_real,
                    "var_unitary_exact": var_unitary,
                    "ratio": ratio,
                }
            )
        summary.append(
            {
                "n": int(n),
                "mean_ratio": float(ratios.mean()),
                "stderr": float(ratios.std(ddof=1) / np.sqrt(instances)),
            }
        )
    return rows, summary


def write_ratio_csv(path: str, rows) -> None:
    lines = ["n,instance_id,var_real_exact,var_unitary_exact,ratio"]
    for r in rows:
        lines.append(
            f"{r['n']},{r['instance_id']},{r['var_real_exact']!r},"
            f"{r['var_unitary_exact']!r},{r['ratio']!r}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
