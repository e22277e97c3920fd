"""Closed-form variance predictors and bounds for shadow estimators.

All predictors consume the true simulated state: they are validation oracles,
not estimators of unknown states.  The global predictor is exact; the local
results are exact for single Pauli strings (their second moment is state
independent) and upper bounds for general local operators.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bases import computational_basis
from .channels import (
    EnsembleSpec,
    InvisibleObservableError,
    channel_for,
    factor_visible_dimension,
    global_ensemble,
    pauli_inverse_eigenvalue,
    pseudo_inverse,
)
from .commutant import enumerate_pairings, pair_twirl_coefficients, triple_twirl_coefficients
from .linalg import as_operator, norm_inf, sym_part
from .pauli import PAULIS, PauliString
from .sampling import RngStream, random_pure_state


@dataclass
class VariancePrediction:
    kind: str  # "exact" | "upper_bound"
    value: float


# ---------------------------------------------------------------------------
# Global ensembles.  With v = U^dag|w> drawn with probability <v|rho|v>, the
# estimate o = <v|A~|v> has E[o^(k-1)] = sum_w Tr[(rho (x) A~ (x) ...) E_U
# (U^dag Pi_w U)^{(x)k}], a sum over enumerate_pairings(k) (only the
# permutations for U(d)) of words: products of the traces of a pairing's loops.


def _trace_words(k: int, symmetric: bool) -> Counter:
    """{(is_permutation, word): multiplicity}.  A word is a pairing's sorted
    loops, every A~ written as operand 1 and, for a symmetric A~, every step
    untransposed: 3 words at k = 2, 9 (7 if symmetric) at k = 3."""
    words: Counter = Counter()
    for p in enumerate_pairings(k):
        loops = (tuple((min(op, 1), t and not symmetric) for op, t in loop) for loop in p.loops())
        words[p.is_permutation, tuple(sorted(loops))] += 1
    return words


_WORDS = {(k, sym): _trace_words(k, sym) for k in (2, 3) for sym in (False, True)}


@functools.lru_cache(maxsize=64)
def _word_coefficients(unitary: bool, d: int, alpha_total: float) -> tuple:
    """(permutation, contraction) coefficients of sum_w E_U (U^dag Pi_w U)^{(x)k}
    for k = 2, 3.  U(d) has one coefficient.  The O(d) ones (permutation
    first, contraction last) are linear in alpha_w, so summed over w they are
    d times the coefficients at alpha_total / d."""
    if unitary:
        return tuple((1.0 / math.prod(range(d + 1, d + k)), 0.0) for k in (2, 3))
    c2 = pair_twirl_coefficients(alpha_total / d, d)
    c3 = triple_twirl_coefficients(alpha_total / d, d)
    return tuple((d * c[0], d * c[-1]) for c in (c2, c3))


def _predict_global(spec: EnsembleSpec, m: np.ndarray, state: np.ndarray) -> VariancePrediction:
    """Exact Var[o] = E[o^2] - E[o]^2 from the k = 3 and k = 2 words.

    E[o] is the visible target Tr[P_vis(A) rho].  Var is unchanged by
    A -> A - Tr[A]/d (each o shifts by Tr[A]/d), so the words take the
    traceless A~ and no (Tr A)^2 cancels against the mean.  Every loop is an
    O(d^2) trace but Tr[rho X Y] = Tr[(rho X) Y], which shares rho A~ and
    rho A~^T (only rho A~ when A~ is symmetric)."""
    d = spec.d
    tilde = pseudo_inverse(channel_for(spec), m)
    tilde.flat[:: d + 1] -= np.trace(m) / d
    unitary = spec.groups[0] == "unitary"
    # U(d) words are permutations, which never transpose an operand.
    symmetric = unitary or np.array_equal(tilde, tilde.T)
    operands = {(0, False): state, (1, False): tilde, (1, True): tilde.T}
    traces: dict = {}
    products: dict = {}

    def trace(loop) -> complex:
        if loop not in traces:
            mats = [operands[step] for step in loop]
            if len(mats) == 3:  # rho leads its loop: Tr[rho X Y]
                if loop[1] not in products:
                    products[loop[1]] = state @ mats[1]
                mats = [products[loop[1]], mats[2]]
            traces[loop] = mats[0].trace() if len(mats) == 1 else np.einsum("ij,ji->", *mats)
        return traces[loop]

    moments = []
    for k, (c_perm, c_omega) in zip((2, 3), _word_coefficients(unitary, d, spec.basis.alpha_total)):
        sums = [0.0, 0.0]  # contractions, permutations
        for (is_permutation, word), count in _WORDS[k, symmetric].items():
            if is_permutation or not unitary:
                value = count
                for loop in word:
                    value *= trace(loop)
                sums[is_permutation] += value
        moments.append((c_perm * sums[True] + c_omega * sums[False]).real)
    mean, second = moments
    return VariancePrediction("exact", float(second - mean**2))


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
        return VariancePrediction("upper_bound", _pauli_second_moment(spectra, observable))
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
    return VariancePrediction("upper_bound", value)


def predict_variance(spec: EnsembleSpec, observable, rho=None) -> VariancePrediction | None:
    """Best available variance prediction for an observable under an ensemble.

    Global ensembles: the exact variance given the state, None without one.
    """
    if spec.scope == "local" and isinstance(observable, PauliString):
        second = _pauli_second_moment(channel_for(spec).spectra, observable)
        if second == 0.0:
            return VariancePrediction("exact", 0.0)  # the estimator is identically zero
        if rho is None:
            return VariancePrediction("upper_bound", second)  # state-independent second moment
        mean = float(np.sum(observable.to_matrix() * as_operator(rho).T).real)  # Tr[P rho]
        return VariancePrediction("exact", float(second - mean**2))
    if spec.scope == "local":
        try:
            return bound_local(observable, spec)
        except InvisibleObservableError:
            return None
    if rho is None:
        return None
    m = observable.to_matrix() if isinstance(observable, PauliString) else as_operator(observable)
    return _predict_global(spec, m, as_operator(rho))


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


def ratio_instance(rng: RngStream, orthogonal, unitary) -> tuple[float, float, float]:
    """(var_real, var_unitary, ratio) for one random state/observable pair
    under the global orthogonal and unitary ensembles of one dimension."""
    rho = random_pure_state(rng.child(0), orthogonal.d)
    a = random_symmetric_observable(rng.child(1), orthogonal.d)
    var_real = _predict_global(orthogonal, a, rho).value
    var_unitary = _predict_global(unitary, a, rho).value
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
        specs = [global_ensemble(g, computational_basis(int(n))) for g in ("orthogonal", "unitary")]
        base = RngStream(seed, (int(n),))
        ratios = np.empty(instances)
        for i in range(instances):
            var_real, var_unitary, ratio = ratio_instance(base.child(i), *specs)
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
