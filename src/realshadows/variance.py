"""Exact variance predictors for shadow estimators.

All predictors consume the true simulated state: they are validation oracles,
not estimators of unknown states.  Every prediction is exact.

One rule covers a Pauli string c P in every ensemble, global or local, O or
U, in any basis.  Its estimate o = c mu <v|P|v> has E[o^2] = Tr[rho Q], with
Q the contraction of I (x) P (x) P against the k = 3 twirl.  P^2 = I,
P^T = +-P and a loop holding a single P traces to 0, so every surviving
contraction is a multiple of I and Q is too.  At rho = I/d,
E[<v|P|v>^2] = Tr[P M(P)]/d = lambda = 1/mu, so

    Var[o] = c^2 mu - (c Tr[rho P])^2,

which is 0 when mu = 0 (P is invisible) or P is the identity.  Any other
observable takes a sum: global ensembles sum the Brauer trace words of the
k = 3 twirl, and local ones average over the single-qubit Clifford
measurements, a finite sum over product stabilizer states.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np

from .bases import computational_basis
from .channels import (
    EnsembleSpec,
    apply_channel,
    channel_for,
    global_ensemble,
    invert,
    map_sites,
    pauli_string_inverse_eigenvalue,
    stabilizer_points,
)
from .commutant import enumerate_pairings, twirl_coefficients
from .linalg import check_entries, check_state, sym_part
from .pauli import PauliString
from .sampling import RngStream, random_pure_state

#: Points per block of the local cubature: 1 MiB per complex array of them.
_CUBATURE_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# Global ensembles.  With v = U^dag|w> drawn with probability <v|rho|v>, the
# estimate o = <v|A~|v> has E[o^(k-1)] = sum_w Tr[(rho (x) A~ (x) ...) E_U
# (U^dag Pi_w U)^{(x)k}], a sum over enumerate_pairings(k) (only the
# permutations for U(d)) of words: products of the traces of a pairing's loops.
# A loop is a tuple of (operand, transposed) steps, operand 0 for rho (which
# leads its loop) and 1 for A~.


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
    for k = 2, 3.  Each is linear in alpha_w, so summed over w it is d times
    the coefficient at alpha_total / d."""
    group = "U" if unitary else "O"
    return tuple(
        tuple(d * c for c in twirl_coefficients(group, alpha_total / d, d, k)) for k in (2, 3)
    )


def _predict_global(spec: EnsembleSpec, observable, state: np.ndarray) -> float:
    """Exact Var[o] = E[o^2] - E[o]^2 of a dense observable from the k = 3
    and k = 2 words.

    E[o] is the visible target Tr[P_vis(A) rho].  Var is unchanged by
    A -> A - Tr[A]/d (each o shifts by Tr[A]/d), so the words take the
    traceless A~ and no (Tr A)^2 cancels against the mean.  Every loop is an
    O(d^2) trace but Tr[rho X Y] = Tr[(rho X) Y], which shares rho A~ and
    rho A~^T (only rho A~ when A~ is symmetric).  A Pauli string never comes
    here: `predict_variance` gives it the closed form c^2 mu - (c Tr[rho P])^2."""
    d = spec.d
    unitary = spec.groups[0] == "unitary"
    inverted = invert(channel_for(spec), observable)
    tilde = inverted.inverse.copy()
    tilde.flat[:: d + 1] -= inverted.trace / d
    # U(d) words are permutations, which never transpose an operand.
    symmetric = unitary or np.array_equal(tilde, tilde.T)
    operands = {(0, False): state, (1, False): tilde, (1, True): tilde.T}
    products: dict = {}
    traces: dict = {}

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
                sums[is_permutation] += count * math.prod(trace(loop) for loop in word)
        moments.append((c_perm * sums[True] + c_omega * sums[False]).real)
    mean, second = moments
    return float(second - mean**2)


def _prefix_blocks(ops, maps, lead: int):
    """Yield map_sites(op, maps[lead:]) of each op reduced by every point
    prefix of the first `lead` sites, depth first, in the order of
    map_sites' leading axes.  Reducing by a point contracts the leading
    site's entries with its (K_j, 4) row, so a level holds one operator of
    half the dimension, and no array holds the points of more than one block."""
    if lead == 0:
        yield [map_sites(op, maps).real.ravel() for op in ops]
        return
    half = ops[0].shape[0] // 2
    views = [op.reshape(2, half, 2, half) for op in ops]
    for row in maps[0]:
        reduced = [sum(row[2 * r + c] * v[r, :, c] for r in (0, 1) for c in (0, 1)) for v in views]
        yield from _prefix_blocks(reduced, maps[1:], lead - 1)


def _predict_local(spec: EnsembleSpec, observable, state: np.ndarray) -> float:
    """Exact Var[o] under a local ensemble from the single-qubit Clifford
    cubature: E[o^k] = sum_phi w_phi <phi|rho|phi> <phi|A~|phi>^k, k = 1, 2.

    E[o^2] is a third moment of the measured product state, so each Haar site
    may be replaced by its single-qubit Cliffords: phi runs over products of
    `stabilizer_points`, with w_phi = prod_j 2 / K_j.  These weights sum the
    <phi|rho|phi> to Tr[rho] = 1, so Var[o] is the centred sum below.

    The points are walked in blocks of at most `_CUBATURE_BLOCK`, one per
    point prefix of the fewest leading sites that leave that many (a single
    block when the whole cubature fits).  The sums are shifted by
    m = Tr[rho M(A~)], which the cubature mean equals, and the sums s_i of
    w p (t - m)^i give sum w p (t - mu)^2 = s_2 - 2 delta s_1 + delta^2 s_0
    with mu = s_1 + m s_0 and delta = mu - m, exactly, without cancellation."""
    maps = [stabilizer_points(g) for g in spec.groups]
    sizes = [m.shape[0] for m in maps]
    check_entries(math.prod(sizes), "the local variance cubature")
    desc = channel_for(spec)
    tilde = invert(desc, observable).inverse
    weight = math.prod(2.0 / k for k in sizes)
    lead = next(j for j in range(spec.n + 1) if math.prod(sizes[j:]) <= _CUBATURE_BLOCK)
    shift = np.einsum("ij,ji->", state, apply_channel(desc, tilde)).real
    s0 = s1 = s2 = 0.0
    for p, t in _prefix_blocks([state, tilde], maps, lead):
        x = t - shift
        px = p * x
        s0 += p.sum()
        s1 += px.sum()
        s2 += px @ x
    s0, s1, s2 = weight * s0, weight * s1, weight * s2
    delta = s1 + shift * (s0 - 1.0)
    return float(s2 - 2.0 * delta * s1 + delta**2 * s0)


def predict_variance(spec: EnsembleSpec, observable, rho) -> float:
    """The exact variance of one shot's estimate of `observable` on the state `rho`.

    `observable` is a Pauli string, a dense matrix or an `InvertedObservable`.
    A string c P takes the one rule of every ensemble, c^2 mu - (c Tr[rho P])^2
    with c read as Re(c), which is what its estimates read, and mu the M^-1
    eigenvalue of P.  Other observables sum the Brauer words under a global
    ensemble, and under a local one the single-qubit Clifford cubature, which
    raises ResourceLimitError when it would sum over more than MAX_KRON_DIM^2
    product states.  `rho` must be square, of unit trace and Hermitian;
    positivity is not checked, as that takes an O(d^3) eigendecomposition.
    """
    rho = check_state(rho, spec.d)
    if isinstance(observable, PauliString):
        if observable.n != spec.n:
            raise ValueError("observable qubit count does not match the ensemble")
        mu = pauli_string_inverse_eigenvalue(channel_for(spec), observable)
        if mu == 0.0 or not observable.support:
            return 0.0  # the estimate is identically zero, or the constant c
        c = complex(observable.coefficient).real
        # Tr[rho P] = sum_j phase[j] rho[j, j ^ flip], O(d) from the action.
        flip, phase = PauliString(observable.letters).action()
        j = np.arange(spec.d)
        mean = c * (phase @ rho[j, j ^ flip]).real
        return float(c * c * mu - mean**2)
    if spec.scope == "global":
        return _predict_global(spec, observable, rho)
    return _predict_local(spec, observable, rho)


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
    var_real = _predict_global(orthogonal, a, rho)
    var_unitary = _predict_global(unitary, a, rho)
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
