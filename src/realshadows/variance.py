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
measurements, a finite sum over product stabilizer states.  A basis
projector takes the closed form of its inverse, a product of one diagonal
per factor: the words of its diagonal A~ under a global ensemble, and under
a local one the cubature, which factorises over its sites.
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
    projector_inverse,
    pseudo_inverse,
    stabilizer_points,
)
from .commutant import enumerate_pairings, twirl_coefficients
from .linalg import check_entries, check_factor, chunk_items
from .pauli import BasisProjector, PauliString
from .sampling import RngStream, haar_state_vector


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


def _subtract_trace(inverse: np.ndarray, trace) -> np.ndarray:
    """A~ = M^+(A) - Tr[A]/d I for each operator of a stack, in place."""
    np.einsum("...ii->...i", inverse)[...] -= np.asarray(trace)[..., None] / inverse.shape[-1]
    return inverse


def _pair_trace(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr[x y] for each pair of a stack, in O(size)."""
    return np.einsum("...ij,...ji->...", x, y)


def _predict_global(spec: EnsembleSpec, tilde: np.ndarray, factor: np.ndarray):
    """Exact Var[o] = E[o^2] - E[o]^2 of dense observables from the k = 3
    and k = 2 words, for a (..., d, d) stack of traceless A~ on the states
    rho = Psi Psi^dag of a stack of factors Psi (..., d, r).

    E[o] is the visible target Tr[P_vis(A) rho].  Var is unchanged by
    A -> A - Tr[A]/d (each o shifts by Tr[A]/d), so the words take the
    traceless A~ and no (Tr A)^2 cancels against the mean.  Each A~ must be
    Hermitian, as the pseudo-inverse of a Hermitian A is.  With X and Y each
    A~ or A~^T, a loop of rho is Tr[rho] = 1 (the state has unit trace),
    Tr[rho X] = Tr[Psi^dag (X Psi)] or Tr[rho X Y] = Tr[(X Psi)^dag (Y Psi)],
    since Psi^dag X = (X Psi)^dag for a Hermitian X.  So one product X Psi,
    O(d^2 r), per operand is shared by every loop (only A~ appears when A~ is
    symmetric), and each loop is an O(d r) elementwise sum; a real A~ takes
    the real view of a complex Psi, so the stack is never cast to complex.
    A loop without rho is Tr[X] or Tr[X Y], O(d^2).  The word tables are
    walked once per stack.  A Pauli string never comes here:
    `predict_variance` gives it the closed form c^2 mu - (c Tr[rho P])^2."""
    unitary = spec.groups[0] == "unitary"
    transposed = np.swapaxes(tilde, -1, -2)
    # U(d) words are permutations, which never transpose an operand.
    symmetric = unitary or np.array_equal(tilde, transposed)
    operands = (tilde, transposed)

    @functools.cache
    def image(t: bool) -> np.ndarray:  # X Psi
        if np.iscomplexobj(factor) and not np.iscomplexobj(tilde):
            return (operands[t] @ np.ascontiguousarray(factor).view(float)).view(complex)
        return operands[t] @ factor

    @functools.cache
    def trace(loop):
        (op, t), *rest = loop
        if op == 1:  # no rho: Tr[X] or Tr[X Y]
            if not rest:
                return np.trace(operands[t], axis1=-2, axis2=-1)
            return _pair_trace(operands[t], operands[rest[0][1]])
        if not rest:
            return 1.0
        left = factor if len(rest) == 1 else image(rest[0][1])
        return np.einsum("...ij,...ij->...", left.conj(), image(rest[-1][1]))

    moments = []
    coefficients = _word_coefficients(unitary, spec.d, spec.basis.alpha_total)
    for k, (c_perm, c_omega) in zip((2, 3), coefficients):
        sums = [0j, 0j]  # contractions, permutations; complex, as a word may be
        for (is_permutation, word), count in _WORDS[k, symmetric].items():
            if is_permutation or not unitary:
                sums[is_permutation] += count * math.prod(trace(loop) for loop in word)
        moments.append((c_perm * sums[True] + c_omega * sums[False]).real)
    mean, second = moments
    return second - mean**2


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


def check_local_cubature(groups) -> list[np.ndarray]:
    """The `stabilizer_points` of each site of the local cubature over sites
    of these groups, or ResourceLimitError when it would sum over more than
    MAX_KRON_DIM^2 product states; checked before anything of dimension d is
    built."""
    maps = [stabilizer_points(g) for g in groups]
    check_entries(math.prod(m.shape[0] for m in maps), "the local variance cubature")
    return maps


def _predict_local(spec: EnsembleSpec, inverses: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Exact Var[o] under a local ensemble, for each A~ = M^+(A) of a
    (..., d, d) stack, from the single-qubit Clifford cubature:
    E[o^k] = sum_phi w_phi <phi|rho|phi> <phi|A~|phi>^k, k = 1, 2.

    E[o^2] is a third moment of the measured product state, so each Haar site
    may be replaced by its single-qubit Cliffords: phi runs over products of
    `stabilizer_points`, with w_phi = prod_j 2 / K_j.  These weights sum the
    <phi|rho|phi> to Tr[rho] = 1, so Var[o] is the centred sum below.

    The points are walked in blocks that `linalg.chunk_items` sizes, one per
    point prefix of the fewest leading sites that leave that many (a single
    block when the whole cubature fits).  The sums are shifted by
    m = Tr[rho M(A~)], which the cubature mean equals, and the sums s_i of
    w p (t - m)^i give sum w p (t - mu)^2 = s_2 - 2 delta s_1 + delta^2 s_0
    with mu = s_1 + m s_0 and delta = mu - m, exactly, without cancellation.
    The cubature reads the dense rho = Psi Psi^dag, formed once, and walks
    one A~ at a time."""
    maps = check_local_cubature(spec.groups)
    state = factor @ factor.conj().T
    sizes = [m.shape[0] for m in maps]
    weight = math.prod(2.0 / k for k in sizes)
    # The images of rho and A~ at a point and the sums over it take about 40 bytes.
    block = chunk_items(40)
    lead = next(j for j in range(spec.n + 1) if math.prod(sizes[j:]) <= block)
    shifts = np.einsum("ij,...ji->...", state, apply_channel(channel_for(spec), inverses)).real
    variances = np.empty(shifts.shape)
    for i in np.ndindex(shifts.shape):
        s0 = s1 = s2 = 0.0
        for p, t in _prefix_blocks([state, inverses[i]], maps, lead):
            x = t - shifts[i]
            px = p * x
            s0 += p.sum()
            s1 += px.sum()
            s2 += px @ x
        s0, s1, s2 = weight * s0, weight * s1, weight * s2
        delta = s1 + shifts[i] * (s0 - 1.0)
        variances[i] = s2 - 2.0 * delta * s1 + delta**2 * s0
    return variances


def _product_traces(factor: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Tr[Psi Psi^dag (x)_j O_ij] for each row i of an (m, n, 2, 2) array of
    one 2x2 operator O_ij per qubit, qubit 0 leftmost: each O_ij acts on
    Psi's qubit-j axis in one batched product, so a trace costs O(n d r) and
    no d x d array is formed."""
    image = factor[None]
    for j in range(ops.shape[1]):
        image = ops[:, j, None] @ image.reshape(len(image), 2**j, 2, -1)
    return np.einsum("mdr,dr->m", image.reshape(-1, *factor.shape), factor.conj()).real


def _predict_sites(spec: EnsembleSpec, diagonals: np.ndarray, factor: np.ndarray) -> float:
    """Exact Var[o] under a local ensemble of a basis projector, from the
    (n, 2) diagonals of its site inverses B_j = diag(D_j):
    o = prod_j <v_j|B_j|v_j> on the measured product state.

    The local cubature factorises over the sites of a product: with the
    site's `stabilizer_points` phi, each of weight 2/K_j,
    E[o^k] = Tr[rho (x)_j Q_j^(k)], Q_j^(k) = (2/K_j) sum_phi <phi|B_j|phi>^k
    |phi><phi|.  Q_j^(1) is M_j(B_j), so E[o] is the visible target.  Both
    moments are `_product_traces` on Psi, and no dense rho is formed."""
    ops = np.empty((2, spec.n, 2, 2), dtype=complex)  # Q_j^(1) and Q_j^(2)
    for group in set(spec.groups):
        sites = [j for j, g in enumerate(spec.groups) if g == group]
        points = stabilizer_points(group)
        # <phi|B_j|phi> from the diagonal entries |phi_0|^2 and |phi_1|^2.
        values = diagonals[sites] @ points[:, ::3].real.T
        # points[i] holds conj(phi_r) phi_c at (r, c): the transpose of |phi><phi|.
        sums = np.einsum("ksi,icr->ksrc", [values, values**2], points.reshape(-1, 2, 2))
        ops[:, sites] = 2.0 / len(points) * sums
    mean, second = _product_traces(factor, ops)
    return second - mean**2


def predict_variance(spec: EnsembleSpec, observable, factor):
    """The exact variance of one shot's estimate of `observable` on the state
    rho = Psi Psi^dag of the (d, r) `factor` Psi, as `engine.state_factor`
    gives it for a configured state.

    `observable` is a Pauli string, a basis projector, a Hermitian matrix or
    a (B, d, d) stack of them, or the `InvertedObservable` of one; a stack
    gets one variance per operator, anything else a float.  A string c P takes the one rule of
    every ensemble, c^2 mu - (c Tr[rho P])^2 with mu the M^-1 eigenvalue of P.
    Dense observables sum the Brauer words under a global ensemble, a whole
    stack in one walk, and under a local one the single-qubit Clifford
    cubature, which raises ResourceLimitError when `check_local_cubature`
    refuses its size.  A basis projector takes its diagonal inverse
    (`projector_inverse`): under a global ensemble the words of
    A~ = diag(D - 1/d), as Tr M^+(|b><b|) = 1, and under a local one the
    cubature factorised over its sites (`_predict_sites`), in O(n d r) with
    no size limit.
    """
    factor = check_factor(factor, spec.d)
    if isinstance(observable, PauliString):
        mu = pauli_string_inverse_eigenvalue(channel_for(spec), observable)
        if mu == 0.0 or not observable.support:
            return 0.0  # the estimate is identically zero, or the constant c
        # c Tr[rho P] = sum_k c <psi_k|P|psi_k> over the columns psi_k of Psi, O(d r).
        mean = observable.expectations(factor.T).sum()
        return float(observable.coefficient**2 * mu - mean**2)
    desc = channel_for(spec)
    if isinstance(observable, BasisProjector):
        diagonals = projector_inverse(desc, observable)
        if spec.scope == "local":
            variances = _predict_sites(spec, diagonals, factor)
        else:
            variances = _predict_global(spec, np.diag(diagonals[0] - 1.0 / spec.d), factor)
    elif spec.scope == "global":
        inverted = invert(desc, observable)
        tilde = _subtract_trace(inverted.inverse.copy(), inverted.trace)
        variances = _predict_global(spec, tilde, factor)
    else:
        variances = _predict_local(spec, invert(desc, observable).inverse, factor)
    return variances if variances.ndim else float(variances)


# ---------------------------------------------------------------------------
# Random instances for the variance-ratio experiment.


def random_symmetric_observable(rng: RngStream, d: int) -> np.ndarray:
    """A random real symmetric observable: complex entries m = x + i y uniform
    in [-1, 1]^2, adjoint added, Schatten-2-normalized, restricted to the
    symmetric component (the part both protocols estimate without bias).
    m + m^dag has real part x + x^T and imaginary part y - y^T, and its
    symmetric part is x + x^T, so the result is formed in real arithmetic.
    The two parts are interleaved as in a complex array, so the norm takes
    the same strided dots as numpy's norm of m + m^dag, and the division is
    the product with 1 / norm that numpy's complex division takes: the bits
    are those of the complex form."""
    gen = rng.generator
    x = gen.uniform(-1.0, 1.0, (d, d))
    y = gen.uniform(-1.0, 1.0, (d, d))
    a = np.empty((d, d, 2))
    np.add(x, x.T, out=a[..., 0])
    np.subtract(y, y.T, out=a[..., 1])
    re, im = a.reshape(-1, 2).T
    return a[..., 0] * (1.0 / np.sqrt(re @ re + im @ im))


def ratio_sweep(n_values, instances: int, seed: int):
    """Exact-predictor variance-ratio sweep over system sizes.

    Instance i at n draws a Haar psi from the stream (seed, n, i, 0) and a
    random symmetric A from (seed, n, i, 1).  Both global ensembles of the
    computational basis predict Var[o] for blocks of instances, one
    (instances, d, d) stack per block sized by `linalg.chunk_items`, on the
    factor psi of rho = psi psi^dag.

    Returns (rows, summary): one row per instance with the CSV schema
    (n, instance_id, var_real_exact, var_unitary_exact, ratio) and one summary
    entry per n with the mean ratio and its standard error.
    """
    rows = []
    summary = []
    for n in map(int, n_values):
        d = 2**n
        groups = ("orthogonal", "unitary")
        specs = [global_ensemble(g, computational_basis(n)) for g in groups]
        descs = [channel_for(spec) for spec in specs]
        base = RngStream(seed, (n,))
        # A, its two pseudo-inverses and their products: about 48 d^2 bytes per instance.
        block = chunk_items(48 * d * d)
        ratios = np.empty(instances)
        for start in range(0, instances, block):
            ids = range(start, min(start + block, instances))
            psi = np.stack([haar_state_vector(base.child(i).child(0), d) for i in ids])[..., None]
            a = np.stack([random_symmetric_observable(base.child(i).child(1), d) for i in ids])
            traces = np.trace(a, axis1=1, axis2=2)
            tildes = [_subtract_trace(pseudo_inverse(desc, a), traces) for desc in descs]
            var_real, var_unitary = (
                _predict_global(spec, tilde, psi) for spec, tilde in zip(specs, tildes)
            )
            ratios[ids.start : ids.stop] = var_real / var_unitary
            for i, v_real, v_unitary in zip(ids, var_real, var_unitary):
                rows.append(
                    {
                        "n": n,
                        "instance_id": i,
                        "var_real_exact": float(v_real),
                        "var_unitary_exact": float(v_unitary),
                        "ratio": float(ratios[i]),
                    }
                )
        summary.append(
            {
                "n": n,
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
