"""Reference constructions that the tests check the package against.

None of these is on a run path: the reader of a dense state and the
density matrix of a Haar-random pure one, the dense shadow of one shot, the
depolarizing mixture form of the global orthogonal channel, the overlap
factor of two Y-free Pauli strings, the single-qubit real Clifford group,
a per-block local Born kernel, the batched-QR route of Haar frames, a
batch-by-batch median of means, the symmetric part of an operator, and
the loop-built pairing realizations with the per-call Gram projection that
`commutant` replaced by one cached array and Wg.
"""

from itertools import product

import numpy as np

from realshadows.channels import channel_for, orthogonal_spectrum, pseudo_inverse
from realshadows.commutant import GRAM_RCOND, enumerate_pairings
from realshadows.linalg import as_operator, check_factor, is_hermitian
from realshadows.sampling import _complex_ginibre, _project_out, haar_state_vector


def validate_state(rho, d: int | None = None) -> np.ndarray:
    """Check that `rho` is a density matrix and return its factor Psi.

    The tests' reader of a dense state: square, of dimension d when given,
    Hermitian and positive semidefinite within 1e-8.  Psi (d, r), with
    rho = Psi Psi^dag, holds the eigenvectors scaled by the square roots of
    their eigenvalues, checked by `linalg.check_factor`.
    """
    m = as_operator(rho)
    if d is not None and m.shape[0] != d:
        raise ValueError(f"state dimension {m.shape[0]} does not match ensemble dimension {d}")
    if not is_hermitian(m, 1e-8):
        raise ValueError("state must be Hermitian (within 1e-8)")
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    if np.min(eigenvalues) < -1e-8:
        raise ValueError("state must be positive semidefinite (within 1e-8)")
    return check_factor(eigenvectors * np.sqrt(np.maximum(eigenvalues, 0.0)), m.shape[0])


def random_pure_state(rng, d: int) -> np.ndarray:
    """Density matrix of the Haar-random pure state `sampling.haar_state_vector` draws."""
    v = haar_state_vector(rng, d)
    return np.outer(v, v.conj())


def haar_frames_by_qr(rng, d, r, count, real=False, orthogonal_to=None) -> np.ndarray:
    """`sampling.haar_frames` with every size, 2 x 2 included, on the QR route.

    The same Ginibre entries, drawn in the same order, go through one batched
    LAPACK QR whose R diagonal is then made positive (Mezzadri,
    arXiv:math-ph/0609050).
    """
    gen = rng.generator
    z = gen.standard_normal((count, d, r)) if real else _complex_ginibre(gen, (count, d, r))
    if orthogonal_to is not None:
        z = _project_out(z, orthogonal_to)
    q, upper = np.linalg.qr(z)
    diag = np.diagonal(upper, axis1=1, axis2=2)
    phase = diag / np.where(diag == 0.0, 1.0, np.abs(diag))
    q = q * np.where(phase == 0.0, 1.0, phase)[:, None, :]
    if orthogonal_to is not None:
        q = _project_out(q, orthogonal_to)
    return q


def sym_part(a) -> np.ndarray:
    """(a + a^T) / 2, as a complex operator."""
    m = np.asarray(a, dtype=complex)
    return 0.5 * (m + m.T)


def shadow_from_vector(spec, v: np.ndarray) -> np.ndarray:
    """The dense classical shadow M^-1(|v><v|) of one full measured vector.

    The estimators never form it; it is the reference they are checked against.
    """
    return pseudo_inverse(channel_for(spec), np.outer(v, v.conj()))


def born_probabilities_per_block(factor, transforms, spec) -> np.ndarray:
    """Unnormalized local Born probabilities with qubit j's 2x2 factor applied
    to each of the 2^j leading blocks of Psi in turn: S (2^n - 1) small
    products, the layout of Psi kept throughout."""
    s = transforms.shape[0]
    amp = np.broadcast_to(factor, (s,) + factor.shape)
    for j in range(spec.n):
        amp = transforms[:, j, None] @ amp.reshape(s, 2**j, 2, -1)
    amp = amp.reshape(s, spec.d, -1)
    return (amp.real**2 + amp.imag**2).sum(axis=2)


def median_of_means_by_loop(values, batches: int) -> float:
    """`engine.median_of_means` one batch mean at a time; the remainder folds
    into the last batch."""
    size = len(values) // batches
    means = [values[i * size : (i + 1) * size].mean() for i in range(batches - 1)]
    means.append(values[(batches - 1) * size :].mean())
    return float(np.median(means))


def depolarize(a, p: float, d: int | None = None) -> np.ndarray:
    """D_p(A) = p Tr[A]/d 1 + (1-p) A.  p may lie outside [0, 1] (inverses)."""
    m = as_operator(a)
    dim = m.shape[0]
    if d is not None and d != dim:
        raise ValueError(f"stated dimension {d} does not match matrix dimension {dim}")
    return (p * np.trace(m) / dim) * np.eye(dim) + (1.0 - p) * m


def mixture_decomposition(desc):
    """Weights (q - q', 2q', p_alpha) expressing a global orthogonal channel as
    (q - q') D_p(A) + 2q' D_p(A_sym), a tunable mix of unitary-like and
    real-like shadow channels."""
    d = desc.d
    (sp,) = desc.spectra
    alpha = sp.alpha
    if sp != orthogonal_spectrum(d, alpha):
        raise ValueError("mixture decomposition applies to global orthogonal ensembles")
    denom = d - 2.0 + alpha
    if abs(denom) < 1e-12:
        raise ValueError(
            "degenerate decomposition at d - 2 + alpha = 0; use the spectral form"
        )
    q = (d * d - alpha) / (d * denom)
    q_prime = 1.0 - q
    return q - q_prime, 2.0 * q_prime, sp.p_alpha


def overlap_f(p, q) -> float:
    """Overlap factor for two locally real Pauli strings: 0 on a non-identity
    mismatch, else 2**s with s the number of matching non-identity sites."""
    if p.n != q.n:
        raise ValueError("Pauli strings act on different qubit counts")
    if "Y" in p.letters or "Y" in q.letters:
        raise ValueError("overlap_f is defined for locally real (Y-free) strings")
    s = 0
    for a, b in zip(p.letters, q.letters):
        if a == "I" or b == "I":
            continue
        if a != b:
            return 0.0
        s += 1
    return float(2**s)


def _canonical_sign(m: np.ndarray) -> np.ndarray:
    flat = m.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-9))
    return -m if flat[idx] < 0 else m


def _build_real_cliffords() -> tuple[np.ndarray, ...]:
    # Single-qubit real Cliffords modulo overall sign: 4 rotations by k*pi/4
    # (signed permutations of the plane) and 4 Hadamard-type reflections.
    c = np.sqrt(0.5)
    cos = [1.0, c, 0.0, -c]
    sin = [0.0, c, 1.0, c]
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    mats = []
    for k in range(4):
        rot = np.array([[cos[k], -sin[k]], [sin[k], cos[k]]])
        mats.append(_canonical_sign(rot))
        mats.append(_canonical_sign(rot @ flip))
    keys = {tuple(np.round(m, 12).reshape(-1)) for m in mats}
    assert len(keys) == 8, "single-qubit real Clifford enumeration is broken"
    for m in mats:
        m.setflags(write=False)
    return tuple(mats)


#: The 8 single-qubit real Cliffords (canonical representatives modulo sign).
REAL_CLIFFORD_1Q = _build_real_cliffords()


def real_clifford_1q(rng) -> np.ndarray:
    """Uniform draw from the 8-element single-qubit real Clifford group."""
    idx = int(rng.generator.integers(0, len(REAL_CLIFFORD_1Q)))
    return REAL_CLIFFORD_1Q[idx]


def realize_by_loop(pairing, d: int) -> np.ndarray:
    """`commutant.realize` one index assignment at a time: each pair takes one
    value, and the entry at (output labels, input labels) gains a 1."""
    k = pairing.k
    out = np.zeros((d**k, d**k), dtype=complex)
    for values in product(range(d), repeat=k):
        value_of = {}
        for pair, v in zip(pairing.pairs, values):
            value_of[pair[0]] = v
            value_of[pair[1]] = v
        row = 0
        for m in range(k):
            row = row * d + value_of[k + 1 + m]
        col = 0
        for m in range(k):
            col = col * d + value_of[1 + m]
        out[row, col] += 1.0
    return out


def twirl_project_by_gram(a, group: str, k: int) -> np.ndarray:
    """`commutant.twirl_project` from loop-built realizations: the Gram matrix
    G_ij = Tr[E_i^dag E_j] and t_i = Tr[E_i^dag a] entry by entry, c = G^+ t,
    and the sum of c_i E_i."""
    m = np.asarray(a, dtype=complex)
    d = round(m.shape[0] ** (1.0 / k))
    mats = [
        realize_by_loop(p, d)
        for p in enumerate_pairings(k)
        if group == "O" or p.is_permutation
    ]
    size = len(mats)
    gram = np.empty((size, size), dtype=float)
    for i in range(size):
        for j in range(i, size):
            g = np.vdot(mats[i], mats[j]).real
            gram[i, j] = g
            gram[j, i] = g
    t = np.array([np.vdot(e, m) for e in mats])
    coeffs = np.linalg.pinv(gram, rcond=GRAM_RCOND) @ t
    out = np.zeros_like(m)
    for c, e in zip(coeffs, mats):
        out += c * e
    return out
