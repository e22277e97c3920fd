"""Exact moment integrals (twirls) over O(d) and U(d) via commutant projection.

The k-th order twirl orthogonally projects onto the commutant of the group's
k-fold tensor action.  For O(d) the commutant is spanned by the Brauer-algebra
pairing realizations (permutations plus cup/cap contractions); for U(d) by the
k! permutation operators alone.  Each (group, k, d) is built once and cached:
the realizations as the rows E of one read-only real array, and Wg, the
pseudo-inverse of their Gram matrix E E^T, so a projection is two products
with E around Wg.  `twirl_coefficients` gives the closed-form coefficients of
the twirl of a rank-1 projector for k = 2, 3.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass

import numpy as np

from .linalg import as_operator, chunk_items
from .sampling import RngStream, haar_draws

#: Relative singular-value cutoff for the Gram pseudo-inverse.  The Brauer
#: realizations are linearly dependent for small d (e.g. k = 3, d = 2); the
#: projection onto their span is still well defined.
GRAM_RCOND = 1e-8

_SUPPORTED_K = (2, 3)


@dataclass(frozen=True)
class BrauerPairing:
    """A perfect matching of the 2k wire endpoints {1, ..., 2k}.

    Labels 1..k are inputs (bra side), k+1..2k outputs (ket side).  A pairing
    that matches every input to an output realizes a permutation operator; a
    pairing with an input-input pair (cap) and output-output pair (cup)
    realizes a contraction Omega.
    """

    k: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        labels = sorted(l for pair in self.pairs for l in pair)
        if labels != list(range(1, 2 * self.k + 1)):
            raise ValueError("pairs must cover the labels 1..2k exactly once")

    @property
    def is_permutation(self) -> bool:
        return all(a <= self.k < b for a, b in self.pairs)

    def loops(self) -> tuple[tuple[tuple[int, bool], ...], ...]:
        """The loops of Tr[(X_0 (x) ... (x) X_{k-1}) R] for this pairing's R.

        Operand m joins label m + 1 (its row index) to label k + m + 1 (its
        column index) and each pair joins two labels, so the contraction closes
        into loops, and the trace is the product of the loops' traces.  A loop
        is a tuple of (operand, transposed) steps for Tr[X_a X_b ...]; a step is
        transposed when the walk enters its operand through the column label.
        Each loop starts untransposed at its lowest operand.
        """
        k = self.k
        partner = {a: b for pair in self.pairs for a, b in (pair, pair[::-1])}
        loops: list[tuple[tuple[int, bool], ...]] = []
        for start in range(k):
            if any(op == start for loop in loops for op, _ in loop):
                continue
            loop, m, transposed = [], start, False
            while not loop or m != start:
                loop.append((m, transposed))
                label = partner[m + 1 if transposed else k + m + 1]
                m, transposed = (label - 1, False) if label <= k else (label - k - 1, True)
            loops.append(tuple(loop))
        return tuple(loops)


def enumerate_pairings(k: int) -> list[BrauerPairing]:
    """All (2k-1)!! pairings of 2k labels: 3 for k = 2, 15 for k = 3."""
    if k not in _SUPPORTED_K:
        raise ValueError(f"only k in {_SUPPORTED_K} is supported, got {k}")

    def matchings(labels: tuple[int, ...]):
        if not labels:
            yield ()
            return
        first, rest = labels[0], labels[1:]
        for i, partner in enumerate(rest):
            remaining = rest[:i] + rest[i + 1 :]
            for tail in matchings(remaining):
                yield ((first, partner),) + tail

    return [BrauerPairing(k, pairs) for pairs in matchings(tuple(range(1, 2 * k + 1)))]


def realize(pairing: BrauerPairing, d: int) -> np.ndarray:
    """The d^k x d^k matrix of a pairing, real with 0/1 entries: one einsum of
    an identity delta per pair.

    Row indices come from labels k+1..2k (first output factor most
    significant), column indices from labels 1..k.
    """
    if d < 2:
        raise ValueError("need dimension >= 2")
    k = pairing.k
    letters = string.ascii_lowercase[: 2 * k]
    deltas = ",".join(letters[a - 1] + letters[b - 1] for a, b in pairing.pairs)
    rows_then_columns = letters[k:] + letters[:k]
    return np.einsum(f"{deltas}->{rows_then_columns}", *[np.eye(d)] * k).reshape(d**k, d**k)


def _group(group: str) -> str:
    """"O" or "U", in either case; any other name is refused."""
    name = group.upper()
    if name not in ("O", "U"):
        raise ValueError(f"unknown group {group!r}")
    return name


@functools.lru_cache(maxsize=None)
def _commutant(group: str, k: int, d: int) -> tuple:
    """comm(G, k) at dimension d, built once: the spanning pairings, their
    realizations as the rows of one read-only (size, d^k, d^k) array E, and
    Wg, the pseudo-inverse of the Gram matrix E E^T."""
    pairings = tuple(p for p in enumerate_pairings(k) if group == "O" or p.is_permutation)
    realizations = np.empty((len(pairings), d**k, d**k))
    for row, p in zip(realizations, pairings):
        row[...] = realize(p, d)
    realizations.setflags(write=False)
    e = realizations.reshape(len(pairings), -1)
    return pairings, realizations, np.linalg.pinv(e @ e.T, rcond=GRAM_RCOND)


def commutant_basis(group: str, k: int, d: int) -> list[tuple[BrauerPairing, np.ndarray]]:
    """Spanning set of comm(G, k): Brauer realizations for O, permutations for
    U.  The matrices are read-only views into one cached array."""
    pairings, realizations, _ = _commutant(_group(group), k, d)
    return list(zip(pairings, realizations))


def _infer_local_dim(dim: int, k: int) -> int:
    d = int(round(dim ** (1.0 / k)))
    for candidate in (d - 1, d, d + 1):
        if candidate >= 2 and candidate**k == dim:
            return candidate
    raise ValueError(f"operator dimension {dim} is not a k={k} tensor power")


def twirl_project(a, group: str = "O", k: int = 2) -> np.ndarray:
    """Orthogonal projection of `a` onto comm(G, k), i.e. the exact twirl:
    t = E vec(a), c = Wg t and c^T E.  Wg is a pseudo-inverse because the
    spanning set may be linearly dependent at small d.  E is real, so the
    real and imaginary parts of `a` go through it as two real products."""
    m = as_operator(a)
    d = _infer_local_dim(m.shape[0], k)
    pairings, realizations, weingarten = _commutant(_group(group), k, d)
    e = realizations.reshape(len(pairings), -1)
    c = weingarten @ (e @ m.real.ravel() + 1j * (e @ m.imag.ravel()))
    return (c.real @ e + 1j * (c.imag @ e)).reshape(m.shape)


def twirl_coefficients(group: str, alpha_w: float, d: int, k: int) -> tuple[float, float]:
    """(c_perm, c_omega) of the twirl E_U (U^dag Pi_w U)^{(x)k} of a rank-1
    projector of reality alpha_w, for k = 2, 3: c_perm multiplies each
    permutation operator and c_omega each contraction.  The U(d) twirl has no
    contraction term and does not depend on alpha_w."""
    group = _group(group)
    if k not in _SUPPORTED_K:
        raise ValueError(f"only k in {_SUPPORTED_K} is supported, got {k}")
    if d < 2:
        raise ValueError("need dimension >= 2")
    if group == "U":
        return 1.0 / math.prod(range(d, d + k)), 0.0
    alpha = float(alpha_w)
    if k == 2:
        c_perm, den = d - alpha, d * (d - 1) * (d + 2)
    else:
        c_perm, den = d - 3 * alpha + 2, d * (d - 1) * (d + 2) * (d + 4)
    return c_perm / den, (alpha * d + alpha - 2) / den


def closed_form_twirl(alpha_w, d: int, k: int) -> np.ndarray:
    """Materialize the closed-form O(d) twirl of Pi_w^{(x)k} for k = 2, 3."""
    c_perm, c_omega = twirl_coefficients("O", alpha_w, d, k)
    out = np.zeros((d**k, d**k), dtype=complex)
    for p, e in commutant_basis("O", k, d):
        out += (c_perm if p.is_permutation else c_omega) * e
    return out


@dataclass
class MonteCarloTwirl:
    mean: np.ndarray
    stderr: np.ndarray


def _tensor_power_apply(u: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """(U_s^{(x)k} v_j)_{s,j} for a (b, d, d) stack u and (d^k, p) columns v.

    One tensor factor at a time: each step multiplies the leading factor axis
    by U_s and rotates it to the back, so after k steps the axes are back in
    order behind the column axis.  Returns (b, p, d^k); W is never built.
    """
    b, d = u.shape[:2]
    dim, p = v.shape
    x = v.reshape(d, dim // d * p)
    for _ in range(k):
        x = (u @ x).swapaxes(1, 2).reshape(b, d, -1)
    return x.reshape(b, p, dim)


def mc_twirl(
    rng: RngStream, a, group: str = "O", k: int = 2, samples: int = 10000
) -> MonteCarloTwirl:
    """Monte Carlo twirl: empirical mean of U^{(x)k} a U^{dag (x)k}.

    W = U^{(x)k} is never formed.  The SVD of `a` gives a = L R^T with r
    columns (numpy.linalg.matrix_rank's rule), so each sample is
    x = sum_a B_a C_a^T with B = W L and C = conj(W) R, built one tensor
    factor at a time; for O(d) W is real and acts on the planar columns
    [Re L | Im L | Re R | Im R].  A chunk's sum of x is B^T C over the
    stacked columns, and its sum of |x|^2 is
    sum_a (|B_a|^2)^T |C_a|^2 + 2 Re sum_{a<b} (B_a conj(B_b))^T (C_a conj(C_b)).
    Samples are drawn and accumulated in order, in chunks sized by
    `linalg.chunk_items`, so memory is bounded and a given stream yields the
    same draws for any chunk size.  Standard error is tracked per entry.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    m = as_operator(a)
    dim = m.shape[0]
    d = _infer_local_dim(dim, k) if k > 1 else dim
    group = _group(group)
    left, sv, right = np.linalg.svd(m)
    r = max(1, int(np.sum(sv > sv[0] * dim * np.finfo(float).eps)))
    l, rt = left[:, :r] * sv[:r], right[:r].T
    if group == "O":
        columns = np.concatenate([l.real, l.imag, rt.real, rt.imag], axis=1)
    else:
        # conj(W) R = conj(W conj(R)).
        columns = np.concatenate([l, rt.conj()], axis=1)
    first, second = np.triu_indices(r, 1)
    name = "orthogonal" if group == "O" else "unitary"
    # Per sample, about 16 d^k r (r + 5) bytes: the column images, B and C and
    # their squares, and the r (r - 1) / 2 cross products of B and of C.
    chunk = chunk_items(16 * dim * r * (r + 5))
    total = np.zeros((dim, dim), dtype=complex)
    total_sq = np.zeros((dim, dim))
    for start in range(0, samples, chunk):
        b = min(chunk, samples - start)
        y = _tensor_power_apply(haar_draws(rng, name, d, b), columns, k)
        if group == "O":
            bs = y[:, :r] + 1j * y[:, r : 2 * r]
            cs = y[:, 2 * r : 3 * r] + 1j * y[:, 3 * r :]
        else:
            bs = y[:, :r]
            cs = y[:, r:].conj()
        total += bs.reshape(-1, dim).T @ cs.reshape(-1, dim)
        total_sq += (np.abs(bs) ** 2).reshape(-1, dim).T @ (np.abs(cs) ** 2).reshape(-1, dim)
        cross_b = bs[:, first] * bs[:, second].conj()
        cross_c = cs[:, first] * cs[:, second].conj()
        total_sq += 2 * (cross_b.reshape(-1, dim).T @ cross_c.reshape(-1, dim)).real
    mean = total / samples
    var = np.maximum(total_sq / samples - np.abs(mean) ** 2, 0.0)
    return MonteCarloTwirl(mean, np.sqrt(var / samples))
