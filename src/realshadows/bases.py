"""Measurement-basis construction and reality (alpha) bookkeeping.

The reality of a basis vector |w> is alpha_w = |<w|w*>|^2; a basis is "real"
when every alpha_w = 1 (total alpha = d) and maximally complex when alpha = 0.
Bases are stored explicitly as matrices whose columns are the basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_qubit_count, kron, operators_close
from .sampling import MAX_SEED, RngStream, haar_unitaries

ORTHONORMAL_ATOL = 1e-10

#: Gate conventions used by the SH basis.
S_GATE = np.diag([1.0, 1.0j]).astype(complex)
H_GATE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(eq=False)
class MeasurementBasis:
    d: int
    vectors: np.ndarray  # (d, d); columns are the basis vectors
    alpha_total: float
    tag: str


def reality(vectors) -> tuple[np.ndarray, float]:
    """Per-vector alpha_w = |<w|w*>|^2 and the basis total alpha = sum_w alpha_w
    of a matrix whose columns are the basis vectors."""
    v = np.asarray(vectors, dtype=complex)
    gram = v.conj().T @ v
    if not operators_close(gram, np.eye(v.shape[1]), ORTHONORMAL_ATOL):
        raise ValueError("basis vectors are not orthonormal")
    # <w|w*> = conj(sum_j w_j^2), so alpha_w = |sum_j w_j^2|^2.
    overlaps = np.einsum("jw,jw->w", v, v)
    alpha = np.abs(overlaps) ** 2
    return alpha, float(np.sum(alpha))


def make_basis(vectors: np.ndarray, tag: str) -> MeasurementBasis:
    v = np.asarray(vectors, dtype=complex)
    return MeasurementBasis(d=v.shape[0], vectors=v, alpha_total=reality(v)[1], tag=tag)


def computational_basis(n: int) -> MeasurementBasis:
    if n < 1:
        raise ValueError("need at least one qubit")
    d = 2**n
    # The identity's columns are real and orthonormal by construction, so
    # make_basis's O(d^3) Gram check is skipped.
    return MeasurementBasis(d, np.eye(d, dtype=complex), float(d), "computational")


def sh_basis(n: int) -> MeasurementBasis:
    """Columns of (SH)^{x n}; every vector has alpha_w = 0, which `reality`
    computes exactly (each <w|w*> is a sum that cancels to 0)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    sh = S_GATE @ H_GATE
    vectors = kron(*([sh] * n)) if n > 1 else sh
    return make_basis(vectors, "sh")


def random_basis(rng: RngStream, d: int, tag: str = "random") -> MeasurementBasis:
    """A protocol-defining random basis: the columns of a Haar unitary."""
    if d < 2:
        raise ValueError("need dimension >= 2")
    return make_basis(haar_unitaries(rng, d, 1)[0], tag)


def basis_from_tag(tag: str, n: int) -> MeasurementBasis:
    """Resolve a CLI/config basis tag: computational | sh | random:SEED."""
    check_qubit_count(n)
    if tag == "computational":
        return computational_basis(n)
    if tag == "sh":
        return sh_basis(n)
    if tag.startswith("random:"):
        seed = tag.split(":", 1)[1]
        if not (seed.isascii() and seed.isdigit() and len(seed) <= 20 and int(seed) <= MAX_SEED):
            raise ValueError(f"basis tag {tag!r} needs a decimal seed in [0, {MAX_SEED}]")
        return random_basis(RngStream(int(seed)), 2**n, tag)
    raise ValueError(f"unknown basis tag {tag!r}")
