"""Dense linear-algebra primitives shared by the whole package.

Operators are plain square ``numpy`` arrays, float64 when real; the
dimension is carried by the shape.  Qubit 0 is always the leftmost tensor
factor, i.e. the most-significant bit of a computational-basis index.
Transposes are always taken with respect to the computational basis.
"""

from __future__ import annotations

import numpy as np

#: Tolerance for structural (closed-form) equality checks.
ATOL = 1e-10

#: Largest dimension ``kron`` will produce, and the size budget of a run: its
#: d x d state and dense observables (n <= 13).
MAX_KRON_DIM = 8192


#: Bytes of live arrays that one chunk of a batched loop may hold.  1 MiB
#: keeps a chunk's arrays in cache and a run's memory independent of its
#: shot or sample count.
CHUNK_BYTES = 1 << 20


def chunk_items(bytes_per_item: int) -> int:
    """Items per chunk of a batched loop whose live arrays take
    `bytes_per_item` bytes per item: as many as fit in CHUNK_BYTES, at least 1."""
    return max(1, CHUNK_BYTES // bytes_per_item)


class ResourceLimitError(ValueError):
    """A dense operation would exceed the configured size limits."""


def check_qubit_count(n: int) -> None:
    """Raise ResourceLimitError when d = 2^n exceeds MAX_KRON_DIM; checked
    before anything of dimension d is allocated."""
    limit = MAX_KRON_DIM.bit_length() - 1
    if n > limit:
        raise ResourceLimitError(
            f"dimension 2^{n} exceeds the size limit {MAX_KRON_DIM} (n <= {limit})"
        )


def check_entries(count: int, what: str) -> None:
    """Raise ResourceLimitError when `what` needs more than MAX_KRON_DIM^2
    entries, as many as the largest dense operator of a run."""
    if count > MAX_KRON_DIM**2:
        raise ResourceLimitError(f"{what} needs {count} entries, over the limit {MAX_KRON_DIM**2}")


def as_operators(a) -> np.ndarray:
    """Validate ``a`` as a finite square matrix or a (..., d, d) stack of them,
    and return it as float64 when it is real, else as complex."""
    m = np.asarray(a)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {np.shape(a)}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator entries must be finite")
    return m


def as_operator(a) -> np.ndarray:
    """Validate ``a`` as one finite square matrix and return it as complex."""
    m = as_operators(np.asarray(a, dtype=complex))
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {np.shape(a)}")
    return m


def identity(d: int) -> np.ndarray:
    return np.eye(int(d), dtype=complex)


def kron(*ops) -> np.ndarray:
    """Kronecker product of one or more operators, first factor leftmost.

    Raises ResourceLimitError if the output dimension would exceed MAX_KRON_DIM.
    """
    if not ops:
        raise ValueError("kron needs at least one operator")
    dim = 1
    for op in ops:
        dim *= np.shape(op)[0]
    if dim > MAX_KRON_DIM:
        raise ResourceLimitError(f"kron output dimension {dim} exceeds the limit {MAX_KRON_DIM}")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def batched_kron(factors) -> np.ndarray:
    """Shot-wise Kronecker product of a sequence of (S, a_j, b_j) stacks.

    The first factor is leftmost; the result has shape (S, prod a_j, prod b_j).
    A stack of vectors enters as (S, a_j, 1).
    """
    out = factors[0]
    for f in factors[1:]:
        s, a, b = out.shape
        out = np.einsum("sab,scd->sacbd", out, f).reshape(s, a * f.shape[1], b * f.shape[2])
    return out


def sum_abs2(stack: np.ndarray) -> np.ndarray:
    """Entrywise sum over the first axis of |stack|^2 for an (S, a, b) stack.

    A complex stack is read as its real view (S, a, 2b), so the sum is one
    real einsum with no |x| or temporary square array.
    """
    x = np.ascontiguousarray(stack)
    if np.iscomplexobj(x):
        s, a, b = x.shape
        x = x.view(x.real.dtype)
        return np.einsum("sij,sij->ij", x, x).reshape(a, b, 2).sum(axis=2)
    return np.einsum("sij,sij->ij", x, x)


def norm2(a):
    """Schatten 2-norm (Frobenius norm), sqrt(Tr[a^dagger a]), of a matrix, or
    of each matrix of a (..., d, d) stack."""
    return np.linalg.norm(np.asarray(a), axis=(-2, -1))


def is_hermitian(a, atol: float = ATOL) -> bool:
    """max |a - a^dag| <= atol, for a finite square matrix or every matrix of
    a (..., d, d) stack."""
    m = np.asarray(a)
    return bool(np.abs(m - np.swapaxes(m, -1, -2).conj()).max() <= atol)


#: Columns of a state factor of squared norm at or below this are rounding
#: noise of a lower-rank state, and are dropped (rho moves by at most this).
RANK_TOL = 1e-12


def check_factor(factor, d: int) -> np.ndarray:
    """`factor` as the complex (d, r) factor Psi of rho = Psi Psi^dag, positive
    semidefinite by construction: r >= 1, finite, of unit trace ||Psi||^2 = 1
    within 1e-8, and without its columns of squared norm at most RANK_TOL.
    Each column's first entry of largest modulus is made real and positive: a
    pure state then draws by rho alone, a degenerate mixed one still by Psi."""
    m = np.asarray(factor, dtype=complex)
    if m.ndim != 2 or m.shape[0] != d or m.shape[1] < 1:
        raise ValueError(f"expected a ({d}, r) state factor with r >= 1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("state factor entries must be finite")
    weights = (m.real**2 + m.imag**2).sum(axis=0)
    if abs(weights.sum() - 1.0) > 1e-8:
        raise ValueError("state must have unit trace, ||Psi||^2 = 1 (within 1e-8)")
    m = m[:, weights > RANK_TOL]
    lead = np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])
    m = m * (m[lead].conj() / np.abs(m[lead]))
    m[lead] = m[lead].real
    return m


def operators_close(a, b, atol: float = ATOL) -> bool:
    return bool(np.allclose(np.asarray(a), np.asarray(b), rtol=0.0, atol=atol))
