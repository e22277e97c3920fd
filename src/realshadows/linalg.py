"""Dense complex linear-algebra primitives shared by the whole package.

Operators are plain square ``numpy`` arrays; the dimension is carried by the
shape.  Qubit 0 is always the leftmost tensor factor, i.e. the
most-significant bit of a computational-basis index.  Transposes are always
taken with respect to the computational basis.
"""

from __future__ import annotations

import numpy as np

#: Tolerance for structural (closed-form) equality checks.
ATOL = 1e-10

#: Largest dimension ``kron`` will produce, and the size budget of a run: its
#: d x d state and dense observables (n <= 13).
MAX_KRON_DIM = 8192


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


def as_operator(a) -> np.ndarray:
    """Validate ``a`` as a finite square matrix and return it as complex."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {np.shape(a)}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator entries must be finite")
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


def norm2(a) -> float:
    """Schatten 2-norm (Frobenius norm), sqrt(Tr[a^dagger a])."""
    return float(np.linalg.norm(np.asarray(a)))


def is_hermitian(a, atol: float = ATOL) -> bool:
    m = np.asarray(a)
    return operators_close(m, m.conj().T, atol)


def check_state(rho, d: int | None = None) -> np.ndarray:
    """`rho` as a complex operator, checked to be square, of dimension d when
    given, of unit trace and Hermitian, each within 1e-8: the O(d^2) checks
    of a density matrix.  Positivity needs an O(d^3) eigendecomposition, so
    it is left to the callers that make one (`engine.validate_state`)."""
    m = as_operator(rho)
    if d is not None and m.shape[0] != d:
        raise ValueError(f"state dimension {m.shape[0]} does not match ensemble dimension {d}")
    if abs(np.trace(m) - 1.0) > 1e-8:
        raise ValueError("state must have unit trace (within 1e-8)")
    if np.abs(m - m.conj().T).max() > 1e-8:
        raise ValueError("state must be Hermitian (within 1e-8)")
    return m


def sym_part(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    return 0.5 * (m + m.T)


def operators_close(a, b, atol: float = ATOL) -> bool:
    return bool(np.allclose(np.asarray(a), np.asarray(b), rtol=0.0, atol=atol))
