"""Single-qubit Pauli matrices, tensor-product Pauli strings and
computational basis projectors, the two product observables."""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import kron

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}

#: Per-qubit action P|b> = i^[P = Y] sign[b] |b ^ flip>.
_FLIPS = {"I": 0, "X": 1, "Y": 1, "Z": 0}
_SIGNS = {p: np.array([1.0, -1.0 if p in "YZ" else 1.0]) for p in "IXYZ"}


@dataclass(frozen=True)
class PauliString:
    """A Pauli string c P with a finite real coefficient c, so an observable
    by construction; qubit 0 leftmost."""

    letters: tuple[str, ...]
    coefficient: float = 1.0

    def __post_init__(self):
        if not self.letters:
            raise ValueError("a Pauli string needs at least one qubit")
        bad = [p for p in self.letters if p not in PAULIS]
        if bad:
            raise ValueError(f"unknown Pauli letters {bad}")
        c = complex(self.coefficient) if isinstance(self.coefficient, numbers.Number) else None
        if c is None or c.imag != 0.0 or not math.isfinite(c.real):
            raise ValueError(f"coefficient must be a finite real number, got {self.coefficient!r}")
        object.__setattr__(self, "coefficient", c.real)

    @classmethod
    def from_string(cls, s: str, coefficient: float = 1.0) -> "PauliString":
        return cls(tuple(s.strip().upper()), coefficient)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, p in enumerate(self.letters) if p != "I")

    def y_count(self) -> int:
        return sum(1 for p in self.letters if p == "Y")

    def action(self) -> tuple[int, np.ndarray]:
        """(flip, phase) of the bare string, P|j> = phase[j] |j ^ flip>, qubit 0
        the most significant bit of j: `flip` masks the X and Y sites, and
        phase is i^(#Y) times the Kronecker product of the per-qubit sign
        pairs, so it takes O(d) work and no d x d matrix.  It is computed on
        the first call and kept, outside the fields, with phase read-only."""
        return self._action

    @functools.cached_property
    def _action(self) -> tuple[int, np.ndarray]:
        flip = 0
        signs = np.ones(1)
        for letter in self.letters:
            flip = 2 * flip + _FLIPS[letter]
            signs = np.multiply.outer(signs, _SIGNS[letter]).ravel()
        phase = (1, 1j, -1, -1j)[self.y_count() % 4] * signs
        phase.setflags(write=False)
        return flip, phase

    def expectations(self, vectors: np.ndarray) -> np.ndarray:
        """c <v|P|v> for each row v of `vectors`, real.

        (S, d) rows read the action, O(d) each: sum_j conj(v[j ^ flip])
        phase[j] v[j], in real arithmetic for real rows.  (S, n, 2) unit
        per-site vectors (a, b), as local shots store them, multiply the
        closed-form values of their non-identity letters: |a|^2 - |b|^2 for Z,
        and 2 Re(a* b) and 2 Im(a* b) for X and Y."""
        v = np.asarray(vectors)
        if v.ndim == 3:
            if v.shape[1:] != (self.n, 2):
                raise ValueError(f"per-site vectors must be (S, {self.n}, 2), got {v.shape}")
            values = np.full(v.shape[0], self.coefficient)
            for j in self.support:
                a, b = v[:, j, 0], v[:, j, 1]
                if self.letters[j] == "Z":
                    values *= a.real**2 + a.imag**2 - b.real**2 - b.imag**2
                else:
                    overlap = a.conj() * b
                    values *= 2.0 * (overlap.real if self.letters[j] == "X" else overlap.imag)
            return values
        if v.ndim != 2 or v.shape[1] != 2**self.n:
            raise ValueError(f"vectors must be (S, {2**self.n}) rows, got {v.shape}")
        flip, phase = self.action()
        if not np.iscomplexobj(v):
            phase = phase.real
        partner = np.arange(v.shape[1]) ^ flip
        return self.coefficient * ((v[:, partner].conj() * v) @ phase).real

    def to_matrix(self) -> np.ndarray:
        return self.coefficient * kron(*(PAULIS[p] for p in self.letters))

    def __str__(self) -> str:
        s = "".join(self.letters)
        if self.coefficient == 1.0:
            return s
        return f"({self.coefficient})*{s}"


@dataclass(frozen=True)
class BasisProjector:
    """The projector |b><b| onto a computational basis state, the product
    over qubits of |b_j><b_j|; qubit 0 leftmost, the most significant bit of
    the index b."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits or set(self.bits) - {0, 1}:
            raise ValueError(f"a basis projector needs one bit per qubit, got {self.bits!r}")

    @classmethod
    def from_index(cls, index: int, n: int) -> "BasisProjector":
        return cls(tuple((index >> (n - 1 - j)) & 1 for j in range(n)))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        return sum(bit << (self.n - 1 - j) for j, bit in enumerate(self.bits))

    def site_operators(self) -> np.ndarray:
        """The (n, 2, 2) float64 factors |b_j><b_j|, one per qubit."""
        ops = np.zeros((self.n, 2, 2))
        ops[np.arange(self.n), self.bits, self.bits] = 1.0
        return ops

    def to_matrix(self) -> np.ndarray:
        """The dense d x d projector, float64."""
        op = np.zeros((2**self.n, 2**self.n))
        op[self.index, self.index] = 1.0
        return op
