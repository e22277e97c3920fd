"""Single-qubit Pauli matrices and tensor-product Pauli strings."""

from __future__ import annotations

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
    """A scaled Pauli string, qubit 0 leftmost."""

    letters: tuple[str, ...]
    coefficient: complex = 1.0

    def __post_init__(self):
        if not self.letters:
            raise ValueError("a Pauli string needs at least one qubit")
        bad = [p for p in self.letters if p not in PAULIS]
        if bad:
            raise ValueError(f"unknown Pauli letters {bad}")

    @classmethod
    def from_string(cls, s: str, coefficient: complex = 1.0) -> "PauliString":
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
        """(flip, phase) with P|j> = phase[j] |j ^ flip>, qubit 0 the most
        significant bit of j: `flip` masks the X and Y sites, and phase is
        c i^(#Y) times the Kronecker product of the per-qubit sign pairs, so
        it takes O(d) work and no d x d matrix."""
        flip = 0
        signs = np.ones(1)
        for letter in self.letters:
            flip = 2 * flip + _FLIPS[letter]
            signs = np.multiply.outer(signs, _SIGNS[letter]).ravel()
        return flip, (self.coefficient * (1, 1j, -1, -1j)[self.y_count() % 4]) * signs

    def to_matrix(self) -> np.ndarray:
        return self.coefficient * kron(*(PAULIS[p] for p in self.letters))

    def __str__(self) -> str:
        s = "".join(self.letters)
        if self.coefficient == 1.0:
            return s
        return f"({self.coefficient})*{s}"
