import numpy as np
import pytest

from realshadows.linalg import kron, operators_close
from realshadows.pauli import PAULIS, PauliString, X, Z


def test_from_string_round_trip():
    p = PauliString.from_string("xzi")
    assert p.letters == ("X", "Z", "I")
    assert p.n == 3
    assert str(p) == "XZI"


def test_support_and_y_count():
    p = PauliString.from_string("IXZY")
    assert p.support == (1, 2, 3)
    assert p.y_count() == 1


def test_to_matrix_matches_kron():
    p = PauliString.from_string("XZ", coefficient=2.0)
    assert operators_close(p.to_matrix(), 2.0 * kron(X, Z))


def test_coefficient_is_stored_as_a_float():
    for coefficient in (2, 0.5 + 0j, np.float32(0.25), np.complex128(-3.0)):
        c = PauliString.from_string("XY", coefficient).coefficient
        assert type(c) is float and c == complex(coefficient).real


def test_rejects_bad_letters():
    with pytest.raises(ValueError):
        PauliString.from_string("XA")
    with pytest.raises(ValueError):
        PauliString(())


def test_pauli_matrices_square_to_identity():
    for letter, mat in PAULIS.items():
        assert operators_close(mat @ mat, np.eye(2)), letter
