import numpy as np
import pytest

from realshadows.linalg import kron, operators_close
from realshadows.pauli import PAULIS, BasisProjector, PauliString, X, Z


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


def test_basis_projector_is_the_product_of_its_sites():
    for n in (1, 2, 4):
        for index in range(2**n):
            p = BasisProjector.from_index(index, n)
            assert p.index == index and p.n == n
            dense = p.to_matrix()
            assert dense.dtype == np.float64 and dense[index, index] == 1.0 and dense.sum() == 1.0
            sites = np.zeros((n, 2, 2))
            sites[np.arange(n), p.bits, p.bits] = 1.0
            assert np.array_equal(kron(*sites), dense)
    assert BasisProjector.from_index(6, 3).bits == (1, 1, 0)  # qubit 0 is the leading bit


def test_basis_projector_refuses_an_index_out_of_range():
    # Past either end an index would otherwise wrap to another projector.
    for index, n in ((4, 2), (5, 2), (-1, 2), (2, 1), (-8, 3)):
        with pytest.raises(ValueError, match="outside"):
            BasisProjector.from_index(index, n)
    assert BasisProjector.from_index(3, 2).bits == (1, 1)


def test_basis_projector_rejects_bad_bits():
    for bits in ((), (0, 2), (1, -1)):
        with pytest.raises(ValueError):
            BasisProjector(bits)
