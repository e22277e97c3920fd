import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realshadows.linalg import (
    MAX_KRON_DIM,
    ResourceLimitError,
    batched_kron,
    check_entries,
    identity,
    kron,
    norm2,
    operators_close,
    sum_abs2,
    sym_part,
)
from realshadows.pauli import I2, X, Y, Z

ATOL = 1e-12


def _random_matrix(seed: int, d: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    return g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))


def _kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive quadruple-loop Kronecker product."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity_case(self):
        assert operators_close(kron(I2, I2), identity(4))

    def test_diagonal_product(self):
        assert operators_close(kron(Z, Z), np.diag([1, -1, -1, 1]))

    def test_index_formula_against_naive_loop(self):
        a, b = _random_matrix(0, 2), _random_matrix(1, 3)
        assert operators_close(kron(a, b), _kron_oracle(a, b), atol=ATOL)
        # frozen entry from the oracle: kron(X, Z)[0, 2] = X[0,1] * Z[0,0]
        assert kron(X, Z)[0, 2] == 1.0

    def test_dimension_limit(self):
        with pytest.raises(ResourceLimitError):
            kron(identity(128), identity(128))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_associative(self, seed):
        a = _random_matrix(seed, 2)
        b = _random_matrix(seed + 1, 2)
        c = _random_matrix(seed + 2, 3)
        assert operators_close(kron(kron(a, b), c), kron(a, kron(b, c)), atol=ATOL)

    def test_batched_matches_per_shot_kron(self):
        g = np.random.default_rng(5)
        shapes = [(2, 2), (3, 3), (2, 1)]
        stacks = [g.standard_normal((4,) + sh) + 1j * g.standard_normal((4,) + sh) for sh in shapes]
        out = batched_kron(stacks)
        assert out.shape == (4, 12, 6)
        for s in range(4):
            expected = np.kron(np.kron(stacks[0][s], stacks[1][s]), stacks[2][s])
            assert operators_close(out[s], expected, atol=ATOL)


class TestBasicOps:
    def test_norms(self):
        assert norm2(kron(Z, Z)) == pytest.approx(2.0, abs=ATOL)
        assert norm2(Z) == np.sqrt(2.0)

    def test_entry_budget_is_the_largest_dense_operator(self):
        check_entries(MAX_KRON_DIM**2, "an 8192 x 8192 operator")
        with pytest.raises(ResourceLimitError, match="one more.*67108865 entries"):
            check_entries(MAX_KRON_DIM**2 + 1, "one more")

    def test_norm2_matches_entry_sum_for_hermitian(self):
        m = _random_matrix(11, 4)
        h = m + m.conj().T
        assert norm2(h) ** 2 == pytest.approx(float(np.sum(np.abs(h) ** 2)), rel=1e-12)

    def test_sum_abs2_matches_abs_squares(self):
        g = np.random.default_rng(12)
        stack = g.standard_normal((5, 3, 4)) + 1j * g.standard_normal((5, 3, 4))
        # A transposed view is not contiguous; the real view needs a copy.
        for x in (stack, stack.real, stack.transpose(0, 2, 1)):
            assert np.allclose(sum_abs2(x), (np.abs(x) ** 2).sum(axis=0), rtol=1e-13, atol=0)


class TestSymmetrySplits:
    def test_pauli_examples(self):
        assert operators_close(sym_part(Y), np.zeros((2, 2)))
        assert operators_close(sym_part(X), X)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_split_properties(self, seed):
        a = _random_matrix(seed, 4)
        b = _random_matrix(seed + 7, 4)
        assert operators_close(sym_part(a), sym_part(a).T, atol=ATOL)
        assert operators_close(sym_part(sym_part(a)), sym_part(a), atol=ATOL)
        assert abs(np.vdot(sym_part(a), b - b.T)) < 1e-10
