import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realshadows.bases import (
    MeasurementBasis,
    basis_from_tag,
    computational_basis,
    make_basis,
    random_basis,
    reality,
    sh_basis,
)
from realshadows.sampling import RngStream, haar_orthogonals, haar_unitaries


class TestComputationalBasis:
    @pytest.mark.parametrize("n, alpha", [(1, 2.0), (3, 8.0)])
    def test_alpha_equals_dimension(self, n, alpha):
        b = computational_basis(n)
        assert b.alpha_total == alpha
        assert np.all(reality(b.vectors)[0] == 1.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_checked_construction(self, n):
        d = 2**n
        b = computational_basis(n)
        ref = make_basis(np.eye(d), "computational")
        for name in (f.name for f in dataclasses.fields(MeasurementBasis)):
            x, y = getattr(b, name), getattr(ref, name)
            assert type(x) is type(y) and np.array_equal(x, y), name
            assert np.asarray(x).dtype == np.asarray(y).dtype, name

    def test_exactly_orthonormal(self):
        b = computational_basis(2)
        assert np.array_equal(b.vectors, np.eye(4))


class TestShBasis:
    def test_single_qubit_vector(self):
        b = sh_basis(1)
        # first column is (1, i)/sqrt(2); <w|w*> = (1 - 1)/2 = 0
        assert np.allclose(b.vectors[:, 0], np.array([1.0, 1.0j]) / np.sqrt(2.0))
        assert reality(b.vectors)[0][0] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_alpha_exactly_zero(self, n):
        b = sh_basis(n)
        assert b.alpha_total == 0.0
        # every vector's alpha_w is an exact zero too, not rounding noise
        assert np.all(reality(b.vectors)[0] == 0.0)

    def test_orthonormal(self):
        b = sh_basis(2)
        gram = b.vectors.conj().T @ b.vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


class TestRandomBasis:
    @pytest.mark.parametrize("d", [2, 8])
    def test_mean_alpha(self, d):
        # E[alpha] = 2d/(d+1) for the columns of a Haar unitary
        us = haar_unitaries(RngStream(77, (d,)), d, 10000)
        overlaps = np.einsum("sjw,sjw->sw", us, us)
        alphas = (np.abs(overlaps) ** 2).sum(axis=1)
        se = alphas.std(ddof=1) / np.sqrt(alphas.shape[0])
        assert abs(alphas.mean() - 2.0 * d / (d + 1.0)) < 3 * se

    def test_alpha_per_vector_in_unit_interval(self):
        b = random_basis(RngStream(78), 8)
        per, _ = reality(b.vectors)
        assert np.all(per >= 0.0)
        assert np.all(per <= 1.0 + 1e-12)
        assert 0.0 <= b.alpha_total <= 8.0


class TestReality:
    def test_circular_pair_has_zero_alpha(self):
        # alpha is a property of the basis vectors, not of their span
        v = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0)
        per, total = reality(v)
        assert np.allclose(per, 0.0, atol=1e-12)
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        v = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            reality(v)

    def test_idempotent_with_stored_fields(self):
        b = random_basis(RngStream(80), 4)
        per, total = reality(b.vectors)
        assert total == b.alpha_total
        assert np.sum(per) == pytest.approx(total, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_invariant_under_real_orthogonal_rotation(self, seed):
        d = 4
        b = random_basis(RngStream(seed, (1,)), d)
        o = haar_orthogonals(RngStream(seed, (2,)), d, 1)[0].astype(complex)
        per_rot, total_rot = reality(o @ b.vectors)
        assert np.allclose(per_rot, reality(b.vectors)[0], atol=1e-10)
        assert total_rot == pytest.approx(b.alpha_total, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_tensor_multiplicativity(self, seed):
        from realshadows.sampling import haar_state_vector

        u = haar_state_vector(RngStream(seed, (3,)), 2)
        v = haar_state_vector(RngStream(seed, (4,)), 4)
        alpha_u = np.abs(np.sum(u**2)) ** 2
        alpha_v = np.abs(np.sum(v**2)) ** 2
        w = np.kron(u, v)
        alpha_w = np.abs(np.sum(w**2)) ** 2
        assert alpha_w == pytest.approx(alpha_u * alpha_v, abs=1e-10)


class TestBasisFromTag:
    def test_round_trips(self):
        assert basis_from_tag("computational", 2).alpha_total == 4.0
        assert basis_from_tag("sh", 2).alpha_total == 0.0
        b1 = basis_from_tag("random:42", 2)
        b2 = basis_from_tag("random:42", 2)
        assert np.array_equal(b1.vectors, b2.vectors)
        assert b1.tag == "random:42"

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            basis_from_tag("fourier", 2)

    @pytest.mark.parametrize(
        "tag", ["random:", "random:-1", "random:1e3", "random:+5", "random:18446744073709551616"]
    )
    def test_random_tag_seed_outside_64_bits_is_named(self, tag):
        # RngStream masks seeds to 64 bits, so -1 would replay 2^64 - 1
        with pytest.raises(ValueError, match=re.escape(f"basis tag '{tag}'")):
            basis_from_tag(tag, 1)

    def test_random_tag_takes_the_largest_seed(self):
        assert basis_from_tag("random:18446744073709551615", 1).tag == "random:18446744073709551615"
