import numpy as np
import pytest

from realshadows.channels import global_ensemble, local_ensemble
from realshadows.bases import computational_basis
from realshadows.commutant import closed_form_twirl, twirl_project
from realshadows.linalg import identity, kron, operators_close
from realshadows.sampling import (
    RngStream,
    _complex_ginibre,
    _frames_2x2,
    haar_frames,
    haar_orthogonals,
    haar_unitaries,
    sample_transform_arrays,
)

from references import REAL_CLIFFORD_1Q, haar_frames_by_qr, real_clifford_1q


class TestRngStream:
    def test_identical_streams_replay(self):
        a = haar_unitaries(RngStream(7, 3), 4, 5)
        b = haar_unitaries(RngStream(7, 3), 4, 5)
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        a = haar_unitaries(RngStream(7, 3), 4, 1)
        b = haar_unitaries(RngStream(7, 4), 4, 1)
        assert not np.allclose(a, b)

    def test_children_are_deterministic(self):
        a = RngStream(1).child(2).generator.random(4)
        b = RngStream(1).child(2).generator.random(4)
        assert np.array_equal(a, b)

    def test_paths_differing_by_trailing_zeros_differ(self):
        first = [
            stream.generator.random()
            for stream in (RngStream(5), RngStream(5).child(0), RngStream(5, (0, 0, 0)))
        ]
        assert len(set(first)) == 3


class TestHaarUnitary:
    def test_columns_are_normalized(self):
        u = haar_unitaries(RngStream(0), 5, 1)[0]
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-10)
        assert operators_close(u.conj().T @ u, identity(5))

    def test_fourth_moment_of_entry(self):
        # E|U_11|^4 = 2/(d^2 + d) = 1/3 at d = 2
        us = haar_unitaries(RngStream(1), 2, 100000)
        vals = np.abs(us[:, 0, 0]) ** 4
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0 / 3.0) < 3 * se

    def test_entrywise_mean_vanishes(self):
        us = haar_unitaries(RngStream(2), 2, 100000)
        mean = us.mean(axis=0)
        se = us.std(axis=0, ddof=1) / np.sqrt(us.shape[0])
        assert np.all(np.abs(mean) < 3 * se)


class TestHaarOrthogonal:
    def test_orthogonality_and_realness(self):
        o = haar_orthogonals(RngStream(3), 6, 1)[0]
        assert operators_close(o.T @ o, identity(6))
        assert not np.iscomplexobj(o)  # imaginary part is exactly zero

    def test_first_moment_twirl(self):
        # The twirl of any rank-1 projector is 1/d by irreducibility.
        os = haar_orthogonals(RngStream(4), 2, 100000)
        pi = np.diag([1.0, 0.0])
        conj = np.einsum("sji,jk,skl->sil", os, pi, os)
        mean = conj.mean(axis=0)
        se = conj.std(axis=0, ddof=1) / np.sqrt(conj.shape[0])
        assert np.all(np.abs(mean - identity(2).real / 2) < 3 * se + 1e-12)


@pytest.mark.parametrize("group", ["O", "U"])
@pytest.mark.parametrize("d", [2, 4])
def test_second_moment_matches_commutant_projection(group, d):
    from realshadows.commutant import mc_twirl

    rng = RngStream(5, (d, ord(group)))
    pi = np.zeros((d, d), dtype=complex)
    pi[0, 0] = 1.0
    pik = kron(pi, pi)
    mc = mc_twirl(rng, pik, group, 2, samples=100000)
    exact = twirl_project(pik, group, 2)
    assert np.all(np.abs(mc.mean - exact) <= 3 * mc.stderr + 1e-12)


class TestRealClifford1q:
    def test_all_elements_real_orthogonal(self):
        assert len(REAL_CLIFFORD_1Q) == 8
        for m in REAL_CLIFFORD_1Q:
            assert operators_close(m.T @ m, identity(2))
            assert not np.iscomplexobj(m)

    def test_group_closure_against_brute_force(self):
        # Oracle: close {H, X, Z} under products inside O(2), then reduce
        # modulo overall sign; the result must be the library's 8 elements.
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.array([[1.0, 0.0], [0.0, -1.0]])

        def canon(m):
            flat = m.reshape(-1)
            idx = int(np.argmax(np.abs(flat) > 1e-9))
            m = -m if flat[idx] < 0 else m
            return tuple(np.round(m, 10).reshape(-1))

        found = {canon(m): m for m in (np.eye(2), h, x, z)}
        changed = True
        while changed:
            changed = False
            for a in list(found.values()):
                for b in list(found.values()):
                    key = canon(a @ b)
                    if key not in found:
                        found[key] = a @ b
                        changed = True
        assert len(found) == 8
        lib = {canon(m) for m in REAL_CLIFFORD_1Q}
        assert set(found) == lib
        # products of any two canonical draws land back in the set (mod sign)
        for a in REAL_CLIFFORD_1Q:
            for b in REAL_CLIFFORD_1Q:
                assert canon(a @ b) in lib

    def test_uniform_sampling(self):
        rng = RngStream(6)
        counts = np.zeros(8)
        draws = 10000
        keys = [tuple(np.round(m, 10).reshape(-1)) for m in REAL_CLIFFORD_1Q]
        for _ in range(draws):
            m = real_clifford_1q(rng)
            counts[keys.index(tuple(np.round(m, 10).reshape(-1)))] += 1
        p = 1.0 / 8.0
        se = np.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) < 3 * se)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("b", [0, 1])
    def test_three_design_twirl_is_exact(self, k, b):
        # Averaging O^dag Pi_b O over the 8 elements reproduces the Haar O(2)
        # moments exactly for k <= 3.
        pi = np.zeros((2, 2), dtype=complex)
        pi[b, b] = 1.0
        pik = kron(*([pi] * k))
        avg = np.zeros((2**k, 2**k), dtype=complex)
        for o in REAL_CLIFFORD_1Q:
            ok = o
            for _ in range(k - 1):
                ok = np.kron(ok, o)
            avg += ok.T @ pik @ ok
        avg /= len(REAL_CLIFFORD_1Q)
        assert np.max(np.abs(avg - closed_form_twirl(1.0, 2, k))) < 1e-12


class TestSampleTransform:
    def test_local_orthogonal_shapes(self):
        spec = local_ensemble("orthogonal", 3)
        arrays = sample_transform_arrays(_streams(8, spec), spec, 1)
        assert arrays.shape == (1, 3, 2, 2)
        for f in arrays[0]:
            assert np.max(np.abs(f.imag)) < 1e-12
            assert operators_close(f.conj().T @ f, identity(2))

    def test_global_unitary_shape(self):
        spec = global_ensemble("unitary", computational_basis(2))
        arrays = sample_transform_arrays(_streams(9, spec), spec, 1)[:, 0]
        assert arrays.shape == (1, 4, 4)
        assert operators_close(arrays[0].conj().T @ arrays[0], identity(4))

    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    def test_global_stack_is_one_factor_of_the_stream(self, group):
        # (count, F, k, k) with F = 1 and k = d, the draws of the group's sampler.
        spec = global_ensemble(group, computational_basis(2))
        arrays = sample_transform_arrays([RngStream(12)], spec, 3)
        assert arrays.shape == (3, 1, 4, 4) and arrays.dtype == complex
        sampler = haar_orthogonals if group == "orthogonal" else haar_unitaries
        assert np.array_equal(arrays[:, 0], sampler(RngStream(12), 4, 3))

    def test_per_qubit_mixing(self):
        spec = local_ensemble(("unitary", "orthogonal"), 2)
        arrays = sample_transform_arrays(_streams(10, spec), spec, 50)
        assert np.max(np.abs(arrays[:, 1].imag)) < 1e-12
        # the unitary factor actually explores U(2)
        assert np.max(np.abs(arrays[:, 0].imag)) > 1e-6

    def test_reproducible_byte_for_byte(self):
        spec = local_ensemble("orthogonal", 2)
        a = sample_transform_arrays(_streams(11, spec), spec, 3)
        b = sample_transform_arrays(_streams(11, spec), spec, 3)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "spec",
        [
            global_ensemble("orthogonal", computational_basis(2)),
            local_ensemble(("orthogonal", "unitary"), 2),
        ],
        ids=["global", "local-mixed"],
    )
    def test_chunks_draw_the_whole_stack(self, spec):
        # Factor j draws its next matrices from its own stream, so calls of 3,
        # 1 and 4 on the same streams draw the one call of 8, bit for bit.
        whole = sample_transform_arrays(_streams(13, spec), spec, 8)
        streams = _streams(13, spec)
        chunks = [sample_transform_arrays(streams, spec, count) for count in (3, 1, 4)]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    def test_factor_j_draws_from_stream_j(self):
        spec = local_ensemble(("unitary", "orthogonal"), 2)
        arrays = sample_transform_arrays(_streams(14, spec), spec, 5)
        assert np.array_equal(arrays[:, 0], haar_unitaries(RngStream(14).child(0), 2, 5))
        assert np.array_equal(arrays[:, 1], haar_orthogonals(RngStream(14).child(1), 2, 5))

    def test_needs_one_stream_per_factor(self):
        spec = local_ensemble("orthogonal", 3)
        with pytest.raises(ValueError):
            sample_transform_arrays(_streams(15, spec)[:2], spec, 1)


def _streams(seed, spec):
    """One stream per factor of the ensemble, factor j on RngStream(seed).child(j)."""
    return [RngStream(seed).child(j) for j in range(len(spec.groups))]


def _ginibre(seed, count, real):
    gen = RngStream(seed).generator
    return gen.standard_normal((count, 2, 2)) if real else _complex_ginibre(gen, (count, 2, 2))


def _assert_unitary(q, atol):
    gram = q.conj().swapaxes(1, 2) @ q
    assert np.all(np.isfinite(q))
    assert np.max(np.abs(gram - np.eye(2))) <= atol


@pytest.mark.parametrize("real", [True, False])
class TestClosedForm2x2:
    def test_equals_the_qr_route_on_shared_draws(self, real):
        # The QR route's own rounding error grows with the condition number of
        # z, so the bound does too: 1e-14 plus eps times kappa(z) per draw.
        q = haar_frames(RngStream(21), 2, 2, 10**4, real)
        reference = haar_frames_by_qr(RngStream(21), 2, 2, 10**4, real)
        assert q.dtype == reference.dtype
        kappa = np.linalg.cond(_ginibre(21, 10**4, real))
        gap = np.max(np.abs(q - reference), axis=(1, 2))
        assert np.all(gap <= 1e-14 + np.finfo(float).eps * kappa)

    def test_r_is_upper_triangular_with_positive_diagonal(self, real):
        z = _ginibre(22, 10**4, real)
        q = _frames_2x2(z)
        upper = q.conj().swapaxes(1, 2) @ z
        diag = np.diagonal(upper, axis1=1, axis2=2)
        assert np.max(np.abs(upper[:, 1, 0])) <= 1e-13
        assert np.max(np.abs(diag.imag)) <= 1e-13 and np.all(diag.real > 0.0)
        _assert_unitary(q, 1e-13)

    def test_degenerate_draws_give_finite_unitaries(self, real):
        z = _ginibre(23, 4, real)
        z[0, :, 0] = 0.0  # zero first column
        z[1, :, 1] = (2.0 if real else 1.0 - 2.0j) * z[1, :, 0]  # det z = 0
        z[2] = 0.0
        z[3] = [[1.0, 1.0], [0.0, 0.0]]  # det z = 0 with w exactly 0
        q = _frames_2x2(z)
        _assert_unitary(q, 1e-13)
        assert np.array_equal(q[0, :, 0], [1.0, 0.0])
        assert np.allclose(q[1, :, 0], z[1, :, 0] / np.linalg.norm(z[1, :, 0]), rtol=0, atol=1e-15)
        assert np.array_equal(q[2], np.eye(2)) and np.array_equal(q[3], np.eye(2))

    def test_no_qr_call(self, real, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a 2 x 2 draw reached np.linalg.qr")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        _assert_unitary(haar_frames(RngStream(27), 2, 2, 100, real), 1e-13)

    def test_other_sizes_stay_on_the_qr_route_byte_for_byte(self, real):
        for d, r in [(3, 3), (4, 4), (4, 2), (2, 1)]:
            q = haar_frames(RngStream(24), d, r, 50, real)
            assert q.tobytes() == haar_frames_by_qr(RngStream(24), d, r, 50, real).tobytes()
        frames = haar_frames(RngStream(25), 4, 2, 50, real)
        q = haar_frames(RngStream(26), 4, 2, 50, real, orthogonal_to=frames)
        reference = haar_frames_by_qr(RngStream(26), 4, 2, 50, real, orthogonal_to=frames)
        assert q.tobytes() == reference.tobytes()
