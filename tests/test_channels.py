import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realshadows import channels, linalg
from realshadows.bases import basis_from_tag, computational_basis, make_basis, sh_basis
from realshadows.channels import (
    GROUPS,
    EnsembleSpec,
    apply_channel,
    channel_for,
    ensemble_from_tag,
    global_ensemble,
    has_invisible_part,
    invert,
    local_ensemble,
    mc_channel,
    orthogonal_spectrum,
    pauli_inverse_eigenvalue,
    pauli_string_inverse_eigenvalue,
    pseudo_inverse,
    stabilizer_points,
    unitary_spectrum,
    visible_dimension,
    visible_projector,
)
from realshadows.commutant import mc_twirl, twirl_project
from realshadows.engine import collect_records, per_shot_table
from realshadows.linalg import batched_kron, identity, kron, operators_close
from realshadows.pauli import PAULIS, PauliString, X, Y, Z
from realshadows.sampling import RngStream, haar_frames
from realshadows.variance import predict_variance

from references import depolarize, mixture_decomposition, sym_part, validate_state

ATOL = 1e-10


def _random_matrix(seed, d):
    g = RngStream(seed).generator
    return g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))


def _random_hermitian(seed, d):
    m = _random_matrix(seed, d)
    return 0.5 * (m + m.conj().T)


def _tilted_basis(t: float):
    """d=2 basis {cos t |0> + i sin t |1>, sin t |0> - i cos t |1>}: alpha = 2 cos^2(2t)."""
    v = np.array(
        [[np.cos(t), np.sin(t)], [1j * np.sin(t), -1j * np.cos(t)]], dtype=complex
    )
    return make_basis(v, "custom")


def _channel_superoperator_from_twirls(basis) -> np.ndarray:
    """Independent d^2 x d^2 channel matrix built from Gram-projected twirls.

    M(A) = Tr_1[(A (x) 1) sum_w T(Pi_w^{(x)2})], evaluated on matrix units.
    """
    d = basis.d
    t_sum = np.zeros((d * d, d * d), dtype=complex)
    for w in range(d):
        vec = basis.vectors[:, w]
        pi = np.outer(vec, vec.conj())
        t_sum += twirl_project(kron(pi, pi), "O", 2)
    t4 = t_sum.reshape(d, d, d, d)
    sup = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            out = np.einsum("ab,bcad->cd", unit, t4)
            sup[:, i * d + j] = out.reshape(-1)
    return sup


class TestSpectra:
    def test_orthogonal_real_basis(self):
        for d in (2, 4, 8):
            sp = orthogonal_spectrum(d, float(d))
            assert sp.lambda_anti == 0.0
            assert sp.lambda_sym == pytest.approx(2.0 / (d + 2.0), abs=1e-15)

    def test_unitary(self):
        for d in (2, 4):
            sp = unitary_spectrum(d)
            assert sp.lambda_sym == sp.lambda_anti == pytest.approx(1.0 / (d + 1.0))
            assert sp.p_alpha == pytest.approx(d / (d + 1.0))

    def test_degenerate_point(self):
        sp = orthogonal_spectrum(2, 0.0)
        assert sp.lambda_sym == 0.0
        assert sp.lambda_anti == 1.0


class TestDepolarize:
    def test_identity_fixed(self):
        assert operators_close(depolarize(identity(3), 0.7), identity(3))

    def test_traceless_scales(self):
        assert operators_close(depolarize(Z, 0.5), Z / 2)

    def test_projector_value(self):
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        assert operators_close(depolarize(proj0, 0.5, 2), np.diag([0.75, 0.25]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            depolarize(identity(2), 0.5, d=4)


class TestApplyChannel:
    def test_global_orthogonal_z(self):
        desc = channel_for(global_ensemble("orthogonal", computational_basis(1)))
        assert operators_close(apply_channel(desc, Z), Z / 2)

    def test_global_orthogonal_kills_y(self):
        desc = channel_for(global_ensemble("orthogonal", computational_basis(1)))
        assert operators_close(apply_channel(desc, Y), np.zeros((2, 2)))

    def test_local_orthogonal_kills_any_y_factor(self):
        desc = channel_for(local_ensemble("orthogonal", 3))
        assert operators_close(
            apply_channel(desc, kron(X, Y, Z)), np.zeros((8, 8)), atol=ATOL
        )

    def test_local_factors_scale(self):
        desc = channel_for(local_ensemble("orthogonal", 2))
        assert operators_close(apply_channel(desc, kron(X, Z)), kron(X, Z) / 4)
        desc_u = channel_for(local_ensemble("unitary", 2))
        assert operators_close(apply_channel(desc_u, kron(X, Z)), kron(X, Z) / 9)

    def test_matches_direct_formula(self):
        # blockwise application equals the explicit closed form
        for alpha_basis in (computational_basis(1), sh_basis(1), _tilted_basis(0.4)):
            spec = global_ensemble("orthogonal", alpha_basis)
            desc = channel_for(spec)
            d = 2
            alpha = alpha_basis.alpha_total
            a = _random_matrix(1, d)
            direct = (
                np.trace(a) * (d * d - alpha) * identity(d)
                + (d * d - alpha) * a
                + (alpha * d + alpha - 2 * d) * a.T
            ) / (d * (d - 1) * (d + 2))
            assert operators_close(apply_channel(desc, a), direct, atol=ATOL)

    def test_dimension_mismatch(self):
        desc = channel_for(global_ensemble("orthogonal", computational_basis(2)))
        with pytest.raises(ValueError):
            apply_channel(desc, identity(2))

    @pytest.mark.parametrize("tag", ["computational", "sh", "random:5"])
    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    def test_global_blocks_match_three_block_reference(self, tag, group):
        # The block split as tr + lam_sym sym0 + lam_anti anti, with tr and
        # sym0 formed as matrices: the same arithmetic, so equal bit for bit.
        for n in (1, 3):
            desc = channel_for(global_ensemble(group, basis_from_tag(tag, n)))
            d = 2**n
            for a in (_random_matrix(n, d), X if n == 1 else kron(Y, Y, Z)):
                for fn, lam_of in (
                    (apply_channel, lambda lam: lam),
                    (pseudo_inverse, lambda lam: 0.0 if abs(lam) <= 1e-12 else 1.0 / lam),
                ):
                    (sp,) = desc.spectra
                    tr = (np.einsum("ii->", a) / d) * np.eye(d)
                    reference = (
                        tr
                        + lam_of(sp.lambda_sym) * (sym_part(a) - tr)
                        + lam_of(sp.lambda_anti) * (0.5 * (a - a.T))
                    )
                    assert np.array_equal(fn(desc, a), reference)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["orthogonal", "unitary"]))
    def test_trace_preserving_global(self, seed, group):
        desc = channel_for(global_ensemble(group, computational_basis(2)))
        a = _random_matrix(seed, 4)
        assert abs(np.trace(apply_channel(desc, a)) - np.trace(a)) < ATOL

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_trace_preserving_local_mixed(self, seed):
        desc = channel_for(local_ensemble(("orthogonal", "unitary"), 2))
        a = _random_matrix(seed, 4)
        assert abs(np.trace(apply_channel(desc, a)) - np.trace(a)) < ATOL

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_self_adjoint_under_hs(self, seed):
        desc = channel_for(global_ensemble("orthogonal", sh_basis(1)))
        a = _random_matrix(seed, 2)
        b = _random_matrix(seed + 1, 2)
        assert abs(
            np.vdot(apply_channel(desc, a), b) - np.vdot(a, apply_channel(desc, b))
        ) < 1e-9


class TestPseudoInverse:
    def test_global_real_symmetric_closed_form(self):
        for d in (2, 4):
            n = 1 if d == 2 else 2
            desc = channel_for(global_ensemble("orthogonal", computational_basis(n)))
            c = sym_part(_random_matrix(5, d))
            expected = ((d + 2) * c - np.trace(c) * identity(d)) / 2.0
            assert operators_close(pseudo_inverse(desc, c), expected, atol=ATOL)

    def test_zero_maps_to_zero(self):
        desc = channel_for(global_ensemble("orthogonal", computational_basis(1)))
        assert operators_close(pseudo_inverse(desc, np.zeros((2, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: global_ensemble("orthogonal", computational_basis(2)),
            lambda: global_ensemble("orthogonal", sh_basis(2)),
            lambda: global_ensemble("unitary", computational_basis(2)),
            lambda: local_ensemble("orthogonal", 2),
            lambda: local_ensemble(("orthogonal", "unitary"), 2),
        ],
    )
    def test_pseudo_inverse_axiom(self, make_spec):
        desc = channel_for(make_spec())
        a = _random_matrix(9, 4)
        once = apply_channel(desc, a)
        again = apply_channel(desc, pseudo_inverse(desc, once))
        assert operators_close(again, once, atol=ATOL)

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: global_ensemble("orthogonal", sh_basis(3)),
            lambda: global_ensemble("unitary", sh_basis(3)),
            lambda: local_ensemble(("orthogonal", "unitary", "orthogonal"), 3),
        ],
        ids=["global-O", "global-U", "local-OUO"],
    )
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_stack_matches_each_item(self, make_spec, real):
        desc = channel_for(make_spec())
        stack = np.stack([_random_matrix(20 + i, 8) for i in range(3)])
        stack = stack.real if real else stack
        for fn in (apply_channel, pseudo_inverse, visible_projector):
            images = fn(desc, stack)
            assert images.dtype == stack.dtype
            for a, image in zip(stack, images):
                assert np.array_equal(image, fn(desc, a))
                assert np.array_equal(image, fn(desc, a.astype(complex)).real if real else image)

    def test_stack_needs_a_channel_of_its_dimension(self):
        stack = np.zeros((2, 4, 4))
        other_dimension = global_ensemble("unitary", computational_basis(3))
        for spec in (local_ensemble("orthogonal", 3), other_dimension):
            with pytest.raises(ValueError, match="does not match ensemble dimension"):
                pseudo_inverse(channel_for(spec), stack)

    def test_degenerate_d2_alpha0_zeroes_symmetric_block(self):
        desc = channel_for(global_ensemble("orthogonal", sh_basis(1)))
        # symmetric-traceless block is annihilated by both M and its inverse
        assert operators_close(pseudo_inverse(desc, X), np.zeros((2, 2)))
        assert operators_close(pseudo_inverse(desc, Y), Y)


class TestVisibleProjector:
    def test_symmetric_part_global_real(self):
        desc = channel_for(global_ensemble("orthogonal", computational_basis(1)))
        assert operators_close(visible_projector(desc, X + 1j * Y), X)

    def test_identity_for_unitary(self):
        desc = channel_for(global_ensemble("unitary", computational_basis(1)))
        a = _random_matrix(3, 2)
        assert operators_close(visible_projector(desc, a), a)

    def test_local_dimension_ratio(self):
        desc = channel_for(local_ensemble("orthogonal", 2))
        assert visible_dimension(desc) == 9
        assert visible_dimension(desc) / 4**2 == pytest.approx(9.0 / 16.0)

    def test_rank_matches_visible_dimension(self):
        for spec in (
            global_ensemble("orthogonal", computational_basis(1)),
            global_ensemble("orthogonal", sh_basis(1)),
            local_ensemble("orthogonal", 2),
        ):
            desc = channel_for(spec)
            d = spec.d
            sup = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    unit = np.zeros((d, d), dtype=complex)
                    unit[i, j] = 1.0
                    sup[:, i * d + j] = visible_projector(desc, unit).reshape(-1)
            assert np.linalg.matrix_rank(sup, tol=1e-8) == visible_dimension(desc)

    def test_d2_alpha0_visible_space_is_span_i_y(self):
        desc = channel_for(global_ensemble("orthogonal", sh_basis(1)))
        assert operators_close(visible_projector(desc, identity(2)), identity(2))
        assert operators_close(visible_projector(desc, Y), Y)
        assert operators_close(visible_projector(desc, X), np.zeros((2, 2)))
        assert operators_close(visible_projector(desc, Z), np.zeros((2, 2)))


@pytest.mark.parametrize("groups", list(itertools.product(GROUPS, repeat=2)))
class TestPerSiteRule:
    """The per-qubit M^-1 eigenvalues that the estimators and the predictor
    use agree with the dense channel."""

    def test_pauli_eigenvalues_match_pseudo_inverse(self, groups):
        desc = channel_for(local_ensemble(groups, 2))
        for letters in itertools.product("IXYZ", repeat=2):
            p = kron(*(PAULIS[letter] for letter in letters))
            factor = np.prod(
                [pauli_inverse_eigenvalue(sp, letter) for sp, letter in zip(desc.spectra, letters)]
            )
            assert np.max(np.abs(factor * p - pseudo_inverse(desc, p))) <= 1e-12, letters

    def test_dense_variance_is_product_of_site_eigenvalues(self, groups):
        # On the maximally mixed state a dense Z (x) X has Var = E[o^2], the
        # product of the sites' M^-1 eigenvalues: 2 per orthogonal site, 3 per unitary.
        spec = local_ensemble(groups, 2)
        expected = np.prod([pauli_inverse_eigenvalue(sp, "X") for sp in channel_for(spec).spectra])
        assert expected == np.prod([2.0 if g == "orthogonal" else 3.0 for g in groups])
        value = predict_variance(spec, kron(Z, X), validate_state(identity(4) / 4))
        assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("group", GROUPS)
def test_stabilizer_points_first_moment_is_the_site_channel(group):
    # sum_phi (2/K) |phi><phi| <phi|a|phi> is the 4x4 map that the local
    # channel builds from the site's ChannelSpectrum.
    points = stabilizer_points(group)
    assert points.shape == (4 if group == "orthogonal" else 6, 4)
    sp = channel_for(local_ensemble(group, 1)).spectra[0]
    site_map = channels._site_channel(sp.lambda_sym, sp.lambda_anti)
    first_moment = (2.0 / points.shape[0]) * points.conj().T @ points
    assert np.max(np.abs(first_moment - site_map)) <= 1e-15
    units = np.eye(4).reshape(4, 2, 2)
    columns = [apply_channel(channel_for(local_ensemble(group, 1)), u).reshape(4) for u in units]
    assert np.max(np.abs(np.array(columns).T - site_map)) <= 1e-15


@pytest.mark.parametrize("group", GROUPS)
def test_one_qubit_global_and_local_are_one_channel(group):
    # Both split into one qubit factor measured in the computational basis.
    global_desc = channel_for(global_ensemble(group, computational_basis(1)))
    local_desc = channel_for(local_ensemble(group, 1))
    assert global_desc == local_desc
    a = _random_hermitian(71, 2)
    for fn in (apply_channel, pseudo_inverse, visible_projector):
        assert np.array_equal(fn(global_desc, a), fn(local_desc, a))
    for letter in "IXYZ":
        p = PauliString.from_string(letter)
        mu = pauli_string_inverse_eigenvalue(global_desc, p)
        assert mu == pauli_string_inverse_eigenvalue(local_desc, p)
    assert visible_dimension(global_desc) == visible_dimension(local_desc)
    for first, second in ((global_desc, local_desc), (local_desc, global_desc)):
        inverted = invert(first, a)
        assert invert(second, inverted) is inverted
    other = channel_for(local_ensemble("unitary" if group == "orthogonal" else "orthogonal", 1))
    with pytest.raises(ValueError, match="another channel"):
        invert(other, invert(global_desc, a))


@pytest.mark.parametrize(
    "spec, string",
    [
        (local_ensemble("orthogonal", 3), "YY"),
        (global_ensemble("orthogonal", computational_basis(3)), "Y"),
        (global_ensemble("orthogonal", computational_basis(3)), "YYYY"),
    ],
    ids=["local-O2x3-YY", "global-O8-Y", "global-O8-YYYY"],
)
def test_pauli_string_of_another_length_is_refused(spec, string):
    # The M^-1 eigenvalue is the one place that checks a string's length, so
    # neither the invisibility rule nor an estimate or prediction answers for
    # a string of the wrong qubit count.
    p = PauliString.from_string(string)
    message = "observable qubit count does not match the ensemble"
    for fn in (pauli_string_inverse_eigenvalue, has_invisible_part):
        with pytest.raises(ValueError, match=message):
            fn(channel_for(spec), p)
    factor = validate_state(identity(8) / 8)
    with pytest.raises(ValueError, match=message):
        predict_variance(spec, p, factor)
    with pytest.raises(ValueError, match=message):
        per_shot_table(collect_records(RngStream(1), factor, spec, 4), [p])


class TestSpectrumAgainstSuperoperator:
    @pytest.mark.parametrize("basis_maker", [lambda: sh_basis(1), lambda: _tilted_basis(0.3), lambda: computational_basis(1)])
    def test_blockwise_matches_brute_force_diagonalization(self, basis_maker):
        basis = basis_maker()
        sup = _channel_superoperator_from_twirls(basis)
        d = basis.d
        sp = orthogonal_spectrum(d, basis.alpha_total)
        expected = sorted(
            [1.0]
            + [sp.lambda_sym] * (d * (d + 1) // 2 - 1)
            + [sp.lambda_anti] * (d * (d - 1) // 2)
        )
        evals = np.sort(np.linalg.eigvals(sup).real)
        assert np.max(np.abs(evals - np.array(expected))) <= 1e-10
        # and the library channel agrees with the superoperator action
        spec = global_ensemble("orthogonal", basis)
        desc = channel_for(spec)
        a = _random_matrix(17, d)
        via_sup = (sup @ a.reshape(-1)).reshape(d, d)
        assert operators_close(apply_channel(desc, a), via_sup, atol=ATOL)


class TestMixtureDecomposition:
    @pytest.mark.parametrize("basis_maker", [lambda: computational_basis(2), lambda: sh_basis(2)])
    def test_reconstructs_channel(self, basis_maker):
        basis = basis_maker()
        desc = channel_for(global_ensemble("orthogonal", basis))
        w_unitary, w_real, p = mixture_decomposition(desc)
        a = _random_matrix(23, 4)
        rebuilt = w_unitary * depolarize(a, p) + w_real * depolarize(sym_part(a), p)
        assert operators_close(rebuilt, apply_channel(desc, a), atol=ATOL)

    def test_degenerate_point_rejected(self):
        desc = channel_for(global_ensemble("orthogonal", sh_basis(1)))
        with pytest.raises(ValueError):
            mixture_decomposition(desc)

    def test_unitary_limit_small_alpha_large_d(self):
        d = 2**10
        alpha = 0.0
        q = (d * d - alpha) / (d * (d - 2.0 + alpha))
        weights = (2 * q - 1.0, 2.0 * (1.0 - q))
        assert abs(weights[0] - 1.0) < 5e-3
        assert abs(weights[1]) < 5e-3

    def test_real_basis_weight_is_exactly_one(self):
        desc = channel_for(global_ensemble("orthogonal", computational_basis(2)))
        w_unitary, w_real, _ = mixture_decomposition(desc)
        assert w_unitary == pytest.approx(0.0, abs=1e-12)
        assert w_real == pytest.approx(1.0, abs=1e-12)


class TestChannelOracle:
    @pytest.mark.parametrize(
        "make_spec, seed",
        [
            (lambda: global_ensemble("orthogonal", computational_basis(1)), 61),
            (lambda: global_ensemble("orthogonal", computational_basis(2)), 62),
            (lambda: global_ensemble("unitary", computational_basis(2)), 63),
            (lambda: global_ensemble("orthogonal", sh_basis(1)), 64),
            (lambda: local_ensemble("orthogonal", 2), 65),
            (lambda: local_ensemble(("orthogonal", "unitary"), 2), 66),
        ],
    )
    def test_mc_channel_matches_closed_form(self, make_spec, seed):
        spec = make_spec()
        desc = channel_for(spec)
        a = _random_hermitian(seed, spec.d)
        exact = apply_channel(desc, a)
        mc, stderr = mc_channel(RngStream(seed), spec, a, samples=100000)
        assert np.all(np.abs(mc - exact) <= 3 * stderr + 1e-12)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_oracles_reject_nonpositive_samples(self, samples):
        spec = global_ensemble("orthogonal", computational_basis(1))
        with pytest.raises(ValueError, match="sample"):
            mc_channel(RngStream(67), spec, Z, samples)
        with pytest.raises(ValueError, match="sample"):
            mc_twirl(RngStream(67), identity(4), "O", 2, samples)

    def test_operator_of_another_dimension(self):
        spec = global_ensemble("orthogonal", computational_basis(1))
        with pytest.raises(ValueError, match="operator dimension does not match the ensemble"):
            mc_channel(RngStream(68), spec, identity(4), 10)


def _reference_mc_channel(rng, spec, a, samples):
    """The three-einsum kernel the matmul path replaced, in one batch, with
    factor j of every transform drawn from rng.child(j)."""
    k = spec.factor_dim
    u = batched_kron(
        [
            haar_frames(rng.child(j), k, k, samples, real=g == "orthogonal")
            for j, g in enumerate(spec.groups)
        ]
    )
    vectors = np.eye(spec.d) if spec.basis is None else spec.basis.vectors
    rows = np.einsum("iw,sij->swj", vectors.conj(), u)
    weights = np.einsum("swi,ij,swj->sw", rows, a, rows.conj())
    contrib = np.einsum("sw,swi,swj->sij", weights, rows.conj(), rows)
    mean = contrib.sum(axis=0) / samples
    var = np.maximum((np.abs(contrib) ** 2).sum(axis=0) / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


_KERNEL_SPECS = {
    f"global-{group}-{tag}": lambda group=group, tag=tag: global_ensemble(
        group, basis_from_tag(tag, 3)
    )
    for group in ("orthogonal", "unitary")
    for tag in ("computational", "sh", "random:5")
}
_KERNEL_SPECS["local-mixed"] = lambda: local_ensemble(("orthogonal", "unitary", "orthogonal"), 3)


class TestChannelOracleKernel:
    @pytest.mark.parametrize("make_spec", _KERNEL_SPECS.values(), ids=_KERNEL_SPECS.keys())
    def test_matches_reference_on_same_stream(self, make_spec):
        spec = make_spec()
        a = _random_hermitian(70, spec.d)
        mean, stderr = mc_channel(RngStream(71), spec, a, samples=300)
        ref_mean, ref_stderr = _reference_mc_channel(RngStream(71), spec, a, 300)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-12
        assert np.max(np.abs(stderr - ref_stderr)) <= 1e-12

    @pytest.mark.parametrize(
        "make_spec",
        [
            pytest.param(lambda: global_ensemble("orthogonal", sh_basis(3)), id="orthogonal"),
            pytest.param(lambda: global_ensemble("unitary", sh_basis(3)), id="unitary"),
            pytest.param(_KERNEL_SPECS["local-mixed"], id="local-mixed"),
        ],
    )
    @pytest.mark.parametrize("budget", [1, 7 * 2**12])
    def test_chunk_size_does_not_change_the_result(self, monkeypatch, make_spec, budget):
        # At d = 8 a sample takes 4 KiB: one-sample chunks, then 7.
        spec = make_spec()
        a = _random_hermitian(72, spec.d)
        whole = mc_channel(RngStream(73), spec, a, samples=50)
        monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
        chunked = mc_channel(RngStream(73), spec, a, samples=50)
        assert np.max(np.abs(whole[0] - chunked[0])) <= 1e-12
        assert np.max(np.abs(whole[1] - chunked[1])) <= 1e-12

    @pytest.mark.parametrize(
        "make_spec",
        [
            pytest.param(lambda: global_ensemble("orthogonal", sh_basis(4)), id="global"),
            pytest.param(lambda: local_ensemble("unitary", 4), id="local"),
        ],
    )
    def test_memory_does_not_grow_with_samples(self, make_spec):
        # validate-channel's d = 16 oracle: 1 MiB per (chunk, d, d) stack.
        spec = make_spec()
        a = _random_hermitian(74, 16)
        peaks = []
        for samples in (2000, 20000):
            tracemalloc.start()
            try:
                mc_channel(RngStream(75), spec, a, samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 2**20, peaks
        assert peaks[1] < 8 * 2**20, peaks


class TestEnsembleSpecValidation:
    def test_local_basis_check_makes_no_dxd_copy(self):
        local_ensemble("orthogonal", 2)
        tracemalloc.start()
        try:
            spec = local_ensemble("orthogonal", 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.basis is None
        assert spec.label() == "local-orthogonal(computational)"
        assert peak < 2**20, peak / 2**20

    def test_local_rejects_a_near_identity(self):
        basis = computational_basis(7)
        basis.vectors[127, 126] = 1e-9
        with pytest.raises(ValueError, match="exactly one group"):
            EnsembleSpec(("orthogonal",) * 7, basis)

    def test_local_requires_group_per_qubit(self):
        with pytest.raises(ValueError, match="one group per qubit"):
            local_ensemble(("orthogonal",), 2)
        with pytest.raises(ValueError, match="one group per qubit"):
            ensemble_from_tag("local", ("orthogonal",) * 3, "computational", 2)
        with pytest.raises(ValueError, match="unknown scope"):
            ensemble_from_tag("regional", ("orthogonal",), "computational", 2)

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            local_ensemble("symplectic", 2)

    def test_no_groups(self):
        with pytest.raises(ValueError, match="an ensemble samples at least one group"):
            EnsembleSpec((), None)

    def test_global_single_group(self):
        with pytest.raises(ValueError, match="exactly one group"):
            EnsembleSpec(("orthogonal", "unitary"), computational_basis(2))

    def test_basis_dimension_is_a_power_of_two(self):
        with pytest.raises(ValueError, match="basis dimension"):
            EnsembleSpec(("orthogonal",), make_basis(np.eye(3), "e3"))
