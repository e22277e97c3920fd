from fractions import Fraction

import numpy as np
import pytest

from realshadows.commutant import (
    BrauerPairing,
    closed_form_twirl,
    commutant_basis,
    enumerate_pairings,
    mc_twirl,
    realize,
    twirl_coefficients,
    twirl_project,
)
from realshadows import linalg
from realshadows.linalg import as_operator, batched_kron, identity, kron, norm2, operators_close
from realshadows.sampling import RngStream, haar_orthogonals, haar_state_vector, haar_unitaries
from references import realize_by_loop, twirl_project_by_gram

#: The k = 2 pairings by their pairs: the identity, the swap and the contraction Omega.
IDENTITY, SWAP, OMEGA = ((1, 3), (2, 4)), ((1, 4), (2, 3)), ((1, 2), (3, 4))


def _projector_power(vector: np.ndarray, k: int) -> np.ndarray:
    pi = np.outer(vector, vector.conj())
    return kron(*([pi] * k))


def _alpha_of(vector: np.ndarray) -> float:
    return float(np.abs(np.sum(vector**2)) ** 2)


def _real_unit(seed: int, d: int) -> np.ndarray:
    v = RngStream(seed).generator.standard_normal(d)
    return (v / np.linalg.norm(v)).astype(complex)


class TestPairings:
    def test_counts(self):
        assert len(enumerate_pairings(2)) == 3
        assert len(enumerate_pairings(3)) == 15

    @pytest.mark.parametrize("k", [1, 4])
    def test_unsupported_order(self, k):
        with pytest.raises(ValueError):
            enumerate_pairings(k)

    def test_pair_cover_validation(self):
        with pytest.raises(ValueError):
            BrauerPairing(2, ((1, 2), (2, 3)))

    def test_classification(self):
        pairings = enumerate_pairings(3)
        perms = [p for p in pairings if p.is_permutation]
        contractions = [p for p in pairings if not p.is_permutation]
        assert len(perms) == 6
        assert len(contractions) == 9

    @pytest.mark.parametrize("k", [2, 3])
    def test_loops_trace_the_realization(self, k):
        # Tr[(X_0 (x) ... (x) X_{k-1}) R] is the product of the loop traces.
        d = 3
        g = RngStream(70, (k,)).generator
        ops = [g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)) for _ in range(k)]
        for p in enumerate_pairings(k):
            loops = p.loops()
            assert sorted(op for loop in loops for op, _ in loop) == list(range(k))
            # a permutation's loops are its cycles, with no transposed step
            assert p.is_permutation == all(not t for loop in loops for _, t in loop)
            value = 1.0
            for loop in loops:
                product = identity(d)
                for op, transposed in loop:
                    product = product @ (ops[op].T if transposed else ops[op])
                value *= np.trace(product)
            expected = np.trace(kron(*ops) @ realize(p, d))
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), p.pairs


class TestRealize:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_pairing(self, d):
        ident = BrauerPairing(2, ((1, 3), (2, 4)))
        assert operators_close(realize(ident, d), identity(d * d))

    @pytest.mark.parametrize("d", [2, 3])
    def test_crossing_is_swap(self, d):
        swap_pairing = BrauerPairing(2, ((1, 4), (2, 3)))
        m = realize(swap_pairing, d)
        assert np.trace(m).real == pytest.approx(d)
        for i in range(d):
            for j in range(d):
                assert m[j * d + i, i * d + j] == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_cup_cap_is_omega(self, d):
        cupcap = BrauerPairing(2, ((1, 2), (3, 4)))
        omega = realize(cupcap, d)
        assert operators_close(omega @ omega, d * omega)

    def test_pairings_of_k2(self):
        pairs = {p.pairs for p in enumerate_pairings(2)}
        assert pairs == {IDENTITY, SWAP, OMEGA}


class TestFastPaths:
    """The einsum realizations and the cached-Wg projection against the
    loop-built realizations and per-call Gram system they replaced."""

    @pytest.mark.parametrize("k, d", [(2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (3, 4)])
    def test_realize_equals_the_loop(self, k, d):
        for p in enumerate_pairings(k):
            assert np.array_equal(realize(p, d), realize_by_loop(p, d)), p.pairs

    @pytest.mark.parametrize("group", ["O", "U"])
    @pytest.mark.parametrize("k, d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_twirl_project_matches_the_gram_system(self, group, k, d):
        # random Hermitian inputs, not only projector powers
        g = RngStream(80, (k, d)).generator
        for _ in range(3):
            z = g.standard_normal((d**k, d**k)) + 1j * g.standard_normal((d**k, d**k))
            a = z + z.conj().T
            expected = twirl_project_by_gram(a, group, k)
            assert np.max(np.abs(twirl_project(a, group, k) - expected)) <= 1e-13

    @pytest.mark.parametrize("group", ["O", "U"])
    @pytest.mark.parametrize("k, d", [(2, 3), (3, 2)])
    def test_basis_is_read_only_views_of_one_array(self, group, k, d):
        elements = commutant_basis(group, k, d)
        stack = elements[0][1].base
        assert stack is not None and not stack.flags.writeable
        for _, e in elements:
            assert e.base is stack and np.shares_memory(e, stack)
            assert not e.flags.writeable
        # a second call reads the same cached array
        assert all(e.base is stack for _, e in commutant_basis(group.lower(), k, d))

    def test_rejects_an_unknown_group(self):
        for call in (
            lambda: commutant_basis("SO", 2, 2),
            lambda: twirl_project(identity(4), "SO", 2),
            lambda: mc_twirl(RngStream(0), identity(4), "SO", 2, samples=2),
        ):
            with pytest.raises(ValueError, match="unknown group"):
                call()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("d", [2, 4])
def test_commutant_elements_commute_with_tensor_action(k, d):
    if d**k > 512:
        pytest.skip("beyond the desk-scale limit")
    elements = commutant_basis("O", k, d)
    os = haar_orthogonals(RngStream(100, (k, d)), d, 20).astype(complex)
    for _, e in elements:
        for o in os:
            ok = o
            for _ in range(k - 1):
                ok = np.kron(ok, o)
            assert norm2(e @ ok - ok @ e) <= 1e-9


class TestTwirlProject:
    def test_fixed_point_identity(self):
        assert operators_close(twirl_project(identity(4), "O", 2), identity(4))

    def test_real_projector_d2(self):
        # alpha_w = 1, d = 2: exact twirl is (1 + SWAP + |Omega><Omega|)/8
        t = twirl_project(_projector_power(np.array([1.0, 0.0], dtype=complex), 2), "O", 2)
        elements = {p.pairs: e for p, e in commutant_basis("O", 2, 2)}
        expected = (elements[IDENTITY] + elements[SWAP] + elements[OMEGA]) / 8.0
        assert operators_close(t, expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitary_projector_symmetric_subspace(self, d):
        # U(d) twirl of any rank-1 projector pair is (1 + SWAP)/(d(d+1))
        v = haar_state_vector(RngStream(31, (d,)), d)
        t = twirl_project(_projector_power(v, 2), "U", 2)
        elements = {p.pairs: e for p, e in commutant_basis("U", 2, d)}
        expected = (elements[IDENTITY] + elements[SWAP]) / (d * (d + 1.0))
        assert operators_close(t, expected)

    @pytest.mark.parametrize("group", ["O", "U"])
    def test_idempotent(self, group):
        v = haar_state_vector(RngStream(32), 3)
        t = twirl_project(_projector_power(v, 2), group, 2)
        assert operators_close(twirl_project(t, group, 2), t)


def _close(value, expected) -> bool:
    return abs(value - expected) <= 1e-15 * abs(expected)


class TestClosedForms:
    def test_pair_coefficients_pinned_values(self):
        assert twirl_coefficients("O", 1, 2, 2) == (1 / 8, 1 / 8)
        assert twirl_coefficients("O", 0, 2, 2) == (1 / 4, -1 / 4)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("alpha", [0, Fraction(1, 2), 1])
    def test_pair_coefficients_trace_consistency(self, d, alpha):
        # Tr[1] = d^2 and Tr[SWAP] = Tr[Omega] = d
        c_perm, c_omega = twirl_coefficients("O", alpha, d, 2)
        assert _close(c_perm * d**2 + c_perm * d + c_omega * d, 1.0)

    def test_triple_coefficients_pinned_values(self):
        a, b = twirl_coefficients("O", 1, 2, 3)
        assert _close(a, 1 / 48) and _close(b, 1 / 48)
        for d in (2, 4, 8):
            a, b = twirl_coefficients("O", 1, d, 3)
            expected = 1 / (d * (d + 2) * (d + 4))
            assert _close(a, expected) and _close(b, expected)

    def test_triple_twirl_reconstruction_has_unit_trace(self):
        for d in (2, 4):
            for alpha in (0.0, 0.3, 1.0):
                t = closed_form_twirl(alpha, d, 3)
                assert np.trace(t).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_dimension(self):
        for group in ("O", "U"):
            for k in (2, 3):
                with pytest.raises(ValueError):
                    twirl_coefficients(group, 1, 1, k)

    @pytest.mark.parametrize("group, k", [("unitary", 2), ("O", 4), ("U", 1)])
    def test_rejects_unknown_group_and_order(self, group, k):
        with pytest.raises(ValueError):
            twirl_coefficients(group, 1, 4, k)

    def test_float_path(self):
        vals = twirl_coefficients("O", 0.5, 4, 2)
        assert all(isinstance(v, float) for v in vals)

    @pytest.mark.parametrize("k", [2, 3], ids=["pair_twirl_coefficients", "triple_twirl_coefficients"])
    def test_coefficients_linear_in_alpha(self, k):
        # each coefficient at alpha_w = 1/2 is the midpoint of its endpoint values
        d = 4
        low, mid, high = (twirl_coefficients("O", alpha, d, k) for alpha in (0.0, 0.5, 1.0))
        for lo, mi, hi in zip(low, mid, high):
            assert abs(mi - (lo + hi) / 2) <= 1e-15 * max(abs(lo), abs(hi))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_unitary_coefficients_match_gram_projection(k, d):
    # c_perm on each permutation operator is the whole U(d) twirl
    v = haar_state_vector(RngStream(310 + d, (k,)), d)
    c_perm, c_omega = twirl_coefficients("U", _alpha_of(v), d, k)
    assert c_omega == 0.0
    closed = sum(c_perm * e for _, e in commutant_basis("U", k, d))
    t_gram = twirl_project(_projector_power(v, k), "U", k)
    assert np.max(np.abs(t_gram - closed)) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_closed_forms_match_gram_projection(k, d):
    for seed, real in ((1, True), (2, False)):
        if real:
            v = _real_unit(200 + seed + 10 * d, d)
        else:
            v = haar_state_vector(RngStream(300 + seed, (d, k)), d)
        t_gram = twirl_project(_projector_power(v, k), "O", k)
        t_closed = closed_form_twirl(_alpha_of(v), d, k)
        assert np.max(np.abs(t_gram - t_closed)) <= 1e-10


def test_third_order_twirl_is_permutation_symmetric():
    d = 3
    v = haar_state_vector(RngStream(41), d)
    t = twirl_project(_projector_power(v, 3), "O", 3)
    perms = [e for p, e in commutant_basis("O", 3, d) if p.is_permutation]
    for s in perms:
        assert operators_close(s @ t @ s.conj().T, t)


class TestMonteCarloTwirl:
    def test_identity_is_fixed_exactly(self):
        mc = mc_twirl(RngStream(50), identity(4), "O", 2, samples=64)
        assert operators_close(mc.mean, identity(4), atol=1e-12)

    def test_first_order_twirl(self):
        pi = np.diag([1.0, 0.0]).astype(complex)
        mc = mc_twirl(RngStream(51), pi, "O", 1, samples=100000)
        assert np.all(np.abs(mc.mean - identity(2) / 2) <= 3 * mc.stderr + 1e-12)

    def test_converges_to_projection(self):
        v = np.array([1.0, 0.0], dtype=complex)
        target = twirl_project(_projector_power(v, 2), "O", 2)
        mc = mc_twirl(RngStream(52), _projector_power(v, 2), "O", 2, samples=100000)
        assert np.all(np.abs(mc.mean - target) <= 3 * mc.stderr + 1e-12)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            mc_twirl(RngStream(53), identity(4), "O", 2, samples=0)


def _reference_mc_twirl(rng, a, group, k, samples):
    """The definition-level kernel that mc_twirl's factored one is checked
    against: one batch, complex W = U^{(x)k}, x = W a W^dag and |x|^2 squares."""
    m = as_operator(a)
    d = round(m.shape[0] ** (1.0 / k))
    if group == "O":
        u = haar_orthogonals(rng, d, samples).astype(complex)
    else:
        u = haar_unitaries(rng, d, samples)
    w = batched_kron([u] * k)
    x = w @ m @ w.conj().transpose(0, 2, 1)
    mean = x.sum(axis=0) / samples
    var = np.maximum((np.abs(x) ** 2).sum(axis=0) / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


def _random_operator(seed, dim):
    g = RngStream(seed).generator
    return g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))


def _low_rank_operator(seed, dim, rank):
    g = RngStream(seed).generator
    left = g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))
    right = g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))
    return left @ right.conj().T


#: Inputs of mc_twirl's factored kernel by rank: Pi^{(x)k} of a complex vector
#: (halved, so that its singular value is not 1) has no cross terms; ranks two
#: and three have one and three pairs a < b, and full rank has them all.
_KERNEL_INPUTS = {
    "full": lambda seed, d, k: _random_operator(seed, d**k),
    "rank1": lambda seed, d, k: 0.5 * _projector_power(haar_state_vector(RngStream(seed), d), k),
    "rank2": lambda seed, d, k: _low_rank_operator(seed, d**k, 2),
    "rank3": lambda seed, d, k: _low_rank_operator(seed, d**k, 3),
}


class TestMonteCarloTwirlKernel:
    @pytest.mark.parametrize("make_input", _KERNEL_INPUTS.values(), ids=_KERNEL_INPUTS.keys())
    @pytest.mark.parametrize("group", ["O", "U"])
    @pytest.mark.parametrize("k, d", [(1, 4), (2, 3), (3, 3)])
    def test_matches_reference_on_same_stream(self, make_input, group, k, d):
        a = make_input(60 + k, d, k)
        mc = mc_twirl(RngStream(61, (k,)), a, group, k, samples=300)
        mean, stderr = _reference_mc_twirl(RngStream(61, (k,)), a, group, k, 300)
        assert np.max(np.abs(mc.mean - mean)) <= 1e-12
        assert np.max(np.abs(mc.stderr - stderr)) <= 1e-12

    @pytest.mark.parametrize("make_input", _KERNEL_INPUTS.values(), ids=_KERNEL_INPUTS.keys())
    @pytest.mark.parametrize("group", ["O", "U"])
    @pytest.mark.parametrize("budget", [1, 2**13])
    def test_chunk_size_does_not_change_the_result(self, monkeypatch, make_input, group, budget):
        # At d^k = 9 a sample takes 864 bytes at rank one and 3,456 at rank
        # three: one-sample chunks, then 9 to 2.
        a = make_input(62, 3, 2)
        whole = mc_twirl(RngStream(63), a, group, 2, samples=50)
        monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
        chunked = mc_twirl(RngStream(63), a, group, 2, samples=50)
        assert np.max(np.abs(whole.mean - chunked.mean)) <= 1e-12
        assert np.max(np.abs(whole.stderr - chunked.stderr)) <= 1e-12
