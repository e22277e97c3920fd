import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from realshadows import linalg, variance
from realshadows.bases import basis_from_tag, computational_basis, make_basis, sh_basis
from realshadows.channels import (
    GROUPS,
    channel_for,
    global_ensemble,
    has_invisible_part,
    local_ensemble,
    pseudo_inverse,
    visible_projector,
)
from realshadows.commutant import twirl_project
from realshadows.engine import collect_records, estimate, per_shot_estimates
from realshadows.linalg import ResourceLimitError, identity, kron, operators_close, sym_part
from realshadows.pauli import PAULIS, PauliString, X, Y, Z
from realshadows.sampling import RngStream, haar_state_vector, random_pure_state
from realshadows.variance import predict_variance, random_symmetric_observable, ratio_sweep

from references import REAL_CLIFFORD_1Q, overlap_f


def _random_hermitian(seed, d):
    g = RngStream(seed).generator
    m = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def _rank_two_state(seed, d):
    rng = RngStream(seed)
    u, v = haar_state_vector(rng.child(0), d), haar_state_vector(rng.child(1), d)
    return 0.7 * np.outer(u, u.conj()) + 0.3 * np.outer(v, v.conj())


def _global(group, tag, n):
    return global_ensemble(group, basis_from_tag(tag, n))


def _second_moment(spec, p):
    """E[o^2] of a Pauli string under a local ensemble: its exact variance on
    the maximally mixed state plus the squared mean Tr[P]/d."""
    mean = np.trace(p.to_matrix()).real / spec.d
    return predict_variance(spec, p, identity(spec.d) / spec.d) + mean**2


# Reference formulas: the hand-derived global predictors that the Brauer-word
# predictor replaced, kept here as independent checks where they are right.
# var_ref_real and var_ref_unitary hold for every observable; var_ref_alpha
# only for symmetric ones, and not at d - 2 + alpha = 0.


def _tr(x, y):
    return float(np.sum(x * y.T).real)


def traceless_part(a):
    return a - (np.trace(a) / a.shape[0]) * np.eye(a.shape[0])


def var_ref_real(a, rho):
    """Global orthogonal shadows, real basis."""
    d = a.shape[0]
    s0 = traceless_part(sym_part(a))
    return (d + 2.0) / (2.0 * d + 8.0) * (_tr(s0, s0) + 4.0 * _tr(rho @ s0, s0)) - _tr(s0, rho) ** 2


def var_ref_unitary(a, rho):
    """Global unitary shadows."""
    d = a.shape[0]
    a0 = traceless_part(a)
    return (d + 1.0) / (d + 2.0) * (_tr(a0, a0) + 2.0 * _tr(rho @ a0, a0)) - _tr(rho, a0) ** 2


def reality_interpolation(a, d, alpha):
    """The effective observable A_tilde seen through a reality-alpha channel."""
    return ((d * d - alpha) * a + (alpha * d + alpha - 2.0 * d) * a.T) / (d * (d - 2.0 + alpha))


def var_ref_alpha(a, rho, d, alpha):
    """Global orthogonal shadows, basis of total reality alpha."""
    t0 = reality_interpolation(a, d, alpha) - (np.trace(a) / d) * np.eye(d)
    t0_t = t0.T
    p_alpha = (d * d - alpha) / ((d - 1.0) * (d + 2.0))
    prefactor = 1.0 / ((1.0 - p_alpha) ** 2 * d * (d - 1.0) * (d + 2.0) * (d + 4.0))
    plain = (d * d - 3.0 * alpha + 2.0 * d) * (_tr(t0, t0) + 2.0 * _tr(rho @ t0, t0))
    transposed = (alpha * d + alpha - 2.0 * d) * (
        _tr(t0, t0_t)
        + 2.0 * _tr(rho @ t0, t0_t)
        + 2.0 * _tr(rho @ t0_t, t0)
        + 2.0 * _tr(rho @ t0_t, t0_t)
    )
    return prefactor * (plain + transposed) - _tr(t0, rho) ** 2


class TestGlobalPredictors:
    def test_pinned_case(self):
        rho = identity(2) / 2
        real = predict_variance(_global("orthogonal", "computational", 1), Z, rho)
        unitary = predict_variance(_global("unitary", "computational", 1), Z, rho)
        assert real == 2.0
        assert unitary == 3.0
        assert real / unitary == pytest.approx(2.0 / 3.0)

    def test_trivial_observables(self):
        rho = random_pure_state(RngStream(0), 4)
        real = _global("orthogonal", "computational", 2)
        unitary = _global("unitary", "computational", 2)
        assert predict_variance(real, identity(4), rho) == pytest.approx(0.0, abs=1e-12)
        assert predict_variance(real, kron(Y, PAULIS["I"]), rho) == pytest.approx(
            0.0, abs=1e-12
        )
        assert predict_variance(unitary, identity(4), rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_alpha_d_reduces_to_real_formula(self, d):
        rho = random_pure_state(RngStream(1, (d,)), d)
        a = _random_hermitian(2 + d, d)
        spec = global_ensemble("orthogonal", computational_basis(d.bit_length() - 1))
        full = var_ref_alpha(a, rho, d, float(d))
        real = var_ref_real(a, rho)
        assert full == pytest.approx(real, rel=1e-10, abs=1e-10)
        assert predict_variance(spec, a, rho) == pytest.approx(real, rel=1e-10, abs=1e-10)

    def test_alpha_zero_matches_empirical_sh_shadows(self):
        # d = 4, SH basis (alpha = 0): predictor vs 1e5-shot simulation
        d, n = 4, 2
        spec = global_ensemble("orthogonal", sh_basis(n))
        rho = identity(d) / d
        a = kron(Z, PAULIS["I"])
        records = collect_records(RngStream(3), rho, spec, 100000)
        emp = estimate(records, a).empirical_variance
        pred = predict_variance(spec, a, rho)
        assert emp == pytest.approx(pred, rel=0.05)

    def test_large_d_asymptotic_bound(self):
        # Var <~ ||A_tilde_0||_2^2 / (1 + f) at d = 64, for bases of total
        # reality f d: a qubit basis with alpha_w = f on the first qubit and
        # the computational basis on the rest.
        n = 6
        d = 2**n
        rho = random_pure_state(RngStream(4), d)
        a = random_symmetric_observable(RngStream(5), d)
        for f in (0.0, 0.5, 1.0):
            phase = np.exp(1j * np.arccos(np.sqrt(f)))  # alpha_w = cos^2 = f
            qubit = np.array([[1.0, 1.0], [phase, -phase]]) / np.sqrt(2.0)
            basis = make_basis(kron(qubit, identity(d // 2)), f"alpha={f}")
            alpha = basis.alpha_total
            assert alpha == pytest.approx(f * d)
            value = predict_variance(global_ensemble("orthogonal", basis), a, rho)
            tilde0 = reality_interpolation(a, d, alpha) - (np.trace(a) / d) * identity(d)
            bound = float(np.linalg.norm(tilde0)) ** 2 / (1.0 + f)
            assert value <= 1.15 * bound

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_real_never_exceeds_unitary(self, d):
        # exact-predictor inequality over random instances
        n = d.bit_length() - 1
        real = _global("orthogonal", "computational", n)
        unitary = _global("unitary", "computational", n)
        for i in range(334):
            rng = RngStream(6, (d, i))
            rho = random_pure_state(rng.child(0), d)
            a = random_symmetric_observable(rng.child(1), d)
            assert (
                predict_variance(real, a, rho)
                <= predict_variance(unitary, a, rho) + 1e-12
            )


class TestBrauerWordPredictor:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_agrees_with_reference_formulas(self, n):
        # Every case where a hand-derived formula is right, to 1e-12 relative.
        d = 2**n
        rng = RngStream(90, (n,))
        rho = random_pure_state(rng.child(0), d)
        a = _random_hermitian(91 + n, d)
        sym = random_symmetric_observable(rng.child(1), d)
        cases = [
            (_global("orthogonal", "computational", n), a, var_ref_real(a, rho)),
            (_global("unitary", "computational", n), a, var_ref_unitary(a, rho)),
        ]
        for tag in ("sh", "random:5"):
            spec = _global("orthogonal", tag, n)
            alpha = spec.basis.alpha_total
            if abs(d - 2.0 + alpha) > 1e-12:
                cases.append((spec, sym, var_ref_alpha(sym, rho, d, alpha)))
        assert len(cases) == (3 if n == 1 else 4)
        for spec, obs, reference in cases:
            assert predict_variance(spec, obs, rho) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    @pytest.mark.parametrize("tag", ["computational", "sh", "random:5"])
    def test_matches_gram_projection_twirl(self, n, group, tag):
        # Var = sum_w Tr[(rho (x) A~ (x) A~) T_w] - Tr[P_vis(A) rho]^2, with the
        # twirls T_w of Pi_w^{(x)3} from the Gram projection (linear, so it is
        # applied once to their sum).
        spec = _global(group, tag, n)
        d = spec.d
        rho = _rank_two_state(92 + n, d)
        a = _random_hermitian(93 + n, d)
        desc = channel_for(spec)
        tilde = pseudo_inverse(desc, a)
        columns = spec.basis.vectors
        projectors = sum(
            kron(*[np.outer(columns[:, w], columns[:, w].conj())] * 3) for w in range(d)
        )
        twirl = twirl_project(projectors, group[0].upper(), 3)
        second = np.trace(kron(rho, tilde, tilde) @ twirl).real
        mean = np.trace(visible_projector(desc, a) @ rho).real
        assert predict_variance(spec, a, rho) == pytest.approx(
            second - mean**2, rel=1e-10, abs=1e-10
        )

    @pytest.mark.parametrize(
        "tag, n, rank",
        [("sh", 1, 1), ("sh", 2, 1), ("random:5", 2, 2), ("sh", 3, 2), ("random:5", 3, 1)],
    )
    def test_complex_observable_matches_simulation(self, tag, n, rank):
        # Complex Hermitian A under a complex basis, and the degenerate
        # d - 2 + alpha = 0 point at n = 1 (sh): empirical variance within 4
        # standard errors of the prediction.
        spec = _global("orthogonal", tag, n)
        d = spec.d
        rho = random_pure_state(RngStream(94, (n,)), d) if rank == 1 else _rank_two_state(95, d)
        a = _random_hermitian(96 + n, d)
        pred = predict_variance(spec, a, rho)
        records = collect_records(RngStream(97, (n, rank)), rho, spec, 200000)
        values = per_shot_estimates(records, a)
        emp = np.var(values, ddof=1)
        se = np.std((values - values.mean()) ** 2, ddof=1) / np.sqrt(values.shape[0])
        assert abs(emp - pred) <= 4 * se, (emp, pred, se)


class TestOverlapF:
    def test_full_single_qubit_table(self):
        eye = PauliString.from_string("I")
        x = PauliString.from_string("X")
        z = PauliString.from_string("Z")
        table = {
            (eye, eye): 1.0,
            (eye, x): 1.0,
            (eye, z): 1.0,
            (x, eye): 1.0,
            (x, x): 2.0,
            (x, z): 0.0,
            (z, eye): 1.0,
            (z, x): 0.0,
            (z, z): 2.0,
        }
        for (p, q), expected in table.items():
            assert overlap_f(p, q) == expected

    def test_examples_on_two_qubits(self):
        assert overlap_f(PauliString.from_string("XI"), PauliString.from_string("ZI")) == 0.0
        assert overlap_f(PauliString.from_string("XZ"), PauliString.from_string("XI")) == 2.0
        assert overlap_f(PauliString.from_string("XZ"), PauliString.from_string("XZ")) == 4.0

    def test_rejects_y(self):
        with pytest.raises(ValueError):
            overlap_f(PauliString.from_string("Y"), PauliString.from_string("X"))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            overlap_f(PauliString.from_string("XI"), PauliString.from_string("X"))


def test_overlap_factor_against_three_factor_integral():
    # the three-factor twirl integral equals f(p, q) Tr[rho P_p P_q] exactly
    letters = ("I", "X", "Z")
    twirls = []
    for w in range(2):
        pi = np.zeros((2, 2), dtype=complex)
        pi[w, w] = 1.0
        twirls.append(twirl_project(kron(pi, pi, pi), "O", 3))
    t_sum = np.sum(twirls, axis=0)
    for seed in range(3):
        rho = random_pure_state(RngStream(7, (seed,)), 2)
        for pl in letters:
            for ql in letters:
                p_mat = PAULIS[pl]
                q_mat = PAULIS[ql]
                p_inv = p_mat if pl == "I" else 2.0 * p_mat
                q_inv = q_mat if ql == "I" else 2.0 * q_mat
                lhs = np.trace(kron(rho, p_inv, q_inv) @ t_sum).real
                f = overlap_f(PauliString.from_string(pl), PauliString.from_string(ql))
                rhs = f * np.trace(rho @ p_mat @ q_mat).real
                assert abs(lhs - rhs) <= 1e-10, (pl, ql)


class TestLocalSecondMoments:
    # The second moment of a single Pauli string is state independent;
    # predict_variance subtracts the squared mean from it.
    def test_weight_one(self):
        spec = local_ensemble("orthogonal", 3)
        assert _second_moment(spec, PauliString.from_string("XII")) == 2.0

    def test_weight_zero(self):
        p = PauliString.from_string("II")
        spec = local_ensemble("orthogonal", 2)
        assert _second_moment(spec, p) == 1.0
        rho = identity(4) / 4
        assert predict_variance(spec, p, rho) == pytest.approx(0.0, abs=1e-12)

    def test_y_is_invisible(self):
        spec = local_ensemble("orthogonal", 2)
        p = PauliString.from_string("XY")
        assert has_invisible_part(channel_for(spec), p)
        assert predict_variance(spec, p, identity(4) / 4) == 0.0

    def test_stabilizer_state_variance(self):
        # X(x)Z eigenstate: E[o^2] = 4, Tr[P rho] = 1, Var = 3; check by simulation
        p = PauliString.from_string("XZ")
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        v = np.kron(plus, [1.0, 0.0]).astype(complex)
        rho = np.outer(v, v.conj())
        spec = local_ensemble("orthogonal", 2)
        assert _second_moment(spec, p) == 4.0
        pred = predict_variance(spec, p, rho)
        assert pred == pytest.approx(3.0, abs=1e-12)
        records = collect_records(RngStream(8), rho, spec, 30000)
        values = per_shot_estimates(records, p)
        second = np.mean(values**2)
        se = np.std(values**2, ddof=1) / np.sqrt(values.shape[0])
        assert abs(second - 4.0) <= 4 * se

    def test_state_independence(self):
        p = PauliString.from_string("XZI")
        spec = local_ensemble("orthogonal", 3)
        for seed in range(3):
            rho = random_pure_state(RngStream(9, (seed,)), 8)
            mean = np.trace(p.to_matrix() @ rho).real
            assert predict_variance(spec, p, rho) + mean**2 == pytest.approx(4.0, abs=1e-12)


class TestLocalSiteRules:
    def test_pauli_second_moments(self):
        p = PauliString.from_string("XZI")
        assert _second_moment(local_ensemble("orthogonal", 3), p) == 4.0
        assert _second_moment(local_ensemble("unitary", 3), p) == 9.0

    def test_mixed_sites_multiply(self):
        # orthogonal on the X site, unitary on the Z site: 2 * 3 = 6
        p = PauliString.from_string("XZ")
        assert _second_moment(local_ensemble(("orthogonal", "unitary"), 2), p) == 6.0

    def test_dense_weight_three_product(self):
        # X (x) Z (x) X as a matrix: the cubature gives 1/lambda per site, 2^3 and 3^3
        a = kron(X, Z, X)
        rho = identity(8) / 8
        pred = predict_variance(local_ensemble("orthogonal", 3), a, rho)
        assert pred == pytest.approx(8.0, rel=1e-12)
        pred = predict_variance(local_ensemble("unitary", 3), a, rho)
        assert pred == pytest.approx(27.0, rel=1e-12)

    def test_pauli_sum(self):
        # E[o^2] = sum_pq c_p c_q f(p, q) Tr[rho P Q] for Y-free strings under O(2)
        strings = {"XZ": 0.5, "ZX": 0.5, "XI": -0.3, "ZZ": 0.8}
        terms = [(PauliString.from_string(s), c) for s, c in strings.items()]
        a = sum(c * p.to_matrix() for p, c in terms)
        rho = random_pure_state(RngStream(19), 4)
        second = sum(
            cp * cq * overlap_f(p, q) * np.trace(rho @ p.to_matrix() @ q.to_matrix()).real
            for (p, cp), (q, cq) in itertools.product(terms, repeat=2)
        )
        mean = np.trace(rho @ a).real
        pred = predict_variance(local_ensemble("orthogonal", 2), a, rho)
        assert pred == pytest.approx(second - mean**2, rel=1e-12)

    def test_identity_sites_do_not_count(self):
        a = kron(X, PAULIS["I"])
        pred = predict_variance(local_ensemble("orthogonal", 2), a, identity(4) / 4)
        assert pred == pytest.approx(2.0, rel=1e-12)

    def test_y_is_invisible_under_orthogonal(self):
        spec = local_ensemble("orthogonal", 2)
        rho = identity(4) / 4
        assert has_invisible_part(channel_for(spec), PauliString.from_string("YI"))
        # M^+ annihilates Y (x) 1, so every estimate is 0
        assert predict_variance(spec, kron(Y, PAULIS["I"]), rho) == 0.0
        # but fine under a unitary site
        mixed = local_ensemble(("unitary", "orthogonal"), 2)
        assert _second_moment(mixed, PauliString.from_string("YI")) == 3.0

    @pytest.mark.parametrize("scale, visible", [(1e-11, True), (1e-9, False)])
    def test_one_visibility_rule(self, scale, visible):
        # A Y part at the 1e-10 tolerance: the run's bias flag and the
        # prediction read the same rule.
        spec = local_ensemble("orthogonal", 2)
        a = kron(Z + scale * Y, PAULIS["I"])
        assert has_invisible_part(channel_for(spec), a) is not visible
        # Either way the estimator reads only the visible Z (x) 1.
        pred = predict_variance(spec, a, identity(4) / 4)
        assert pred == pytest.approx(2.0, rel=1e-12)


def _real_clifford_variance(a, rho, n):
    """Var[o] averaged over the 8^n products of single-qubit real Cliffords,
    each measured in the computational basis: the paper's local ensemble."""
    tilde = pseudo_inverse(channel_for(local_ensemble("orthogonal", n)), a)
    moments = np.zeros(2)
    for factors in itertools.product(REAL_CLIFFORD_1Q, repeat=n):
        v = kron(*factors).conj().T  # column w is U^dag |w>
        p = np.einsum("iw,ij,jw->w", v.conj(), rho, v).real
        o = np.einsum("iw,ij,jw->w", v.conj(), tilde, v).real
        moments += [p @ o, p @ o**2]
    mean, second = moments / 8**n
    return second - mean**2


class TestLocalCubature:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_real_clifford_ensemble(self, n):
        spec = local_ensemble("orthogonal", n)
        rho = _rank_two_state(30 + n, 2**n)
        a = _random_hermitian(32 + n, 2**n)
        reference = _real_clifford_variance(a, rho, n)
        assert predict_variance(spec, a, rho) == pytest.approx(reference, rel=1e-12, abs=1e-12)
        for letters in itertools.product("IXYZ", repeat=n):
            p = PauliString.from_string("".join(letters), 0.7)
            reference = _real_clifford_variance(p.to_matrix(), rho, n)
            pred = predict_variance(spec, p, rho)
            assert pred == pytest.approx(reference, rel=1e-12, abs=1e-12), letters

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_closed_form_matches_cubature(self, n):
        rho = random_pure_state(RngStream(34, (n,)), 2**n)
        for groups in itertools.product(GROUPS, repeat=n):
            spec = local_ensemble(groups, n)
            for letters in itertools.product("IXYZ", repeat=n):
                p = PauliString.from_string("".join(letters), -1.3)
                closed = predict_variance(spec, p, rho)
                cubature = predict_variance(spec, p.to_matrix(), rho)
                assert closed == pytest.approx(cubature, rel=1e-12, abs=1e-12), (groups, letters)

    @pytest.mark.parametrize(
        "groups",
        [("orthogonal",) * 3, ("unitary",) * 3, ("orthogonal", "unitary", "orthogonal")],
        ids=["OOO", "UUU", "OUO"],
    )
    def test_dense_matches_simulation(self, groups):
        # A random sum of every string visible to the sites: Y only on unitary ones.
        gen = RngStream(35).generator
        alphabets = ["IXZ" if g == "orthogonal" else "IXYZ" for g in groups]
        a = sum(
            gen.standard_normal() * PauliString.from_string("".join(letters)).to_matrix()
            for letters in itertools.product(*alphabets)
        )
        spec = local_ensemble(groups, 3)
        assert not has_invisible_part(channel_for(spec), a)
        rho = random_pure_state(RngStream(36), 8)
        pred = predict_variance(spec, a, rho)
        values = per_shot_estimates(collect_records(RngStream(37), rho, spec, 200000), a)
        emp = np.var(values, ddof=1)
        se = np.std((values - values.mean()) ** 2, ddof=1) / np.sqrt(values.shape[0])
        assert abs(emp - pred) <= 4 * se, (emp, pred, se)

    @pytest.mark.parametrize("block", [1, 6, 24, 100])
    @pytest.mark.parametrize(
        "groups", [("unitary",) * 3, ("orthogonal", "unitary", "orthogonal")], ids=["UUU", "OUO"]
    )
    @pytest.mark.parametrize("state", ["pure", "basis", "mixed"])
    def test_blocks_match_one_block(self, monkeypatch, block, groups, state):
        # A block budget below the whole cubature walks point prefixes of the
        # leading sites; |000> leaves most of those blocks with zero weight,
        # and Y on an orthogonal site adds an invisible part.
        spec = local_ensemble(groups, 3)
        rho = {
            "pure": random_pure_state(RngStream(38), 8),
            "basis": np.diag(np.eye(8)[0]).astype(complex),
            "mixed": _rank_two_state(39, 8),
        }[state]
        a = _random_hermitian(40, 8) + 5.0 * kron(Y, Z, X)
        whole = predict_variance(spec, a, rho)
        monkeypatch.setattr(variance, "_CUBATURE_BLOCK", block)
        assert predict_variance(spec, a, rho) == pytest.approx(whole, rel=1e-12, abs=1e-12)

    def test_streamed_memory_at_n8(self, monkeypatch):
        # All-unitary n = 8 has 6^8 points, 27 MiB per complex array of them.
        spec = local_ensemble("unitary", 8)
        rho = random_pure_state(RngStream(41), 256)
        a = _random_hermitian(42, 256)
        tracemalloc.start()
        try:
            streamed = predict_variance(spec, a, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak / 2**20
        monkeypatch.setattr(variance, "_CUBATURE_BLOCK", 6**8)
        assert streamed == pytest.approx(predict_variance(spec, a, rho), rel=1e-12)

    def test_budget(self, monkeypatch):
        # 4 points per orthogonal site and 6 per unitary one: all-orthogonal
        # n = 13 fills the budget exactly, and all-unitary n = 11 is beyond it.
        assert 4**13 == linalg.MAX_KRON_DIM**2 < 6**11
        monkeypatch.setattr(linalg, "MAX_KRON_DIM", 32)  # 1024 = 4^5 entries
        rho = identity(32) / 32
        a = kron(Z, identity(16))
        assert predict_variance(local_ensemble("orthogonal", 5), a, rho) == pytest.approx(2.0)
        unitary = local_ensemble("unitary", 4)  # 6^4 = 1296 points
        with pytest.raises(ResourceLimitError, match="cubature"):
            predict_variance(unitary, identity(16), identity(16) / 16)
        # The Pauli closed form needs no cubature.
        assert predict_variance(unitary, PauliString.from_string("ZIII"), identity(16) / 16) == 3.0


def test_bounds_dominate_empirical_variance():
    # 100 random (P, rho) pairs under local orthogonal shadows
    n = 3
    spec = local_ensemble("orthogonal", n)
    letters = ("I", "X", "Z")
    rng = RngStream(10)
    for trial in range(100):
        gen = rng.child(trial)
        g = gen.child(0).generator
        while True:
            string = "".join(letters[i] for i in g.integers(0, 3, size=n))
            if string != "III":
                break
        p = PauliString.from_string(string)
        rho = random_pure_state(gen.child(1), 2**n)
        records = collect_records(gen.child(2), rho, spec, 4000)
        values = per_shot_estimates(records, p)
        emp = float(np.var(values, ddof=1))
        se = np.std(values**2, ddof=1) / np.sqrt(values.shape[0])
        assert emp <= _second_moment(spec, p) + 3 * se


class TestEmpiricalVariance:
    def test_constant_estimator(self):
        spec = local_ensemble("orthogonal", 2)
        records = collect_records(RngStream(11), identity(4) / 4, spec, 100)
        assert estimate(records, PauliString.from_string("II")).empirical_variance == 0.0

    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    def test_matches_exact_global_predictors(self, group):
        d, n = 4, 2
        spec = global_ensemble(group, computational_basis(n))
        rho = random_pure_state(RngStream(13), d)
        a = random_symmetric_observable(RngStream(14), d)
        records = collect_records(RngStream(15, (ord(group[0]),)), rho, spec, 100000)
        emp = estimate(records, a).empirical_variance
        pred = predict_variance(spec, a, rho)
        reference = var_ref_real(a, rho) if group == "orthogonal" else var_ref_unitary(a, rho)
        assert pred == pytest.approx(reference, rel=1e-12)
        assert emp == pytest.approx(pred, rel=0.05)


class TestPredictVariance:
    def test_local_pauli_with_state_is_exact(self):
        spec = local_ensemble("orthogonal", 2)
        rho = identity(4) / 4
        pred = predict_variance(spec, PauliString.from_string("XZ"), rho)
        assert pred == pytest.approx(4.0)

    def test_local_dense_complex_observable_is_exact(self):
        # Y is invisible to an orthogonal qubit and has 1/lambda = 3 on a unitary one.
        rho = identity(2) / 2
        assert predict_variance(local_ensemble("orthogonal", 1), Y, rho) == 0.0
        pred = predict_variance(local_ensemble("unitary", 1), Y, rho)
        assert pred == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            global_ensemble("orthogonal", computational_basis(2)),
            local_ensemble(("orthogonal", "unitary"), 2),
        ],
        ids=["global-O4", "local-OU"],
    )
    def test_complex_coefficient_predicts_its_real_part(self, spec):
        # The estimates of c P are Re(c) <v|P|v>: all zero for c = 1j.
        rho = np.diag(np.eye(4)[0]).astype(complex)
        zz = functools.partial(PauliString.from_string, "ZZ")
        assert predict_variance(spec, zz(1j), rho) == 0.0
        assert predict_variance(spec, zz(2 - 1j), rho) == predict_variance(spec, zz(2), rho)
        values = per_shot_estimates(collect_records(RngStream(43), rho, spec, 200), zz(1j))
        assert np.all(values == 0.0)

    @pytest.mark.parametrize("tag", ["sh", "random:5"])
    def test_global_alpha_symmetric_observable_is_predicted(self, tag):
        spec = global_ensemble("orthogonal", basis_from_tag(tag, 3))
        rho = random_pure_state(RngStream(80), spec.d)
        a = sym_part(_random_hermitian(81, spec.d))
        pred = predict_variance(spec, a, rho)
        reference = var_ref_alpha(a, rho, spec.d, spec.basis.alpha_total)
        assert pred == pytest.approx(reference, rel=1e-12)


    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.array([[0.5, 0.4], [0.0, 0.5]]), "Hermitian"),
            (np.diag([1.0, 1.0]), "unit trace"),
        ],
        ids=["not-hermitian", "trace-two"],
    )
    @pytest.mark.parametrize(
        "spec",
        [global_ensemble("orthogonal", computational_basis(1)), local_ensemble("unitary", 1)],
        ids=["global", "local"],
    )
    @pytest.mark.parametrize("observable", [PauliString.from_string("Z"), X], ids=["pauli", "dense"])
    def test_rejects_a_state_that_is_not_a_density_matrix(self, spec, observable, rho, message):
        with pytest.raises(ValueError, match=message):
            predict_variance(spec, observable, rho)


class TestRandomSymmetricObservable:
    def test_symmetric_and_hermitian(self):
        a = random_symmetric_observable(RngStream(16), 8)
        assert operators_close(a, a.T)
        assert operators_close(a, a.conj().T)
        assert np.linalg.norm(a) <= 1.0 + 1e-9

    def test_reproducible(self):
        a = random_symmetric_observable(RngStream(17), 4)
        b = random_symmetric_observable(RngStream(17), 4)
        assert np.array_equal(a, b)


def test_ratio_trend_small():
    rows, summary = ratio_sweep([1, 2, 3], 100, seed=18)
    means = [s["mean_ratio"] for s in summary]
    assert means[0] > means[1] > means[2]
    assert all(r["ratio"] <= 1.0 + 1e-12 for r in rows)
    assert len(rows) == 300
