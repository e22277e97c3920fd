import itertools
import json

import numpy as np
import pytest

from realshadows import engine
from realshadows.bases import basis_from_tag, computational_basis, sh_basis
from realshadows.channels import (
    apply_channel,
    channel_for,
    global_ensemble,
    has_invisible_part,
    local_ensemble,
    visible_projector,
)
from realshadows.engine import (
    ConfigError,
    ExperimentConfig,
    ShadowRecords,
    _born_probabilities,
    _global_probabilities,
    _measured_vectors,
    _mixture_frames,
    _sample_outcomes,
    build_observable,
    build_state,
    collect_records,
    estimate,
    full_vectors,
    median_of_means,
    per_shot_estimates,
    run_experiment,
    validate_state,
)
from realshadows.linalg import (
    MAX_KRON_DIM,
    ResourceLimitError,
    batched_kron,
    identity,
    kron,
    operators_close,
    sym_part,
)
from realshadows.pauli import PauliString, X, Y, Z
from realshadows.sampling import RngStream, random_pure_state, sample_transform_arrays
from realshadows.variance import predict_variance, random_symmetric_observable

from references import born_probabilities_per_block, median_of_means_by_loop, shadow_from_vector

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _proj(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _draw(rng, rho, spec, transforms):
    """Born-sampled outcome indices for explicitly given local transforms."""
    return _sample_outcomes(rng, _born_probabilities(validate_state(rho, spec.d), transforms, spec))


def _one_qubit(u):
    """A single shot's transform stack (1, 1, 2, 2) on a one-qubit local ensemble."""
    return np.asarray(u, dtype=complex)[None, None]


def _dense_vectors(records):
    return full_vectors(records.spec, records.vectors)


class TestSimulateMeasurement:
    def test_deterministic_outcome(self):
        spec = local_ensemble("orthogonal", 1)
        rho = _proj([1.0, 0.0])
        for seed in range(5):
            assert _draw(RngStream(seed), rho, spec, _one_qubit(identity(2)))[0] == 0

    def test_uniform_for_maximally_mixed(self):
        spec = local_ensemble("orthogonal", 2)
        shots = 10000
        transforms = np.broadcast_to(identity(2), (shots, 2, 2, 2))
        counts = np.bincount(_draw(RngStream(1), identity(4) / 4, spec, transforms), minlength=4)
        se = np.sqrt(0.25 * 0.75 / shots)
        assert np.all(np.abs(counts / shots - 0.25) < 3 * se)

    def test_hadamard_rotates_plus_to_zero(self):
        spec = local_ensemble("orthogonal", 1)
        rho = _proj([1.0, 1.0])
        for seed in range(5):
            assert _draw(RngStream(seed), rho, spec, _one_qubit(H))[0] == 0

    def test_local_outcome_is_bit_tuple(self):
        spec = local_ensemble("orthogonal", 2)
        transforms = np.stack([identity(2), identity(2)])[None]
        rho = _proj(np.kron([0.0, 1.0], [1.0, 0.0]))
        outcomes = _draw(RngStream(2), rho, spec, transforms)
        assert outcomes[0] == 2  # qubit 0 is the most-significant bit
        vectors = _measured_vectors(spec, transforms, outcomes)
        assert np.array_equal(vectors, [[[0.0, 1.0], [1.0, 0.0]]])

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            validate_state(identity(2))  # trace 2
        with pytest.raises(ValueError):
            validate_state(np.diag([1.5, -0.5]).astype(complex))  # not PSD
        with pytest.raises(ValueError, match="Hermitian"):
            validate_state(np.array([[0.5, 0.4], [0.0, 0.5]]))  # unit trace, not Hermitian

    def test_corrupted_probabilities_are_detected(self):
        spec = local_ensemble("orthogonal", 1)
        with pytest.raises(ValueError, match="sum"):
            _born_probabilities(identity(2), _one_qubit(identity(2)), spec)  # trace 2


def _pure_state(seed, d):
    return random_pure_state(RngStream(seed), d)


def _rank2_state(seed, d):
    return 0.7 * _pure_state(seed, d) + 0.3 * _pure_state(seed + 1, d)


def _rank3_state(seed, d):
    return 0.5 * _rank2_state(seed, d) + 0.5 * _pure_state(seed + 2, d)


def _full_rank_state(seed, d):
    return 0.5 * _pure_state(seed, d) + 0.5 * identity(d) / d


class TestBornProbabilities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize(
        "make_state", [_pure_state, _rank2_state, _rank3_state, _full_rank_state]
    )
    def test_local_matches_dense_product(self, n, make_state):
        groups = tuple("orthogonal" if j % 2 == 0 else "unitary" for j in range(n))
        spec = local_ensemble(groups, n)
        rho = make_state(30 + n, spec.d)
        factor = validate_state(rho, spec.d)
        assert operators_close(factor @ factor.conj().T, rho, atol=1e-12)
        transforms = sample_transform_arrays(RngStream(31), spec, 40)
        u = batched_kron([transforms[:, j] for j in range(n)])
        dense = np.einsum("swi,ij,swj->sw", u, rho, u.conj()).real
        assert np.max(np.abs(_born_probabilities(factor, transforms, spec) - dense)) <= 1e-12

    @pytest.mark.parametrize("tag", ["computational", "sh", "random:5"])
    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    @pytest.mark.parametrize("make_state", [_pure_state, _rank2_state])
    def test_global_matches_dense(self, tag, group, make_state):
        # The direct sampler's Born probabilities, given the frame images
        # G = U Q_k of explicit dense transforms, mixed over the columns k.
        spec = global_ensemble(group, basis_from_tag(tag, 3))
        rho = make_state(32, spec.d)
        transforms = sample_transform_arrays(RngStream(33), spec, 40)
        rows = np.einsum("iw,sij->swj", spec.basis.vectors.conj(), transforms)  # <w|U
        dense = np.einsum("swi,ij,swj->sw", rows, rho, rows.conj()).real
        weights, frames, coefficients = _mixture_frames(
            validate_state(rho, spec.d), group == "orthogonal"
        )
        born = sum(
            lam * _global_probabilities(spec, (transforms @ q) @ a)
            for lam, q, a in zip(weights, frames, coefficients)
        )
        assert np.max(np.abs(born - dense)) <= 1e-12


@pytest.mark.parametrize("chunk_shots", [None, 48], ids=["one-chunk", "several-chunks"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_local_records_match_per_block_kernel(monkeypatch, seed, chunk_shots):
    # Same outcomes and the same measured vectors, bit for bit, as with the
    # per-block kernel patched in, within one chunk and across several.
    spec = local_ensemble(("orthogonal", "unitary") * 2 + ("orthogonal",), 5)
    rho = _full_rank_state(50 + seed, spec.d)
    if chunk_shots is not None:
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", chunk_shots * spec.d * spec.d)
    outcomes = []

    def recorded(rng, p):
        outcomes.append(_sample_outcomes(rng, p))
        return outcomes[-1]

    monkeypatch.setattr(engine, "_sample_outcomes", recorded)
    vectors = collect_records(RngStream(seed), rho, spec, 200).vectors
    fast, outcomes[:] = list(outcomes), []
    monkeypatch.setattr(
        engine,
        "_born_probabilities",
        lambda f, t, s: engine._checked(born_probabilities_per_block(f, t, s)),
    )
    reference = collect_records(RngStream(seed), rho, spec, 200).vectors
    assert len(fast) == len(outcomes) == (1 if chunk_shots is None else 5)
    assert all(np.array_equal(a, b) for a, b in zip(fast, outcomes))
    assert np.array_equal(vectors, reference)


def _reference_vectors(rng, rho, spec, shots):
    """The dense QR path kept as the oracle: draw U, Born-sample w, v = U^dag|w>."""
    transforms = sample_transform_arrays(rng.child(0), spec, shots)
    rows = np.einsum("iw,sij->swj", spec.basis.vectors.conj(), transforms)  # <w|U
    p = np.einsum("swi,ij,swj->sw", rows, rho, rows.conj()).real
    outcomes = _sample_outcomes(rng.child(1), p)
    return rows[np.arange(shots), outcomes].conj()


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


_GLOBAL_CASES = [
    (group, tag, make_state)
    for group in ("orthogonal", "unitary")
    for tag in ("computational", "sh", "random:5")
    for make_state in (_pure_state, _rank2_state)
]


class TestDirectSampler:
    """Global shots come from an exact sampler that never draws U; these
    checks hold it to the exact predictors and to the dense QR path."""

    @pytest.mark.parametrize("group,tag,make_state", _GLOBAL_CASES)
    def test_mean_and_variance_match_exact_predictors(self, group, tag, make_state):
        shots = 20000
        spec = global_ensemble(group, basis_from_tag(tag, 3))
        rho = make_state(50, spec.d)
        a = random_symmetric_observable(RngStream(51), spec.d)
        records = collect_records(RngStream(52), rho, spec, shots)
        report = estimate(records, a)
        prediction = predict_variance(spec, a, rho)
        visible = np.trace(visible_projector(channel_for(spec), a) @ rho).real
        assert abs(report.mean - visible) <= 4 * np.sqrt(prediction / shots)
        values = per_shot_estimates(records, a)
        se_var = np.std((values - values.mean()) ** 2, ddof=1) / np.sqrt(shots)
        assert abs(report.empirical_variance - prediction) <= 4 * se_var

    @pytest.mark.parametrize("group,tag,make_state", _GLOBAL_CASES)
    def test_unit_norm_and_same_seed_bytes(self, group, tag, make_state):
        spec = global_ensemble(group, basis_from_tag(tag, 3))
        rho = make_state(53, spec.d)
        first = collect_records(RngStream(54), rho, spec, 3000).vectors
        assert np.max(np.abs(np.linalg.norm(first, axis=1) - 1.0)) <= 1e-12
        assert collect_records(RngStream(54), rho, spec, 3000).vectors.tobytes() == first.tobytes()

    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    def test_chunking_leaves_draws_unchanged(self, group, monkeypatch):
        spec = global_ensemble(group, basis_from_tag("sh", 3))
        rho = _rank2_state(58, spec.d)
        whole = collect_records(RngStream(59), rho, spec, 100).vectors
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 16 * spec.d * 7)  # 7-shot chunks
        assert np.array_equal(collect_records(RngStream(59), rho, spec, 100).vectors, whole)

    @pytest.mark.parametrize("group,tag,make_state", _GLOBAL_CASES)
    def test_overlaps_match_dense_reference(self, group, tag, make_state):
        # |<v|psi>|^2 and |<v|psi*>|^2 for the leading eigenvector psi: the
        # second sees how the sampler treats Re psi and Im psi under O(d).
        shots = 4000
        spec = global_ensemble(group, basis_from_tag(tag, 3))
        rho = make_state(55, spec.d)
        psi = np.linalg.eigh(rho)[1][:, -1]
        direct = collect_records(RngStream(56), rho, spec, shots).vectors
        dense = _reference_vectors(RngStream(57), rho, spec, shots)
        # KS critical value at significance 1e-3: 1.95 sqrt(2 / shots).
        bound = 1.95 * np.sqrt(2.0 / shots)
        for target in (psi, psi.conj()):
            stat = [np.abs(v @ target.conj()) ** 2 for v in (direct, dense)]
            assert _ks_distance(*stat) <= bound


class TestShadows:
    def test_global_closed_form(self):
        spec = global_ensemble("orthogonal", computational_basis(1))
        shadow = shadow_from_vector(spec, np.array([1.0, 0.0], dtype=complex))
        assert operators_close(shadow, np.diag([1.5, -0.5]))

    def test_local_product_form(self):
        spec = local_ensemble("orthogonal", 2)
        records = ShadowRecords(spec, np.array([[[1.0, 0.0], [1.0, 0.0]]], dtype=complex))
        v = _dense_vectors(records)[0]
        assert np.array_equal(v, [1.0, 0.0, 0.0, 0.0])
        one_qubit = 2.0 * _proj([1.0, 0.0]) - identity(2) / 2.0
        assert operators_close(shadow_from_vector(spec, v), kron(one_qubit, one_qubit))

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
    def test_unit_trace(self, make_spec):
        spec = make_spec()
        rho = random_pure_state(RngStream(3), 4)
        records = collect_records(RngStream(4), rho, spec, 20)
        for v in _dense_vectors(records):
            assert np.trace(shadow_from_vector(spec, v)).real == pytest.approx(1.0, abs=1e-10)

    def test_mean_shadow_reproduces_state(self):
        # E[shadow] = rho for a symmetric (real) state under global orthogonal
        spec = global_ensemble("orthogonal", computational_basis(1))
        rho = _proj([np.cos(0.3), np.sin(0.3)])
        records = collect_records(RngStream(5), rho, spec, 50000)
        avg = np.mean([shadow_from_vector(spec, v) for v in records.vectors[:2000]], axis=0)
        assert np.max(np.abs(avg - rho)) < 0.15


class TestPerShotEstimates:
    def test_identity_observable(self):
        spec = local_ensemble("orthogonal", 2)
        rho = identity(4) / 4
        records = collect_records(RngStream(6), rho, spec, 100)
        values = per_shot_estimates(records, PauliString.from_string("II"))
        assert np.allclose(values, 1.0, atol=1e-12)

    def test_fast_path_equals_slow_path_local(self):
        spec = local_ensemble(("orthogonal", "unitary"), 2)
        rho = random_pure_state(RngStream(7), 4)
        records = collect_records(RngStream(8), rho, spec, 150)
        p = PauliString.from_string("XZ", coefficient=1.5)
        fast = per_shot_estimates(records, p)
        slow = np.array(
            [
                np.trace(p.to_matrix() @ shadow_from_vector(spec, v)).real
                for v in _dense_vectors(records)
            ]
        )
        assert np.max(np.abs(fast - slow)) <= 1e-12

    @pytest.mark.parametrize("groups", [("orthogonal", "unitary"), ("unitary", "orthogonal")])
    def test_every_two_letter_string_matches_the_dense_shadow(self, groups):
        spec = local_ensemble(groups, 2)
        rho = random_pure_state(RngStream(16), 4)
        records = collect_records(RngStream(17), rho, spec, 60)
        vectors = _dense_vectors(records)
        shadows = [shadow_from_vector(spec, v) for v in vectors]
        for string in map("".join, itertools.product("IXYZ", repeat=2)):
            p = PauliString.from_string(string, coefficient=0.7 - 1.3j)
            dense = np.array([np.trace(p.to_matrix() @ shadow).real for shadow in shadows])
            assert np.max(np.abs(per_shot_estimates(records, p) - dense)) <= 1e-12, string

    def test_fast_path_equals_slow_path_global(self):
        spec = global_ensemble("orthogonal", sh_basis(2))
        rho = random_pure_state(RngStream(9), 4)
        records = collect_records(RngStream(10), rho, spec, 150)
        a = random_symmetric_observable(RngStream(11), 4)
        fast = per_shot_estimates(records, a)
        slow = np.array([np.trace(a @ shadow_from_vector(spec, v)).real for v in records.vectors])
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_dense_local_observable_matches_pauli_path(self):
        spec = local_ensemble("orthogonal", 2)
        rho = random_pure_state(RngStream(12), 4)
        records = collect_records(RngStream(13), rho, spec, 200)
        p = PauliString.from_string("XZ")
        assert np.max(
            np.abs(per_shot_estimates(records, p) - per_shot_estimates(records, p.to_matrix()))
        ) <= 1e-12

    def test_invisible_pauli_estimates_are_zero(self):
        spec = local_ensemble("orthogonal", 2)
        rho = random_pure_state(RngStream(14), 4)
        records = collect_records(RngStream(15), rho, spec, 50)
        assert np.all(per_shot_estimates(records, PauliString.from_string("YI")) == 0.0)

    def test_pauli_string_under_global_ensemble(self):
        # The string's action and its dense matrix agree up to rounding.
        spec = global_ensemble("orthogonal", computational_basis(2))
        rho = random_pure_state(RngStream(40), 4)
        records = collect_records(RngStream(41), rho, spec, 100)
        p = PauliString.from_string("ZZ")
        dense = per_shot_estimates(records, p.to_matrix())
        assert np.all(np.abs(per_shot_estimates(records, p) - dense) <= 1e-12 * (1 + np.abs(dense)))


class TestEstimate:
    def test_mean_and_variance_pinned_case(self):
        # O = Z, rho = 1/2, d = 2, global orthogonal: Var = 2 exactly
        spec = global_ensemble("orthogonal", computational_basis(1))
        rho = identity(2) / 2
        records = collect_records(RngStream(16), rho, spec, 100000)
        report = estimate(records, Z)
        sigma = np.sqrt(report.empirical_variance / report.shots)
        assert abs(report.mean) <= 3 * sigma
        assert report.empirical_variance == pytest.approx(2.0, rel=0.05)
        assert predict_variance(spec, Z, rho) == 2.0
        assert not has_invisible_part(channel_for(spec), Z)

    def test_angle_integral_oracle_for_pinned_variance(self):
        # Exact 8-point quadrature over O(2): E[o^2] = 4 <cos^2 2theta> = 2.
        total = 0.0
        points = 8
        for i in range(points):
            theta = 2 * np.pi * i / points
            for reflect in (False, True):
                u = np.array(
                    [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
                )
                if reflect:
                    u = u @ np.diag([1.0, -1.0])
                for w in range(2):
                    v = u.T[:, w]
                    o_hat = 2.0 * (v @ Z.real @ v)
                    total += 0.5 * o_hat**2  # p_w = 1/2 under rho = 1/2
        oracle = total / (2 * points)
        assert oracle == pytest.approx(2.0, abs=1e-12)

    def test_unbiased_on_visible_space(self):
        spec = global_ensemble("orthogonal", computational_basis(2))
        rho = random_pure_state(RngStream(17), 4)
        a = random_symmetric_observable(RngStream(18), 4)
        records = collect_records(RngStream(19), rho, spec, 100000)
        report = estimate(records, a)
        sigma = np.sqrt(report.empirical_variance / report.shots)
        assert abs(report.mean - np.trace(a @ rho).real) <= 3 * sigma

    def test_unbiased_locally_symmetric(self):
        spec = local_ensemble("orthogonal", 2)
        rho = random_pure_state(RngStream(20), 4)
        p = PauliString.from_string("XZ")
        records = collect_records(RngStream(21), rho, spec, 100000)
        report = estimate(records, p)
        sigma = np.sqrt(report.empirical_variance / report.shots)
        assert abs(report.mean - np.trace(p.to_matrix() @ rho).real) <= 3 * sigma

    def test_bias_identity_off_visible_space(self):
        # mean converges to Tr[O_sym rho], not Tr[O rho]
        spec = global_ensemble("orthogonal", computational_basis(1))
        rho = 0.5 * (identity(2) + 0.6 * Y + 0.3 * X)
        obs = X + Y  # symmetric part is X
        records = collect_records(RngStream(22), rho, spec, 100000)
        report = estimate(records, obs)
        sigma = np.sqrt(report.empirical_variance / report.shots)
        target_sym = np.trace(sym_part(obs) @ rho).real
        assert abs(report.mean - target_sym) <= 3 * sigma
        assert abs(report.mean - np.trace(obs @ rho).real) > 5 * sigma  # genuinely biased
        assert has_invisible_part(channel_for(spec), obs)

    def test_invisible_observable_reports_bias(self):
        spec = global_ensemble("orthogonal", computational_basis(2))
        rho = random_pure_state(RngStream(23), 4)
        records = collect_records(RngStream(24), rho, spec, 500)
        obs = kron(Y, identity(2))
        report = estimate(records, obs)
        assert report.mean == 0.0
        assert has_invisible_part(channel_for(spec), obs)
        assert predict_variance(spec, obs, rho) == pytest.approx(0.0, abs=1e-12)

    def test_channel_consistency(self):
        # frequency-weighted average of U^dag Pi_w U converges to M(rho)
        spec = global_ensemble("orthogonal", computational_basis(1))
        rho = _proj([np.cos(0.4), np.sin(0.4)])
        records = collect_records(RngStream(25), rho, spec, 50000)
        v = records.vectors  # v = U^dag|w>
        snapshots = np.einsum("si,sj->sij", v, v.conj())
        mean = snapshots.mean(axis=0)
        se = np.sqrt(
            np.maximum((np.abs(snapshots) ** 2).mean(axis=0) - np.abs(mean) ** 2, 0)
            / snapshots.shape[0]
        )
        desc = channel_for(spec)
        assert np.all(np.abs(mean - apply_channel(desc, rho)) <= 3 * se + 1e-12)

    def test_median_of_means(self):
        values = np.array([1.0, 1.0, 1.0, 1.0, 100.0])
        assert median_of_means(values, 5) == 1.0
        assert median_of_means(values, 1) == pytest.approx(values.mean())
        with pytest.raises(ValueError):
            median_of_means(values, 6)

    def test_median_of_means_matches_batch_loop(self):
        g = np.random.default_rng(27)
        for count in [*range(1, 70), 127, 1000, 1001, 4099]:
            values = g.standard_normal(count) * 10.0 ** g.integers(-3, 6)
            for batches in {*range(1, min(count, 12) + 1), count}:
                expected = median_of_means_by_loop(values, batches)
                assert median_of_means(values, batches) == expected, (count, batches)

    def test_batches_validated_in_estimate(self):
        spec = local_ensemble("orthogonal", 1)
        records = collect_records(RngStream(26), identity(2) / 2, spec, 10)
        with pytest.raises(ValueError):
            estimate(records, PauliString.from_string("Z"), batches=11)


class TestConfigAndRun:
    def _config_dict(self, tmp_path, **overrides):
        cfg = {
            "seed": 11,
            "n": 2,
            "ensemble": {"scope": "local", "groups": ["orthogonal"]},
            "state": {"kind": "random_pure", "seed": 5},
            "shots": 2000,
            "batches": 4,
            "observables": [
                {"id": "ZZ", "kind": "pauli", "string": "ZZ"},
                {"id": "XI", "kind": "pauli", "string": "XI"},
            ],
            "emit": {"csv": str(tmp_path / "out.csv")},
        }
        cfg.update(overrides)
        return cfg

    def test_shared_records_across_observables(self, tmp_path):
        config = ExperimentConfig.from_dict(self._config_dict(tmp_path))
        reports = run_experiment(config)
        assert len(reports) == 2
        # both reports come from one record set drawn from the config's seed
        rho = build_state(config.state, config.n)
        spec = config.ensemble_spec()
        records = collect_records(RngStream(config.seed), rho, spec, config.shots)
        for report, string in zip(reports, ("ZZ", "XI")):
            p = PauliString.from_string(string)
            again = estimate(records, p, 4, observable_id=string)
            assert again.mean == report.mean
            assert again.median_of_means == report.median_of_means
            # run_experiment attaches the oracle fields of the simulated state
            assert report.predicted_variance == predict_variance(spec, p, rho)
            assert report.bias_warning is False

    @pytest.mark.parametrize("scale, flagged", [(1e-11, False), (1e-9, True)])
    def test_bias_flag_and_prediction_agree(self, tmp_path, scale, flagged):
        # A = Z (x) 1 + scale Y (x) 1 under local O(2): the Y part is invisible
        # beyond the 1e-10 tolerance.  Either way M^+ keeps only 2 Z (x) 1, whose
        # variance is 4 E[<v|Z|v>^2] - <Z (x) 1>^2 = 2 - <Z (x) 1>^2.
        a = np.kron(Z + scale * Y, identity(2))
        obs = {"kind": "matrix", "real": a.real.tolist(), "imag": a.imag.tolist()}
        cfg = self._config_dict(tmp_path, observables=[obs], allow_bias=True)
        config = ExperimentConfig.from_dict(cfg)
        (report,) = run_experiment(config)
        assert report.bias_warning is flagged
        rho = build_state(config.state, config.n)
        expected = 2.0 - np.trace(rho @ np.kron(Z, identity(2))).real ** 2
        assert report.predicted_variance == pytest.approx(expected, rel=1e-12)

    def test_invisible_part_prediction_matches_simulation(self, tmp_path):
        # A random Hermitian A under orthogonal, unitary and orthogonal sites has
        # an invisible part; the prediction is that of its visible estimator.
        g = np.random.default_rng(38)
        a = g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))
        a = a + a.conj().T
        obs = {"kind": "matrix", "real": a.real.tolist(), "imag": a.imag.tolist()}
        groups = ["orthogonal", "unitary", "orthogonal"]
        cfg = self._config_dict(
            tmp_path, n=3, ensemble={"scope": "local", "groups": groups},
            shots=200000, observables=[obs], allow_bias=True,
        )
        config = ExperimentConfig.from_dict(cfg)
        (report,) = run_experiment(config)
        assert report.bias_warning is True
        rho = build_state(config.state, config.n)
        records = collect_records(RngStream(config.seed), rho, config.ensemble_spec(), 200000)
        values = per_shot_estimates(records, a)
        assert np.var(values, ddof=1) == report.empirical_variance
        se = np.std((values - values.mean()) ** 2, ddof=1) / np.sqrt(values.shape[0])
        assert abs(report.empirical_variance - report.predicted_variance) <= 4 * se

    @pytest.mark.parametrize("scope, per_shot", [("local", 8), ("global", 4)])
    def test_shots_budget(self, tmp_path, scope, per_shot):
        # n = 2: a local shot draws 4n = 8 entries, a global one d = 4.
        limit = MAX_KRON_DIM**2 // per_shot
        ensemble = {"scope": scope, "groups": ["orthogonal"]}
        config = ExperimentConfig.from_dict(
            self._config_dict(tmp_path, ensemble=ensemble, shots=limit)
        )
        assert config.shots == limit
        with pytest.raises(ResourceLimitError, match="shots"):
            ExperimentConfig.from_dict(
                self._config_dict(tmp_path, ensemble=ensemble, shots=limit + 1)
            )

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._config_dict(tmp_path)
        run_experiment(ExperimentConfig.from_dict(cfg))
        first = (tmp_path / "out.csv").read_bytes()
        run_experiment(ExperimentConfig.from_dict(cfg))
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_metadata_sidecar(self, tmp_path):
        cfg = self._config_dict(tmp_path, epsilon=0.1)
        run_experiment(ExperimentConfig.from_dict(cfg))
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        meta = json.loads((tmp_path / "out.csv.meta.json").read_text(), parse_constant=reject)
        assert meta["seed"] == 11
        assert "PCG64" in meta["rng_algorithm"]
        sc = meta["sample_complexity"]
        assert sc["epsilon"] == 0.1
        assert sc["m_observables"] == 2
        assert "order" in sc["form"] or "O(" in sc["form"]

    def test_config_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {
                    "seed": 1,
                    "n": 1,
                    "ensemble": {"scope": "local"},
                    "state": {"kind": "maximally_mixed"},
                    "shots": 10,
                    "batches": 20,
                    "observables": [{"kind": "pauli", "string": "Z"}],
                }
            )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {
                    "seed": 1,
                    "n": 1,
                    "ensemble": {"scope": "local"},
                    "state": {"kind": "maximally_mixed"},
                    "shots": 10,
                    "observables": [],
                }
            )

    @pytest.mark.parametrize(
        "key,value",
        [
            ("shots", "abc"),
            ("n", 0),
            ("epsilon", 0),
            ("seed", -1),
            ("seed", 2.5),
            ("shots", True),
            ("batches", "x"),
            ("epsilon", "nan"),
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(self._config_dict(tmp_path, **{key: value}))

    def test_build_functions_check_the_size_budget(self):
        for build in (build_state, build_observable):
            with pytest.raises(ResourceLimitError):
                build({"kind": "maximally_mixed"}, 16)
        with pytest.raises(ResourceLimitError):
            basis_from_tag("computational", 16)

    def test_integral_values_are_coerced(self, tmp_path):
        config = ExperimentConfig.from_dict(
            self._config_dict(tmp_path, seed="11", shots=2000.0, epsilon="0.1")
        )
        assert (config.seed, config.shots, config.epsilon) == (11, 2000, 0.1)

    def test_build_state_kinds(self):
        assert operators_close(build_state({"kind": "maximally_mixed"}, 1), identity(2) / 2)
        rho = build_state({"kind": "computational", "bits": "10"}, 2)
        assert rho[2, 2] == 1.0
        plus0 = build_state({"kind": "product", "factors": ["+", "0"]}, 2)
        assert operators_close(plus0, _proj(np.kron([1, 1], [1, 0])))
        with pytest.raises(ConfigError):
            build_state({"kind": "product", "factors": ["+"]}, 2)
        with pytest.raises(ConfigError):
            build_state({"kind": "thermal"}, 1)

    def test_build_observable_kinds(self):
        oid, p = build_observable({"kind": "pauli", "string": "XZ"}, 2)
        assert oid == "XZ" and isinstance(p, PauliString)
        oid, m = build_observable({"kind": "basis_projector", "index": 1}, 1)
        assert m[1, 1] == 1.0
        oid, m = build_observable({"kind": "random_symmetric", "seed": 3}, 2)
        assert operators_close(m, m.T)
        with pytest.raises(ConfigError):
            build_observable({"kind": "pauli", "string": "XYZ"}, 2)
        with pytest.raises(ConfigError):
            build_observable({"kind": "spooky"}, 2)

    @pytest.mark.parametrize("coefficient", ["1j", "0.5+0j", 1j])
    def test_pauli_coefficient_must_be_real(self, coefficient):
        obs = {"kind": "pauli", "string": "ZZ", "coefficient": coefficient}
        with pytest.raises(ConfigError, match="coefficient"):
            build_observable(obs, 2)
