import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from realshadows import engine, linalg
from realshadows.bases import basis_from_tag, computational_basis, make_basis, sh_basis
from realshadows.channels import (
    apply_channel,
    channel_for,
    global_ensemble,
    has_invisible_part,
    invert,
    local_ensemble,
    visible_projector,
)
from realshadows.engine import (
    ConfigError,
    ExperimentConfig,
    ShadowRecords,
    _checked,
    _global_probabilities,
    _local_vectors,
    _mixture_frames,
    _sample_outcomes,
    build_observable,
    build_state,
    collect_records,
    full_vectors,
    median_of_means,
    per_shot_table,
    run_experiment,
    state_factor,
)
from realshadows.linalg import (
    MAX_KRON_DIM,
    ResourceLimitError,
    check_factor,
    identity,
    kron,
    operators_close,
)
from realshadows.pauli import PauliString, X, Y, Z
from realshadows.sampling import RngStream, haar_state_vector, sample_transform_arrays
from realshadows.variance import predict_variance, random_symmetric_observable

from references import (
    born_probabilities_per_block,
    median_of_means_by_loop,
    random_pure_state,
    shadow_from_vector,
    sym_part,
    validate_state,
)

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _proj(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _draw(rng, rho, spec, transforms):
    """Born-sampled outcome indices for explicitly given local transforms,
    read off the measured vectors: qubit j's bit is 1 where its vector is
    the conjugate of its transform's row 1."""
    uniforms = rng.generator.random(len(transforms))
    vectors = _local_vectors(validate_state(rho, spec.d), transforms, uniforms)
    bits = np.all(vectors == transforms[:, :, 1].conj(), axis=2)
    return bits @ (1 << np.arange(spec.n - 1, -1, -1))


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
        # Qubit 0 is the most-significant bit.
        assert _draw(RngStream(2), rho, spec, transforms)[0] == 2
        vectors = _local_vectors(validate_state(rho), transforms, np.array([0.5]))
        assert np.array_equal(vectors, [[[0.0, 1.0], [1.0, 0.0]]])

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError, match="unit trace"):
            validate_state(identity(2))  # trace 2
        with pytest.raises(ValueError):
            validate_state(np.diag([1.5, -0.5]).astype(complex))  # not PSD
        with pytest.raises(ValueError, match="Hermitian"):
            validate_state(np.array([[0.5, 0.4], [0.0, 0.5]]))  # unit trace, not Hermitian
        # Unit trace and no eigenvalue below -1e-8, but the factor of its
        # nonnegative part has ||Psi||^2 = 1 + 2.7e-8: the one trace rule,
        # on Psi, refuses it.
        edge = np.diag([1.0 + 2.7e-8, -0.9e-8, -0.9e-8, -0.9e-8])
        assert abs(np.trace(edge) - 1.0) <= 1e-15
        with pytest.raises(ValueError, match="unit trace"):
            validate_state(edge)

    def test_corrupted_probabilities_are_detected(self):
        with pytest.raises(ValueError, match="do not sum to one"):
            _local_vectors(identity(2), _one_qubit(identity(2)), np.array([0.5]))  # trace 2
        # A non-unitary factor at qubit 1 doubles the masses of its branches.
        plus = np.full((4, 1), 0.5, dtype=complex)
        transforms = np.stack([H, 2.0 * identity(2)])[None]
        with pytest.raises(ValueError, match="do not sum to one"):
            _local_vectors(plus, transforms, np.array([0.5]))


def _pure_state(seed, d):
    return random_pure_state(RngStream(seed), d)


def _rank2_state(seed, d):
    return 0.7 * _pure_state(seed, d) + 0.3 * _pure_state(seed + 1, d)


def _rank3_state(seed, d):
    return 0.5 * _rank2_state(seed, d) + 0.5 * _pure_state(seed + 2, d)


def _full_rank_state(seed, d):
    return 0.5 * _pure_state(seed, d) + 0.5 * identity(d) / d


class TestBornProbabilities:
    @pytest.mark.parametrize("tag", ["computational", "sh", "random:5"])
    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    @pytest.mark.parametrize("make_state", [_pure_state, _rank2_state])
    def test_global_matches_dense(self, tag, group, make_state):
        # The direct sampler's Born probabilities, given the frame images
        # G = U Q_k of explicit dense transforms, mixed over the columns k.
        spec = global_ensemble(group, basis_from_tag(tag, 3))
        rho = make_state(32, spec.d)
        transforms = sample_transform_arrays([RngStream(33)], spec, 40)[:, 0]
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


@pytest.mark.parametrize("several", [False, True], ids=["one-chunk", "several-chunks"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("make_state", [_pure_state, _rank2_state, _rank3_state, _full_rank_state])
def test_local_records_match_dense_born_sampling(monkeypatch, n, make_state, several):
    # The chain rule picks, shot by shot, the outcome that the inverse CDF of
    # the whole Born vector picks for the same transforms and uniforms, within
    # one chunk and across several.
    shots = 100
    spec = local_ensemble(tuple("orthogonal" if j % 2 == 0 else "unitary" for j in range(n)), n)
    factor = validate_state(make_state(30 + n, spec.d), spec.d)
    rng = RngStream(31, (n,))
    transforms = sample_transform_arrays([rng.child(0).child(j) for j in range(n)], spec, shots)
    p = _checked(born_probabilities_per_block(factor, transforms, spec))
    outcomes = _sample_outcomes(rng.child(1), p)
    bits = (outcomes[:, None] >> np.arange(n - 1, -1, -1)) & 1
    expected = transforms[np.arange(shots)[:, None], np.arange(n), bits].conj()
    chunks = []

    def counted(f, t, u):
        chunks.append(len(t))
        return _local_vectors(f, t, u)

    monkeypatch.setattr(engine, "_local_vectors", counted)
    budget = 16 * spec.d * factor.shape[1] * 30 if several else 2**40
    monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
    vectors = collect_records(rng, factor, spec, shots).vectors
    assert (len(chunks) > 1) is several and sum(chunks) == shots
    assert np.array_equal(vectors, expected)


def _reference_vectors(rng, rho, spec, shots):
    """The dense QR path kept as the oracle: draw U, Born-sample w, v = U^dag|w>."""
    transforms = sample_transform_arrays([rng.child(0)], spec, shots)[:, 0]
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
        factor = validate_state(rho)
        a = random_symmetric_observable(RngStream(51), spec.d)
        records = collect_records(RngStream(52), factor, spec, shots)
        values = per_shot_table(records, [a])[0]
        prediction = predict_variance(spec, a, factor)
        visible = np.trace(visible_projector(channel_for(spec), a) @ rho).real
        assert abs(values.mean() - visible) <= 4 * np.sqrt(prediction / shots)
        se_var = np.std((values - values.mean()) ** 2, ddof=1) / np.sqrt(shots)
        assert abs(np.var(values, ddof=1) - prediction) <= 4 * se_var

    @pytest.mark.parametrize("group,tag,make_state", _GLOBAL_CASES)
    def test_unit_norm_and_same_seed_bytes(self, group, tag, make_state):
        spec = global_ensemble(group, basis_from_tag(tag, 3))
        factor = validate_state(make_state(53, spec.d))
        first = collect_records(RngStream(54), factor, spec, 3000).vectors
        assert np.max(np.abs(np.linalg.norm(first, axis=1) - 1.0)) <= 1e-12
        again = collect_records(RngStream(54), factor, spec, 3000).vectors
        assert again.tobytes() == first.tobytes()

    @pytest.mark.parametrize(
        "spec",
        [
            global_ensemble("orthogonal", basis_from_tag("sh", 3)),
            global_ensemble("unitary", basis_from_tag("sh", 3)),
            local_ensemble(("orthogonal", "unitary", "orthogonal"), 3),
        ],
        ids=["orthogonal", "unitary", "local-mixed"],
    )
    def test_chunking_leaves_draws_unchanged(self, spec, monkeypatch):
        factor = validate_state(_rank2_state(58, spec.d))
        whole = collect_records(RngStream(59), factor, spec, 100).vectors
        monkeypatch.setattr(linalg, "CHUNK_BYTES", 2**13)  # 6-shot global, 16-shot local chunks
        assert np.array_equal(collect_records(RngStream(59), factor, spec, 100).vectors, whole)

    @pytest.mark.parametrize("tag", ["computational", "sh"])
    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    def test_records_depend_on_rho_not_on_the_phase_of_psi(self, group, tag):
        # psi, e^{i theta} psi and the eigenvector that validate_state finds
        # in psi psi^dag get one canonical phase, so they draw one record set.
        spec = global_ensemble(group, basis_from_tag(tag, 4))
        psi = haar_state_vector(RngStream(62), spec.d)[:, None]
        rho = psi @ psi.conj().T
        factors = [psi, np.exp(0.7j) * psi, validate_state(rho)]
        records = [collect_records(RngStream(63), f, spec, 500).vectors for f in factors]
        for other in records[1:]:
            assert np.max(np.abs(other - records[0])) <= 1e-15

    @pytest.mark.parametrize("group,tag,make_state", _GLOBAL_CASES)
    def test_overlaps_match_dense_reference(self, group, tag, make_state):
        # |<v|psi>|^2 and |<v|psi*>|^2 for the leading eigenvector psi: the
        # second sees how the sampler treats Re psi and Im psi under O(d).
        shots = 4000
        spec = global_ensemble(group, basis_from_tag(tag, 3))
        rho = make_state(55, spec.d)
        psi = np.linalg.eigh(rho)[1][:, -1]
        direct = collect_records(RngStream(56), validate_state(rho), spec, shots).vectors
        dense = _reference_vectors(RngStream(57), rho, spec, shots)
        # KS critical value at significance 1e-3: 1.95 sqrt(2 / shots).
        bound = 1.95 * np.sqrt(2.0 / shots)
        for target in (psi, psi.conj()):
            stat = [np.abs(v @ target.conj()) ** 2 for v in (direct, dense)]
            assert _ks_distance(*stat) <= bound


@pytest.mark.parametrize("weight", [0.0, 1e-7], ids=["zero", "below-rank-tol"])
@pytest.mark.parametrize(
    "spec",
    [global_ensemble("orthogonal", basis_from_tag("sh", 3)), local_ensemble("unitary", 3)],
    ids=["global", "local"],
)
def test_negligible_factor_columns_are_dropped(spec, weight):
    # A column of squared norm at most 1e-12 is dropped, so [psi, c e_0]
    # draws the records of psi byte for byte, with no 0/0 in the mixture.
    psi = validate_state(_pure_state(60, spec.d))
    padded = np.hstack([psi, weight * np.eye(spec.d)[:, :1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        padded_records = collect_records(RngStream(61), padded, spec, 300)
    records = collect_records(RngStream(61), psi, spec, 300)
    assert padded_records.vectors.tobytes() == records.vectors.tobytes()



def _traced(run):
    """(tracemalloc peak in bytes, result) of one call of run."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


_MEMORY_SPECS = [
    pytest.param(lambda: global_ensemble("orthogonal", computational_basis(6)), id="global"),
    pytest.param(lambda: local_ensemble(("orthogonal", "unitary") * 3, 6), id="local-mixed"),
]


class TestChunkMemory:
    """At 10x the shots, a batched loop's peak grows by no more than what it
    returns, and what it draws for all shots by design, plus one chunk budget."""

    @pytest.mark.parametrize("make_spec", _MEMORY_SPECS)
    def test_collect_records(self, make_spec):
        # A pure state: the global shots take the complement frames.
        spec = make_spec()
        factor = validate_state(_pure_state(80, spec.d))
        collect_records(RngStream(81), factor, spec, 10)
        peaks, kept = [], []
        for shots in (200, 2000):
            peak, records = _traced(lambda: collect_records(RngStream(81), factor, spec, shots))
            peaks.append(peak)
            kept.append(records.vectors.nbytes)
        assert peaks[1] - peaks[0] <= kept[1] - kept[0] + linalg.CHUNK_BYTES, peaks

    @pytest.mark.parametrize("make_spec", _MEMORY_SPECS)
    def test_per_shot_estimates_of_a_dense_observable(self, make_spec):
        spec = make_spec()
        a = random_symmetric_observable(RngStream(82), spec.d)
        records = collect_records(RngStream(83), validate_state(_pure_state(84, spec.d)), spec, 5000)
        head = ShadowRecords(spec, records.vectors[:500])
        per_shot_table(head, [a])
        peaks = [_traced(lambda: per_shot_table(r, [a]))[0] for r in (head, records)]
        assert peaks[1] - peaks[0] <= 4500 * 8 + linalg.CHUNK_BYTES, peaks

    @pytest.mark.parametrize("make_spec", _MEMORY_SPECS)
    def test_run_preparation_of_dense_observables(self, make_spec, monkeypatch):
        # At 10x the dense observables, the preparation keeps one real inverse
        # more per observable, and its blocks hold one chunk budget at a time.
        # The run is stopped where it would draw its first shot.
        spec = make_spec()

        class Drawn(Exception):
            pass

        def stop(*args):
            raise Drawn

        monkeypatch.setattr(engine, "collect_records", stop)
        ensemble = (
            {"scope": "global", "groups": ["orthogonal"]}
            if spec.scope == "global"
            else {"scope": "local", "groups": list(spec.groups)}
        )

        def prepare(count):
            observables = [{"kind": "random_symmetric", "seed": i} for i in range(count)]
            cfg = {
                "seed": 1, "n": spec.n, "ensemble": ensemble, "shots": 10, "allow_bias": True,
                "state": {"kind": "random_pure", "seed": 2}, "observables": observables,
            }
            with pytest.raises(Drawn):
                run_experiment(ExperimentConfig.from_dict(cfg))

        prepare(4)
        peaks = [_traced(lambda: prepare(count))[0] for count in (4, 40)]
        assert peaks[1] - peaks[0] <= 36 * 8 * spec.d**2 + linalg.CHUNK_BYTES, peaks


class TestInputRefusals:
    def test_state_of_another_dimension(self):
        spec = local_ensemble("orthogonal", 2)
        with pytest.raises(ValueError, match=r"expected a \(4, r\) state factor"):
            collect_records(RngStream(1), identity(2) / np.sqrt(2.0), spec, 10)

    def test_no_shots(self):
        spec = local_ensemble("orthogonal", 1)
        with pytest.raises(ValueError, match="need at least one shot"):
            collect_records(RngStream(1), validate_state(identity(2) / 2), spec, 0)


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
        records = collect_records(RngStream(4), validate_state(rho), spec, 20)
        for v in _dense_vectors(records):
            assert np.trace(shadow_from_vector(spec, v)).real == pytest.approx(1.0, abs=1e-10)

    def test_mean_shadow_reproduces_state(self):
        # E[shadow] = rho for a symmetric (real) state under global orthogonal
        spec = global_ensemble("orthogonal", computational_basis(1))
        rho = _proj([np.cos(0.3), np.sin(0.3)])
        records = collect_records(RngStream(5), validate_state(rho), spec, 50000)
        avg = np.mean([shadow_from_vector(spec, v) for v in records.vectors[:2000]], axis=0)
        assert np.max(np.abs(avg - rho)) < 0.15


class TestPerShotEstimates:
    def test_identity_observable(self):
        spec = local_ensemble("orthogonal", 2)
        rho = identity(4) / 4
        records = collect_records(RngStream(6), validate_state(rho), spec, 100)
        values = per_shot_table(records, [PauliString.from_string("II")])[0]
        assert np.allclose(values, 1.0, atol=1e-12)

    def test_fast_path_equals_slow_path_local(self):
        spec = local_ensemble(("orthogonal", "unitary"), 2)
        rho = random_pure_state(RngStream(7), 4)
        records = collect_records(RngStream(8), validate_state(rho), spec, 150)
        p = PauliString.from_string("XZ", coefficient=1.5)
        fast = per_shot_table(records, [p])[0]
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
        records = collect_records(RngStream(17), validate_state(rho), spec, 60)
        vectors = _dense_vectors(records)
        shadows = [shadow_from_vector(spec, v) for v in vectors]
        for string in map("".join, itertools.product("IXYZ", repeat=2)):
            p = PauliString.from_string(string, coefficient=-1.3)
            dense = np.array([np.trace(p.to_matrix() @ shadow).real for shadow in shadows])
            assert np.max(np.abs(per_shot_table(records, [p])[0] - dense)) <= 1e-12, string

    def test_fast_path_equals_slow_path_global(self):
        spec = global_ensemble("orthogonal", sh_basis(2))
        rho = random_pure_state(RngStream(9), 4)
        records = collect_records(RngStream(10), validate_state(rho), spec, 150)
        a = random_symmetric_observable(RngStream(11), 4)
        fast = per_shot_table(records, [a])[0]
        slow = np.array([np.trace(a @ shadow_from_vector(spec, v)).real for v in records.vectors])
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_dense_local_observable_matches_pauli_path(self):
        spec = local_ensemble("orthogonal", 2)
        rho = random_pure_state(RngStream(12), 4)
        records = collect_records(RngStream(13), validate_state(rho), spec, 200)
        p = PauliString.from_string("XZ")
        assert np.max(
            np.abs(per_shot_table(records, [p])[0] - per_shot_table(records, [p.to_matrix()])[0])
        ) <= 1e-12

    def test_invisible_pauli_estimates_are_zero(self):
        spec = local_ensemble("orthogonal", 2)
        rho = random_pure_state(RngStream(14), 4)
        records = collect_records(RngStream(15), validate_state(rho), spec, 50)
        assert np.all(per_shot_table(records, [PauliString.from_string("YI")])[0] == 0.0)

    def test_pauli_string_under_global_ensemble(self):
        # The string's action and its dense matrix agree up to rounding.
        spec = global_ensemble("orthogonal", computational_basis(2))
        rho = random_pure_state(RngStream(40), 4)
        records = collect_records(RngStream(41), validate_state(rho), spec, 100)
        p = PauliString.from_string("ZZ")
        dense = per_shot_table(records, [p.to_matrix()])[0]
        assert np.all(np.abs(per_shot_table(records, [p])[0] - dense) <= 1e-12 * (1 + np.abs(dense)))


class TestEstimate:
    def test_mean_and_variance_pinned_case(self):
        # O = Z, rho = 1/2, d = 2, global orthogonal: Var = 2 exactly
        spec = global_ensemble("orthogonal", computational_basis(1))
        rho = identity(2) / 2
        records = collect_records(RngStream(16), validate_state(rho), spec, 100000)
        values = per_shot_table(records, [Z])[0]
        sigma = np.sqrt(np.var(values, ddof=1) / len(values))
        assert abs(values.mean()) <= 3 * sigma
        assert np.var(values, ddof=1) == pytest.approx(2.0, rel=0.05)
        assert predict_variance(spec, Z, validate_state(rho)) == 2.0
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
        records = collect_records(RngStream(19), validate_state(rho), spec, 100000)
        values = per_shot_table(records, [a])[0]
        sigma = np.sqrt(np.var(values, ddof=1) / len(values))
        assert abs(values.mean() - np.trace(a @ rho).real) <= 3 * sigma

    def test_unbiased_locally_symmetric(self):
        spec = local_ensemble("orthogonal", 2)
        rho = random_pure_state(RngStream(20), 4)
        p = PauliString.from_string("XZ")
        records = collect_records(RngStream(21), validate_state(rho), spec, 100000)
        values = per_shot_table(records, [p])[0]
        sigma = np.sqrt(np.var(values, ddof=1) / len(values))
        assert abs(values.mean() - np.trace(p.to_matrix() @ rho).real) <= 3 * sigma

    def test_bias_identity_off_visible_space(self):
        # mean converges to Tr[O_sym rho], not Tr[O rho]
        spec = global_ensemble("orthogonal", computational_basis(1))
        rho = 0.5 * (identity(2) + 0.6 * Y + 0.3 * X)
        obs = X + Y  # symmetric part is X
        records = collect_records(RngStream(22), validate_state(rho), spec, 100000)
        values = per_shot_table(records, [obs])[0]
        sigma = np.sqrt(np.var(values, ddof=1) / len(values))
        target_sym = np.trace(sym_part(obs) @ rho).real
        assert abs(values.mean() - target_sym) <= 3 * sigma
        assert abs(values.mean() - np.trace(obs @ rho).real) > 5 * sigma  # genuinely biased
        assert has_invisible_part(channel_for(spec), obs)

    def test_invisible_observable_reports_bias(self):
        spec = global_ensemble("orthogonal", computational_basis(2))
        rho = random_pure_state(RngStream(23), 4)
        records = collect_records(RngStream(24), validate_state(rho), spec, 500)
        obs = kron(Y, identity(2))
        assert per_shot_table(records, [obs])[0].mean() == 0.0
        assert has_invisible_part(channel_for(spec), obs)
        assert predict_variance(spec, obs, validate_state(rho)) == pytest.approx(0.0, abs=1e-12)

    def test_channel_consistency(self):
        # frequency-weighted average of U^dag Pi_w U converges to M(rho)
        spec = global_ensemble("orthogonal", computational_basis(1))
        rho = _proj([np.cos(0.4), np.sin(0.4)])
        records = collect_records(RngStream(25), validate_state(rho), spec, 50000)
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

    def test_median_of_means_needs_a_batch(self):
        with pytest.raises(ValueError, match="need at least one batch"):
            median_of_means(np.ones(5), 0)

    def test_batches_validated_in_estimate(self):
        spec = local_ensemble("orthogonal", 1)
        records = collect_records(RngStream(26), validate_state(identity(2) / 2), spec, 10)
        values = per_shot_table(records, [PauliString.from_string("Z")])[0]
        with pytest.raises(ValueError):
            median_of_means(values, 11)


def _global(group, tag):
    return {"scope": "global", "groups": [group], "basis": tag}


#: (ensemble, n, whether some of `_stack_observables` are invisible to it).
_STACK_ENSEMBLES = [
    pytest.param(_global("orthogonal", "computational"), 3, True, id="global-O-computational"),
    pytest.param(_global("orthogonal", "sh"), 3, False, id="global-O-sh"),
    pytest.param(_global("unitary", "computational"), 3, False, id="global-U-computational"),
    pytest.param(_global("unitary", "sh"), 3, False, id="global-U-sh"),
    pytest.param({"scope": "local", "groups": ["orthogonal", "unitary"] * 3}, 6, True, id="local-OUx3"),
]


def _stack_observables(n):
    """Real dense, complex dense and Pauli observables, interleaved, some of
    them invisible to some of the ensembles."""
    d = 2**n
    g = np.random.default_rng(40 + n)
    a = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    a = a + a.conj().T  # a complex Hermitian matrix with an antisymmetric imaginary part
    s = g.standard_normal((d, d))
    return [
        {"kind": "random_symmetric", "seed": 1},
        {"kind": "pauli", "string": "Z" * n},
        {"kind": "basis_projector", "index": 3},
        {"id": "complex", "kind": "matrix", "real": a.real.tolist(), "imag": a.imag.tolist()},
        {"kind": "random_symmetric", "seed": 2},
        {"kind": "pauli", "string": "Y" + "X" * (n - 1), "coefficient": -0.5},
        {"id": "real", "kind": "matrix", "real": (s + s.T).tolist()},
        {"id": "real-diagonal", "kind": "matrix", "real": np.diag(s[0]).tolist()},
        {"kind": "random_symmetric", "seed": 3},
        {"kind": "pauli", "string": "I" * n},
    ]


class TestStackedRun:
    """A run estimates, inverts and predicts its observables stage by stage,
    in blocks; its reports are those of one-observable calls."""

    @staticmethod
    def _run(ensemble, n, budget, monkeypatch):
        cfg = {
            "seed": 5, "n": n, "ensemble": ensemble, "state": {"kind": "random_pure", "seed": 6},
            "shots": 300, "batches": 7, "allow_bias": True, "observables": _stack_observables(n),
        }
        config = ExperimentConfig.from_dict(cfg)
        with monkeypatch.context() as m:
            m.setattr(linalg, "CHUNK_BYTES", budget)
            return config, run_experiment(config)

    @staticmethod
    def _close(x, y):
        return abs(x - y) <= 1e-12 * (1.0 + abs(x))

    @pytest.mark.parametrize("ensemble, n, invisible", _STACK_ENSEMBLES)
    def test_reports_match_one_observable_calls(self, ensemble, n, invisible, monkeypatch):
        d = 2**n
        # Blocks of one, two and every run of consecutive real dense observables,
        # which the complex matrix and the Pauli strings split (runs of 1, 1, 1
        # and 3 of them, so the last budget sends a block of three).
        budgets = [4 * 8 * d * d, 2 * 4 * 8 * d * d, 1 << 30]
        runs = [self._run(ensemble, n, b, monkeypatch) for b in budgets]
        config, reports = runs[0]
        spec = config.ensemble
        factor = check_factor(state_factor(config.state, n), spec.d)  # the run's own factor
        records = collect_records(RngStream(config.seed), factor, spec, config.shots)
        flags = []
        for position, obs in enumerate(config.observables):
            oid, op = build_observable(obs, n)
            values = per_shot_table(records, [op])[0]
            predicted = predict_variance(spec, op, factor)
            flag = has_invisible_part(channel_for(spec), op)
            flags.append(flag)
            for _, run in runs:
                report = run[position]
                assert report.observable_id == oid and report.shots == len(values)
                assert report.bias_warning is flag
                for x, y in [
                    (values.mean(), report.mean),
                    (median_of_means(values, config.batches), report.median_of_means),
                    (np.var(values, ddof=1), report.empirical_variance),
                    (predicted, report.predicted_variance),
                ]:
                    assert self._close(x, y), (oid, x, y)
        assert any(flags) is invisible  # invisible observables run under allow_bias

    def test_table_statistics_match_each_row(self):
        # The (N, S) table's row reductions are those of each row alone.
        spec = global_ensemble("orthogonal", computational_basis(3))
        factor = validate_state(_pure_state(41, 8))
        records = collect_records(RngStream(42), factor, spec, 1001)
        observables = [build_observable(o, 3)[1] for o in _stack_observables(3)]
        table = per_shot_table(records, observables)
        assert table.shape == (len(observables), 1001) and table.flags.c_contiguous
        reports = engine._reports(table, 7, [("id", False, 0.0)] * len(observables))
        for row, observable, one in zip(table, observables, reports):
            values = per_shot_table(records, [observable])[0]
            assert np.allclose(row, values, rtol=1e-12, atol=1e-12)
            assert one.mean == row.mean()
            assert one.empirical_variance == np.var(row, ddof=1)
            assert one.median_of_means == median_of_means_by_loop(row, 7)


class TestRealObservables:
    """A real dense observable stays float64 from its config to its inverse."""

    _REAL = [
        {"kind": "random_symmetric", "seed": 4},
        {"kind": "basis_projector", "index": 2},
        {"kind": "matrix", "real": np.diag([1.0, -1.0, 2.0, 0.0]).tolist()},
        {"kind": "matrix", "real": np.eye(4).tolist(), "imag": np.zeros((4, 4)).tolist()},
    ]
    _SPECS = [
        lambda: global_ensemble("orthogonal", computational_basis(2)),
        lambda: global_ensemble("unitary", sh_basis(2)),
        lambda: local_ensemble(("orthogonal", "unitary"), 2),
    ]

    @pytest.mark.parametrize("obs", _REAL, ids=["symmetric", "projector", "matrix", "zero-imag"])
    def test_real_observables_and_inverses_are_float64(self, obs):
        _, op = build_observable(obs, 2)
        assert op.dtype == np.float64
        factor = validate_state(_pure_state(43, 4))
        for make_spec in self._SPECS:
            spec = make_spec()
            inverted = invert(channel_for(spec), op)
            assert inverted.inverse.dtype == np.float64
            complex_predicted = predict_variance(spec, op.astype(complex), factor)
            assert abs(predict_variance(spec, inverted, factor) - complex_predicted) <= 1e-12 * (
                1.0 + abs(complex_predicted)
            )

    def test_matrix_with_imaginary_part_stays_complex(self):
        m = np.array([[1.0, 2.0j], [-2.0j, 0.0]])
        obs = {"kind": "matrix", "real": m.real.tolist(), "imag": m.imag.tolist()}
        _, op = build_observable(obs, 1)
        assert op.dtype == np.complex128
        spec = local_ensemble("unitary", 1)
        assert invert(channel_for(spec), op).inverse.dtype == np.complex128

    def test_imaginary_antisymmetric_part_is_invisible_in_a_real_basis(self):
        # Under O(d) in a basis of real vectors, lambda_anti = 0: the
        # imaginary part of a Hermitian A, antisymmetric, is annihilated.
        g = np.random.default_rng(44)
        k = g.standard_normal((4, 4))
        a = np.diag([1.0, 0.0, -1.0, 0.5]) + 1j * (k - k.T)
        rotated = make_basis(np.linalg.qr(g.standard_normal((4, 4)))[0], "rotated")
        for basis in (computational_basis(2), rotated):
            desc = channel_for(global_ensemble("orthogonal", basis))
            assert has_invisible_part(desc, a) and not has_invisible_part(desc, a.real)
            assert has_invisible_part(desc, np.stack([a.real, a])).tolist() == [False, True]
        obs = {"kind": "matrix", "real": a.real.tolist(), "imag": a.imag.tolist()}
        cfg = {
            "seed": 1, "n": 2, "ensemble": {"scope": "global", "groups": ["orthogonal"]},
            "state": {"kind": "random_pure", "seed": 2}, "shots": 20, "observables": [obs],
        }
        with pytest.raises(ConfigError, match="visible space"):
            run_experiment(ExperimentConfig.from_dict(cfg))
        (report,) = run_experiment(ExperimentConfig.from_dict(dict(cfg, allow_bias=True)))
        assert report.bias_warning is True


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
        factor = check_factor(state_factor(config.state, config.n), 2**config.n)
        spec = config.ensemble_spec()
        records = collect_records(RngStream(config.seed), factor, spec, config.shots)
        for report, string in zip(reports, ("ZZ", "XI")):
            p = PauliString.from_string(string)
            values = per_shot_table(records, [p])[0]
            assert values.mean() == report.mean
            assert median_of_means(values, 4) == report.median_of_means
            # run_experiment builds each report with the oracle fields of the simulated state
            assert report.predicted_variance == predict_variance(spec, p, factor)
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

    @pytest.mark.parametrize(
        "ensemble",
        [
            {"scope": "global", "groups": ["orthogonal"], "basis": "sh"},
            {"scope": "global", "groups": ["unitary"]},
            {"scope": "local", "groups": ["orthogonal", "unitary", "unitary"]},
        ],
        ids=["global-O-sh", "global-U", "local-OUU"],
    )
    def test_matrix_is_read_as_its_hermitian_part(self, tmp_path, ensemble):
        # A matrix 1e-11 off Hermitian passes the 1e-10 door; its reports are
        # those of its Hermitian part, which is exactly Hermitian.
        g = np.random.default_rng(39)
        a = g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))
        off = a + a.conj().T + 1e-11 * (g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8)))
        part = 0.5 * (off + off.conj().T)
        assert np.array_equal(part, part.conj().T) and not np.array_equal(off, part)
        reports = []
        for m in (off, part):
            obs = {"kind": "matrix", "real": m.real.tolist(), "imag": m.imag.tolist()}
            cfg = self._config_dict(
                tmp_path, n=3, ensemble=ensemble, shots=500, observables=[obs], allow_bias=True
            )
            reports.append(run_experiment(ExperimentConfig.from_dict(cfg)))
        assert reports[0] == reports[1]

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
        factor = check_factor(state_factor(config.state, config.n), 2**config.n)
        records = collect_records(RngStream(config.seed), factor, config.ensemble_spec(), 200000)
        values = per_shot_table(records, [a])[0]
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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize(
        "state",
        [
            {"kind": "maximally_mixed"},
            {"kind": "computational", "index": 1},
            {"kind": "random_pure", "seed": 7},
            {"kind": "product", "factors": ["+i", "-", "1"]},
        ],
        ids=["maximally-mixed", "computational", "random-pure", "product"],
    )
    def test_state_factor_is_a_factor_of_build_state(self, n, state):
        if state["kind"] == "product":
            state = dict(state, factors=state["factors"][:n])
        psi = state_factor(state, n)
        assert psi.shape[0] == 2**n
        assert np.allclose(psi @ psi.conj().T, build_state(state, n), rtol=0.0, atol=1e-15)

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
