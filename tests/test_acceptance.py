"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and timings.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from realshadows.bases import computational_basis, make_basis, sh_basis
from realshadows.channels import (
    apply_channel,
    channel_for,
    global_ensemble,
    has_invisible_part,
    local_ensemble,
    mc_channel,
    orthogonal_spectrum,
)
from realshadows.commutant import closed_form_twirl, twirl_project
from realshadows.engine import collect_records, per_shot_table
from realshadows.linalg import identity, kron
from realshadows.pauli import PAULIS, PauliString, Y, Z
from realshadows.sampling import RngStream, haar_state_vector, haar_unitaries
from realshadows.variance import predict_variance, random_symmetric_observable, ratio_sweep

from references import (
    depolarize,
    mixture_decomposition,
    overlap_f,
    random_pure_state,
    sym_part,
    validate_state,
)


def _report(number: int, name: str, started: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number:2d} ({name}): PASS in {elapsed:.2f}s")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def _random_real_unit(rng: RngStream, d: int) -> np.ndarray:
    v = rng.generator.standard_normal(d)
    return (v / np.linalg.norm(v)).astype(complex)


def _projector_power(v: np.ndarray, k: int) -> np.ndarray:
    pi = np.outer(v, v.conj())
    return kron(*([pi] * k))


def _alpha_of(v: np.ndarray) -> float:
    return float(np.abs(np.sum(v**2)) ** 2)


@pytest.mark.parametrize(
    "k, number, name, limit",
    [
        (2, 1, "rank-1 pair-twirl closed form", 5.0),
        (3, 2, "rank-1 triple-twirl closed form", 60.0),
    ],
)
def test_criterion_twirl_closed_form_exactness(k, number, name, limit):
    t0 = time.perf_counter()
    for d in (2, 4, 8):
        for i in range(10):
            rng = RngStream(1000 + number, (d, i))
            if i % 2 == 0:
                v = _random_real_unit(rng, d)
            else:
                v = haar_state_vector(rng, d)
            gram = twirl_project(_projector_power(v, k), "O", k)
            closed = closed_form_twirl(_alpha_of(v), d, k)
            err = float(np.max(np.abs(gram - closed)))
            assert err <= 1e-10, (d, i, err)
    _report(number, name, t0, limit)


def test_criterion_3_channel_oracle():
    t0 = time.perf_counter()
    d, n = 4, 2
    spec = global_ensemble("orthogonal", computational_basis(n))
    desc = channel_for(spec)
    gen = RngStream(55, (1,)).generator
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    a = 0.5 * (a + a.conj().T)
    exact = apply_channel(desc, a)
    mc, stderr = mc_channel(RngStream(55), spec, a, samples=100000)
    assert np.all(np.abs(mc - exact) <= 3.0 * stderr + 1e-12)
    _report(3, "channel oracle, d=4 global orthogonal", t0, 60.0)


def test_criterion_4_variance_exactness_global_real():
    t0 = time.perf_counter()
    # pinned case: the predictors are exactly 2 (real) and 3 (unitary)
    psi2 = validate_state(identity(2) / 2)
    basis2 = computational_basis(1)
    assert predict_variance(global_ensemble("orthogonal", basis2), Z, psi2) == 2.0
    assert predict_variance(global_ensemble("unitary", basis2), Z, psi2) == 3.0
    # random instance at d = 4: empirical within 5% of the exact value
    d, n = 4, 2
    spec = global_ensemble("orthogonal", computational_basis(n))
    psi = validate_state(random_pure_state(RngStream(3), d))
    a = random_symmetric_observable(RngStream(4), d)
    records = collect_records(RngStream(7), psi, spec, 100000)
    emp = np.var(per_shot_table(records, [a])[0], ddof=1)
    pred = predict_variance(spec, a, psi)
    rel = abs(emp - pred) / pred
    assert rel <= 0.05, rel
    _report(4, "global-real variance exactness", t0)


def test_criterion_5_ratio_trend():
    t0 = time.perf_counter()
    _, summary = ratio_sweep(range(1, 7), 500, seed=11)
    means = [s["mean_ratio"] for s in summary]
    for left, right in zip(means, means[1:]):
        assert right < left, means
    assert 0.45 <= means[-1] <= 0.58, means[-1]
    _report(5, "variance-ratio trend over n=1..6", t0, 600.0)


def test_criterion_6_local_pauli_second_moment():
    t0 = time.perf_counter()
    n = 3
    p = PauliString.from_string("XZI")
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    eigvec = np.kron(np.kron(plus, [1.0, 0.0]), [1.0, 0.0]).astype(complex)
    states = {
        "eigenstate": np.outer(eigvec, eigvec.conj()),
        "maximally mixed": identity(2**n) / 2**n,
    }
    spec = local_ensemble("orthogonal", n)
    for i, (label, rho) in enumerate(states.items()):
        records = collect_records(RngStream(21, (i,)), validate_state(rho), spec, 100000)
        second = float(np.mean(per_shot_table(records, [p])[0] ** 2))
        assert abs(second - 4.0) / 4.0 <= 0.03, (label, second)
    spec_u = local_ensemble("unitary", n)
    eigenstate = validate_state(states["eigenstate"])
    records = collect_records(RngStream(22), eigenstate, spec_u, 100000)
    second_u = float(np.mean(per_shot_table(records, [p])[0] ** 2))
    assert abs(second_u - 9.0) / 9.0 <= 0.05, second_u
    _report(6, "local Pauli second moments (2^k vs 3^k)", t0)


def test_criterion_7_reality_bookkeeping():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        assert computational_basis(n).alpha_total == float(2**n)
        assert sh_basis(n).alpha_total == 0.0
    for d in (2, 8):
        us = haar_unitaries(RngStream(77, (d,)), d, 10000)
        overlaps = np.einsum("sjw,sjw->sw", us, us)
        alphas = (np.abs(overlaps) ** 2).sum(axis=1)
        se = alphas.std(ddof=1) / np.sqrt(alphas.shape[0])
        assert abs(alphas.mean() - 2.0 * d / (d + 1.0)) <= 3.0 * se
    _report(7, "reality bookkeeping", t0)


def _basis_alpha2_d4():
    v = np.zeros((4, 4), dtype=complex)
    v[0, 0] = 1.0
    v[1, 1] = 1.0
    v[2, 2] = 1.0 / np.sqrt(2.0)
    v[3, 2] = 1.0j / np.sqrt(2.0)
    v[2, 3] = 1.0 / np.sqrt(2.0)
    v[3, 3] = -1.0j / np.sqrt(2.0)
    return make_basis(v, "custom")


def test_criterion_8_alpha_interpolation():
    t0 = time.perf_counter()
    d = 4
    cases = {0.0: sh_basis(2), 2.0: _basis_alpha2_d4(), 4.0: computational_basis(2)}
    gen = RngStream(17).generator
    probe = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    for alpha, basis in cases.items():
        assert basis.alpha_total == pytest.approx(alpha, abs=1e-12)
        # brute-force channel superoperator from Gram-projected twirls
        t_sum = np.zeros((d * d, d * d), dtype=complex)
        for w in range(d):
            vec = basis.vectors[:, w]
            t_sum += twirl_project(_projector_power(vec, 2), "O", 2)
        t4 = t_sum.reshape(d, d, d, d)
        sup = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                sup[:, i * d + j] = np.einsum("ab,bcad->cd", unit, t4).reshape(-1)
        evals = np.sort(np.linalg.eigvals(sup).real)
        sp = orthogonal_spectrum(d, alpha)
        expected = np.sort(
            np.array(
                [1.0]
                + [sp.lambda_sym] * (d * (d + 1) // 2 - 1)
                + [sp.lambda_anti] * (d * (d - 1) // 2)
            )
        )
        assert np.max(np.abs(evals - expected)) <= 1e-10, alpha
        # mixture decomposition reconstructs the channel
        desc = channel_for(global_ensemble("orthogonal", basis))
        w_unitary, w_real, p = mixture_decomposition(desc)
        rebuilt = w_unitary * depolarize(probe, p) + w_real * depolarize(sym_part(probe), p)
        assert np.max(np.abs(rebuilt - apply_channel(desc, probe))) <= 1e-10, alpha
    _report(8, "alpha interpolation spectrum + mixture", t0)


def test_criterion_9_bias_semantics():
    t0 = time.perf_counter()
    n, d = 2, 4
    spec = global_ensemble("orthogonal", computational_basis(n))
    rho = random_pure_state(RngStream(23), d)
    obs = kron(Y, PAULIS["I"])
    records = collect_records(RngStream(24), validate_state(rho), spec, 20000)
    values = per_shot_table(records, [obs])[0]
    target = float(np.trace(obs @ rho).real)
    target_sym = float(np.trace(sym_part(obs) @ rho).real)
    assert target_sym == pytest.approx(0.0, abs=1e-12)
    sigma = np.sqrt(np.var(values, ddof=1) / len(values))
    assert abs(values.mean() - target_sym) <= 3.0 * sigma + 1e-12
    # the estimator deliberately misses Tr[Y (x) 1 rho] != 0 for this state
    assert abs(target) > 0.1
    assert abs(values.mean() - target) > 0.1
    assert has_invisible_part(channel_for(spec), obs)
    _report(9, "bias semantics for invisible observables", t0)


def test_criterion_10_overlap_factor_table():
    t0 = time.perf_counter()
    letters = ("I", "X", "Z")
    t_sum = np.zeros((8, 8), dtype=complex)
    for w in range(2):
        pi = np.zeros((2, 2), dtype=complex)
        pi[w, w] = 1.0
        t_sum += twirl_project(kron(pi, pi, pi), "O", 3)
    for seed in range(3):
        rho = random_pure_state(RngStream(70, (seed,)), 2)
        for pl in letters:
            for ql in letters:
                p_inv = PAULIS[pl] if pl == "I" else 2.0 * PAULIS[pl]
                q_inv = PAULIS[ql] if ql == "I" else 2.0 * PAULIS[ql]
                lhs = np.trace(kron(rho, p_inv, q_inv) @ t_sum).real
                f = overlap_f(PauliString.from_string(pl), PauliString.from_string(ql))
                rhs = f * np.trace(rho @ PAULIS[pl] @ PAULIS[ql]).real
                assert abs(lhs - rhs) <= 1e-10, (pl, ql)
    _report(10, "overlap-factor table", t0)


def test_same_seed_artifacts_match_their_pins():
    # The five pinned CSVs under tests/data, regenerated and compared cell by
    # cell by scripts/check_artifacts.py.
    path = Path(__file__).resolve().parent.parent / "scripts" / "check_artifacts.py"
    spec = importlib.util.spec_from_file_location("check_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.check(update=False) == 0
