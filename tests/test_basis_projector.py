"""Basis projectors under local ensembles, worked site by site, against the
dense paths that they bypass: estimates, exact variance and visibility."""

import json
import tracemalloc

import numpy as np
import pytest

from realshadows import channels, engine, linalg, variance
from realshadows.bases import basis_from_tag
from realshadows.channels import (
    ChannelDescriptor,
    channel_for,
    global_ensemble,
    has_invisible_part,
    invert,
    local_ensemble,
    orthogonal_spectrum,
    pseudo_inverse,
    site_pseudo_inverse,
    unitary_spectrum,
)
from realshadows.cli import main
from realshadows.engine import ExperimentConfig, collect_records, per_shot_table, run_experiment
from realshadows.linalg import kron
from realshadows.pauli import BasisProjector
from realshadows.sampling import RngStream, haar_state_vector
from realshadows.variance import predict_variance

#: Site patterns of a local ensemble of n qubits.
PATTERNS = {
    "O": lambda n: ["orthogonal"] * n,
    "U": lambda n: ["unitary"] * n,
    "OU": lambda n: [("orthogonal", "unitary")[j % 2] for j in range(n)],
}


def _factor(rank: str, d: int, seed: int) -> np.ndarray:
    """Psi (d, r) of a pure, a rank-2 or a full-rank state."""
    if rank == "pure":
        return haar_state_vector(RngStream(seed), d)[:, None]
    if rank == "rank2":
        columns = [haar_state_vector(RngStream(seed, (i,)), d) for i in (0, 1)]
        return np.stack([np.sqrt(0.7) * columns[0], np.sqrt(0.3) * columns[1]], axis=1)
    g = np.random.default_rng(seed)
    psi = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return psi / np.linalg.norm(psi)


def _close(x, y, tol=1e-12):
    return np.all(np.abs(np.asarray(x) - np.asarray(y)) <= tol * (1.0 + np.abs(np.asarray(y))))


def test_site_pseudo_inverse_is_the_dense_one_site_by_site():
    for pattern in PATTERNS.values():
        for n in (1, 2, 3):
            desc = channel_for(local_ensemble(pattern(n), n))
            for index in range(2**n):
                p = BasisProjector.from_index(index, n)
                sites = site_pseudo_inverse(desc, p.site_operators())
                assert _close(kron(*sites), pseudo_inverse(desc, p.to_matrix()))


def test_site_pseudo_inverse_needs_one_qubit_factor_per_operator():
    p = BasisProjector.from_index(1, 2)
    with pytest.raises(ValueError, match="qubit factor"):
        site_pseudo_inverse(channel_for(local_ensemble("unitary", 3)), p.site_operators())
    with pytest.raises(ValueError, match="qubit factor"):
        global_desc = channel_for(global_ensemble("unitary", basis_from_tag("computational", 2)))
        site_pseudo_inverse(global_desc, p.site_operators())


@pytest.mark.parametrize("budget", [1 << 20, 4096, 1])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_per_shot_rows_match_the_dense_kernel(pattern, budget, monkeypatch):
    # Rows of the per-site rule against M^+(|b><b|) contracted with the
    # Kronecker products of the records, in chunks of 1 MiB, of a few shots
    # and of one shot.
    monkeypatch.setattr(linalg, "CHUNK_BYTES", budget)
    for n in range(1, 7):
        spec = local_ensemble(PATTERNS[pattern](n), n)
        desc = channel_for(spec)
        records = collect_records(RngStream(n), _factor("rank2", 2**n, 7 + n), spec, 60)
        projectors = [BasisProjector.from_index(i, n) for i in (0, 2**n - 1, (5 * n) % 2**n)]
        dense = [invert(desc, p.to_matrix()) for p in projectors]
        assert _close(per_shot_table(records, projectors), per_shot_table(records, dense))


@pytest.mark.parametrize("rank", ["pure", "rank2", "full"])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_factorised_variance_matches_the_cubature(pattern, rank):
    for n in range(1, 5):
        spec = local_ensemble(PATTERNS[pattern](n), n)
        desc = channel_for(spec)
        factor = _factor(rank, 2**n, 30 + n)
        projectors = [BasisProjector.from_index(i, n) for i in range(2**n)]
        inverses = pseudo_inverse(desc, np.stack([p.to_matrix() for p in projectors]))
        cubature = variance._predict_local(spec, inverses, factor)
        factorised = [predict_variance(spec, p, factor) for p in projectors]
        assert _close(factorised, cubature), (n, pattern, rank)


def _descriptors():
    """Channels of qubit factors, one with an invisible symmetric block at
    its first site, and global channels of one factor."""
    for n in (1, 2, 3):
        for pattern in PATTERNS.values():
            yield channel_for(local_ensemble(pattern(n), n))
        for group in ("orthogonal", "unitary"):
            for tag in ("computational", "sh", "random:3"):
                yield channel_for(global_ensemble(group, basis_from_tag(tag, n)))
    # An O(2) site measured in a complex basis (alpha = 0): lambda_sym = 0.
    yield ChannelDescriptor(4, (orthogonal_spectrum(2, 0.0), unitary_spectrum(2)))


def test_per_site_flag_matches_the_dense_flag():
    flags = set()
    for desc in _descriptors():
        n = desc.d.bit_length() - 1
        for index in range(desc.d):
            p = BasisProjector.from_index(index, n)
            flag = has_invisible_part(desc, p)
            assert flag is has_invisible_part(desc, p.to_matrix()), (desc, index)
            flags.add(flag)
    assert flags == {False, True}


def _local_config(n, observables, shots=200):
    return {
        "seed": 4,
        "n": n,
        "ensemble": {"scope": "local", "groups": PATTERNS["OU"](n)},
        "state": {"kind": "random_pure", "seed": 5},
        "shots": shots,
        "observables": observables,
    }


def test_product_only_local_run_takes_no_dense_path(monkeypatch):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return call

    for module, name in [
        (engine, "full_vectors"),
        (variance, "_predict_local"),
        (channels, "pseudo_inverse"),
        (channels, "visible_projector"),
    ]:
        monkeypatch.setattr(module, name, refuse(name))
    observables = [
        {"kind": "pauli", "string": "ZXIY"},
        {"kind": "basis_projector", "index": 3},
        {"kind": "basis_projector", "index": 12},
    ]
    reports = run_experiment(ExperimentConfig.from_dict(_local_config(4, observables)))
    assert [r.observable_id for r in reports] == ["ZXIY", "projector:3", "projector:12"]


@pytest.mark.parametrize(
    "ensemble",
    [
        {"scope": "global", "groups": ["orthogonal"], "basis": "computational"},
        {"scope": "global", "groups": ["unitary"], "basis": "sh"},
    ],
    ids=["O-computational", "U-sh"],
)
def test_global_projector_run_is_the_dense_matrix_run(tmp_path, ensemble):
    # Under one factor of several qubits the projector is the dense matrix
    # that the same config could spell out, stacked into its block of real
    # dense observables: the CSVs are byte-identical.
    n, index = 3, 5
    matrix = BasisProjector.from_index(index, n).to_matrix()
    csvs = []
    for name, spelled in [
        ("projector", {"id": "proj", "kind": "basis_projector", "index": index}),
        ("matrix", {"id": "proj", "kind": "matrix", "real": matrix.tolist()}),
    ]:
        cfg = {
            "seed": 8,
            "n": n,
            "ensemble": ensemble,
            "state": {"kind": "random_pure", "seed": 9},
            "shots": 500,
            "batches": 5,
            "observables": [
                {"id": "sym", "kind": "random_symmetric", "seed": 1},
                spelled,
                {"id": "ZZI", "kind": "pauli", "string": "ZZI"},
            ],
            "emit": {"csv": str(tmp_path / f"{name}.csv")},
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["estimate", "--config", str(path)]) == 0
        csvs.append((tmp_path / f"{name}.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_local_projector_run_past_the_cubature_limit():
    # n = 12 on alternating sites: the dense cubature would sum 4^6 6^6 product
    # states, beyond its limit, and a d x d complex array would take 256 MiB.
    n, index, shots = 12, 1234, 2000
    d = 2**n
    groups = PATTERNS["OU"](n)
    with pytest.raises(linalg.ResourceLimitError):
        variance.check_local_cubature(groups)
    observables = [{"id": "proj", "kind": "basis_projector", "index": index}]
    config = ExperimentConfig.from_dict(_local_config(n, observables, shots=shots))
    tracemalloc.start()
    try:
        (report,) = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d * d, peak / 2**20
    # The closed form: Q_j is diagonal, q_j(x_j) = 5/4 or 1/4 on an orthogonal
    # site and 3/2 or 1/2 on a unitary one, as x_j is b_j or not.
    p = np.abs(engine.state_factor(config.state, n)[:, 0]) ** 2
    bits = (np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    b = np.array(BasisProjector.from_index(index, n).bits)
    hit = bits == b
    q = np.where(
        np.array(groups) == "orthogonal", np.where(hit, 1.25, 0.25), np.where(hit, 1.5, 0.5)
    )
    closed = p @ q.prod(axis=1) - p[index] ** 2
    assert abs(report.predicted_variance - closed) <= 1e-12 * closed
    assert abs(report.mean - p[index]) <= 4.0 * np.sqrt(closed / shots)
    assert report.bias_warning is False
