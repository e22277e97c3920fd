"""Pauli strings through their action P|j> = phase[j] |j ^ flip>, checked
against the dense matrices they replace on the run path."""

import itertools
import random

import numpy as np
import pytest

from realshadows import channels, engine
from realshadows.bases import basis_from_tag, computational_basis, sh_basis
from realshadows.channels import (
    channel_for,
    global_ensemble,
    has_invisible_part,
    invert,
    local_ensemble,
    pseudo_inverse,
    visible_projector,
)
from realshadows.engine import ExperimentConfig, collect_records, per_shot_estimates, run_experiment
from realshadows.pauli import PauliString
from realshadows.sampling import RngStream, random_pure_state
from realshadows.variance import _predict_global, predict_variance

GROUPS = ("orthogonal", "unitary")
TAGS = ("computational", "sh", "random:5")


def _strings(n: int, seed: int) -> list[PauliString]:
    """The identity, an even-Y string, an odd-Y string and an even-Y string
    with a complex coefficient."""
    rng = random.Random(seed)

    def with_parity(odd: bool) -> tuple[str, ...]:
        letters = [rng.choice("IXYZ") for _ in range(n)]
        if letters.count("Y") % 2 != odd:
            site = rng.randrange(n)
            letters[site] = "Z" if letters[site] == "Y" else "Y"
        return tuple(letters)

    return [
        PauliString(("I",) * n),
        PauliString(with_parity(False)),
        PauliString(with_parity(True)),
        PauliString(with_parity(False), 0.3 - 0.7j),
    ]


def _mixed_state(seed: int, d: int) -> np.ndarray:
    return 0.7 * random_pure_state(RngStream(seed, (0,)), d) + 0.3 * random_pure_state(
        RngStream(seed, (1,)), d
    )


def test_action_matches_to_matrix():
    for n in (1, 2, 3):
        for letters in itertools.product("IXYZ", repeat=n):
            p = PauliString(letters, 0.5 - 0.25j)
            flip, phase = p.action()
            j = np.arange(2**n)
            dense = np.zeros((2**n, 2**n), dtype=complex)
            dense[j ^ flip, j] = phase
            assert np.array_equal(dense, p.to_matrix()), letters


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("tag", TAGS)
def test_global_estimates_match_dense_reference(group, tag):
    for n in range(1, 7):
        spec = global_ensemble(group, basis_from_tag(tag, n))
        desc = channel_for(spec)
        records = collect_records(RngStream(n, (7,)), _mixed_state(n, spec.d), spec, 40)
        v = records.vectors
        for p in _strings(n, 10 * n):
            m = p.to_matrix()
            reference = np.einsum("sj,jk,sk->s", v.conj(), pseudo_inverse(desc, m), v).real
            fast = per_shot_estimates(records, p)
            assert np.all(np.abs(fast - reference) <= 1e-12 * (1 + np.abs(reference))), (n, p)
            hidden = np.linalg.norm(m - visible_projector(desc, m)) > 1e-10
            assert has_invisible_part(desc, p) == hidden, (n, p)
            if hidden:
                assert np.all(fast == 0.0)


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("tag", TAGS)
def test_global_predictor_matches_dense_words(group, tag):
    for n in range(1, 7):
        spec = global_ensemble(group, basis_from_tag(tag, n))
        rho = _mixed_state(100 + n, spec.d)
        # At n <= 2, also every string: each Y parity, support pattern and the identity.
        every = itertools.product("IXYZ", repeat=n) if n <= 2 else ()
        for p in _strings(n, n) + [PauliString(letters, -1.5 + 0.25j) for letters in every]:
            # predict_variance reads Re(c) P, as the estimates do.
            real = p.coefficient.real * PauliString(p.letters).to_matrix()
            dense = _predict_global(spec, real, rho)
            fast = predict_variance(spec, p, rho)
            assert abs(fast - dense) <= 1e-12 * max(1.0, abs(dense)), (n, p, fast, dense)


def test_odd_y_strings_invisible_in_real_basis_visible_under_sh():
    n = 3
    p = PauliString.from_string("YXZ")
    rho = random_pure_state(RngStream(3), 2**n)
    real = global_ensemble("orthogonal", computational_basis(n))
    records = collect_records(RngStream(4), rho, real, 50)
    assert has_invisible_part(channel_for(real), p)
    assert np.all(per_shot_estimates(records, p) == 0.0)
    assert predict_variance(real, p, rho) == 0.0
    sh = global_ensemble("orthogonal", sh_basis(n))
    assert not has_invisible_part(channel_for(sh), p)
    assert np.any(per_shot_estimates(collect_records(RngStream(4), rho, sh, 50), p) != 0.0)


def test_real_basis_orthogonal_records_are_float(monkeypatch):
    rho = random_pure_state(RngStream(5), 16)
    spec = global_ensemble("orthogonal", computational_basis(4))
    real = collect_records(RngStream(6), rho, spec, 300).vectors
    assert real.dtype == np.float64
    # The same draws kept as complex vectors, as before real records: their
    # imaginary part is exactly zero and their real part is the float record.
    monkeypatch.setattr(engine, "_real_records", lambda spec: False)
    full = collect_records(RngStream(6), rho, spec, 300).vectors
    assert np.iscomplexobj(full) and not full.imag.any()
    assert np.array_equal(real, full.real)


@pytest.mark.parametrize("group, tag", [("orthogonal", "sh"), ("orthogonal", "random:5"),
                                        ("unitary", "computational")])
def test_complex_basis_and_unitary_records_stay_complex(group, tag):
    spec = global_ensemble(group, basis_from_tag(tag, 3))
    records = collect_records(RngStream(7), random_pure_state(RngStream(8), 8), spec, 20)
    assert np.iscomplexobj(records.vectors)


def _config(n, ensemble, observables, **extra):
    return ExperimentConfig.from_dict(
        dict(
            seed=9,
            n=n,
            ensemble=ensemble,
            state={"kind": "random_pure", "seed": 4},
            shots=300,
            batches=3,
            observables=observables,
            **extra,
        )
    )


@pytest.mark.parametrize(
    "ensemble",
    [
        {"scope": "global", "groups": ["orthogonal"], "basis": "computational"},
        {"scope": "global", "groups": ["unitary"], "basis": "sh"},
        {"scope": "local", "groups": ["orthogonal"]},
    ],
)
def test_run_experiment_never_expands_pauli_strings(monkeypatch, ensemble):
    def refuse(self):
        raise AssertionError("to_matrix called on the run path")

    monkeypatch.setattr(PauliString, "to_matrix", refuse)
    observables = [
        {"id": s, "kind": "pauli", "string": s} for s in ("ZXI", "IYY", "YZX", "III")
    ] + [{"id": "sym", "kind": "random_symmetric", "seed": 2}]
    reports = run_experiment(_config(3, ensemble, observables, allow_bias=True))
    assert len(reports) == 5
    assert all(np.isfinite(r.mean) for r in reports)
    assert all(r.predicted_variance is not None for r in reports[:4])


def test_one_pseudo_inverse_per_dense_global_observable(monkeypatch):
    calls = []
    original = channels.pseudo_inverse

    def counted(desc, a):
        calls.append(1)
        return original(desc, a)

    monkeypatch.setattr(channels, "pseudo_inverse", counted)
    observables = [
        {"id": "sym0", "kind": "random_symmetric", "seed": 1},
        {"id": "proj", "kind": "basis_projector", "index": 3},
        {"id": "ZZZ", "kind": "pauli", "string": "ZZZ"},
    ]
    ensemble = {"scope": "global", "groups": ["orthogonal"], "basis": "computational"}
    run_experiment(_config(3, ensemble, observables))
    assert len(calls) == 2


def test_inverted_observable_is_tied_to_its_ensemble():
    a = np.diag([1.0, -1.0])
    inverted = invert(channel_for(global_ensemble("orthogonal", computational_basis(1))), a)
    other = channel_for(global_ensemble("unitary", computational_basis(1)))
    with pytest.raises(ValueError):
        invert(other, inverted)


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("tag", TAGS)
def test_invisible_part_matches_visible_projector(group, tag):
    # The global rule reads the transpose split; the projector is the reference.
    local = channel_for(local_ensemble(["orthogonal", "unitary"], 2))
    descs = [channel_for(global_ensemble(group, basis_from_tag(tag, n))) for n in (1, 2, 3)]
    for desc in descs + [local]:
        gen = RngStream(desc.spec.n, (3,)).generator
        d = desc.spec.d
        a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        visible = visible_projector(desc, a)
        for scale in (0.0, 1e-12, 1e-8, 1.0):
            b = visible + scale * (a - visible)
            invisible = np.linalg.norm(b - visible_projector(desc, b))
            expected = invisible > 1e-10 * max(1.0, np.linalg.norm(b))
            assert has_invisible_part(desc, b) == expected, (desc.spec.label(), scale)
