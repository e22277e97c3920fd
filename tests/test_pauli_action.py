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
from realshadows.engine import (
    ExperimentConfig,
    collect_records,
    per_shot_table,
    run_experiment,
)
from realshadows.pauli import PauliString
from realshadows.sampling import RngStream, haar_state_vector
from realshadows.variance import _predict_global, _subtract_trace, predict_variance

from references import random_pure_state, validate_state

GROUPS = ("orthogonal", "unitary")
TAGS = ("computational", "sh", "random:5")


def _strings(n: int, seed: int) -> list[PauliString]:
    """The identity, an even-Y string, an odd-Y string and an even-Y string
    with a coefficient other than 1."""
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
        PauliString(with_parity(False), -0.7),
    ]


def _mixed_state(seed: int, d: int) -> np.ndarray:
    return 0.7 * random_pure_state(RngStream(seed, (0,)), d) + 0.3 * random_pure_state(
        RngStream(seed, (1,)), d
    )


def test_action_matches_to_matrix():
    # action() is the bare string's; to_matrix() is c P.
    for n in (1, 2, 3):
        for letters in itertools.product("IXYZ", repeat=n):
            p = PauliString(letters, -0.75)
            flip, phase = p.action()
            j = np.arange(2**n)
            dense = np.zeros((2**n, 2**n), dtype=complex)
            dense[j ^ flip, j] = phase
            assert np.array_equal(p.coefficient * dense, p.to_matrix()), letters


def test_action_is_computed_once_and_read_only():
    # The cached action lives outside the fields: == and hash are those of
    # a fresh string, and expectations read the same values as before.
    p = PauliString(("X", "Y", "Z", "Y"), 0.5)
    rows = RngStream(32).generator.standard_normal((4, 16)) + 0j
    first = p.expectations(rows)
    flip, phase = p.action()
    assert p.action()[1] is phase and p.action()[0] == flip
    assert not phase.flags.writeable
    with pytest.raises(ValueError):
        phase[0] = 0.0
    fresh = PauliString(("X", "Y", "Z", "Y"), 0.5)
    assert p == fresh and hash(p) == hash(fresh)
    assert np.array_equal(p.expectations(rows), first)
    assert np.array_equal(fresh.expectations(rows), first)


def test_expectations_match_to_matrix():
    # c <v|P|v> for every string at n <= 3: on real and complex (S, d) rows,
    # and on (S, n, 2) unit per-site vectors against their Kronecker products.
    gen = RngStream(31).generator
    for n in (1, 2, 3):
        d = 2**n
        real = gen.standard_normal((5, d))
        complex_rows = real + 1j * gen.standard_normal((5, d))
        sites = gen.standard_normal((5, n, 2)) + 1j * gen.standard_normal((5, n, 2))
        sites /= np.linalg.norm(sites, axis=2, keepdims=True)  # unit, as measured site vectors
        joined = sites[:, 0]
        for j in range(1, n):
            joined = np.einsum("sa,sb->sab", joined, sites[:, j]).reshape(5, -1)
        for letters in itertools.product("IXYZ", repeat=n):
            p = PauliString(letters, -1.25)
            m = p.to_matrix()
            for vectors, rows in ((real, real), (complex_rows, complex_rows), (sites, joined)):
                dense = np.einsum("sj,jk,sk->s", rows.conj(), m, rows).real
                fast = p.expectations(vectors)
                assert fast.dtype == np.float64
                assert np.all(np.abs(fast - dense) <= 1e-12 * (1 + np.abs(dense))), letters


def test_expectations_refuse_vectors_of_another_shape():
    p = PauliString.from_string("XZ")
    for shape in ((3, 8), (3, 3, 2), (3, 2, 3), (4,)):
        with pytest.raises(ValueError):
            p.expectations(np.ones(shape))


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("tag", TAGS)
def test_global_estimates_match_dense_reference(group, tag):
    for n in range(1, 7):
        spec = global_ensemble(group, basis_from_tag(tag, n))
        desc = channel_for(spec)
        factor = validate_state(_mixed_state(n, spec.d))
        records = collect_records(RngStream(n, (7,)), factor, spec, 40)
        v = records.vectors
        for p in _strings(n, 10 * n):
            m = p.to_matrix()
            reference = np.einsum("sj,jk,sk->s", v.conj(), pseudo_inverse(desc, m), v).real
            fast = per_shot_table(records, [p])[0]
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
        factor = validate_state(_mixed_state(100 + n, spec.d))
        # At n <= 2, also every string: each Y parity, support pattern and the identity.
        every = itertools.product("IXYZ", repeat=n) if n <= 2 else ()
        for p in _strings(n, n) + [PauliString(letters, -1.5) for letters in every]:
            inverted = invert(channel_for(spec), p.to_matrix())
            tilde = _subtract_trace(inverted.inverse, inverted.trace)
            dense = _predict_global(spec, tilde, factor)
            fast = predict_variance(spec, p, factor)
            assert abs(fast - dense) <= 1e-12 * max(1.0, abs(dense)), (n, p, fast, dense)


def test_odd_y_strings_invisible_in_real_basis_visible_under_sh():
    n = 3
    p = PauliString.from_string("YXZ")
    psi = validate_state(random_pure_state(RngStream(3), 2**n))
    real = global_ensemble("orthogonal", computational_basis(n))
    records = collect_records(RngStream(4), psi, real, 50)
    assert has_invisible_part(channel_for(real), p)
    assert np.all(per_shot_table(records, [p])[0] == 0.0)
    assert predict_variance(real, p, psi) == 0.0
    sh = global_ensemble("orthogonal", sh_basis(n))
    assert not has_invisible_part(channel_for(sh), p)
    assert np.any(per_shot_table(collect_records(RngStream(4), psi, sh, 50), [p])[0] != 0.0)


def test_real_basis_orthogonal_records_are_float(monkeypatch):
    psi = validate_state(random_pure_state(RngStream(5), 16))
    spec = global_ensemble("orthogonal", computational_basis(4))
    real = collect_records(RngStream(6), psi, spec, 300).vectors
    assert real.dtype == np.float64
    # The same draws formed in complex arithmetic: their imaginary part is
    # exactly zero and their real part is the float record, up to rounding.
    monkeypatch.setattr(engine, "_real_records", lambda spec: False)
    full = collect_records(RngStream(6), psi, spec, 300).vectors
    assert np.iscomplexobj(full) and not full.imag.any()
    assert np.max(np.abs(real - full.real)) <= 1e-15


@pytest.mark.parametrize("group, tag", [("orthogonal", "sh"), ("orthogonal", "random:5"),
                                        ("unitary", "computational")])
def test_complex_basis_and_unitary_records_stay_complex(group, tag):
    spec = global_ensemble(group, basis_from_tag(tag, 3))
    psi = validate_state(random_pure_state(RngStream(8), 8))
    records = collect_records(RngStream(7), psi, spec, 20)
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
        calls.append(np.shape(a)[:-2])
        return original(desc, a)

    monkeypatch.setattr(channels, "pseudo_inverse", counted)
    observables = [
        {"id": "sym0", "kind": "random_symmetric", "seed": 1},
        {"id": "sym1", "kind": "random_symmetric", "seed": 2},
        {"id": "ZZZ", "kind": "pauli", "string": "ZZZ"},
    ]
    ensemble = {"scope": "global", "groups": ["orthogonal"], "basis": "computational"}
    run_experiment(_config(3, ensemble, observables))
    # Both dense observables are real and fit one block: one pass inverts the two.
    assert calls == [(2,)]


def test_inverted_observable_is_tied_to_its_ensemble():
    a = np.diag([1.0, -1.0])
    inverted = invert(channel_for(global_ensemble("orthogonal", computational_basis(1))), a)
    other = channel_for(global_ensemble("unitary", computational_basis(1)))
    with pytest.raises(ValueError):
        invert(other, inverted)


@pytest.mark.parametrize(
    "spec",
    [
        global_ensemble("unitary", computational_basis(1)),
        global_ensemble("orthogonal", computational_basis(1)),
        local_ensemble("unitary", 1),
    ],
    ids=lambda spec: spec.label(),
)
def test_non_hermitian_matrix_is_refused(spec):
    # Its estimates would read its Hermitian part under one ensemble and not
    # under another; every dense entry point refuses it instead.
    a = np.array([[1.0, 2.0], [0.0, -1.0]])
    factor = haar_state_vector(RngStream(1), 2)[:, None]
    records = collect_records(RngStream(2), factor, spec, 10)
    with pytest.raises(ValueError, match="Hermitian"):
        invert(channel_for(spec), a)
    with pytest.raises(ValueError, match="Hermitian"):
        predict_variance(spec, a, factor)
    with pytest.raises(ValueError, match="Hermitian"):
        per_shot_table(records, [a])


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("tag", TAGS)
def test_invisible_part_matches_visible_projector(group, tag):
    # The global rule reads the transpose split; the projector is the reference.
    local = local_ensemble(["orthogonal", "unitary"], 2)
    specs = [global_ensemble(group, basis_from_tag(tag, n)) for n in (1, 2, 3)]
    for spec in specs + [local]:
        desc = channel_for(spec)
        gen = RngStream(spec.n, (3,)).generator
        d = spec.d
        a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        visible = visible_projector(desc, a)
        for scale in (0.0, 1e-12, 1e-8, 1.0):
            b = visible + scale * (a - visible)
            invisible = np.linalg.norm(b - visible_projector(desc, b))
            expected = invisible > 1e-10 * max(1.0, np.linalg.norm(b))
            assert has_invisible_part(desc, b) == expected, (spec.label(), scale)
