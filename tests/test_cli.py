import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realshadows import cli, engine, linalg
from realshadows.cli import _ENSEMBLE_CHOICES, _mc_agreement, main
from realshadows.linalg import ResourceLimitError
from realshadows.pauli import BasisProjector
from realshadows.variance import check_local_cubature


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def estimate_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "seed": 3,
            "n": 2,
            "ensemble": {"scope": "local", "groups": ["orthogonal"]},
            "state": {"kind": "random_pure", "seed": 9},
            "shots": 5000,
            "batches": 5,
            "observables": [{"id": "ZZ", "kind": "pauli", "string": "ZZ"}],
            "emit": {"csv": str(tmp_path / "out.csv")},
        },
    )


class TestEstimateCommand:
    def test_writes_csv_and_metadata(self, tmp_path, estimate_config, capsys):
        assert main(["estimate", "--config", estimate_config]) == 0
        out = (tmp_path / "out.csv").read_text()
        lines = out.strip().split("\n")
        assert lines[0] == "observable_id,mean,mom,emp_var,pred_var,shots,bias_warning"
        assert lines[1].startswith("ZZ,")
        assert (tmp_path / "out.csv.meta.json").exists()
        # estimate is close to the truth at 3 sigma
        fields = lines[1].split(",")
        mean, emp_var, shots = float(fields[1]), float(fields[3]), int(fields[5])
        from realshadows.engine import build_state
        from realshadows.linalg import kron
        from realshadows.pauli import Z

        rho = build_state({"kind": "random_pure", "seed": 9}, 2)
        truth = np.trace(kron(Z, Z) @ rho).real
        assert abs(mean - truth) <= 3 * np.sqrt(emp_var / shots)

    def test_same_seed_identical_files(self, tmp_path, estimate_config):
        assert main(["estimate", "--config", estimate_config]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        meta_first = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert main(["estimate", "--config", estimate_config]) == 0
        assert (tmp_path / "out.csv").read_bytes() == first
        meta_second = json.loads((tmp_path / "out.csv.meta.json").read_text())
        meta_first.pop("wall_time_s")
        meta_second.pop("wall_time_s")
        assert meta_first == meta_second

    def test_single_group_spreads_over_local_qubits(self, tmp_path):
        # A local ensemble's single group, as a name or a one-entry list, is
        # the same ensemble as that group written once per qubit.
        written = []
        for i, groups in enumerate(["unitary", ["unitary"], ["unitary"] * 3]):
            cfg = {
                "seed": 4,
                "n": 3,
                "ensemble": {"scope": "local", "groups": groups},
                "state": {"kind": "random_pure", "seed": 2},
                "shots": 300,
                "observables": [
                    {"id": "XZY", "kind": "pauli", "string": "XZY"},
                    {"id": "proj", "kind": "basis_projector", "index": 5},
                ],
                "emit": {"csv": str(tmp_path / f"out{i}.csv")},
            }
            assert main(["estimate", "--config", _write_config(tmp_path, cfg, f"c{i}.json")]) == 0
            written.append((tmp_path / f"out{i}.csv").read_bytes())
        assert written[0] == written[1] == written[2]

    def test_flag_overrides_win(self, tmp_path, estimate_config):
        out2 = str(tmp_path / "other.csv")
        assert main(["estimate", "--config", estimate_config, "--out", out2, "--shots", "100"]) == 0
        lines = (tmp_path / "other.csv").read_text().strip().split("\n")
        assert lines[1].split(",")[5] == "100"

    def test_invisible_observable_rejected_without_allow_bias(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "seed": 1,
                "n": 1,
                "ensemble": {"scope": "global", "groups": ["orthogonal"], "basis": "computational"},
                "state": {"kind": "maximally_mixed"},
                "shots": 50,
                "observables": [{"id": "Y", "kind": "pauli", "string": "Y"}],
            },
        )
        assert main(["estimate", "--config", cfg]) == 2
        assert "allow-bias" in capsys.readouterr().err
        assert main(["estimate", "--config", cfg, "--allow-bias"]) == 0

    @pytest.mark.parametrize(
        "observables, repeated",
        [
            ([{"kind": "pauli", "string": "ZZ"}, {"kind": "pauli", "string": "ZZ"}], "ZZ"),
            ([{"id": "a", "kind": "random_symmetric"}, {"id": "a", "string": "XI"}], "a"),
            ([{"kind": "basis_projector"}, {"id": "projector:0", "string": "XI"}], "projector:0"),
        ],
        ids=["default-pauli", "explicit", "default-and-explicit"],
    )
    def test_duplicate_observable_id_is_refused(
        self, tmp_path, capsys, monkeypatch, observables, repeated
    ):
        # Two CSV rows of one id would be judged against one target; the
        # config is refused before any state is built.
        def refuse(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(engine, "state_factor", refuse)
        cfg = _write_config(
            tmp_path,
            {
                "seed": 1,
                "n": 2,
                "ensemble": {"scope": "global", "groups": ["orthogonal"]},
                "state": {"kind": "maximally_mixed"},
                "shots": 50,
                "observables": observables,
            },
        )
        assert main(["estimate", "--config", cfg]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and f"observable id {repeated!r}" in err

    def test_seed_flag_writes_the_csv_of_that_config_seed(self, tmp_path, estimate_config):
        flagged = tmp_path / "flagged.csv"
        argv = ["estimate", "--config", estimate_config, "--seed", "7", "--out", str(flagged)]
        assert main(argv) == 0
        cfg = json.loads(Path(estimate_config).read_text())
        cfg.update(seed=7, emit={"csv": str(tmp_path / "seeded.csv")})
        assert main(["estimate", "--config", _write_config(tmp_path, cfg, "seeded.json")]) == 0
        assert main(["estimate", "--config", estimate_config]) == 0
        seeded = (tmp_path / "seeded.csv").read_bytes()
        assert flagged.read_bytes() == seeded != (tmp_path / "out.csv").read_bytes()

    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        assert main(["estimate", "--config", _write_config(tmp_path, [1, 2])]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: configuration must be a JSON object\n"

    def test_missing_config_file_is_io_error(self):
        assert main(["estimate", "--config", "/nonexistent/config.json"]) == 3

    def test_schema_violation_is_usage_error(self, tmp_path):
        cfg = _write_config(tmp_path, {"seed": 1})
        assert main(["estimate", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "key,value",
        [
            ("shots", "abc"),
            ("n", 0),
            ("epsilon", 0),
            ("ensemble", {"scope": "global", "basis": "bogus"}),
        ],
    )
    def test_bad_config_value_is_one_line_usage_error(self, tmp_path, capsys, key, value):
        cfg = {
            "seed": 3,
            "n": 1,
            "ensemble": {"scope": "local", "groups": ["orthogonal"]},
            "state": {"kind": "maximally_mixed"},
            "shots": 100,
            "observables": [{"id": "Z", "kind": "pauli", "string": "Z"}],
            "emit": {"csv": str(tmp_path / "out.csv")},
            key: value,
        }
        assert main(["estimate", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert (key if key != "ensemble" else "basis") in err
        assert not (tmp_path / "out.csv").exists()

    @staticmethod
    def _one_qubit_config(emit) -> dict:
        return {
            "seed": 3,
            "n": 1,
            "ensemble": {"scope": "local", "groups": ["orthogonal"]},
            "state": {"kind": "maximally_mixed"},
            "shots": 100,
            "observables": [{"id": "Z", "kind": "pauli", "string": "Z"}],
            "emit": emit,
        }

    @pytest.mark.parametrize("extra", ["records", "json", None])
    def test_emit_takes_only_csv(self, tmp_path, capsys, extra):
        csv = str(tmp_path / "out.csv")
        emit = [csv] if extra is None else {"csv": csv, extra: str(tmp_path / f"out.{extra}")}
        path = _write_config(tmp_path, self._one_qubit_config(emit))
        for flags in ([], ["--out", csv]):
            assert main(["estimate", "--config", path, *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and err.count("\n") == 1
            assert "emit" in err
            assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("n", [14, 20, 30, 10**6])
    def test_oversize_n_fails_before_allocating(self, tmp_path, capsys, n):
        cfg = self._one_qubit_config({"csv": str(tmp_path / "out.csv")})
        cfg["n"] = n
        assert main(["estimate", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "8192" in err and "n <= 13" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("n, shots", [(1, 4611686018427387904), (6, 10**9)])
    def test_oversize_shots_fail_before_allocating(self, tmp_path, capsys, n, shots):
        cfg = self._one_qubit_config({"csv": str(tmp_path / "out.csv")})
        cfg.update(n=n, shots=shots, observables=[{"kind": "pauli", "string": "Z" * n}])
        assert main(["estimate", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert f"{shots} shots" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("tag", ["sh", "random:5", "unknown"])
    def test_local_basis_tag_refused_before_building_it(self, tmp_path, capsys, tag):
        # A 4096 x 4096 complex basis would take 256 MiB before the refusal.
        cfg = self._one_qubit_config({"csv": str(tmp_path / "out.csv")})
        cfg.update(n=12, observables=[{"kind": "pauli", "string": "Z" * 12}])
        cfg["ensemble"] = {"scope": "local", "groups": ["orthogonal"] * 12, "basis": tag}
        path = _write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            code = main(["estimate", "--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20, peak / 2**20
        err = capsys.readouterr().err
        assert err == "configuration error: local ensembles measure in the computational basis\n"
        assert not (tmp_path / "out.csv").exists()

    def test_oversize_cubature_fails_before_any_shot(self, tmp_path, capsys):
        # All-unitary n = 11: 6^11 product states, beyond 8192^2.
        cfg = self._one_qubit_config({"csv": str(tmp_path / "out.csv")})
        cfg.update(
            n=11,
            ensemble={"scope": "local", "groups": "unitary"},
            state={"kind": "computational", "index": 0},
            observables=[{"kind": "random_symmetric", "seed": 3}],
        )
        assert main(["estimate", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "cubature" in err and str(6**11) in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("front_end", ["estimate", "validate-variance"])
    def test_oversize_cubature_refused_before_any_dense_array(self, tmp_path, capsys, front_end):
        # n = 12: a dense observable under all-unitary sites, and validate-variance's
        # alternating sites at d = 4096.  A d x d complex array would take 256 MiB.
        if front_end == "estimate":
            cfg = self._one_qubit_config({"csv": str(tmp_path / "out.csv")})
            cfg.update(
                n=12,
                ensemble={"scope": "local", "groups": "unitary"},
                state={"kind": "random_pure", "seed": 1},
                observables=[{"kind": "random_symmetric", "seed": 2}],
            )
            argv = ["estimate", "--config", _write_config(tmp_path, cfg)]
            groups = ["unitary"] * 12
        else:
            argv = ["validate-variance", "--d", "4096", "--shots", "2"]
            groups = [("orthogonal", "unitary")[j % 2] for j in range(12)]
        with pytest.raises(ResourceLimitError) as refusal:
            check_local_cubature(groups)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20, peak / 2**20
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {refusal.value}\n"
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()

    def test_product_only_local_config_needs_no_cubature(self, tmp_path, capsys, monkeypatch):
        # With a budget of 32^2 = 4^5 entries, all-unitary n = 4 (6^4 points)
        # runs with Pauli strings and basis projectors only, and a dense
        # observable is refused.
        monkeypatch.setattr(linalg, "MAX_KRON_DIM", 32)
        cfg = self._one_qubit_config({"csv": str(tmp_path / "out.csv")})
        cfg.update(n=4, shots=50, ensemble={"scope": "local", "groups": "unitary"})
        cfg["observables"] = [{"kind": "pauli", "string": s} for s in ("ZIII", "XYZI")]
        cfg["observables"].append({"kind": "basis_projector", "index": 3})
        assert main(["estimate", "--config", _write_config(tmp_path, cfg)]) == 0
        cfg["observables"].append({"kind": "random_symmetric", "seed": 3})
        assert main(["estimate", "--config", _write_config(tmp_path, cfg, "dense.json")]) == 2
        assert "cubature" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            ((), None),  # the unmutated config runs
            (("state",), "abc"),
            (("state", "bits"), "102"),
            (("state", "bits"), True),
            (("state", "bits"), "1"),
            (("state", "bits"), "001"),
            (("state", "bits"), "0b1"),
            (("state", "bits"), "1_0"),
            (("observables", 0), [1]),
            (("observables", 0, "coefficient"), "abc"),
            (("observables", 0, "coefficient"), 1e101),
            (("observables", 0, "coefficient"), "1j"),
            (("observables", 0, "string"), "XA"),
            (("observables", 0, "id"), "a,b"),
            (("observables", 0, "id"), 'say "b"'),
            (("observables", 0, "id"), "a\rb"),
            (("observables", 0, "id"), "a\nb"),
            (("observables", 1, "seed"), "x"),
            (("observables", 2, "real"), "x"),
            (("observables", 2, "real"), [[0, 1], [1, 0]]),
            (("observables", 2, "imag"), [[0, 1, 0, 0], [0] * 4, [0] * 4, [0] * 4]),
            (("ensemble", "groups"), 5),
            (("ensemble",), {"scope": "global", "groups": ["orthogonal"], "basis": "random:-1"}),
            (("ensemble", "basis"), "sh"),
            (("emit", "csv"), 1),
            (("emit", "csv"), ""),
            (("emit",), []),
            (("emit",), False),
            (("emit",), ""),
            (("observables", 2, "real"), [[True, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4]),
            (("observables", 2, "imag"), [[0] * 4, [0, False, 0, 0], [0] * 4, [0] * 4]),
            (("epsilon",), 1e-200),
            (("allow_bias",), "false"),
        ],
    )
    def test_bad_nested_value_is_one_line_usage_error(
        self, tmp_path, monkeypatch, capsys, path, value
    ):
        monkeypatch.chdir(tmp_path)
        cfg = copy.deepcopy(_FUZZ_BASES[0])
        if path:
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        code = main(["estimate", "--config", _write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        if not path:
            assert code == 0 and err == ""
            return
        assert code == 2
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("oid", ["NaN", "nan", " inf ", "-Infinity", "+INF", "1e999", "-1E999"])
    def test_non_finite_number_id_is_refused(self, tmp_path, monkeypatch, capsys, oid):
        # CSV readers such as pandas parse such a cell as a float, not as an id.
        monkeypatch.chdir(tmp_path)
        cfg = copy.deepcopy(_FUZZ_BASES[0])
        cfg["observables"][0]["id"] = oid
        assert main(["estimate", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: observable id {oid!r} reads as a non-finite number\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("oid", ["1e99", "-0.5", "nano", "info", "in f"])
    def test_finite_or_non_numeric_id_is_kept(self, tmp_path, monkeypatch, oid):
        monkeypatch.chdir(tmp_path)
        cfg = copy.deepcopy(_FUZZ_BASES[0])
        cfg["observables"][0]["id"] = oid
        assert main(["estimate", "--config", _write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "out.csv").read_text().split("\n")[1].startswith(oid + ",")

    def test_out_flag_with_null_emit(self, tmp_path):
        path = _write_config(tmp_path, self._one_qubit_config(None))
        out = tmp_path / "out.csv"
        assert main(["estimate", "--config", path, "--out", str(out)]) == 0
        assert out.read_text().startswith("observable_id,")

    def test_unknown_flag_is_usage_error(self, estimate_config):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--config", estimate_config, "--frobnicate"])
        assert exc.value.code == 2


class TestValidators:
    def test_validate_channel_passes(self, capsys):
        code = main(
            ["validate-channel", "--d", "4", "--ensemble", "global-orthogonal", "--samples", "20000", "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "max entrywise" in out

    def test_validate_channel_reports_visible_space(self, capsys):
        code = main(
            ["validate-channel", "--d", "2", "--ensemble", "global-orthogonal", "--basis", "sh", "--samples", "5000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "span{I, Y}" in out

    def test_validate_channel_unitary_matches_depolarizing(self, capsys):
        code = main(
            ["validate-channel", "--d", "4", "--ensemble", "global-unitary", "--samples", "20000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        # D_{d/(d+1)} at d = 4: p = 0.8, traceless blocks scale by 1/5
        assert "p_alpha=0.8" in out
        assert "sym=0.2" in out and "anti=0.2" in out

    @pytest.mark.parametrize("group", ["orthogonal", "unitary"])
    def test_validate_channel_one_qubit_scopes_print_one_channel(self, group, capsys):
        # At d = 2 both flags build one qubit factor measured in the
        # computational basis, drawn from the same stream, so every line but
        # the ensemble's name is the same: spectrum, visible space and the
        # Monte Carlo agreement.
        reported = []
        for scope in ("local", "global"):
            argv = ["validate-channel", "--d", "2", "--ensemble", f"{scope}-{group}"]
            assert main(argv + ["--samples", "2000"]) == 0
            lines = capsys.readouterr().out.splitlines()
            reported.append([line for line in lines if not line.startswith("ensemble:")])
        assert reported[0] == reported[1]
        assert [line.split(":")[0] for line in reported[0]] == [
            "spectrum",
            "visible dimension",
            "max entrywise |MC - closed form|",
            "entries beyond 3 sigma",
            "channel validation",
        ]

    def test_validate_channel_rejects_large_dimension(self):
        assert main(["validate-channel", "--d", "32"]) == 2

    @pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (8, 2)])
    def test_validate_twirl(self, d, k, capsys):
        code = main(["validate-twirl", "--d", str(d), "--k", str(k), "--samples", "4000"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [1, 23, 24])
    def test_validate_twirl_passes_with_correlated_excursions(self, seed, capsys):
        # These seeds put more than 2% of the (symmetry-related) entries of
        # the random real vector beyond 3 sigma, with every z-score below 6.
        argv = ["validate-twirl", "--d", "4", "--k", "3", "--samples", "2000", "--seed", str(seed)]
        code = main(argv)
        assert code == 0
        assert "twirl validation: PASS" in capsys.readouterr().out

    def test_mc_agreement_fails_beyond_six_sigma(self):
        stderr = np.full(64, 0.1)
        diff = np.full(64, 0.05)
        assert _mc_agreement(diff, stderr) == (0, 0.5, True)
        diff[7] = 0.7  # 7 sigma
        count, max_z, passed = _mc_agreement(diff, stderr)
        assert (count, passed) == (1, False)
        assert max_z == pytest.approx(7.0)

    def test_validate_twirl_resource_limit(self):
        assert main(["validate-twirl", "--d", "16", "--k", "3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate-twirl", "--d", "1"],
            ["validate-twirl", "--samples", "0"],
            ["validate-channel", "--d", "0"],
            ["validate-channel", "--samples", "0"],
            ["validate-channel", "--basis", "bogus"],
            ["ratio-sweep", "--n-min", "0"],
            ["ratio-sweep", "--instances", "1"],
            ["validate-variance", "--d", "3"],
            ["validate-variance", "--shots", "1"],
            ["validate-variance", "--d", "16384"],
            ["validate-variance", "--d", "4", "--shots", "100000000000"],
            ["ratio-sweep", "--n-min", "1", "--n-max", "2", "--instances", "100000000000"],
            ["validate-channel", "--basis", "random:-1"],
            ["validate-channel", "--basis", "random:18446744073709551616"],
            ["validate-channel", "--basis", "random:"],
            ["validate-channel", "--basis", "random:1e3"],
            ["validate-channel", "--ensemble", "local-orthogonal", "--basis", "sh"],
            ["validate-twirl", "--seed=-1"],
            ["validate-channel", "--seed", "18446744073709551616"],
            ["validate-variance", "--seed=-1"],
            ["ratio-sweep", "--seed=-1"],
            ["estimate", "--config", "missing.json", "--seed=-1"],
        ],
        ids="_".join,
    )
    def test_bad_flag_is_one_line_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["validate-channel", "--basis", "random:"], "basis tag 'random:'"),
            (["validate-channel", "--basis", "random:1e3"], "basis tag 'random:1e3'"),
            (
                ["validate-channel", "--ensemble", "local-unitary", "--basis", "sh"],
                "local ensembles measure in the computational basis",
            ),
            (["validate-twirl", "--seed=-1"], "--seed"),
            (["ratio-sweep", f"--seed={2**64}"], "--seed"),
        ],
    )
    def test_bad_seed_names_the_tag_or_flag(self, argv, named, capsys):
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_validate_variance_names_the_size_limit(self, capsys):
        assert main(["validate-variance", "--d", str(2**30)]) == 2
        assert "8192" in capsys.readouterr().err

    def test_validate_variance(self, capsys):
        code = main(["validate-variance", "--d", "4", "--shots", "40000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "real=2.0" in out and "unitary=3.0" in out

    def test_validate_variance_fails_a_four_percent_misprediction(self, monkeypatch, capsys):
        # At 100,000 shots a prediction 4% high sits near 10 standard errors of
        # the empirical variance; the pinned d = 2 values stay exact.
        exact = cli.predict_variance

        def high(spec, a, psi):
            dense = spec.d == 4 and not isinstance(a, BasisProjector)
            return exact(spec, a, psi) * (1.04 if dense else 1.0)

        monkeypatch.setattr(cli, "predict_variance", high)
        assert main(["validate-variance", "--d", "4", "--shots", "100000"]) == 1
        out = capsys.readouterr().out
        assert "real=2.0, unitary=3.0" in out
        assert out.count("-> FAIL") == 3 and "variance validation: FAIL" in out

    def test_validate_variance_fails_a_mispredicted_projector(self, monkeypatch, capsys):
        # The projector's estimates have heavier tails: 8% high sits near 12
        # standard errors at 100,000 shots, and only its line fails.
        exact = cli.predict_variance

        def high(spec, a, psi):
            return exact(spec, a, psi) * (1.08 if isinstance(a, BasisProjector) else 1.0)

        monkeypatch.setattr(cli, "predict_variance", high)
        assert main(["validate-variance", "--d", "4", "--shots", "100000"]) == 1
        out = capsys.readouterr().out
        failed = [line for line in out.split("\n") if line.endswith("-> FAIL")]
        assert [line.split(": ")[0].split(" ")[-1] for line in failed] == ["projector:2"] * 3
        assert [line.split(" ")[0] for line in failed] == [
            "global-orthogonal(computational)",
            "global-unitary(computational)",
            "local-orthogonal,unitary(computational)",
        ]


class TestRatioSweep:
    def test_csv_schema_and_trend(self, tmp_path, capsys):
        out = str(tmp_path / "ratio.csv")
        code = main(
            ["ratio-sweep", "--n-min", "1", "--n-max", "2", "--instances", "30", "--out", out]
        )
        assert code == 0
        lines = (tmp_path / "ratio.csv").read_text().strip().split("\n")
        assert lines[0] == "n,instance_id,var_real_exact,var_unitary_exact,ratio"
        assert len(lines) == 61
        ratios = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(r <= 1.0 + 1e-12 for r in ratios)

    def test_rejects_large_n(self):
        assert main(["ratio-sweep", "--n-max", "9", "--instances", "2"]) == 2


#: Valid configurations that the fuzz test mutates; the first also serves
#: test_bad_nested_value_is_one_line_usage_error.
_FUZZ_BASES = [
    {
        "seed": 1,
        "n": 2,
        "ensemble": {"scope": "local", "groups": ["orthogonal", "unitary"]},
        "state": {"kind": "computational", "bits": "01"},
        "shots": 20,
        "batches": 2,
        "epsilon": 0.1,
        "allow_bias": True,
        "observables": [
            {"id": "XZ", "kind": "pauli", "string": "XZ", "coefficient": 0.5},
            {"kind": "random_symmetric", "seed": 1},
            {"kind": "matrix", "real": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]},
            {"kind": "basis_projector", "index": 3},
        ],
        "emit": {"csv": "out.csv"},
    },
    {
        "seed": 2,
        "n": 3,
        "ensemble": {"scope": "global", "groups": ["orthogonal"], "basis": "random:3"},
        "state": {"kind": "random_pure", "seed": 4},
        "shots": 10,
        "allow_bias": True,
        "observables": [
            {"kind": "random_symmetric", "seed": 2},
            {"id": "YZI", "kind": "pauli", "string": "YZI"},
        ],
        "emit": {"csv": "out.csv"},
    },
    {
        "seed": 3,
        "n": 1,
        "ensemble": {"scope": "global", "groups": "unitary", "basis": "sh"},
        "state": {"kind": "product", "factors": ["+i"]},
        "shots": 5,
        "observables": [{"kind": "pauli", "string": "Y"}],
        "emit": {"csv": "out.csv"},
    },
]

_JUNK = [
    "abc", "", "102", "a,b", "x\ny", "sh", "random:x", "local", "unitary", -1, 0, 1, 2, 3,
    2.5, 2**70, 1e300, 1e-300, float("nan"), float("inf"), None, True, [], [1], {},
    {"kind": "pauli"},
]


@st.composite
def _mutated_configs(draw):
    """A base config with one to three values, mostly nested ones, replaced
    by junk or (one time in four) removed."""
    cfg = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = cfg
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 2)):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if parent is None:
            continue
        junk = [j for j in _JUNK if key != "shots" or not isinstance(j, (int, float)) or j <= 20]
        if isinstance(parent, dict) and not draw(st.integers(0, 3)):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(junk)))
    return cfg


def _finite_cells(csv: str) -> bool:
    lines = csv.strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    numbers = [cell for row in rows for cell in row[1:6]]
    return all(len(row) == 7 for row in rows) and all(math.isfinite(float(c)) for c in numbers)


@settings(max_examples=300, deadline=None)
@given(_mutated_configs())
def test_fuzzed_configs_run_or_fail_with_one_line(cfg):
    # Shots stay <= 20 and n <= 3 (or beyond the size budget), so each run is small.
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["estimate", "--config", "config.json"])
            written = {p.name: p.read_text() for p in Path(".").iterdir() if p.name != "config.json"}
        finally:
            os.chdir(cwd)
    if code == 2:
        assert err.getvalue().startswith("configuration error:"), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
        return
    assert code == 0, (code, err.getvalue())
    for name, text in written.items():
        if name.endswith(".meta.json"):
            json.loads(text, parse_constant=lambda c: pytest.fail(f"{name} holds {c}"))
        else:
            assert _finite_cells(text), text


#: Valid validator flags that the flag fuzz test mutates, one set per command.
_FLAG_BASES = [
    ("validate-twirl", {"--d": 2, "--k": 2, "--samples": 50, "--seed": 1}),
    (
        "validate-channel",
        {"--d": 4, "--ensemble": "global-unitary", "--basis": "sh", "--samples": 50, "--seed": 2},
    ),
    ("validate-variance", {"--d": 4, "--shots": 100, "--seed": 3}),
    ("ratio-sweep", {"--n-min": 1, "--n-max": 2, "--instances": 20, "--seed": 4}),
]

#: Replacement values per flag.  Every run stays small: d <= 8, samples,
#: shots and instances <= 200, and --n-max <= 3.
_FLAG_VALUES = {
    "--d": st.integers(-2, 8),
    "--k": st.integers(-1, 4),
    "--samples": st.integers(-2, 200),
    "--shots": st.integers(-2, 200),
    "--instances": st.integers(-2, 200),
    "--n-min": st.integers(-2, 4),
    "--n-max": st.integers(-2, 3),
    "--seed": st.integers(-(2**70), 2**70),
    "--ensemble": st.sampled_from(_ENSEMBLE_CHOICES),
    "--basis": st.sampled_from(["computational", "sh", "random:3", "random:x", "bogus", ""]),
}

#: Flags whose default is small, so that a run without them stays small.
_DROPPABLE = {"--d", "--k", "--n-min", "--seed", "--ensemble", "--basis"}


@st.composite
def _mutated_flags(draw):
    """A base flag set with one to three flags replaced or (one time in four,
    if its default is small) dropped, as `--flag=value` so that a negative
    value stays a value."""
    command, flags = draw(st.sampled_from(_FLAG_BASES))
    flags = dict(flags)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3, unique=True)):
        if flag in _DROPPABLE and not draw(st.integers(0, 3)):
            del flags[flag]
        else:
            flags[flag] = draw(_FLAG_VALUES[flag])
    return [command] + [f"{flag}={value}" for flag, value in flags.items()]


@settings(max_examples=150, deadline=None)
@given(_mutated_flags())
def test_fuzzed_validator_flags_run_or_fail_with_one_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "ratio.csv"
        if argv[0] == "ratio-sweep":
            argv = argv + [f"--out={csv}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = csv.read_text() if csv.exists() else None
    if code == 2:
        assert err.getvalue().startswith("configuration error:"), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
        return
    assert code in (0, 1) and err.getvalue() == "", (code, err.getvalue())
    assert not re.search(r"\b(nan|inf)\b", out.getvalue(), re.IGNORECASE), out.getvalue()
    if written is not None:
        cells = [cell for line in written.strip().split("\n")[1:] for cell in line.split(",")]
        assert all(math.isfinite(float(cell)) for cell in cells), written


def test_parser_is_built_once_and_commands_are_looked_up_per_call(monkeypatch, capsys):
    # The cached parser binds no function: a cmd_* rebound on the module after
    # the first call is the one the second call runs.
    assert cli.build_parser() is cli.build_parser()
    argv = ["validate-twirl", "--d", "2", "--k", "2", "--samples", "200"]
    assert main(argv) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_validate_twirl", lambda args: seen.append(args.d) or 7)
    assert main(argv) == 7
    assert seen == [2]
