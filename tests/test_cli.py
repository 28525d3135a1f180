import json
import subprocess
import sys

import numpy as np
import pytest

from robust_miso import cli
from robust_miso.formulations import SphereUncertainty
from robust_miso.harness import sample_scenario


def write_scenario(tmp_path, mapping, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return str(path)


def single_user_mapping(rate=1.0, radius=0.2):
    return {
        "n": 3,
        "k": 1,
        "noise_power": [0.1],
        "rate_targets": [rate],
        "uncertainty": {"type": "sphere", "parameters": {"radius": radius}},
        "channels": {
            "re": [[1.0], [0.0], [0.0]],
            "im": [[0.0], [0.0], [0.0]],
        },
    }


def sampled_mapping(n=4, k=3, rate=1.0, eps2=0.1, seed=0, sigma2=0.1, rho=1.0):
    return {
        "n": n,
        "k": k,
        "noise_power": [sigma2] * k,
        "rate_targets": [rate] * k,
        "uncertainty": {"type": "sphere", "parameters": {"radius": float(np.sqrt(eps2))}},
        "channels": {"seed": seed, "rho": rho},
    }


def orthonormal_mapping(n, k, rate=1.0, radius=None):
    eye = np.eye(n)[:, :k]
    return {
        "n": n,
        "k": k,
        "noise_power": [0.1] * k,
        "rate_targets": [rate] * k,
        "uncertainty": {
            "type": "sphere",
            "parameters": {"radius": radius if radius is not None else float(np.sqrt(0.1))},
        },
        "channels": {"re": eye.tolist(), "im": np.zeros((n, k)).tolist()},
    }


class TestScenarioParsing:
    def test_explicit_channels_round_trip(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        mapping = {
            "n": 4,
            "k": 2,
            "noise_power": [0.1, 0.2],
            "rate_targets": [1.0, 1.5],
            "uncertainty": {"type": "sphere", "parameters": {"radius": [0.1, 0.2]}},
            "channels": {"re": h.real.tolist(), "im": h.imag.tolist()},
        }
        sc = cli.scenario_from_mapping(mapping)
        np.testing.assert_allclose(sc.presumed, h)
        np.testing.assert_allclose(sc.uncertainty.radius, [0.1, 0.2])

    def test_seeded_channels_match_sampler(self):
        sc = cli.scenario_from_mapping(sampled_mapping(seed=42))
        expect = sample_scenario(42, 4, 3, 1.0, 1.0, 1.0, 1.0).presumed
        np.testing.assert_array_equal(sc.presumed, expect)

    def test_scalar_radius_broadcasts(self):
        sc = cli.scenario_from_mapping(sampled_mapping(k=3))
        assert isinstance(sc.uncertainty, SphereUncertainty)
        assert sc.uncertainty.radius.shape == (3,)

    def test_other_models_parse(self):
        base = sampled_mapping(k=2, n=3)
        shape = np.stack([0.01 * np.eye(3), 0.02 * np.eye(3)])
        base["uncertainty"] = {
            "type": "ellipsoid",
            "parameters": {
                "shape": {"re": shape.tolist(), "im": np.zeros_like(shape).tolist()}
            },
        }
        assert cli.scenario_from_mapping(base).uncertainty.kind == "ellipsoid"
        base["uncertainty"] = {"type": "fdd", "parameters": {"direction_error": 0.1}}
        assert cli.scenario_from_mapping(base).uncertainty.kind == "fdd"
        base["uncertainty"] = {"type": "box", "parameters": {"halfwidth": 0.05}}
        assert cli.scenario_from_mapping(base).uncertainty.kind == "box"

    def test_missing_keys_rejected(self):
        mapping = single_user_mapping()
        del mapping["uncertainty"]
        with pytest.raises(cli.ScenarioError, match="missing"):
            cli.scenario_from_mapping(mapping)

    def test_bad_inputs_rejected(self, tmp_path, capsys):
        mapping = single_user_mapping()
        mapping["channels"] = {"re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(cli.ScenarioError, match="channels"):
            cli.scenario_from_mapping(mapping)
        mapping = single_user_mapping()
        mapping["uncertainty"]["type"] = "polytope"
        with pytest.raises(cli.ScenarioError, match="unknown uncertainty"):
            cli.scenario_from_mapping(mapping)
        mapping = single_user_mapping()
        mapping["noise_power"] = [-0.1]
        with pytest.raises(cli.ScenarioError):
            cli.scenario_from_mapping(mapping)
        # Values of the wrong type or range are bad input (exit 3), not a
        # TypeError, a bare ValueError or NaN channels.
        malformed = []
        mapping = single_user_mapping()
        mapping["uncertainty"] = {"type": "fdd", "parameters": {"direction_error": [0.1]}}
        malformed.append((mapping, "direction_error"))
        mapping = single_user_mapping()
        mapping["noise_power"] = {"a": 1}
        malformed.append((mapping, "noise_power"))
        malformed.append((sampled_mapping(n=3, k=1) | {"channels": {"seed": "abc"}}, "seed"))
        malformed.append((sampled_mapping(n=3, k=1) | {"channels": {"seed": 1, "rho": -1}}, "rho"))
        for mapping, match in malformed:
            with pytest.raises(cli.ScenarioError, match=match):
                cli.scenario_from_mapping(mapping)
        path = write_scenario(tmp_path, malformed[0][0])
        assert cli.main(["certify", "--scenario", path]) == 3
        assert "direction_error" in capsys.readouterr().err


class TestSolveCommand:
    def test_single_user_closed_form(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_user_mapping())
        out = tmp_path / "report.json"
        assert cli.main(["solve", "--scenario", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        # gamma sigma^2 / (1 - 0.2)^2 with gamma = 1 at one bit.
        assert report["objective"] == pytest.approx(0.15625, rel=1e-6)
        assert report["numerical_ranks"] == [1]
        assert report["worst_case_margins"][0] <= 1e-6
        assert report["solver"]["status"] == "Optimal"

    def test_report_round_trips_losslessly(self, tmp_path):
        path = write_scenario(tmp_path, single_user_mapping())
        out = tmp_path / "report.json"
        cli.main(["solve", "--scenario", path, "--out", str(out)])
        first = json.loads(out.read_text())
        again = json.loads(json.dumps(first))
        assert again == first

    def test_infeasible_rate_exits_one(self, tmp_path):
        path = write_scenario(tmp_path, sampled_mapping(rate=6.6582))
        out = tmp_path / "report.json"
        assert cli.main(["solve", "--scenario", path, "--out", str(out)]) == 1

    def test_solver_failure_exits_two_with_stats(self, tmp_path, capsys):
        mapping = sampled_mapping(rate=2.0, eps2=1000.0, seed=2, sigma2=1e-7, rho=1e4)
        path = write_scenario(tmp_path, mapping)
        out = tmp_path / "report.json"
        rc = cli.main(["solve", "--scenario", path, "--out", str(out)])
        assert rc == cli.EXIT_SOLVER_FAILURE
        stats = json.loads(out.read_text())["solver"]
        assert stats["status"] == "NumericalFailure"
        assert stats["message"]
        assert "solve: NumericalFailure" in capsys.readouterr().err

    def test_malformed_file_exits_three_without_output(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        out = tmp_path / "report.json"
        rc = cli.main(["solve", "--scenario", str(bad), "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_missing_file_exits_three(self, tmp_path):
        rc = cli.main(["solve", "--scenario", str(tmp_path / "nope.json")])
        assert rc == 3

    def test_bad_tolerance_exits_three(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_user_mapping())
        assert cli.main(["solve", "--scenario", path, "--tol", "-1"]) == 3

    def test_no_stray_temp_files(self, tmp_path):
        path = write_scenario(tmp_path, single_user_mapping())
        out = tmp_path / "report.json"
        cli.main(["solve", "--scenario", path, "--out", str(out)])
        stray = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert stray == []


class TestCertifyCommand:
    def test_orthonormal_margins(self, tmp_path, capsys):
        path = write_scenario(tmp_path, orthonormal_mapping(4, 3))
        assert cli.main(["certify", "--scenario", path]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["theorem1"], [10 / 3] * 3, rtol=1e-12)
        assert report["song"] is None

    def test_single_user_unit_margin(self, tmp_path, capsys):
        mapping = single_user_mapping()
        mapping["channels"]["re"] = [[float(np.sqrt(0.3))], [0.0], [0.0]]
        mapping["uncertainty"]["parameters"]["radius"] = float(np.sqrt(0.1))
        path = write_scenario(tmp_path, mapping)
        assert cli.main(["certify", "--scenario", path]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["theorem1"], [1.0], atol=1e-12)

    def test_identity_ellipsoid_matches_sphere(self, tmp_path, capsys):
        sphere_path = write_scenario(tmp_path, orthonormal_mapping(4, 3), "s.json")
        cli.main(["certify", "--scenario", sphere_path])
        sphere = json.loads(capsys.readouterr().out)
        mapping = orthonormal_mapping(4, 3)
        shape = np.stack([0.1 * np.eye(4)] * 3)
        mapping["uncertainty"] = {
            "type": "ellipsoid",
            "parameters": {
                "shape": {"re": shape.tolist(), "im": np.zeros_like(shape).tolist()}
            },
        }
        ell_path = write_scenario(tmp_path, mapping, "e.json")
        cli.main(["certify", "--scenario", ell_path])
        ell = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(ell["ellipsoid"], sphere["theorem1"], rtol=1e-9)

    def test_v_star_adds_song_margin(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_user_mapping())
        assert cli.main(["certify", "--scenario", path, "--v-star", "0.15625"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["song"][0] == pytest.approx(0.6, abs=1e-9)

    def test_bad_v_star_exits_three(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_user_mapping())
        assert cli.main(["certify", "--scenario", path, "--v-star", "-1.0"]) == 3


class TestMmfCommand:
    def test_single_user_closed_form(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_user_mapping())
        assert cli.main(["mmf", "--scenario", path, "--power", "2.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        expect = np.log2(1.0 + 0.64 * 2.0 / 0.1)
        assert report["feasible"] is True
        assert report["rate"] == pytest.approx(expect, abs=1.5e-3)
        assert report["power"] <= 2.0

    def test_zero_power_flagged(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_user_mapping())
        assert cli.main(["mmf", "--scenario", path, "--power", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"rate": 0.0, "power": 0.0, "feasible": False}

    def test_doubling_power_increases_rate(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_user_mapping())
        cli.main(["mmf", "--scenario", path, "--power", "1.0"])
        low = json.loads(capsys.readouterr().out)["rate"]
        cli.main(["mmf", "--scenario", path, "--power", "2.0"])
        high = json.loads(capsys.readouterr().out)["rate"]
        assert high > low

    def test_negative_power_exits_three(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_user_mapping())
        assert cli.main(["mmf", "--scenario", path, "--power", "-1"]) == 3


class TestStudyCommands:
    def test_rank_study_csv(self, tmp_path):
        out = tmp_path / "rank.csv"
        rc = cli.main(
            ["rank-study", "--n", "4", "--k", "3", "--rates", "0.5,2.0",
             "--trials", "3", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,trials,feasible,rank_one,thm1_holds,song_holds,failures"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        counts = [int(v) for v in first[1:]]
        assert counts[0] == 3 and 0 <= counts[2] <= counts[1] <= 3

    def test_rank_study_deterministic_bytes(self, tmp_path):
        args = ["rank-study", "--n", "4", "--k", "2", "--rates", "1.0",
                "--trials", "2", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cert_study_csv(self, tmp_path):
        out = tmp_path / "cert.csv"
        rc = cli.main(
            ["cert-study", "--n", "4", "--k", "3", "--rates", "0.5",
             "--trials", "4", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,thm1_prob,song_prob,feasible_prob,prop1_bound"
        values = [float(v) for v in lines[1].split(",")]
        assert values[0] == 0.5
        for prob in values[1:4]:
            assert 0.0 <= prob <= 1.0

    def test_csv_numbers_round_trip(self, tmp_path):
        out = tmp_path / "cert.csv"
        cli.main(
            ["cert-study", "--n", "4", "--k", "2", "--rates", "1.3701",
             "--trials", "2", "--seed", "0", "--out", str(out)]
        )
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[0]) == 1.3701

    def test_bad_rates_exit_three(self, tmp_path, capsys):
        rc = cli.main(
            ["rank-study", "--n", "4", "--k", "2", "--rates", "fast,slow",
             "--trials", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 3

    def test_zero_trials_exit_three(self, tmp_path, capsys):
        rc = cli.main(
            ["rank-study", "--n", "4", "--k", "2", "--rates", "1.0",
             "--trials", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 3


class TestCounterexampleCommand:
    def test_reference_point_passes(self, tmp_path):
        out = tmp_path / "gap.json"
        rc = cli.main(
            ["counterexample", "--n", "5", "--k", "5", "--delta", "1.0",
             "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["numeric_v"] > report["numeric_d"] + 1e-6
        assert report["record"]["gamma"] == 124.75

    def test_near_boundary_delta_still_passes(self, tmp_path, capsys):
        delta = float(0.99 * (24 - 10 * np.sqrt(5)))
        rc = cli.main(["counterexample", "--n", "5", "--k", "5", "--delta", repr(delta)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert 0 < report["lower_v"] - report["upper_d"] < 1e-2

    def test_small_layout_exits_three(self, tmp_path, capsys):
        assert cli.main(["counterexample", "--n", "4", "--k", "4", "--delta", "0.5"]) == 3
        assert cli.main(["counterexample", "--n", "5", "--k", "5", "--delta", "0"]) == 3


class TestAuditCommand:
    def test_single_user_audit_passes(self, tmp_path):
        path = write_scenario(tmp_path, single_user_mapping())
        out = tmp_path / "audit.json"
        rc = cli.main(
            ["audit", "--scenario", path, "--samples", "20", "--patience", "0",
             "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["duality"]["violations"] == 0
        assert report["duality"]["gap"] >= -1e-6
        assert report["kkt"]["passed"] is True

    def test_infeasible_scenario_exits_one(self, tmp_path):
        path = write_scenario(tmp_path, sampled_mapping(rate=6.6582))
        assert cli.main(["audit", "--scenario", path, "--samples", "2"]) == 1


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        path = write_scenario(tmp_path, single_user_mapping())
        result = subprocess.run(
            [sys.executable, "-m", "robust_miso.cli", "solve", "--scenario", path],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["numerical_ranks"] == [1]

    def test_unknown_command_exits_three(self, capsys):
        assert cli.main(["frobnicate"]) == 3

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
