"""CLI plumbing: catalog listing, exit codes, reports, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kaehlerlab import ambient as amb
from kaehlerlab import cli
from kaehlerlab import identities as idn
from kaehlerlab import submanifold as sm
from kaehlerlab.jets import DIVISION_FLOOR, jet_partials, jet_values


def run_cli(argv):
    return cli.main(argv)


class TestList:
    def test_catalog_listing(self, capsys):
        assert run_cli(["list"]) == 0
        out = capsys.readouterr().out
        for name in ["linear_c2", "graph_z2_c2", "graph_z3_c2", "graph_c3",
                     "veronese_cp2"]:
            assert name in out
        assert "fubini_study" in out
        assert "c=4" in out


class TestConfig:
    def test_unknown_case_rejected(self, capsys):
        assert run_cli(["run", "--case", "foo"]) == cli.EXIT_CONFIG_ERROR

    def test_unknown_tolerance_id_rejected(self):
        assert run_cli(
            ["run", "--case", "linear_c2", "--tol", "bogus=1"]
        ) == cli.EXIT_CONFIG_ERROR

    def test_malformed_tolerance(self):
        assert run_cli(
            ["run", "--case", "linear_c2", "--tol", "eq_2_14"]
        ) == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    def test_non_finite_or_negative_tolerance(self, value):
        assert run_cli(
            ["run", "--case", "linear_c2", "--tol", f"eq_2_14={value}"]
        ) == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("raw", [
        {"points": "many"},
        {"tolerances": ["x"]},
        {"tolerances": {"eq_2_14": "NaN"}},
        {"cases": [1]},
        {"out": True},
        # No coercion: a float, a bool or a string where another JSON type
        # belongs, and an integer too large for a float.
        {"points": 2.5},
        {"points": True},
        {"seed": 3.9},
        {"seed": True},
        {"tolerances": {"eq_2_14": True}},
        {"tolerances": {"eq_2_14": 10 ** 400}},
        {"cases": "linear_c2"},
    ])
    def test_bad_config_file_field(self, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": ["linear_c2"], "points": 1, **raw}))
        assert run_cli(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG_ERROR

    def test_bad_points(self):
        assert run_cli(
            ["run", "--case", "linear_c2", "--points", "0"]
        ) == cli.EXIT_CONFIG_ERROR

    def test_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("KAEHLERLAB_SEED", "7")
        assert run_cli(
            ["run", "--case", "linear_c2", "--points", "2"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 7

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("KAEHLERLAB_SEED", "not-a-number")
        assert run_cli(
            ["run", "--case", "linear_c2", "--points", "1"]
        ) == cli.EXIT_CONFIG_ERROR

    def test_explicit_seed_skips_bad_env_seed(self, monkeypatch, tmp_path,
                                              capsys):
        # The variable is read only when neither --seed nor the file sets
        # the seed, so a malformed one does not fail these runs.
        monkeypatch.setenv("KAEHLERLAB_SEED", "x")
        assert run_cli(
            ["run", "--seed", "5", "--points", "1", "--case", "linear_c2"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": ["linear_c2"], "points": 1,
                                   "seed": 3}))
        assert run_cli(["run", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"cases": ["linear_c2"], "points": 2, "seed": 9}
        ))
        assert run_cli(["run", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 9
        assert [c["name"] for c in report["cases"]] == ["linear_c2"]

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": ["linear_c2"], "seed": 9}))
        assert run_cli(
            ["run", "--config", str(cfg), "--seed", "12", "--points", "1"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 12


class TestRun:
    def test_report_schema(self, capsys):
        code = run_cli(
            ["run", "--case", "graph_z2_c2", "--points", "2"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        case = report["cases"][0]
        assert case["ambient"] == {"kind": "flat", "c": 0.0, "m": 1, "l": 1}
        point = case["points"][0]
        assert set(point) == {"u", "checks", "recurrence", "frame_residuals"}
        for chk in point["checks"]:
            assert set(chk) == {"id", "residual", "tolerance", "passed"}
        agg = case["aggregates"]
        assert agg["all_classifications_matched"] is True
        assert agg["max_residual"] <= 1e-8

    def test_tight_tolerance_exits_one(self, tmp_path):
        # Half the largest residual the run itself reports is overtight
        # whatever the round-off, so the override must fail the run.
        out = tmp_path / "report.json"
        argv = ["run", "--case", "veronese_cp2", "--points", "10",
                "--out", str(out)]
        assert run_cli(argv) == 0
        aggregates = json.loads(out.read_text())["cases"][0]["aggregates"]
        worst = aggregates["max_residual_per_check"]["eq_2_14"]
        assert worst > 0.0
        code = run_cli(argv + ["--tol", f"eq_2_14={worst / 2}"])
        assert code == cli.EXIT_CHECK_FAILURE

    def test_route_disagreement_is_reported(self, tmp_path, monkeypatch):
        # A negative tolerance makes every intrinsic-curvature gate fail.
        monkeypatch.setitem(sm.TWO_PATH_TOL, "two_path_r", -1.0)
        out = tmp_path / "report.json"
        code = run_cli([
            "run", "--case", "graph_z2_c2", "--points", "2",
            "--out", str(out),
        ])
        assert code == cli.EXIT_CHECK_FAILURE
        case = json.loads(out.read_text())["cases"][0]
        assert case["aggregates"]["skipped_points"] == 2
        for point in case["points"]:
            err = point["internal_error"]
            assert err["route"] == "two_path_r"
            assert set(err["two_path"]) == {
                "two_path_nabla_b", "two_path_r_perp", "two_path_r",
            }
            assert "two_path_r" in point["skipped"]
            assert "checks" not in point
        # No point was evaluated, so nothing matched and nothing was singular.
        assert case["aggregates"]["all_classifications_matched"] is None
        assert case["aggregates"]["all_shape_operators_singular"] is None

    def test_singular_metric_point_is_skipped(self):
        # (z^3, z^4) at u = (1.8e-4, 0): the smallest singular value of T is
        # about 1e-7, above RANK_TOL, but g is about 1e-14, below the
        # inverse's floor.  The point is a skipped entry, not a traceback,
        # with the rank gate's message stating both singular values.
        case = sm.ImmersionCase(
            "graph_z3_z4_c2", 1, amb.flat(2),
            lambda z: [z[0] * z[0] * z[0], z[0] * z[0] * z[0] * z[0]],
            ((1.8e-4, 1.8e-4), (0.0, 0.0)), sm.GENERIC)
        T = jet_values(jet_partials(case.map_jets([1.8e-4, 0.0])))
        sv = np.linalg.svd(T, compute_uv=False)
        assert sv.min() >= sm.RANK_TOL
        report, failed, mismatched = cli.run_case(
            case, cli.RunConfig(points=1), len(sm.CATALOG))
        assert not failed and not mismatched
        (point,) = report["points"]
        assert point["u"] == [1.8e-4, 0.0]
        assert "differential rank-deficient" in point["skipped"]
        assert f"of T {sv.min():.3e}" in point["skipped"]
        sv_g = re.search(r"of g (\S+) \(DIVISION_FLOOR", point["skipped"])
        assert float(sv_g.group(1)) < DIVISION_FLOOR
        assert "internal_error" not in point
        assert report["aggregates"]["skipped_points"] == 1

    @pytest.mark.parametrize("chart, domain, reasons", [
        pytest.param(lambda z: [z[0], z[0] * float("nan")], ((-1.0, 1.0),) * 2,
                     ("chart not finite", "NaN or inf"), id="nan"),
        pytest.param(lambda z: [z[0], z[0] * float("inf")], ((-1.0, 1.0),) * 2,
                     ("chart not finite", "NaN or inf"), id="inf"),
        # Every sample sits at z = i, a pole of 1/(z^2 + 1).
        pytest.param(lambda z: [z[0], 1.0 / (z[0] * z[0] + 1.0)],
                     ((0.0, 0.0), (1.0, 1.0)),
                     ("chart has a pole at u=[0. 1.]",), id="pole"),
    ])
    def test_non_finite_chart_is_skipped(self, chart, domain, reasons):
        # A chart whose jets hold NaN once failed to converge in the rank
        # gate's SVD and escaped run_case as LinAlgError; one that multiplies
        # by inf once raised its RuntimeWarning out of run_case, and a pole
        # its ZeroDivisionError.
        case = sm.ImmersionCase("singular_c2", 1, amb.flat(2), chart, domain,
                                sm.GENERIC)
        report, failed, mismatched = cli.run_case(
            case, cli.RunConfig(points=3), len(sm.CATALOG))
        assert not failed and not mismatched
        assert len(report["points"]) == 3
        for point in report["points"]:
            for reason in reasons:
                assert reason in point["skipped"]
            assert "checks" not in point and "internal_error" not in point
        agg = report["aggregates"]
        assert agg["skipped_points"] == 3
        assert agg["all_classifications_matched"] is None
        assert agg["all_shape_operators_singular"] is None
        # No check ran, so no residual or determinant is reported either.
        assert agg["max_residual"] is None
        assert agg["max_shape_determinant"] is None
        assert len(agg["max_residual_per_check"]) == len(idn.REGISTRY)
        assert set(agg["max_residual_per_check"].values()) == {None}
        row = cli.render_text({"cases": [report]}).splitlines()[-1]
        assert row.split() == [case.name, "flat", "0.00", "None", "None", "3"]

    @pytest.mark.parametrize("gate, value, error, reason", [
        ("FRAME_NORM_FLOOR", 1e6, sm.FrameConstructionError,
         "only 0 of 2 normal directions found"),
        ("J_INVARIANCE_TOL", -1.0, sm.DegeneratePointError,
         "tangent space not J-invariant"),
    ], ids=["frame_construction", "j_invariance"])
    def test_frame_gate_failure_is_skipped(self, monkeypatch, gate, value,
                                           error, reason):
        # No catalog point fails the normal-frame or J-invariance gate; with
        # the gate moved past every point, each point is a skipped entry
        # with the gate's message, not an internal error.
        monkeypatch.setattr(sm, gate, value)
        case = sm.get_case("graph_z2_c2")
        with pytest.raises(error, match=reason):
            sm.extrinsic_data(case, [0.3, 0.2])
        report, failed, mismatched = cli.run_case(
            case, cli.RunConfig(points=2), 1)
        assert not failed and not mismatched
        for point in report["points"]:
            assert reason in point["skipped"]
            assert "checks" not in point and "internal_error" not in point
        assert report["aggregates"]["skipped_points"] == 2

    def test_class_mismatch_exits_two(self, tmp_path, monkeypatch):
        # A catalog case that expects the wrong class exits 2, and a failing
        # check in the same run takes precedence: exit 1.
        wrong = replace(sm.get_case("veronese_cp2"), expected_class=sm.GENERIC)
        monkeypatch.setattr(sm, "CATALOG", tuple(
            wrong if c.name == wrong.name else c for c in sm.CATALOG))
        out = tmp_path / "report.json"
        argv = ["run", "--case", "veronese_cp2", "--points", "3",
                "--out", str(out)]
        assert run_cli(argv) == cli.EXIT_CLASS_MISMATCH
        aggregates = json.loads(out.read_text())["cases"][0]["aggregates"]
        assert aggregates["expected_class"] == "NonRecurrent"
        assert aggregates["all_classifications_matched"] is False
        worst = aggregates["max_residual_per_check"]["eq_2_14"]
        assert worst > 0.0
        code = run_cli(argv + ["--tol", f"eq_2_14={worst / 2}"])
        assert code == cli.EXIT_CHECK_FAILURE
        aggregates = json.loads(out.read_text())["cases"][0]["aggregates"]
        assert aggregates["all_classifications_matched"] is False

    def test_text_format(self, capsys):
        code = run_cli([
            "run", "--case", "linear_c2", "--points", "2",
            "--format", "text",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "linear_c2" in out
        assert "max residual" in out

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "run", "--case", "linear_c2", "--points", "2",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["cases"][0]["name"] == "linear_c2"

    def test_unwritable_output_path(self, tmp_path):
        code = run_cli([
            "run", "--case", "linear_c2", "--points", "1",
            "--out", str(tmp_path / "missing" / "report.json"),
        ])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_byte_identical_reports(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = run_cli([
                "run", "--case", "graph_z3_c2", "--case", "veronese_cp2",
                "--points", "4", "--seed", "42", "--out", str(path),
            ])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_byte_identical_across_blas_threads_at_higher_dimension(self):
        # The m >= 2 cases, whose jets in n = 4 and n = 6 variables the
        # catalog never makes, render the same bytes with one and with two
        # BLAS threads.
        tests = Path(__file__).resolve().parent
        src = str(tests.parent / "src")
        code = (
            "import sys\n"
            "from extra_cases import QUADRIC_Q3, SEGRE\n"
            "from kaehlerlab import cli, submanifold\n"
            "for case in (SEGRE, QUADRIC_Q3):\n"
            "    config = cli.RunConfig(cases=[case.name], points=3, seed=7)\n"
            "    report, failed, mismatched = cli.run_case(\n"
            "        case, config, len(submanifold.CATALOG))\n"
            "    assert not failed and not mismatched\n"
            "    sys.stdout.write(cli.render_json(report))\n")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join([src,
                                                                  str(tests)]),
                     "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
        assert outputs[0].count(b"\n") == 2
        assert outputs[0] == outputs[1]

    def test_frame_residuals_reported(self, tmp_path):
        # Every evaluated point reports the four frame-health residuals, and
        # they keep the report byte-identical across runs.
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = run_cli([
                "run", "--case", "graph_c3", "--case", "veronese_cp2",
                "--points", "3", "--out", str(path),
            ])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report = json.loads(paths[0].read_text())
        for case in report["cases"]:
            for point in case["points"]:
                residuals = point["frame_residuals"]
                assert set(residuals) == {
                    "normal_orthonormality", "normal_tangency",
                    "tangent_j_invariance", "gamma_perp_antisymmetry",
                }
                assert all(math.isfinite(v) and v >= 0.0
                           for v in residuals.values())

    def test_compact_report_round_trips(self):
        # The default run's report is one line of JSON that loads back to
        # the report itself.
        code, report = cli.run(cli.RunConfig())
        assert code == cli.EXIT_OK
        rendered = cli.render_json(report)
        assert json.loads(rendered) == report
        assert rendered.endswith("\n")
        assert rendered.count("\n") == 1

    @pytest.mark.parametrize("cases", [["graph_c3", "veronese_cp2"],
                                       ["linear_c2"]],
                             ids=["two_cases", "one_case"])
    def test_render_json_is_json_dumps(self, cases):
        # Encoded point by point, the report has the bytes of one json.dumps
        # of the whole, with null aggregates and a report of other
        # top-level keys too.
        config = cli.RunConfig(cases=cases, points=2, seed=3)
        reports = [cli.run(config)[1]]
        case, _, _ = cli.run_case(sm.get_case("linear_c2"), config, 0)
        case["aggregates"]["max_residual"] = None
        reports.append({"seed": 3, "cases": [case, case]})
        for report in reports:
            want = json.dumps(report, sort_keys=True, separators=(",", ":"))
            assert cli.render_json(report) == want + "\n"

    def test_classification_recorded(self, capsys):
        assert run_cli(
            ["run", "--case", "veronese_cp2", "--points", "3"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        for point in report["cases"][0]["points"]:
            recurrence = point["recurrence"]
            assert recurrence["classification"] == "Parallel"
            assert recurrence["theorems"]["passed"] is True
            # The fit of nabla b = mu (x) b is noise where nabla b vanishes.
            assert recurrence["fit_residual"] is None
            assert len(recurrence["mu"]) == 2


class TestSampler:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_scipy_halton(self, dim):
        # The numpy sampler reproduces scipy's scrambled Halton points bit for
        # bit, so reports keep their sampled points without scipy installed.
        qmc = pytest.importorskip("scipy.stats").qmc
        for seed in list(range(50)) + [42, 2 ** 32 + 7]:
            for n in (1, 25):
                want = qmc.Halton(d=dim, scramble=True, seed=seed).random(n)
                assert np.array_equal(cli.scrambled_halton(dim, n, seed), want)

    def test_cli_does_not_import_scipy(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, kaehlerlab.cli; "
                "assert 'scipy' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})
