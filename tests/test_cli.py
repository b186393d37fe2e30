import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import stablecov
from stablecov import sampler
from stablecov.cli import main

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def write_spec(tmp_path, name, alpha, atoms, auto_symmetrize=False):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "alpha": alpha,
                "atoms": [{"s": list(s), "w": w} for s, w in atoms],
                "auto_symmetrize": auto_symmetrize,
            }
        )
    )
    return str(path)


@pytest.fixture
def diag_spec(tmp_path):
    return write_spec(
        tmp_path,
        "diag.json",
        2.0,
        [((INV_SQRT2, INV_SQRT2), 0.5), ((-INV_SQRT2, -INV_SQRT2), 0.5)],
    )


@pytest.fixture
def diag15_spec(tmp_path):
    return write_spec(
        tmp_path,
        "diag15.json",
        1.5,
        [((INV_SQRT2, INV_SQRT2), 0.5), ((-INV_SQRT2, -INV_SQRT2), 0.5)],
    )


@pytest.fixture
def axis_spec(tmp_path):
    return write_spec(
        tmp_path,
        "axis.json",
        1.5,
        [((1.0, 0.0), 0.25), ((-1.0, 0.0), 0.25), ((0.0, 1.0), 0.25), ((0.0, -1.0), 0.25)],
    )


class TestCovar:
    def test_gaussian_half_covariance(self, diag_spec, capsys):
        code = main(["covar", "--input", diag_spec, "--beta", "1", "--m", "1"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert abs(float(out) - 0.5) < 1e-14

    def test_json_format(self, diag_spec, capsys):
        code = main(
            ["covar", "--input", diag_spec, "--beta", "0.5", "--m", "0", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(2.0 ** (-1.0), rel=1e-12)

    def test_alpha_override(self, diag_spec, capsys):
        code = main(
            ["covar", "--input", diag_spec, "--beta", "0", "--m", "0", "--alpha-override", "1.0"]
        )
        assert code == 0
        out = float(capsys.readouterr().out)
        assert out == pytest.approx(2.0 ** (-0.5), rel=1e-12)


class TestSeries:
    def test_per_term_csv(self, diag15_spec, capsys):
        code = main(
            ["series", "--input", diag15_spec, "--theta", "0.3", "1.0", "--tol", "1e-10"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert list(rows[0].keys()) == [
            "k",
            "falling_factorial",
            "covariation",
            "term",
            "partial_sum",
            "tail_bound",
        ]
        final = float(rows[-1]["partial_sum"])
        assert final == pytest.approx((1.3 / math.sqrt(2.0)) ** 1.5, abs=1e-9)
        assert float(rows[-1]["tail_bound"]) <= 1e-10

    def test_deterministic_output(self, diag15_spec, capsys):
        main(["series", "--input", diag15_spec, "--theta", "0.3", "1.0", "--tol", "1e-10"])
        first = capsys.readouterr().out
        main(["series", "--input", diag15_spec, "--theta", "0.3", "1.0", "--tol", "1e-10"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, diag15_spec, tmp_path, capsys):
        out_path = tmp_path / "series.csv"
        code = main(
            [
                "series",
                "--input",
                diag15_spec,
                "--theta",
                "0.5",
                "1.0",
                "--tol",
                "1e-8",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        assert capsys.readouterr().out == ""


    def test_unwritable_out(self, diag15_spec, tmp_path, capsys):
        out_path = tmp_path / "missing" / "dir" / "x.csv"
        code = main(["series", "--input", diag15_spec, "--theta", "0.3", "1.0", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "unwritable_file"
        assert not out_path.parent.exists()


class TestChf:
    def test_direct_and_series_agree(self, diag15_spec, capsys):
        code = main(
            [
                "chf",
                "--input",
                diag15_spec,
                "--theta",
                "0.4",
                "0.9",
                "--tol",
                "1e-10",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chf_direct"] == pytest.approx(payload["chf_series"], abs=1e-9)


class TestValidate:
    def test_roundtrip(self, diag15_spec, capsys, tmp_path):
        code = main(["validate", "--input", diag15_spec])
        assert code == 0
        emitted = json.loads(capsys.readouterr().out)
        second = tmp_path / "reloaded.json"
        second.write_text(json.dumps(emitted))
        code = main(["validate", "--input", str(second)])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == emitted

    def test_auto_symmetrize_load(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, "asym.json", 1.5, [((1.0, 0.0), 1.0)], auto_symmetrize=True
        )
        code = main(["validate", "--input", spec])
        assert code == 0
        emitted = json.loads(capsys.readouterr().out)
        assert len(emitted["atoms"]) == 2

    def test_asymmetric_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "asym.json", 1.5, [((1.0, 0.0), 1.0)])
        code = main(["validate", "--input", spec])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "validation_error"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code = main(["validate", "--input", str(path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "malformed_json"

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", "--input", str(tmp_path / "nope.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "unreadable_file"


class TestSample:
    def test_draws_and_summary(self, axis_spec, tmp_path, capsys):
        out_path = tmp_path / "draws.csv"
        code = main(
            [
                "sample",
                "--input",
                axis_spec,
                "--n",
                "20000",
                "--seed",
                "7",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "x1,x2"
        assert len(rows) == 20001
        summary = json.loads(capsys.readouterr().out)
        assert summary["n"] == 20000
        for item in summary["chf"]:
            assert abs(item["empirical_re"] - item["model_chf"]) < 0.05
            assert abs(item["empirical_im"]) < 0.05

    def test_requires_out(self, axis_spec, capsys):
        code = main(["sample", "--input", axis_spec, "--n", "10"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "validation_error"

    def test_out_checked_before_sampling(self, axis_spec, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(sampler, "sample_vector", lambda *args, **kw: calls.append(args))
        code = main(["sample", "--input", axis_spec, "--n", "1000000"])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "validation_error"
        assert "--out" in err["message"]
        assert calls == []


class TestFracDeriv:
    def test_closed_and_numeric(self, capsys):
        code = main(
            [
                "fracderiv",
                "--p",
                "0.5",
                "--beta",
                "0.5",
                "--m",
                "0",
                "--x",
                "4.0",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"] == pytest.approx(math.gamma(1.5), rel=1e-12)
        assert payload["numeric"] == pytest.approx(payload["closed_form"], rel=1e-3)

    def test_no_numeric_flag(self, capsys):
        code = main(
            [
                "fracderiv",
                "--p",
                "1.2",
                "--beta",
                "0.3",
                "--m",
                "1",
                "--x",
                "-2.0",
                "--no-numeric",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "numeric" not in payload

    def test_overflowing_power_is_numerical_error(self, capsys):
        # |x - a|**(p - beta) = (1e-308)**-2 passes the float range.
        code = main(
            ["fracderiv", "--p", "0", "--beta", "2", "--m", "0", "--a", "1e-308",
             "--x", "0", "--no-numeric"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "numerical_error"


class TestCheck:
    def test_axis_measure_passes(self, axis_spec, capsys):
        code = main(["check", "--input", axis_spec, "--tol", "1e-9"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert report["independence_necessary"]["passed"]
        assert report["independence_sufficient"]["triggered"]
        assert report["james_bound"]["passed"]

    def test_trivariate_additivity(self, tmp_path, capsys):
        s = INV_SQRT2
        spec = write_spec(
            tmp_path,
            "tri.json",
            1.5,
            [
                ((s, s, 0.0), 0.25),
                ((-s, -s, 0.0), 0.25),
                ((s, 0.0, s), 0.25),
                ((-s, 0.0, -s), 0.25),
            ],
        )
        code = main(["check", "--input", spec, "--tol", "1e-9"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["additivity"]["passed"]

    def test_diagonal_skips_axis_check(self, diag15_spec, capsys):
        code = main(["check", "--input", diag15_spec, "--tol", "1e-9"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "skipped" in report["independence_necessary"]
        assert not report["independence_sufficient"]["triggered"]

    def test_impossible_tolerance_fails_with_exit_2(self, tmp_path, capsys):
        # generic directions leave roundoff-size additivity gaps, so an
        # absurdly small tolerance must surface as a named check failure
        spec = write_spec(
            tmp_path,
            "tri_generic.json",
            1.5,
            [((0.6, 0.8, 0.0), 0.3), ((0.28, 0.0, 0.96), 0.2), ((0.0, 1.0, 0.0), 0.1)],
            auto_symmetrize=True,
        )
        code = main(["check", "--input", spec, "--tol", "1e-300"])
        captured = capsys.readouterr()
        assert code == 2
        err = json.loads(captured.err)
        assert err["error"] == "invariant_violation"
        assert "additivity" in err["message"]
        report = json.loads(captured.out)
        assert report["failures"] == ["additivity"]


class TestFlagValues:
    def test_exponent_form_negative_flag(self, capsys):
        code = main(
            ["fracderiv", "--p", "1.5", "--beta", "0.5", "--m", "0", "--a", "-7.18e-06",
             "--x", "1", "--no-numeric", "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["a"] == -7.18e-06

    def test_exponent_form_negative_theta(self, diag15_spec, capsys):
        code = main(
            ["chf", "--input", diag15_spec, "--theta", "-1e-3", "2", "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["theta"] == [-1e-3, 2.0]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["covar", "--input", "SPEC", "--beta", "nan", "--m", "0"], "--beta"),
            (["covar", "--input", "SPEC", "--beta", "inf", "--m", "0"], "--beta"),
            (["covar", "--input", "SPEC", "--beta", "-1e400", "--m", "0"], "--beta"),
            (["chf", "--input", "SPEC", "--theta", "nan", "1"], "--theta"),
            (["fracderiv", "--p", "1.5", "--beta", "nan", "--m", "0", "--x", "1"], "--beta"),
            (["series", "--input", "SPEC", "--theta", "0.3", "1", "--tol", "nan"], "--tol"),
            (["covar", "--input", "SPEC", "--beta", "1", "--m", "0", "--seed", "-1"], "--seed"),
        ],
    )
    def test_non_finite_values_and_negative_seed(self, diag15_spec, capsys, argv, flag):
        code = main([diag15_spec if a == "SPEC" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation_error"
        assert err["message"].startswith(flag)


class TestSpecValues:
    @pytest.mark.parametrize(
        "alpha, atom",
        [
            (1.5, {"w": "abc"}),
            (1.5, {"w": None}),
            (1.5, {"w": math.nan}),
            (1.5, {"s": 5}),
            (1.5, {"s": "ab"}),
            (1.5, {"s": [math.inf, 0.0]}),
            ("x", {}),
            ([1], {}),
            (math.inf, {}),
        ],
    )
    def test_non_numeric_spec_values(self, tmp_path, capsys, alpha, atom):
        atoms = [{"s": [1.0, 0.0], "w": 0.5}, {"s": [-1.0, 0.0], "w": 0.5}]
        atoms[0].update(atom)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"alpha": alpha, "atoms": atoms}))
        code = main(["validate", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "validation_error"


def test_import_loads_no_scipy():
    # scipy is needed only by the numeric fractional-derivative evaluator.
    src = os.path.dirname(os.path.dirname(stablecov.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, stablecov, stablecov.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
