import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stablecov
from stablecov import cli, load_model, sampler
from stablecov.cli import _CSV_ROWS, _rows_to_csv, fmt, main

from conftest import HUGE_WEIGHT_SPEC, OVERFLOW_SPEC, OVERFLOW_THETA

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


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as a strict JSON parser does."""

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


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

    def test_value_past_float_range_is_numerical_error(self, tmp_path, capsys):
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps(HUGE_WEIGHT_SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["covar", "--input", str(spec), "--beta", "1", "--m", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "numerical_error"

    @pytest.mark.parametrize("beta, want", [("2060", 0.592159718678379), ("2200", 0.591993937167644)])
    def test_large_beta_is_in_range(self, tmp_path, capsys, beta, want):
        # small**beta leaves the normal range and large**(alpha - beta) the
        # float range; the value does not.
        atom = ((0.7071060740794128, 0.7071074882929752), 1.0)
        spec = write_spec(tmp_path, "near-diagonal", 1.5, [atom], auto_symmetrize=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["covar", "--input", spec, "--beta", beta, "--m", "0"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-12)

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
            "coefficient",
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


    def test_long_series_json_is_finite(self, tmp_path, capsys):
        # (alpha)_k passes the float range from k = 174 on; the coefficient
        # (alpha)_k / k! that the terms use stays below max(alpha, 1).
        spec = write_spec(tmp_path, "one.json", 1.5, [((0.6, 0.8), 1.0)], auto_symmetrize=True)
        code = main(
            ["series", "--input", spec, "--theta", "1.3", "1", "--tol", "1e-12",
             "--format", "json"]
        )
        assert code == 0
        terms = strict_json(capsys.readouterr().out)["terms"]
        assert len(terms) > 174
        assert all(abs(t["coefficient"]) <= 1.5 for t in terms)

    @pytest.mark.parametrize(
        "alpha, theta, tol, length",
        [
            (2.0, ("1.3", "1"), "1e-12", 3),  # c_3 = 0 ends the series
            # theta = (s2, s1) puts the pair on the rho = 1 diagonal exactly:
            # a certified series over several long ladder blocks.
            (1.5, ("0.8", "0.6"), "1e-6", 2066),
        ],
    )
    def test_series_json_is_strict(self, tmp_path, capsys, alpha, theta, tol, length):
        spec = write_spec(tmp_path, "one.json", alpha, [((0.6, 0.8), 1.0)], auto_symmetrize=True)
        code = main(["series", "--input", spec, "--theta", *theta, "--tol", tol, "--format", "json"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        json.dumps(payload, allow_nan=False)
        assert payload["converged"] is True and len(payload["terms"]) == length
        expansion = stablecov.scale_parameter_series(
            load_model(spec), tuple(map(float, theta)), float(tol)
        )
        assert [t["term"] for t in payload["terms"]] == expansion.terms.tolist()
        assert payload["value"] == expansion.value

    @pytest.mark.parametrize(
        "kind, fmt_flags",
        [("series", []), ("series", ["--format", "json"]), ("chf", ["--format", "json"])],
    )
    def test_value_past_float_range_is_numerical_error(self, tmp_path, capsys, kind, fmt_flags):
        spec = tmp_path / "overflow.json"
        spec.write_text(json.dumps(OVERFLOW_SPEC))
        theta = [repr(t) for t in OVERFLOW_THETA]
        code = main([kind, "--input", str(spec), "--theta", *theta, *fmt_flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "numerical_error"

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

    @pytest.mark.parametrize(
        "weight, code",
        [("1" + "0" * 400, "validation_error"), ("1" + "0" * 5000, "malformed_json")],
    )
    def test_integer_past_the_float_range(self, tmp_path, capsys, weight, code):
        # A 401-digit int fails the finite check; one past Python's 4,300-digit
        # limit fails the parse.  Both raised a traceback.
        path = tmp_path / "big.json"
        path.write_text('{"alpha": 1.5, "atoms": [{"s": [1, 0], "w": ' + weight + "}]}")
        assert main(["validate", "--input", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == code

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

    @pytest.mark.parametrize("n", [1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 5])
    def test_csv_rows_across_slices(self, tmp_path, n):
        # The sliced writer gives the bytes of one fmt-joined line per draw.
        spec = write_spec(
            tmp_path, "tri.json", 1.2, [((1.0, 0.0, 0.0), 0.5), ((0.0, 0.6, 0.8), 0.2)],
            auto_symmetrize=True,
        )
        out_path = tmp_path / "draws.csv"
        code = main(["sample", "--input", spec, "--n", str(n), "--seed", "3", "--out", str(out_path)])
        assert code == 0
        draws = sampler.sample_vector(load_model(spec), n, 3).draws
        expected = "x1,x2,x3\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in draws)
        assert out_path.read_text() == expected

    def test_requires_out(self, axis_spec, capsys):
        code = main(["sample", "--input", axis_spec, "--n", "10"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "validation_error"

    @pytest.mark.parametrize(
        "weight, n, seed, count",
        [(1e4, "10", "0", "10 of 10"), (0.5, "20000", "3", "58 of 20000")],
    )
    def test_overflowing_draws_are_numerical_error(self, tmp_path, capsys, weight, n, seed, count):
        # At alpha = 0.01 the transform passes the float range: no inf or NaN
        # rows, no numpy warning, no traceback; exit 1 with the count.
        spec = write_spec(tmp_path, "tiny.json", 0.01, [((1.0, 0.0), weight), ((-1.0, 0.0), weight)])
        out_path = tmp_path / "draws.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sample", "--input", spec, "--n", n, "--seed", seed, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and not out_path.exists()
        err = json.loads(captured.err)
        assert err["error"] == "numerical_error"
        assert err["message"].startswith(count + " draws are not finite")

    def test_overflowing_projection_is_numerical_error(self, tmp_path, capsys):
        # <theta, X> passes the float range on some draws: exit 1 naming
        # theta, not NaN means, and no warning from this thread or the pool's.
        spec = write_spec(tmp_path, "two.json", 1.5, [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)])
        out_path = tmp_path / "draws.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["sample", "--input", spec, "--n", "20000", "--seed", "1", "--out", str(out_path),
                 "--theta", "1e308", "1"]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "numerical_error"
        assert "[1e+308, 1.0]" in err["message"]
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["covar", "--beta", "1", "--m", "0"], "symmetric_covariation requires a bivariate model"),
            (["series", "--theta", "1", "1"], "scale_parameter_series requires a bivariate model"),
            (["chf", "--theta", "1", "1"], "theta must have length 3"),
        ],
    )
    def test_trivariate_spec_is_dimension_error(self, tmp_path, capsys, argv, message):
        spec = write_spec(tmp_path, "tri.json", 1.2, [((1.0, 0.0, 0.0), 0.5)], auto_symmetrize=True)
        code = main([argv[0], "--input", spec, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err) == {"error": "dimension_error", "message": message}

    def test_theta_checked_before_sampling(self, tmp_path, capsys, monkeypatch):
        # A 2-entry theta on a 3-D spec: dimension_error before any draw, and no CSV.
        spec = write_spec(
            tmp_path, "tri.json", 1.2, [((1.0, 0.0, 0.0), 0.5), ((0.0, 0.6, 0.8), 0.2)],
            auto_symmetrize=True,
        )
        out_path = tmp_path / "draws.csv"

        def no_draws(*args):
            raise AssertionError("sample_vector ran")

        monkeypatch.setattr(sampler, "sample_vector", no_draws)
        code = main(
            ["sample", "--input", spec, "--n", "1000", "--theta", "1", "1", "--out", str(out_path)]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "dimension_error",
            "message": "theta must have length 3",
        }
        assert not out_path.exists()

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

    def test_overflowing_finite_difference_is_numerical_error(self, capsys):
        # An integer order of 1e308 makes the binomial weights pass the float range.
        code = main(
            ["fracderiv", "--p", "0.5", "--beta", "1e308", "--m", "0", "--a", "1e308",
             "--x", "1e-300"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "numerical_error"

    @pytest.mark.parametrize(
        "flags",
        [
            # log Gamma(p + 1) passes the float range.
            ["--p", "1e308", "--beta", "0", "--m", "0", "--x", "1", "--no-numeric"],
            # Gamma(1 - z) of the reflection formula passes the float range.
            ["--p", "0.5", "--beta", "1e6", "--m", "0", "--x", "2"],
            # The numeric evaluator's finite difference at x = 1e308 is NaN.
            ["--p", "0.5", "--beta", "1e-300", "--m", "1", "--a", "1.9999999", "--x", "1e308"],
            # x - a passes the float range; the closed form takes its limit,
            # the numeric evaluator's binomial weights pass the float range.
            ["--p", "0", "--beta", "1.7e308", "--m", "0", "--a", "-1.7e308", "--x", "1.7e308"],
            # The integrand |t - a|**p passes the float range.
            ["--p", "1e150", "--beta", "6e296", "--m", "1", "--a", "3.2", "--x", "-0.0"],
        ],
        ids=["lgamma", "reflection", "numeric_nan", "x_minus_a", "integrand"],
    )
    def test_out_of_range_value_is_numerical_error(self, flags, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fracderiv", *flags])
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

    def test_applicable_even_series_is_strict_json(self, tmp_path, capsys):
        # A sign-symmetric measure: the odd covariations vanish, so the
        # even-series identity applies and its report holds the series' values.
        spec = write_spec(
            tmp_path,
            "quadrant.json",
            1.5,
            [((0.6, 0.8), 0.25), ((0.6, -0.8), 0.25), ((-0.6, 0.8), 0.25), ((-0.6, -0.8), 0.25)],
        )
        code = main(["check", "--input", spec])
        assert code == 0
        report = strict_json(capsys.readouterr().out)
        json.dumps(report, allow_nan=False)
        even = report["even_series_identity"]
        assert even["applicable"] is True and even["passed"] is True
        assert all(type(even[k]) is float for k in ("even_sum", "half_sum_integral", "direct", "gap"))

    def test_inapplicable_even_series_is_null(self, tmp_path, capsys):
        # Odd covariations do not vanish, so the even-series identity does not apply.
        spec = write_spec(
            tmp_path,
            "two.json",
            1.5,
            [((1.0, 0.0), 1.0), ((math.cos(1.3), math.sin(1.3)), 1.0)],
            auto_symmetrize=True,
        )
        code = main(["check", "--input", spec])
        assert code == 0
        even = strict_json(capsys.readouterr().out)["even_series_identity"]
        assert not even["applicable"] and even["passed"]
        assert [even[k] for k in ("even_sum", "half_sum_integral", "direct", "gap")] == [None] * 4

    def test_overflowing_scale_parameter_is_skipped(self, tmp_path, capsys):
        # sigma = (2e300)**(1/alpha) passes the float range at alpha = 1e-9.
        spec = write_spec(
            tmp_path, "huge.json", 1e-9, [((1.0, 0.0), 1e300), ((0.0, 1.0), 1e300)],
            auto_symmetrize=True,
        )
        code = main(["check", "--input", spec])
        assert code == 0
        report = strict_json(capsys.readouterr().out)
        assert "scale parameter passes the float range" in report["james_bound"]["skipped"]

    def test_overflowing_covariations_are_skipped(self, tmp_path, capsys):
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps(HUGE_WEIGHT_SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", "--input", str(spec)])
        assert code == 0
        report = strict_json(capsys.readouterr().out)
        for name in ("independence_sufficient", "james_bound", "even_series_identity"):
            assert "passes the float range" in report[name]["skipped"]

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
            (["sample", "--input", "SPEC", "--seed", "-1"], "--seed"),
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


    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--input", "SPEC", "--seed", "1"],
            ["covar", "--input", "SPEC", "--beta", "1", "--m", "0", "--tol", "1e-3"],
            ["check", "--input", "SPEC", "--format", "json"],
            ["sample", "--input", "SPEC", "--out", "OUT", "--format", "csv"],
            ["fracderiv", "--p", "1.5", "--beta", "0.5", "--m", "0", "--x", "1", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_flag_the_subcommand_does_not_read_is_usage_error(
        self, diag15_spec, tmp_path, capsys, argv
    ):
        subs = {"SPEC": diag15_spec, "OUT": str(tmp_path / "draws.csv")}
        with pytest.raises(SystemExit) as exc:
            main([subs.get(a, a) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not (tmp_path / "draws.csv").exists()


def test_parser_is_built_once(diag15_spec, capsys):
    # main reuses one parser; a usage error in between leaves it as built, so
    # every call gives the exit code and bytes of a fresh parser.
    good = ["series", "--input", diag15_spec, "--theta", "0.3", "1"]
    bad = ["covar", "--input", diag15_spec, "--beta", "1", "--m", "0", "--tol", "1e-3"]
    results = []
    for argv in (good, bad, good, bad):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append((code, *capsys.readouterr()))
    assert results[0][0] == 0 and results[1][0] == 2
    assert results[2:] == results[:2]
    assert cli._parser() is cli._parser()
    assert cli._parser().format_help() == cli.build_parser().format_help()


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


def _packages_loaded_by_import(package):
    # The modules of ``package`` that importing stablecov and its CLI loads,
    # in a fresh interpreter.
    src = os.path.dirname(os.path.dirname(stablecov.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, stablecov, stablecov.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.strip()


def test_import_loads_no_scipy():
    # scipy is needed only by the numeric fractional-derivative evaluator.
    assert _packages_loaded_by_import("scipy") == "[]"


def test_import_loads_no_concurrent_futures():
    # The sampler's thread pool is built on first use; its import costs
    # several milliseconds of every process's start-up.
    assert _packages_loaded_by_import("concurrent") == "[]"


def test_rows_to_csv_matches_csv_writer():
    # csv.writer, with floats written by fmt, is the oracle for the plain join.
    header = ("k", "theta", "value")
    theta = " ".join(fmt(t) for t in (0.5, -1e-7))
    rows = [
        (3, theta, math.inf),
        (-4, theta, -math.inf),
        (0, "", math.nan),
        (7, theta, -0.0),
        (1, theta, 5e-324),
        (2, theta, 1e16),
        (5, theta, 0.1),
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])
    assert _rows_to_csv(header, rows) == buf.getvalue()
    assert _rows_to_csv(header, []) == "k,theta,value\n"


_FUZZ_WEIGHTS = st.floats(0.0, 1.7e308) | st.sampled_from([1e-300, 1.0, 1e308, 1.7e308])
_FUZZ_REAL = st.floats(-1.7e308, 1.7e308) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e112, 1e150, -1e150, 1e308, -1.7e308, 1.7e308]
)
# Every subcommand but sample, which needs an --out path of its own.
_FUZZ_FORMATS = ("covar", "series", "chf", "fracderiv")


_TWO_ATOMS = {"alpha": 1.5, "auto_symmetrize": True, "atoms": [{"s": [0.6, 0.8], "w": 1.0}]}


@st.composite
def _fuzz_invocation(draw):
    # A spec of 1-3 atoms (dim 2, or dim 3 for check's additivity path) and
    # one invocation of any subcommand on it, CSV or JSON where the
    # subcommand takes --format; fracderiv reads no spec (None).
    dim = draw(st.sampled_from([2, 2, 2, 3]))
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        angles = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=dim - 1, max_size=dim - 1))
        s = [math.cos(angles[0]), math.sin(angles[0])]
        if dim == 3:
            s = [s[0] * math.cos(angles[1]), s[0] * math.sin(angles[1]), s[1]]
        atoms.append({"s": s, "w": draw(_FUZZ_WEIGHTS)})
    alpha = draw(st.floats(1e-9, 2.0) | st.sampled_from([1e-9, 0.5, 1.0, 1.5, 2.0]))
    spec = {"alpha": alpha, "auto_symmetrize": True, "atoms": atoms}
    command = draw(
        st.sampled_from(["series", "chf", "sample", "fracderiv", "covar", "check", "validate"])
    )
    if command == "covar":
        beta = draw(st.floats(0.0, 50.0) | st.floats(0.0, 1.7e308) | st.just(1e150))
        flags = ["--beta", repr(beta), "--m", str(draw(st.integers(0, 1)))]
    elif command in ("series", "chf"):
        flags = ["--theta", repr(draw(_FUZZ_REAL)), repr(draw(_FUZZ_REAL))]
    elif command == "sample":
        flags = ["--n", str(draw(st.integers(1, 100))), "--seed", str(draw(st.integers(0, 2**32)))]
        if draw(st.booleans()):
            flags += ["--theta", *(repr(draw(_FUZZ_REAL)) for _ in range(dim))]
    elif command == "fracderiv":
        spec = None
        flags = [
            "--p", repr(draw(st.floats(0.0, 5.0) | st.floats(0.0, 1e150) | st.just(0.0))),
            "--beta", repr(draw(st.floats(0.0, 5.0) | st.floats(0.0, 1.7e308))),
            "--m", str(draw(st.integers(0, 1))),
            "--a", repr(draw(_FUZZ_REAL)),
            "--x", repr(draw(_FUZZ_REAL)),
        ]
        if draw(st.booleans()):
            flags.append("--no-numeric")
    else:
        flags = []
    if command in ("series", "chf", "check"):
        flags += ["--tol", repr(draw(st.sampled_from([1e-12, 1e-8, 1e-4])))]
    if command in _FUZZ_FORMATS:
        flags += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return spec, [command, *flags]


def finite_csv(text):
    """The rows of a CSV whose every field past the header is finite numbers
    (a chf theta field holds several, space-separated)."""
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and text.endswith("\n")
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        for field in row:
            assert all(math.isfinite(float(x)) for x in field.split()), row
    return rows


@settings(max_examples=300, deadline=None)
@given(invocation=_fuzz_invocation())
@example(
    # The tail bound after term 0 passes the float range while the value and
    # the final bound are finite: exit 1, not "tail_bound": Infinity.
    invocation=(
        {
            "alpha": 2.0,
            "auto_symmetrize": True,
            "atoms": [{"s": [-0.6281736227227391, 0.7780731968879212], "w": 1.310145707057661e308}],
        },
        ["series", "--theta", "1.0", "1.0", "--tol", "1e-12", "--format", "json"],
    )
)
# An order past the float range made the kernel's powers overflow, and the
# sign of s1 * s2 at theta = (1e308, -1e150) overflowed in chf and series.
@example(invocation=(_TWO_ATOMS, ["covar", "--beta", "1e150", "--m", "1", "--format", "json"]))
@example(invocation=(_TWO_ATOMS, ["chf", "--theta", "1e308", "-1e150", "--format", "json"]))
@example(invocation=(_TWO_ATOMS, ["series", "--theta", "1e308", "-1e150", "--format", "json"]))
# A zero-weight atom whose |<theta, s>|**alpha is inf made the direct chf
# 0 * inf = NaN with a RuntimeWarning.
@example(
    invocation=(
        {
            "alpha": 2.0,
            "auto_symmetrize": True,
            "atoms": [{"s": [0.5403023058681398, 0.8414709848078965], "w": 0.0}],
        },
        ["chf", "--theta", "0.0", "1e+308", "--tol", "1e-12", "--format", "csv"],
    )
)
# <theta, X> past the float range made the empirical CHF NaN on exit 0.
@example(invocation=(_TWO_ATOMS, ["sample", "--n", "100", "--seed", "0", "--theta", "1e308", "1"]))
# x - a and the numeric integrand |t - a|**p passed the float range.
# The additivity check's two pushforward sides summed past the float range
# (exit 2 with an infinite gap, no overflow warning).
@example(
    invocation=(
        {
            "alpha": 0.5,
            "auto_symmetrize": True,
            "atoms": [
                {"s": [1.0, 0.0, 2.225073858507203e-309], "w": 0.0},
                {"s": [1.0, 0.0, 0.0], "w": 0.0},
                {"s": [0.8775825618903728, 0.479425538604203, 0.0], "w": 9.594924721899786e307},
            ],
        },
        ["check", "--tol", "1e-12"],
    )
)
@example(invocation=(None, ["fracderiv", "--p", "0", "--beta", "1.7e308", "--m", "0",
                            "--a", "-1.7e308", "--x", "1.7e308", "--format", "csv"]))
@example(invocation=(None, ["fracderiv", "--p", "1e150", "--beta", "6e296", "--m", "1",
                            "--a", "3.2", "--x", "-0.0", "--format", "json"]))
def test_main_exits_cleanly_on_extreme_specs(tmp_path_factory, invocation):
    # Weights up to 1.7e308 and theta, a and x up to +-1.7e308 reach the float
    # range in every sum; whatever happens, main returns 0, 1 or 2 without a
    # RuntimeWarning, exit 0 prints strict JSON or a finite CSV (sample: both)
    # and exit 1 a JSON error object.  simplefilter("error") also catches the
    # reduce warnings that numpy attributes to its own modules.
    spec, argv = invocation
    base = tmp_path_factory.getbasetemp()
    if spec is not None:
        path = base / "fuzz-spec.json"
        path.write_text(json.dumps(spec))
        argv = [argv[0], "--input", str(path), *argv[1:]]
    draws = base / "fuzz-draws.csv"
    if argv[0] == "sample":
        draws.unlink(missing_ok=True)
        argv = [*argv, "--out", str(draws)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        if "csv" in argv or argv[0] == "sample":
            rows = finite_csv(draws.read_text() if argv[0] == "sample" else out.getvalue())
            assert argv[0] != "sample" or len(rows) == 1 + int(argv[argv.index("--n") + 1])
        if "csv" not in argv:
            strict_json(out.getvalue())
    if code == 1:
        assert set(strict_json(err.getvalue())) == {"error", "message"}


_ZERO_WEIGHT_SPEC = {
    "alpha": 2,
    "auto_symmetrize": True,
    "atoms": [{"s": [0.6, 0.8], "w": 0.0}, {"s": [1, 0], "w": 0.5}],
}


@pytest.mark.parametrize("command", ["series", "chf"])
def test_zero_weight_atom_past_the_float_range(tmp_path, capsys, command):
    # sigma**alpha = 0 at theta = (0, 1e308): the zero-weight atom's inf power
    # makes no NaN majorant.
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps(_ZERO_WEIGHT_SPEC))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--input", str(spec), "--theta", "0", "1e308", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    payload = strict_json(captured.out)
    if command == "series":
        assert payload["value"] == 0.0 and payload["converged"] is True
    else:
        assert payload["chf_direct"] == payload["chf_series"] == 1.0


@pytest.mark.parametrize("flag", ['"false"', "0", "null"])
def test_auto_symmetrize_must_be_a_json_boolean(tmp_path, capsys, flag):
    spec = tmp_path / "flag.json"
    atoms = '[{"s": [1, 0], "w": 1}]'
    spec.write_text('{"alpha": 1.5, "auto_symmetrize": %s, "atoms": %s}' % (flag, atoms))
    assert main(["validate", "--input", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "validation_error" and "'auto_symmetrize'" in error["message"]
