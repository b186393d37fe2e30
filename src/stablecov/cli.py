"""Command-line front end.

Subcommands load a measure-spec JSON file, dispatch to library operations,
and emit CSV or JSON.  Each subcommand takes only the flags its handler
reads.  Exit status: 0 on success, 1 on validation errors (with a
machine-readable error object on stderr), 2 on a failed property check
(with the failing invariant named) or a usage error, such as a flag the
subcommand does not take.  All output is deterministic given the input
file, flags, and seed; floats print with 17 significant digits so they
round-trip.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys

import numpy as np

from . import dependence, fracderiv, sampler, series, spectral
from .covariation import symmetric_covariation
from .errors import StableError, ValidationError, finite_real

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
# Rows of sample draws formatted per write.
_CSV_ROWS = 4096


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_model(args: argparse.Namespace) -> spectral.StableModel:
    return spectral.load_model(args.input, alpha_override=args.alpha_override)


def _write_out(args: argparse.Namespace, text) -> None:
    # ``text`` is one string or an iterable of strings, written in order.
    chunks = (text,) if isinstance(text, str) else text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValidationError(
                f"cannot write output {args.out!r}: {exc}", code="unwritable_file"
            ) from exc
    else:
        sys.stdout.writelines(chunks)


def _rows_to_csv(header, rows) -> str:
    # No field holds a comma, a quote or a newline, so none needs quoting.
    lines = [",".join(header)]
    lines += [",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args)
    _write_out(args, json.dumps(spectral.model_to_dict(model), indent=2) + "\n")
    return EXIT_OK


def _cmd_covar(args: argparse.Namespace) -> int:
    model = _load_model(args)
    value = symmetric_covariation(model, args.beta, args.m)
    if args.output_format == "json":
        _write_out(
            args,
            json.dumps({"alpha": model.alpha, "beta": args.beta, "m": args.m, "value": value})
            + "\n",
        )
    else:
        _write_out(args, fmt(value) + "\n")
    return EXIT_OK


def _cmd_series(args: argparse.Namespace) -> int:
    model = _load_model(args)
    expansion = series.scale_parameter_series(model, args.theta, args.tol)
    header = ("k", "coefficient", "covariation", "term", "partial_sum", "tail_bound")
    columns = (
        expansion.coefficients,
        expansion.covariations,
        expansion.terms,
        expansion.partial_sums,
        expansion.tail_bounds,
    )
    rows = list(zip(range(len(expansion)), *(column.tolist() for column in columns)))
    if args.output_format == "json":
        payload = {
            "theta": list(expansion.theta),
            "value": expansion.value,
            "truncation_index": expansion.truncation_index,
            "tail_bound": expansion.tail_bound,
            "converged": expansion.converged,
            "terms": [dict(zip(header, row)) for row in rows],
        }
        _write_out(args, json.dumps(payload) + "\n")
    else:
        _write_out(args, _rows_to_csv(header, rows))
    return EXIT_OK


def _cmd_chf(args: argparse.Namespace) -> int:
    model = _load_model(args)
    direct = spectral.characteristic_function(model, args.theta)
    via_series = series.chf_series(model, args.theta, args.tol)
    if args.output_format == "json":
        payload = {"theta": args.theta, "chf_direct": direct, "chf_series": via_series}
        _write_out(args, json.dumps(payload) + "\n")
    else:
        header = ("theta", "chf_direct", "chf_series")
        row = (" ".join(fmt(t) for t in args.theta), direct, via_series)
        _write_out(args, _rows_to_csv(header, [row]))
    return EXIT_OK


def _default_theta_grid(dim: int) -> list[tuple[float, ...]]:
    grid = []
    for i in range(dim):
        for scale in (0.5, 1.0, 2.0):
            t = [0.0] * dim
            t[i] = scale
            grid.append(tuple(t))
    grid.append(tuple([1.0] * dim))
    return grid


def _cmd_sample(args: argparse.Namespace) -> int:
    model = _load_model(args)
    thetas = [tuple(args.theta)] if args.theta else _default_theta_grid(model.dim)
    # The model's CHF applies the theta rule before any draw is made or written.
    model_chf = [spectral.characteristic_function(model, theta) for theta in thetas]
    batch = sampler.sample_vector(model, args.n, args.seed)
    # The empirical CHFs come before the CSV, so a <theta, X> past the float range writes no file.
    summary = []
    for theta, chf in zip(thetas, model_chf):
        re_emp, im_emp = sampler.empirical_chf(batch, theta)
        summary.append(
            {"theta": list(theta), "empirical_re": re_emp, "empirical_im": im_emp, "model_chf": chf}
        )
    header = ",".join(f"x{i + 1}" for i in range(batch.dim)) + "\n"
    row = ",".join(["%.17g"] * batch.dim) + "\n"  # fmt's format
    # One % per slice of rows, so the CSV is never held whole.
    slices = (batch.draws[i : i + _CSV_ROWS] for i in range(0, batch.n, _CSV_ROWS))
    rows = ((row * len(d)) % tuple(d.ravel().tolist()) for d in slices)
    _write_out(args, itertools.chain([header], rows))
    payload = {"n": batch.n, "seed": batch.seed, "alpha": batch.alpha, "chf": summary}
    sys.stdout.write(json.dumps(payload) + "\n")
    return EXIT_OK


def _cmd_fracderiv(args: argparse.Namespace) -> int:
    p, a, x = args.p, args.a, args.x
    params = fracderiv.FracDerivParams(a=a, beta=args.beta, m=args.m)
    closed = fracderiv.power_rule(p, params, x)
    payload = {"p": p, "beta": args.beta, "m": args.m, "a": a, "x": x, "closed_form": closed}
    if not args.no_numeric:
        # Past the float range the integrand is inf or NaN, which the evaluator rejects.
        with np.errstate(all="ignore"):
            f = lambda t: np.float_power(np.abs(t - a), p)  # noqa: E731
            numeric = fracderiv.frac_derivative_numeric(f, params, x)
        payload["numeric"] = numeric
        payload["abs_difference"] = abs(numeric - closed)
    if args.output_format == "json":
        _write_out(args, json.dumps(payload) + "\n")
    else:
        keys = list(payload)
        _write_out(args, _rows_to_csv(keys, [tuple(payload[k] for k in keys)]))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    model = _load_model(args)
    tol = args.tol
    report: dict = {"alpha": model.alpha, "dim": model.dim, "tolerance": tol}
    failures: list[str] = []

    def run(name, fn):
        try:
            item = fn()
        except StableError as exc:
            report[name] = {"skipped": str(exc)}
            return
        report[name] = item.to_dict()
        if not item.passed:
            failures.append(name)

    if model.dim == 2:
        beta_grid = [0.5 * model.alpha, model.alpha, model.alpha + 1.0]
        run("independence_necessary", lambda: dependence.independence_necessary_report(model, beta_grid, tol))
        thetas = _default_theta_grid(2)
        run(
            "independence_sufficient",
            lambda: dependence.independence_sufficient_check(model, model.alpha / 2.0, thetas, tol),
        )
        run(
            "james_bound",
            lambda: dependence.james_bound_check(model, (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0), tol),
        )
        run("even_series_identity", lambda: dependence.even_series_identity_check(model, max(tol, 1e-10)))
    elif model.dim == 3:
        run("additivity", lambda: dependence.additivity_check(model, tol))
    else:
        report["note"] = "dependence checks cover dim 2 and dim 3 measures"

    report["passed"] = not failures
    report["failures"] = failures
    _write_out(args, json.dumps(report, indent=2) + "\n")
    if failures:
        _error_object("invariant_violation", f"failed checks: {', '.join(failures)}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "covar": _cmd_covar,
    "series": _cmd_series,
    "chf": _cmd_chf,
    "sample": _cmd_sample,
    "fracderiv": _cmd_fracderiv,
    "check": _cmd_check,
}


def _error_object(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")


# argparse reads "-1" and "-.5" as numbers but "-7e-06" as an unknown option.
# This pattern also takes exponent forms, and -inf / -nan so that the finite
# check can reject them by name.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes every negative float literal for a value.

    Subparsers are built with the parent's class, so they inherit it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


_SHARED_FLAGS = {
    "--input": dict(required=True, help="measure spec JSON file"),
    "--alpha-override": dict(type=float, default=None, help="replace the spec file's alpha"),
    "--tol": dict(type=float, default=1e-10, help="tolerance (default 1e-10)"),
    "--format": dict(choices=("csv", "json"), default="csv", dest="output_format"),
    "--out": dict(default=None, help="write primary output to this path"),
    "--seed": dict(type=int, default=0),
}
_SPEC = ("--input", "--alpha-override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stablecov",
        description="Covariation, series, and sampling tools for jointly stable laws "
        "given by discrete spectral measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, *flags):
        # Declared in _SHARED_FLAGS order whatever the order of ``flags``: it
        # is the order in which _check_args names a bad value.
        p = sub.add_parser(name, help=help)
        for flag, kwargs in _SHARED_FLAGS.items():
            if flag in flags:
                p.add_argument(flag, **kwargs)
        return p

    add("validate", "load, validate, and re-emit a measure spec", *_SPEC, "--out")

    p = add("covar", "symmetric covariation of a bivariate model", *_SPEC, "--format", "--out")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, choices=(0, 1), required=True)

    for name, help in (
        ("series", "per-term expansion of sigma**alpha at theta"),
        ("chf", "characteristic function, direct and via the series"),
    ):
        p = add(name, help, *_SPEC, "--tol", "--format", "--out")
        p.add_argument("--theta", type=float, nargs=2, required=True, metavar=("T1", "T2"))

    p = add("sample", "draws as CSV plus an empirical-CHF JSON summary", *_SPEC, "--out", "--seed")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--theta", type=float, nargs="+", default=None)

    p = add(
        "fracderiv", "fractional derivative of |x-a|**p, closed form and numeric", "--format", "--out"
    )
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, choices=(0, 1), required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--no-numeric", action="store_true", help="skip the numeric cross-check")

    add("check", "run the dependence report suite, emit JSON", *_SPEC, "--tol", "--out")

    return parser


def _check_args(args: argparse.Namespace) -> None:
    # What argparse cannot check, done before any spec is loaded.
    for name, value in vars(args).items():
        for v in value if isinstance(value, list) else (value,):
            if isinstance(v, float):
                finite_real(v, "--" + name.replace("_", "-"))
    if "seed" in args and args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    if "tol" in args and args.tol <= 0.0:
        raise ValidationError("tolerance must be > 0")
    if args.command == "sample" and not args.out:
        raise ValidationError("command 'sample' requires --out for the draws CSV")


# Built on first use and kept: building the parser costs more than a light
# command, and parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except StableError as exc:
        _error_object(exc.code, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
