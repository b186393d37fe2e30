"""Command-line front end.

Subcommands load a measure-spec JSON file, dispatch to library operations,
and emit CSV or JSON.  Exit status: 0 on success, 1 on validation errors
(with a machine-readable error object on stderr), 2 on a failed property
check (with the failing invariant named).  All output is deterministic
given the input file, flags, and seed; floats print with 17 significant
digits so they round-trip.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dependence, fracderiv, sampler, series, spectral
from .covariation import symmetric_covariation
from .errors import StableError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2


def fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    """Resolved invocation: one command plus its validated options."""

    command: str
    input_path: str | None = None
    alpha_override: float | None = None
    beta: float | None = None
    m: int | None = None
    theta: tuple[float, ...] | None = None
    tolerance: float = 1e-10
    n: int = 100000
    seed: int = 0
    output_format: str = "csv"
    out_path: str | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValidationError("tolerance must be > 0")
        if self.command in ("validate", "covar", "series", "chf", "sample", "check"):
            if not self.input_path:
                raise ValidationError(f"command {self.command!r} requires --input")
        if self.command == "covar" and (self.beta is None or self.m is None):
            raise ValidationError("command 'covar' requires --beta and --m")
        if self.command in ("series", "chf") and self.theta is None:
            raise ValidationError(f"command {self.command!r} requires --theta")
        if self.command == "sample" and not self.out_path:
            raise ValidationError("command 'sample' requires --out for the draws CSV")


def _load_model(config: RunConfig) -> spectral.StableModel:
    return spectral.load_model(config.input_path, alpha_override=config.alpha_override)


def _write_out(config: RunConfig, text: str) -> None:
    if config.out_path:
        try:
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(
                f"cannot write output {config.out_path!r}: {exc}", code="unwritable_file"
            ) from exc
    else:
        sys.stdout.write(text)


def _rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _cmd_validate(config: RunConfig) -> int:
    model = _load_model(config)
    _write_out(config, json.dumps(spectral.model_to_dict(model), indent=2) + "\n")
    return EXIT_OK


def _cmd_covar(config: RunConfig) -> int:
    model = _load_model(config)
    value = symmetric_covariation(model, config.beta, config.m)
    if config.output_format == "json":
        _write_out(
            config,
            json.dumps({"alpha": model.alpha, "beta": config.beta, "m": config.m, "value": value})
            + "\n",
        )
    else:
        _write_out(config, fmt(value) + "\n")
    return EXIT_OK


def _cmd_series(config: RunConfig) -> int:
    model = _load_model(config)
    expansion = series.scale_parameter_series(model, config.theta, config.tolerance)
    rows = [
        (
            k,
            expansion.factorials[k],
            expansion.covariations[k],
            expansion.terms[k],
            expansion.partial_sums[k],
            expansion.tail_bounds[k],
        )
        for k in range(len(expansion))
    ]
    if config.output_format == "json":
        payload = {
            "theta": list(expansion.theta),
            "value": expansion.value,
            "truncation_index": expansion.truncation_index,
            "tail_bound": expansion.tail_bound,
            "converged": expansion.converged,
            "terms": [
                dict(
                    zip(
                        ("k", "falling_factorial", "covariation", "term", "partial_sum", "tail_bound"),
                        row,
                    )
                )
                for row in rows
            ],
        }
        _write_out(config, json.dumps(payload) + "\n")
    else:
        header = ("k", "falling_factorial", "covariation", "term", "partial_sum", "tail_bound")
        _write_out(config, _rows_to_csv(header, rows))
    return EXIT_OK


def _cmd_chf(config: RunConfig) -> int:
    model = _load_model(config)
    direct = spectral.characteristic_function(model, config.theta)
    via_series = series.chf_series(model, config.theta, config.tolerance)
    if config.output_format == "json":
        payload = {"theta": list(config.theta), "chf_direct": direct, "chf_series": via_series}
        _write_out(config, json.dumps(payload) + "\n")
    else:
        header = ("theta", "chf_direct", "chf_series")
        row = (" ".join(fmt(t) for t in config.theta), direct, via_series)
        _write_out(config, _rows_to_csv(header, [row]))
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


def _cmd_sample(config: RunConfig) -> int:
    model = _load_model(config)
    batch = sampler.sample_vector(model, config.n, config.seed)
    rows = [tuple(float(x) for x in row) for row in batch.draws]
    header = tuple(f"x{i + 1}" for i in range(batch.dim))
    _write_out(config, _rows_to_csv(header, rows))
    thetas = [tuple(config.theta)] if config.theta else _default_theta_grid(model.dim)
    summary = []
    for theta in thetas:
        re_emp, im_emp = sampler.empirical_chf(batch, theta)
        summary.append(
            {
                "theta": list(theta),
                "empirical_re": re_emp,
                "empirical_im": im_emp,
                "model_chf": spectral.characteristic_function(model, theta),
            }
        )
    payload = {"n": batch.n, "seed": batch.seed, "alpha": batch.alpha, "chf": summary}
    sys.stdout.write(json.dumps(payload) + "\n")
    return EXIT_OK


def _cmd_fracderiv(config: RunConfig) -> int:
    p = config.extras["p"]
    a = config.extras["a"]
    x = config.extras["x"]
    params = fracderiv.FracDerivParams(a=a, beta=config.beta, m=config.m)
    closed = fracderiv.power_rule(p, params, x)
    payload = {"p": p, "beta": config.beta, "m": config.m, "a": a, "x": x, "closed_form": closed}
    if config.extras.get("numeric", True):
        numeric = fracderiv.frac_derivative_numeric(lambda t: np.abs(t - a) ** p, params, x)
        payload["numeric"] = numeric
        payload["abs_difference"] = abs(numeric - closed)
    if config.output_format == "json":
        _write_out(config, json.dumps(payload) + "\n")
    else:
        keys = list(payload)
        _write_out(config, _rows_to_csv(keys, [tuple(payload[k] for k in keys)]))
    return EXIT_OK


def _cmd_check(config: RunConfig) -> int:
    model = _load_model(config)
    tol = config.tolerance
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
    _write_out(config, json.dumps(report, indent=2) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablecov",
        description="Covariation, series, and sampling tools for jointly stable laws "
        "given by discrete spectral measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="measure spec JSON file")
            p.add_argument(
                "--alpha-override", type=float, default=None, help="replace the spec file's alpha"
            )
        p.add_argument("--tol", type=float, default=1e-10, help="tolerance (default 1e-10)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format")
        p.add_argument("--out", default=None, help="write primary output to this path")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="load, validate, and re-emit a measure spec")
    add_common(p)

    p = sub.add_parser("covar", help="symmetric covariation of a bivariate model")
    add_common(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, choices=(0, 1), required=True)

    p = sub.add_parser("series", help="per-term expansion of sigma**alpha at theta")
    add_common(p)
    p.add_argument("--theta", type=float, nargs=2, required=True, metavar=("T1", "T2"))

    p = sub.add_parser("chf", help="characteristic function, direct and via the series")
    add_common(p)
    p.add_argument("--theta", type=float, nargs=2, required=True, metavar=("T1", "T2"))

    p = sub.add_parser("sample", help="draws as CSV plus an empirical-CHF JSON summary")
    add_common(p)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--theta", type=float, nargs="+", default=None)

    p = sub.add_parser("fracderiv", help="fractional derivative of |x-a|**p, closed form and numeric")
    add_common(p, needs_input=False)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, choices=(0, 1), required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--no-numeric", action="store_true", help="skip the numeric cross-check")

    p = sub.add_parser("check", help="run the dependence report suite, emit JSON")
    add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    extras = {}
    if args.command == "fracderiv":
        extras = {"p": args.p, "a": args.a, "x": args.x, "numeric": not args.no_numeric}
    theta = getattr(args, "theta", None)
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        alpha_override=getattr(args, "alpha_override", None),
        beta=getattr(args, "beta", None),
        m=getattr(args, "m", None),
        theta=tuple(theta) if theta is not None else None,
        tolerance=args.tol,
        n=getattr(args, "n", 100000),
        seed=args.seed,
        output_format=args.output_format,
        out_path=args.out,
        extras=extras,
    )


def run(config: RunConfig) -> int:
    return _COMMANDS[config.command](config)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except StableError as exc:
        _error_object(exc.code, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
