"""The three workloads: setup, one op, and the check of that op's answer.

``fixed_inputs(seed, workdir)`` makes the inputs of a workload's fixed
models; the constructor builds those models (the set-up that ``setup_s``
times) and ``schedule()`` then makes the seeded op inputs.  ``op(i)`` runs
op ``i`` of the schedule and ``check(i, outcome)`` verifies the answer
outside the op's timed interval.  ``check`` returns None for a
verified answer, ``(REFUSED, code)`` for a verified refusal (a series whose
tail cannot be certified within the term cap) and ``(FAILED, code)`` for
any other typed ``StableError``; it raises ``WrongAnswer`` for anything
that contradicts the library's contract.
Library calls go through module attributes so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os

import numpy as np

from stablecov import cli, covariation, sampler, series, spectral
from stablecov.errors import StableError, TruncationError

from . import inputs


REFUSED = "refused"
FAILED = "failed"


class WrongAnswer(Exception):
    """An op returned an answer that fails its correctness check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _close(got: float, want: float, rel: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= rel * max(abs(want), scale)


def _projection(dirs: np.ndarray, w: np.ndarray, alpha: float, theta) -> float:
    # Reference sigma**alpha(theta) = sum w |<theta, s>|**alpha.
    return float(np.sum(w * np.abs(dirs @ np.asarray(theta, dtype=float)) ** alpha))


def _covariation_ref(dirs, w, alpha, beta, m) -> tuple[float, float]:
    # Reference kernel integral and its dominator sum w * large**alpha.
    a = np.abs(dirs)
    small, large = a.min(axis=1), a.max(axis=1)
    vals = np.where(large > 0.0, small**beta * large ** (alpha - beta), 0.0)
    if m == 1:
        vals = vals * np.sign(dirs[:, 0] * dirs[:, 1])
    return float(np.sum(w * vals)), float(np.sum(w * large**alpha))


def _symmetric_and_merged(dirs: np.ndarray, w: np.ndarray, tol: float = 1e-12) -> bool:
    # Every atom has an antipode of equal weight and no two atoms coincide.
    anti = np.all(np.abs(dirs[:, None, :] + dirs[None, :, :]) <= tol, axis=2)
    same = np.all(np.abs(dirs[:, None, :] - dirs[None, :, :]) <= tol, axis=2)
    equal_w = np.abs(w[:, None] - w[None, :]) <= tol
    return bool(np.all(np.any(anti & equal_w, axis=1)) and np.all(same.sum(axis=1) == 1))


def _nullspan(name):
    return contextlib.nullcontext()


# Ops come from the head of a schedule and warm-up ops from its tail, so no
# input is seen twice in a run (the CLI's quadrature-rule cache would hit).


class BuildMeasure:
    """Writes to spectral: build one 2-D measure per op, then push it forward."""

    name = "build-measure"
    schedule_len = 360
    warmup_ops = 3
    nominal_ops_per_s = 6.0

    @staticmethod
    def fixed_inputs(seed: int, workdir: str):
        return None  # every op builds its own measure

    def __init__(self, seed: int, fixed):
        self.seed = seed
        self.span = _nullspan

    def schedule(self) -> None:
        self.ops = inputs.build_measure_inputs(self.seed, self.schedule_len)

    def size(self, i: int) -> int:
        return self.ops[i].n

    def op(self, i: int):
        o = self.ops[i]
        try:
            if o.route == "discretize":
                measure = spectral.discretize_density(inputs.fourier_density(o.density_coeffs), o.n)
                with self.span("spectral.StableModel"):
                    model = spectral.StableModel(o.alpha, measure)
            else:
                model = spectral.model_from_dict(o.spec)
            return model, spectral.pushforward_linear(model, o.a, o.b)
        except StableError as exc:
            return exc.with_traceback(None)

    def check(self, i: int, outcome):
        if isinstance(outcome, StableError):
            return FAILED, outcome.code
        o = self.ops[i]
        model, pushed = outcome
        m = model.measure
        _require(len(m.atoms) == o.n, f"built {len(m.atoms)} atoms, expected {o.n}")
        _require(_symmetric_and_merged(m.directions, m.weights), "built measure not symmetric")
        _require(_close(m.total_mass, o.input_mass, 1e-12), "total mass not preserved")
        want = 2 if o.rank1 else o.n
        _require(len(pushed.measure.atoms) == want and pushed.n_dropped_atoms == 0,
                 f"pushforward kept {len(pushed.measure.atoms)} atoms, expected {want}")
        t = o.theta
        direct = spectral.scale_parameter_direct(pushed, t)
        via = spectral.scale_parameter_direct(model, t[0] * o.a + t[1] * o.b)
        _require(_close(direct, via, 1e-9), f"pushforward scale {direct!r} != {via!r}")
        return None


class SeriesQueries:
    """Reads spectral and loads series, covariation and fracderiv on fixed models."""

    name = "series-queries"
    schedule_len = 12000
    warmup_ops = 20
    nominal_ops_per_s = 130.0

    @staticmethod
    def fixed_inputs(seed: int, workdir: str):
        return inputs.series_specs(seed)

    def __init__(self, seed: int, specs):
        self.seed, self.specs = seed, specs
        self.models = [spectral.model_from_dict(spec) for spec in specs]
        self.span = _nullspan
        self.limit_not_passed = 0  # limit checks that report passed = False

    def schedule(self) -> None:
        self.ops = inputs.series_query_inputs(self.seed, self.schedule_len, self.specs)

    def op(self, i: int):
        o = self.ops[i]
        model = self.models[o.model]
        try:
            try:
                expansion = series.scale_parameter_series(model, o.theta, o.tol)
            except TruncationError as exc:
                # Drop the traceback: it would tie the expansion into a frame cycle.
                expansion = exc.with_traceback(None)
            direct = spectral.scale_parameter_direct(model, o.theta)
            cov = covariation.symmetric_covariation(model, o.beta, o.m)
            limit = (
                covariation.covariation_limit_check(model, o.beta, o.m) if o.limit_check else None
            )
        except StableError as exc:
            return exc.with_traceback(None)
        return expansion, direct, cov, limit

    def check(self, i: int, outcome):
        if isinstance(outcome, StableError):
            return FAILED, outcome.code
        o = self.ops[i]
        model = self.models[o.model]
        dirs, w, alpha = model.measure.directions, model.measure.weights, model.alpha
        expansion, direct, cov, limit = outcome
        sigma_a = _projection(dirs, w, alpha, o.theta)
        _require(_close(direct**alpha, sigma_a, 1e-12, 1e-300), "direct scale parameter wrong")
        refused = isinstance(expansion, TruncationError)
        if refused:
            expansion = expansion.expansion
            _require(
                not expansion.converged
                and expansion.tail_bound > o.tol
                and len(expansion) == series.DEFAULT_N_MAX,
                "refusal without an exhausted, uncertified expansion",
            )
        _require(
            abs(expansion.value - sigma_a) <= expansion.tail_bound + 1e-12 * (1.0 + sigma_a),
            f"series value {expansion.value!r} outside its tail bound of {sigma_a!r}",
        )
        ref, dominator = _covariation_ref(dirs, w, alpha, o.beta, o.m)
        _require(abs(cov - ref) <= 1e-12 * dominator, f"covariation {cov!r} != {ref!r}")
        if limit is not None:
            # The report passes only when its gaps never rise.  At alpha = 1.9
            # with small beta the gap changes sign as eps shrinks, so a
            # converged limit can honestly report passed = False; check the
            # convergence and that the report follows its own rule.
            gaps = limit.gaps
            slack = 1e-15 * (abs(limit.reference) + 1.0)
            monotone = all(g1 <= g0 + slack for g0, g1 in zip(gaps, gaps[1:]))
            _require(limit.final_gap < 1e-6, f"limit form off by {limit.final_gap!r}")
            _require(limit.passed == monotone, "limit report contradicts its gaps")
            if not limit.passed:
                self.limit_not_passed += 1
        return (REFUSED, TruncationError.code) if refused else None


def _parse_table(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class CliMix:
    """The user-facing CLI in process: seven subcommands, one in five a sample."""

    name = "cli-mix"
    schedule_len = 1200
    warmup_ops = 15
    nominal_ops_per_s = 12.0
    sample_check_rows = 64

    @staticmethod
    def fixed_inputs(seed: int, workdir: str):
        specs = inputs.cli_specs(seed)
        return specs, inputs.write_specs(specs, workdir), os.path.join(workdir, "sample.csv")

    def __init__(self, seed: int, fixed):
        self.seed = seed
        self.specs, self.paths, self.out_path = fixed
        self.models = {name: spectral.load_model(path) for name, path in self.paths.items()}
        self.span = _nullspan
        self.bytes_out = 0

    def schedule(self) -> None:
        self.ops = inputs.cli_mix_inputs(
            self.seed, self.schedule_len, self.specs, self.paths, self.out_path
        )

    def op(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.ops[i].argv)
        return rc, out.getvalue(), err.getvalue()

    def check(self, i: int, outcome):
        rc, out, err = outcome
        o = self.ops[i]
        kind = o.argv[0]
        self.bytes_out = len(out)
        if rc == 1:
            return FAILED, json.loads(err)["error"]
        _require(rc == 0, f"{kind} exited {rc}: {err.strip()}")
        flags = _flags(o.argv)
        as_json = flags.get("--format") == "json" or kind in ("validate", "check", "sample")
        doc = json.loads(out) if as_json else out
        getattr(self, f"_check_{kind}")(o, flags, doc)
        return None

    def _ref(self, o):
        m = self.models[o.spec]
        return m.measure.directions, m.measure.weights, m.alpha

    def _check_validate(self, o, flags, doc):
        spec = self.specs[o.spec]
        _require(doc["alpha"] == spec["alpha"], "validate changed alpha")
        mass = sum(a["w"] for a in doc["atoms"])
        _require(_close(mass, sum(a["w"] for a in spec["atoms"]), 1e-12), "validate lost mass")

    def _check_covar(self, o, flags, doc):
        value = doc["value"] if isinstance(doc, dict) else float(doc)
        dirs, w, alpha = self._ref(o)
        ref, dominator = _covariation_ref(dirs, w, alpha, float(flags["--beta"]), int(flags["--m"]))
        _require(abs(value - ref) <= 1e-12 * dominator, f"covar {value!r} != {ref!r}")

    def _check_series(self, o, flags, doc):
        if isinstance(doc, dict):
            value, tail = doc["value"], doc["tail_bound"]
        else:
            last = _parse_table(doc)[-1]
            value, tail = float(last["partial_sum"]), float(last["tail_bound"])
        dirs, w, alpha = self._ref(o)
        sigma_a = _projection(dirs, w, alpha, _theta(o))
        _require(abs(value - sigma_a) <= tail + 1e-12 * (1.0 + sigma_a), "series value outside bound")

    def _check_chf(self, o, flags, doc):
        row = doc if isinstance(doc, dict) else _parse_table(doc)[0]
        direct, via = float(row["chf_direct"]), float(row["chf_series"])
        dirs, w, alpha = self._ref(o)
        want = math.exp(-_projection(dirs, w, alpha, _theta(o)))
        _require(_close(direct, want, 1e-12), f"chf_direct {direct!r} != {want!r}")
        _require(abs(via - direct) <= float(flags["--tol"]) + 1e-12, "chf_series off its tolerance")

    def _check_check(self, o, flags, doc):
        _require(doc["passed"] is True and not doc["failures"], f"check failures {doc['failures']}")

    def _check_fracderiv(self, o, flags, doc):
        row = doc if isinstance(doc, dict) else _parse_table(doc)[0]
        p, beta, a, x = (float(flags[k]) for k in ("--p", "--beta", "--a", "--x"))
        u = x - a
        want = math.gamma(p + 1.0) / math.gamma(p - beta + 1.0) * abs(u) ** (p - beta)
        want *= math.copysign(1.0, u) if flags["--m"] == "1" else 1.0
        closed, numeric = float(row["closed_form"]), float(row["numeric"])
        _require(_close(closed, want, 1e-9), f"power rule {closed!r} != {want!r}")
        _require(abs(numeric - closed) <= 1e-3 * max(1.0, abs(closed)), "numeric derivative off")

    def _check_sample(self, o, flags, doc):
        n, seed = int(flags["--n"]), int(flags["--seed"])
        _require(doc["n"] == n and doc["seed"] == seed, "sample summary mismatch")
        dirs, w, alpha = self._ref(o)
        for entry in doc["chf"]:
            want = math.exp(-_projection(dirs, w, alpha, entry["theta"]))
            _require(_close(entry["model_chf"], want, 1e-12), "sample model_chf wrong")
        self.bytes_out += os.path.getsize(self.out_path)
        k = self.sample_check_rows
        # Stream the file: the check must not hold it whole, or its own
        # allocation would set the process's peak RSS.
        with open(self.out_path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            head = [line.rstrip("\n") for line in itertools.islice(fh, k)]
            rows = len(head) + sum(1 for _ in fh)
        _require(rows == n and header == "x1,x2", "sample CSV has wrong shape")
        want_rows = sampler.sample_vector(self.models[o.spec], k, seed).draws
        got = np.array([[float(c) for c in line.split(",")] for line in head])
        _require(np.array_equal(got, want_rows), "sample rows differ from sample_vector")


def _flags(argv: list[str]) -> dict[str, str]:
    # "--flag value" pairs; a flag with several values (--theta) keeps the first.
    return {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}


def _theta(o) -> list[float]:
    i = o.argv.index("--theta")
    return [float(o.argv[i + 1]), float(o.argv[i + 2])]


WORKLOADS = {w.name: w for w in (BuildMeasure, SeriesQueries, CliMix)}
