"""Spans around calls into each stablecov module, and the per-layer table.

The traced run replaces module attributes of the library with wrappers that
record a span (name, start, end, parent, op id) and a few counts, then puts
the originals back.  Library source is not touched: the wrappers sit at the
attributes through which the benchmark's own code, ``stablecov.cli`` and the
library's cross-module imports make their calls, so nested calls become
child spans and each layer's self time can be derived.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("spectral", "covariation", "series", "fracderiv", "dependence", "sampler", "cli")
CLI_SUBCOMMANDS = ("validate", "covar", "series", "chf", "sample", "fracderiv", "check")


def _model_atoms(model) -> int:
    return len(model.measure.atoms)


def _count_dict_build(counts, args, kwargs, result):
    # atoms in: atoms handed to the build call; atoms out: atoms kept.
    data = args[0] if args else kwargs["data"]
    counts["spectral.atoms_in"] += len(data["atoms"])
    if not isinstance(result, BaseException):
        counts["spectral.atoms_out"] += _model_atoms(result)


def _count_discretize(counts, args, kwargs, result):
    counts["spectral.atoms_in"] += int(args[1] if len(args) > 1 else kwargs["n_points"])
    if not isinstance(result, BaseException):
        counts["spectral.atoms_out"] += len(result.atoms)


def _count_pushforward(counts, args, kwargs, result):
    counts["spectral.atoms_in"] += _model_atoms(args[0])
    if not isinstance(result, BaseException):
        counts["spectral.atoms_out"] += _model_atoms(result)


def _count_covariation(counts, args, kwargs, result):
    counts["covariation.atom_evals"] += _model_atoms(args[0])


def _count_limit_check(counts, args, kwargs, result):
    # One atom loop per epsilon; the reference integral is its own span.
    eps = args[3] if len(args) > 3 else kwargs.get("epsilons", range(7))
    counts["covariation.atom_evals"] += _model_atoms(args[0]) * len(eps)


def _count_series(counts, args, kwargs, result):
    if isinstance(result, BaseException):
        expansion = getattr(result, "expansion", None)  # TruncationError
        if expansion is None:
            return
        counts["series.refusals"] += 1
        result = expansion
    counts["series.terms"] += len(result)


def _count_sample(counts, args, kwargs, result):
    if not isinstance(result, BaseException):
        counts["sampler.draws"] += result.n
        counts["sampler.nonfinite"] += int(np.count_nonzero(~np.isfinite(result.draws)))


def _count_cli(counts, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    counts[f"cli.calls.{argv[0]}"] += 1


# (module, attribute, span name, counter).  Span names are "<layer>.<what>".
PATCHES = (
    ("stablecov.spectral", "discretize_density", "spectral.discretize_density", _count_discretize),
    ("stablecov.spectral", "model_from_dict", "spectral.model_from_dict", _count_dict_build),
    ("stablecov.spectral", "load_model", "spectral.load_model", None),
    ("stablecov.spectral", "pushforward_linear", "spectral.pushforward_linear", _count_pushforward),
    ("stablecov.covariation", "pushforward_linear", "spectral.pushforward_linear", _count_pushforward),
    ("stablecov.spectral", "scale_parameter_direct", "spectral.scale_parameter_direct", None),
    ("stablecov.spectral", "characteristic_function", "spectral.characteristic_function", None),
    ("stablecov.dependence", "characteristic_function", "spectral.characteristic_function", None),
    *((module, "symmetric_covariation", "covariation.symmetric_covariation", _count_covariation)
      for module in ("stablecov.covariation", "stablecov.cli", "stablecov.dependence")),
    ("stablecov.covariation", "covariation_limit_check", "covariation.limit_check",
     _count_limit_check),
    ("stablecov.dependence", "linear_combination_covariation",
     "covariation.linear_combination_covariation", _count_covariation),
    ("stablecov.dependence", "linear_combination_via_pushforward",
     "covariation.linear_combination_via_pushforward", None),
    ("stablecov.series", "scale_parameter_series", "series.scale_parameter_series", _count_series),
    ("stablecov.dependence", "scale_parameter_series", "series.scale_parameter_series", _count_series),
    ("stablecov.series", "chf_series", "series.chf_series", None),
    ("stablecov.fracderiv", "power_rule", "fracderiv.power_rule", None),
    ("stablecov.covariation", "power_rule", "fracderiv.power_rule", None),
    ("stablecov.fracderiv", "frac_derivative_numeric", "fracderiv.numeric", None),
    *(("stablecov.dependence", f, f"dependence.{f}", None)
      for f in ("independence_necessary_report", "independence_sufficient_check",
                "james_bound_check", "even_series_identity_check", "additivity_check")),
    ("stablecov.sampler", "sample_vector", "sampler.sample_vector", _count_sample),
    ("stablecov.sampler", "empirical_chf", "sampler.empirical_chf", None),
    ("stablecov.cli", "main", "cli.main", _count_cli),
)

SPECTRAL_BUILD_SPANS = (
    "spectral.discretize_density",
    "spectral.model_from_dict",
    "spectral.load_model",
    "spectral.StableModel",
)
SPECTRAL_READ_SPANS = ("spectral.scale_parameter_direct", "spectral.characteristic_function")


class Tracer:
    """Collects spans in memory while ``active``; counts ride along."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx, parent = self._open()
            outcome = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                self._close(idx, parent, name, start)
                if counter is not None and outcome is not None:
                    counter(self.counts, args, kwargs, outcome)

        return traced

    @contextmanager
    def span(self, name):
        """Span around a call the benchmark makes itself (e.g. a constructor)."""
        if not self.active:
            yield
            return
        idx, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)

    def install(self):
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str, stamp: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": stamp}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


_UNITS = (("draws_per_s", "1/s"), ("us_per_term", "us"), ("bytes_out", "B"), ("_s", "s"),
          ("_ratio", "1"), ("_exponent", "1"))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name; plain counts are "count"."""
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "count")


def _slope(xs, ys) -> float:
    # Least-squares slope of log(y) over log(x).
    lx, ly = np.log(xs), np.log(ys)
    return float(np.polyfit(lx, ly, 1)[0])


def layer_metrics(tracer: Tracer, op_sizes: dict[int, int] | None = None) -> dict[str, float]:
    """Derive the per-layer table from the recorded spans and counts.

    busy: time inside a layer's outermost spans (not nested in the same
    layer).  self: span time minus the time of its child spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: Counter = Counter()  # per layer
    self_time: Counter = Counter()  # per layer
    calls: Counter = Counter()  # per layer, outermost spans
    by_name: Counter = Counter()  # time per span name, and metric groups
    n_by_name: Counter = Counter()
    build_by_op: dict[int, float] = defaultdict(float)
    for idx, (name, start, end, parent, op) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        self_time[layer] += dur - child_time[idx]
        pname = spans[parent][0] if parent >= 0 else ""
        if not pname.startswith(layer + "."):
            busy[layer] += dur
            calls[layer] += 1
        outer_build = name in SPECTRAL_BUILD_SPANS and pname not in SPECTRAL_BUILD_SPANS
        if outer_build:
            by_name["spectral.build.calls"] += 1
            by_name["spectral.build.busy_s"] += dur
        if outer_build or name == "spectral.pushforward_linear":
            build_by_op[op] += dur
        if name in SPECTRAL_READ_SPANS:
            by_name["spectral.read.calls"] += 1
            by_name["spectral.read.busy_s"] += dur
        n_by_name[name] += 1
        by_name[name] += dur

    growth = 0.0
    if op_sizes:
        per_size: dict[int, list[float]] = defaultdict(list)
        for op, t in build_by_op.items():
            per_size[op_sizes[op]].append(t)
        if len(per_size) >= 2:
            sizes = sorted(per_size)
            growth = _slope(sizes, [float(np.mean(per_size[s])) for s in sizes])

    c = tracer.counts
    atoms_in = c["spectral.atoms_in"]
    series_busy = by_name["series.scale_parameter_series"]
    sample_busy = by_name["sampler.sample_vector"]
    out = {
        "spectral.build.calls": by_name["spectral.build.calls"],
        "spectral.build.busy_s": by_name["spectral.build.busy_s"],
        "spectral.pushforward.busy_s": by_name["spectral.pushforward_linear"],
        "spectral.build.growth_exponent": growth,
        "spectral.atoms_in": atoms_in,
        "spectral.atoms_out": c["spectral.atoms_out"],
        "spectral.merge_keep_ratio": c["spectral.atoms_out"] / atoms_in if atoms_in else 0.0,
        "spectral.read.calls": by_name["spectral.read.calls"],
        "spectral.read.busy_s": by_name["spectral.read.busy_s"],
        "covariation.calls": calls["covariation"],
        "covariation.busy_s": busy["covariation"],
        "covariation.atom_evals": c["covariation.atom_evals"],
        "covariation.limit_check.busy_s": by_name["covariation.limit_check"],
        "series.calls": n_by_name["series.scale_parameter_series"],
        "series.busy_s": busy["series"],
        "series.terms": c["series.terms"],
        "series.us_per_term": 1e6 * series_busy / c["series.terms"] if c["series.terms"] else 0.0,
        "series.refusals": c["series.refusals"],
        "fracderiv.power_rule.busy_s": by_name["fracderiv.power_rule"],
        "fracderiv.numeric.calls": n_by_name["fracderiv.numeric"],
        "fracderiv.numeric.busy_s": by_name["fracderiv.numeric"],
        "dependence.calls": calls["dependence"],
        "dependence.busy_s": busy["dependence"],
        "sampler.draws": c["sampler.draws"],
        "sampler.busy_s": sample_busy,
        "sampler.draws_per_s": c["sampler.draws"] / sample_busy if sample_busy else 0.0,
        "sampler.nonfinite": c["sampler.nonfinite"],
        "sampler.chf.busy_s": by_name["sampler.empirical_chf"],
        **{f"cli.calls.{sub}": c[f"cli.calls.{sub}"] for sub in CLI_SUBCOMMANDS},
        "cli.self_s": self_time["cli"],
        "cli.bytes_out": c["cli.bytes_out"],
    }
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = self_time[layer]
    return {k: float(v) if unit_of(k) not in ("count", "B") else int(v) for k, v in out.items()}
