"""Seeded inputs for the three benchmark workloads.

Everything a workload feeds the library is made here from ``--seed`` before
any timing starts: angular densities, measure-spec dicts and files, the
(theta, tol, beta, m) draws and the CLI argument vectors.  The same seed
always gives the same inputs.

Each schedule is balanced over short stretches (size class, build route,
alpha, diagonal and limit-check ops, CLI subcommand), and the series query points
come from a seeded low-discrepancy sequence.  Seeds therefore change the
values an op sees but barely change the mix of op costs, so two seeds give
comparable throughput.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

BUILD_SIZES = (64, 128, 256)
# Shares 3:3:2.  p50 then falls inside the 128-atom ops and p90 inside the
# middle-cost 256-atom route, away from the jumps between cost classes.
BUILD_SIZE_PATTERN = (64, 128, 64, 256, 128, 64, 128, 256)
BUILD_ROUTES = ("discretize", "dict_antipodes_last", "dict_auto_symmetrize")
RANK1_EVERY = 5

SERIES_ALPHAS = (0.7, 1.0, 1.5, 1.9, 2.0)
SERIES_ATOMS = 128
DIAGONAL_EVERY = 10
LIMIT_CHECK_EVERY = 20

CLI_LIGHT = ("validate", "covar", "series", "chf", "check", "fracderiv")
CLI_SAMPLE_EVERY = 5
CLI_SAMPLE_N = 50000
CLI_SERIES_RHO_MAX = 0.9

# Kronecker steps of the R3 low-discrepancy sequence (powers of 1/phi_3,
# where phi_3 is the real root of x**4 = x + 1).
_PHI3 = 1.2207440846057596
R3_STEPS = (1.0 / _PHI3, 1.0 / _PHI3**2, 1.0 / _PHI3**3)


def _fourier_coeffs(rng: np.random.Generator, harmonics: int = 3) -> np.ndarray:
    # Low-order cosine/sine coefficients scaled so 1 + sum(...) >= 0.2.
    c = rng.normal(size=(harmonics, 2))
    return c * (0.8 / np.abs(c).sum())


def fourier_density(coeffs: np.ndarray):
    """Positive angular density 1 + sum_k a_k cos(k phi) + b_k sin(k phi)."""
    pairs = [(k + 1, float(a), float(b)) for k, (a, b) in enumerate(coeffs)]

    def density(phi: float) -> float:
        return 1.0 + sum(a * math.cos(k * phi) + b * math.sin(k * phi) for k, a, b in pairs)

    return density


def _unit(angle: float) -> list[float]:
    return [math.cos(angle), math.sin(angle)]


def _neg(s: list[float]) -> list[float]:
    return [-x for x in s]


# --------------------------------------------------------------------------
# build-measure


@dataclass(frozen=True)
class BuildOp:
    n: int  # atom count of the built measure
    route: str
    alpha: float
    density_coeffs: np.ndarray | None  # route "discretize"
    spec: dict | None  # routes "dict_*"
    a: np.ndarray
    b: np.ndarray
    rank1: bool
    theta: np.ndarray  # check point for the pushforward identity
    input_mass: float


def _build_op(rng, n: int, route: str, rank1: bool) -> BuildOp:
    alpha = float(rng.uniform(0.5, 2.0))
    coeffs = spec = None
    if route == "discretize":
        coeffs = _fourier_coeffs(rng)
        density = fourier_density(coeffs)
        step = 2.0 * math.pi / n
        mass = sum(density((j + 0.5) * step) * step for j in range(n))
    else:
        half = n // 2
        angles = rng.uniform(0.0, math.pi, size=half)
        weights = rng.uniform(0.5, 1.5, size=half) / n
        upper = [{"s": _unit(t), "w": float(w)} for t, w in zip(angles, weights)]
        if route == "dict_antipodes_last":
            # Every partner sits half a list away: the pairing scan's worst case.
            atoms = upper + [{"s": _neg(e["s"]), "w": e["w"]} for e in upper]
            spec = {"alpha": alpha, "atoms": atoms}
        else:
            # Random signs so the listed atoms cover the whole circle.
            for e, flip in zip(upper, rng.random(half) < 0.5):
                if flip:
                    e["s"] = _neg(e["s"])
            spec = {"alpha": alpha, "atoms": upper, "auto_symmetrize": True}
        mass = sum(e["w"] for e in spec["atoms"])
    a = rng.normal(size=2)
    # A power-of-two c keeps b = c*a exactly parallel in floating point, so
    # <b, s> = c*<a, s> exactly and the image directions coincide.
    b = float(rng.choice((-2.0, -0.5, 0.5, 2.0))) * a if rank1 else rng.normal(size=2)
    return BuildOp(n, route, alpha, coeffs, spec, a, b, rank1, rng.normal(size=2), mass)


def build_measure_inputs(seed: int, n_ops: int) -> list[BuildOp]:
    """Sizes follow BUILD_SIZE_PATTERN from a seeded offset.

    Within each size the three routes rotate from a seeded phase, and every
    fifth op of each (size, route) pair is rank-1 (b = c*a), so any stretch
    of ops holds each kind in its share, give or take one op.
    """
    rng = np.random.default_rng([seed, 1])
    offset = int(rng.integers(len(BUILD_SIZE_PATTERN)))
    route_seen = {n: int(rng.integers(len(BUILD_ROUTES))) for n in BUILD_SIZES}
    rank1_seen = {(n, r): int(rng.integers(RANK1_EVERY)) for n in BUILD_SIZES for r in BUILD_ROUTES}
    ops: list[BuildOp] = []
    for i in range(n_ops):
        n = BUILD_SIZE_PATTERN[(i + offset) % len(BUILD_SIZE_PATTERN)]
        route = BUILD_ROUTES[route_seen[n] % len(BUILD_ROUTES)]
        route_seen[n] += 1
        rank1_seen[n, route] += 1
        ops.append(_build_op(rng, n, route, rank1_seen[n, route] % RANK1_EVERY == 0))
    return ops


# --------------------------------------------------------------------------
# series-queries


def grid_spec(alpha: float, coeffs: np.ndarray, n: int) -> dict:
    """Midpoint discretization of a density as a spec, antipodes interleaved."""
    density = fourier_density(coeffs)
    step = 2.0 * math.pi / n
    atoms = []
    for j in range(n // 2):
        phi = (j + 0.5) * step
        # Fold the density onto the half circle so the measure is symmetric.
        w = 0.5 * (density(phi) + density(phi + math.pi)) * step
        s = _unit(phi)
        atoms.append({"s": s, "w": w})
        atoms.append({"s": _neg(s), "w": w})
    return {"alpha": alpha, "atoms": atoms}


@dataclass(frozen=True)
class SeriesOp:
    model: int  # index into SERIES_ALPHAS
    theta: tuple[float, float]
    tol: float
    beta: float
    m: int
    diagonal: bool
    limit_check: bool


def series_specs(seed: int) -> list[dict]:
    """Fixed 128-atom model specs, one per alpha in SERIES_ALPHAS."""
    rng = np.random.default_rng([seed, 2])
    return [grid_spec(a, _fourier_coeffs(rng), SERIES_ATOMS) for a in SERIES_ALPHAS]


def series_query_inputs(seed: int, n_ops: int, specs: list[dict]) -> list[SeriesOp]:
    """The query schedule on the models of ``series_specs(seed)``.

    theta and log10(tol) follow a Cranley-Patterson rotated R3 sequence.
    One op in ten puts theta on the rho = 1 diagonal of a random atom and one
    in twenty adds the fractional-derivative limit check; alpha rotates so
    every alpha takes its share of both kinds.
    """
    rng = np.random.default_rng([seed, 5])
    shift = rng.random(3)
    alpha_phase = int(rng.integers(len(SERIES_ALPHAS)))
    diag_phase = int(rng.integers(DIAGONAL_EVERY))
    # Limit checks never land on diagonal ops, so every seed has the same mix.
    limit_phase = (diag_phase + 1 + int(rng.integers(DIAGONAL_EVERY - 1))) % DIAGONAL_EVERY
    limit_phase += DIAGONAL_EVERY * int(rng.integers(LIMIT_CHECK_EVERY // DIAGONAL_EVERY))
    ops = []
    for i in range(n_ops):
        k = (i + i // DIAGONAL_EVERY + alpha_phase) % len(SERIES_ALPHAS)
        alpha = SERIES_ALPHAS[k]
        u = (shift + (i + 1) * np.asarray(R3_STEPS)) % 1.0
        diagonal = i % DIAGONAL_EVERY == diag_phase
        if diagonal:
            s1, s2 = specs[k]["atoms"][int(rng.integers(SERIES_ATOMS))]["s"]
            r = 2.0 * u[0]
            theta = (r * abs(s2) * rng.choice((-1.0, 1.0)), r * abs(s1) * rng.choice((-1.0, 1.0)))
        else:
            theta = (4.0 * u[0] - 2.0, 4.0 * u[1] - 2.0)
        ops.append(
            SeriesOp(
                model=k,
                theta=(float(theta[0]), float(theta[1])),
                tol=float(10.0 ** (-12.0 + 6.0 * u[2])),
                beta=float(rng.uniform(0.0, alpha)),
                m=int(rng.integers(2)),
                diagonal=diagonal,
                limit_check=i % LIMIT_CHECK_EVERY == limit_phase,
            )
        )
    return ops


# --------------------------------------------------------------------------
# cli-mix


def _pairs_spec(rng, alpha: float, pairs: int) -> dict:
    atoms = []
    for t, w in zip(rng.uniform(0.0, math.pi, size=pairs), rng.uniform(0.2, 1.0, size=pairs)):
        s = _unit(float(t))
        atoms += [{"s": s, "w": float(w)}, {"s": _neg(s), "w": float(w)}]
    return {"alpha": alpha, "atoms": atoms}


def cli_specs(seed: int) -> dict[str, dict]:
    """Small specs: 2-D with 4 to 16 atoms, an axis-supported one and a 3-D one."""
    rng = np.random.default_rng([seed, 3])
    alpha = lambda: float(rng.uniform(0.8, 1.9))  # noqa: E731
    specs = {f"pairs{2 * p}": _pairs_spec(rng, alpha(), p) for p in (2, 4, 6, 8)}
    auto = _pairs_spec(rng, alpha(), 5)
    specs["auto10"] = {"alpha": auto["alpha"], "atoms": auto["atoms"][::2], "auto_symmetrize": True}
    w1, w2 = (float(w) for w in rng.uniform(0.2, 1.0, size=2))
    specs["axes4"] = {
        "alpha": alpha(),
        "atoms": [
            {"s": [1.0, 0.0], "w": w1},
            {"s": [-1.0, 0.0], "w": w1},
            {"s": [0.0, 1.0], "w": w2},
            {"s": [0.0, -1.0], "w": w2},
        ],
    }
    # 3-D atoms in the (x1, x2) and (x1, x3) planes, so s2 * s3 = 0.
    atoms3 = []
    for plane in (1, 2, 1, 2):
        t = float(rng.uniform(0.0, math.pi))
        s = [math.cos(t), 0.0, 0.0]
        s[plane] = math.sin(t)
        w = float(rng.uniform(0.2, 1.0))
        atoms3 += [{"s": s, "w": w}, {"s": _neg(s), "w": w}]
    specs["plane3d8"] = {"alpha": alpha(), "atoms": atoms3}
    return specs


BIVARIATE_SPECS = ("pairs4", "pairs8", "pairs12", "pairs16", "auto10", "axes4")
SAMPLE_SPECS = ("pairs4", "pairs8", "pairs12", "pairs16")


def write_specs(specs: dict[str, dict], directory: str) -> dict[str, str]:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, spec in specs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    return paths


def _rho_max(spec: dict, theta) -> float:
    # Largest small/large ratio of the scaled atom coordinates; the series
    # needs about log(tol) / log(rho_max) terms.
    dirs = np.array([e["s"] for e in spec["atoms"]]) * np.asarray(theta)
    mags = np.abs(dirs)
    small, large = mags.min(axis=1), mags.max(axis=1)
    return float(np.max(np.where(large > 0.0, small / np.where(large > 0.0, large, 1.0), 0.0)))


def _theta_for(rng, spec: dict) -> list[float]:
    # The series subcommands must finish within the term cap, so keep theta
    # off the slow rho -> 1 regime; series-queries covers that regime.
    while True:
        theta = rng.uniform(-2.0, 2.0, size=2)
        if _rho_max(spec, theta) <= CLI_SERIES_RHO_MAX:
            return [float(t) for t in theta]


@dataclass(frozen=True)
class CliOp:
    argv: list[str]
    spec: str | None  # spec name, None for fracderiv


def cli_mix_inputs(
    seed: int, n_ops: int, specs: dict[str, dict], spec_paths: dict[str, str], out_path: str
) -> list[CliOp]:
    """Four ops in five are light subcommands in rotation; one is a sample.

    Each light subcommand cycles through every (spec, format) pair from a
    seeded phase, so any stretch of ops holds each pair in its share.
    """
    rng = np.random.default_rng([seed, 4])
    sample_phase = int(rng.integers(CLI_SAMPLE_EVERY))
    light_phase = int(rng.integers(len(CLI_LIGHT)))
    pair_seen = {kind: int(rng.integers(2 * len(BIVARIATE_SPECS))) for kind in CLI_LIGHT}
    ops: list[CliOp] = []
    n_light = n_sample = n_check = 0
    for i in range(n_ops):
        if i % CLI_SAMPLE_EVERY == sample_phase:
            name = SAMPLE_SPECS[n_sample % len(SAMPLE_SPECS)]
            n_sample += 1
            argv = ["sample", "--input", spec_paths[name], "--n", str(CLI_SAMPLE_N),
                    "--seed", str(int(rng.integers(2**31))), "--out", out_path]
            ops.append(CliOp(argv, name))
            continue
        kind = CLI_LIGHT[(n_light + light_phase) % len(CLI_LIGHT)]
        n_light += 1
        pair = pair_seen[kind]
        pair_seen[kind] += 1
        name = BIVARIATE_SPECS[pair % len(BIVARIATE_SPECS)]
        fmt = ["--format", ("csv", "json")[pair // len(BIVARIATE_SPECS) % 2]]
        spec = specs[name]
        tol = ["--tol", repr(float(10.0 ** rng.uniform(-10.0, -6.0)))]
        if kind == "validate":
            argv = ["validate", "--input", spec_paths[name]]
        elif kind == "covar":
            beta = float(rng.uniform(0.0, spec["alpha"]))
            argv = ["covar", "--input", spec_paths[name], "--beta", repr(beta),
                    "--m", str(int(rng.integers(2)))] + fmt
        elif kind in ("series", "chf"):
            theta = _theta_for(rng, spec)
            argv = [kind, "--input", spec_paths[name], "--theta", *map(repr, theta)] + tol + fmt
        elif kind == "check":
            # Every other check runs the 3-D spec through the additivity path.
            name = "plane3d8" if n_check % 2 else name
            n_check += 1
            argv = ["check", "--input", spec_paths[name]]
        else:
            name = None
            a = float(rng.uniform(-1.0, 1.0))
            x = a + float(rng.uniform(0.5, 2.0)) * float(rng.choice((-1.0, 1.0)))
            argv = ["fracderiv", "--p", repr(float(rng.uniform(0.5, 2.5))),
                    "--beta", repr(float(rng.uniform(0.1, 0.9) + rng.integers(2))),
                    "--m", str(int(rng.integers(2))), "--a", repr(a), "--x", repr(x)] + fmt
        ops.append(CliOp(argv, name))
    return ops
