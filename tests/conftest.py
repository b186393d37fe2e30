"""Shared measure builders for the test suite."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from stablecov import (
    NumericalError,
    SeriesExpansion,
    SpectralMeasure,
    StableModel,
    linear_combination_covariation,
    symmetrize,
)
from stablecov.series import DEFAULT_N_MAX

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Every weight is finite, but sigma**alpha at theta = (0.5, 1) is about
# 2.4e308, past the float range.
OVERFLOW_SPEC = {
    "alpha": 1.5,
    "auto_symmetrize": True,
    "atoms": [{"s": [0.6, 0.8], "w": 1e308}, {"s": [0.8, 0.6], "w": 1e308}],
}
OVERFLOW_THETA = (0.5, 1.0)
# The same atoms at the largest weights: the covariation sums and the series'
# uniform dominator pass the float range too.
HUGE_WEIGHT_SPEC = {
    **OVERFLOW_SPEC,
    "atoms": [{"s": [0.6, 0.8], "w": 1.7e308}, {"s": [0.8, 0.6], "w": 1.7e308}],
}


def make_measure(dim, points):
    return SpectralMeasure.from_points(dim, points)


def diagonal_model(alpha):
    """Mass 1 split on +-(1,1)/sqrt(2): the law of (X, X)."""
    measure = make_measure(
        2, [((INV_SQRT2, INV_SQRT2), 0.5), ((-INV_SQRT2, -INV_SQRT2), 0.5)]
    )
    return StableModel(alpha, measure)


def anti_diagonal_model(alpha):
    measure = make_measure(
        2, [((INV_SQRT2, -INV_SQRT2), 0.5), ((-INV_SQRT2, INV_SQRT2), 0.5)]
    )
    return StableModel(alpha, measure)


def axis_model(alpha, w1=0.25, w2=0.25):
    """Mass on the four axis points: the law of an independent pair."""
    measure = make_measure(
        2,
        [((1.0, 0.0), w1), ((-1.0, 0.0), w1), ((0.0, 1.0), w2), ((0.0, -1.0), w2)],
    )
    return StableModel(alpha, measure)


def quadrant_model(alpha, sx=0.6, sy=0.8, w=0.25):
    """Sign-symmetric four-point measure; all odd-branch covariations vanish."""
    measure = make_measure(
        2,
        [((sx, sy), w), ((sx, -sy), w), ((-sx, sy), w), ((-sx, -sy), w)],
    )
    return StableModel(alpha, measure)


def line_model(alpha, lam, mass=1.0):
    """The law of (lam*X, X): mass on +-(lam, 1)/sqrt(1+lam^2)."""
    norm = math.hypot(lam, 1.0)
    measure = make_measure(
        2, [((lam / norm, 1.0 / norm), mass / 2.0), ((-lam / norm, -1.0 / norm), mass / 2.0)]
    )
    return StableModel(alpha, measure)


def second_axis_model(alpha, mass=1.0):
    """Degenerate measure concentrated on (0, +-1)."""
    measure = make_measure(2, [((0.0, 1.0), mass / 2.0), ((0.0, -1.0), mass / 2.0)])
    return StableModel(alpha, measure)


def random_symmetric_measure(rng, dim=2, max_atoms=8, min_weight=0.05, max_weight=1.0):
    k = int(rng.integers(1, max_atoms + 1))
    dirs = rng.normal(size=(k, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    weights = rng.uniform(min_weight, max_weight, size=k)
    return symmetrize(make_measure(dim, list(zip(dirs, weights))))


def random_model(rng, dim=2, alpha_range=(0.25, 2.0), max_atoms=8):
    alpha = float(rng.uniform(*alpha_range))
    return StableModel(alpha, random_symmetric_measure(rng, dim=dim, max_atoms=max_atoms))


def paired_model(alpha, angles, weights):
    """Atoms at the given angles with their antipodes, each pair at its weight."""
    points = []
    for angle, w in zip(angles, weights):
        s = (math.cos(angle), math.sin(angle))
        points += [(s, w), ((-s[0], -s[1]), w)]
    return StableModel(alpha, make_measure(2, points))


def diagonal_theta(model, atom, scale=1.0, signs=(1.0, 1.0)):
    """theta = scale * (|s2|, |s1|) of one atom, up to signs: that atom's
    scaled coordinates have equal magnitudes, so its rho is 1 (to an ulp)."""
    s1, s2 = model.measure.directions[atom].tolist()
    return (signs[0] * scale * abs(s2), signs[1] * scale * abs(s1))


def grid_refusal_case():
    """A 128-atom model and a theta on one atom's rho = 1 diagonal, where the
    series is refused at the default term cap for tol 1e-12; most of its
    ladder columns underflow to zero long before the cap."""
    angles = [(j + 0.5) * math.pi / 64 for j in range(64)]
    weights = [0.2 + 0.8 * abs(math.sin(3.0 * a)) for a in angles]
    model = paired_model(1.3, angles, weights)
    return model, diagonal_theta(model, 20, 1.1, (-1.0, 1.0))


ARRAY_FIELDS = ("coefficients", "covariations", "terms", "partial_sums", "tail_bounds")


def hex_fields(expansion):
    """Every field of an expansion in field order, each float as float.hex so
    that signed zeros count, the per-term arrays and theta as lists of them.
    Fails unless the per-term fields are read-only float64 arrays and the
    others Python floats, ints or bools (a numpy scalar fails)."""

    def exact(name, x):
        assert type(x) in (float, int, bool), (name, type(x))
        return x.hex() if type(x) is float else repr(x)

    fields = {}
    for field in dataclasses.fields(expansion):
        name, value = field.name, getattr(expansion, field.name)
        if name in ARRAY_FIELDS:
            assert type(value) is np.ndarray and value.dtype == np.float64, f"{name} is no float64 array"
            assert not value.flags.writeable, f"{name} is writeable"
            fields[name] = [x.hex() for x in value.tolist()]
        elif name == "theta":
            assert type(value) is tuple, (name, type(value))
            fields[name] = [exact(name, x) for x in value]
        else:
            fields[name] = exact(name, value)
    return fields


def first_mismatches(got, expected):
    """Per field of two hex_fields dicts that differ, the first index at
    which they differ with both values: a short report for long expansions."""
    report = []
    for name, want in expected.items():
        have = got[name]
        if have == want:
            continue
        if isinstance(want, list):
            k = next((k for k, (a, b) in enumerate(zip(have, want)) if a != b), None)
            if k is None:
                report.append(f"{name}: length {len(have)} != {len(want)}")
            else:
                report.append(f"{name}[{k}]: {have[k]} != {want[k]}")
        else:
            report.append(f"{name}: {have} != {want}")
    return report


def series_coefficient(alpha, k):
    """(alpha)_k / k!, multiplied up from 1 in the order of the series recurrence."""
    return math.prod((alpha - i) / (i + 1.0) for i in range(k))


def series_term(model, theta, k):
    """Independent k-th term of the scale-parameter series: (alpha)_k / k! times
    the kernel integral at beta = k, m = k mod 2 on the scaled pair
    (theta1*X1, theta2*X2); raises DomainError for k < 0."""
    cov = linear_combination_covariation(
        model, (theta[0], 0.0), (0.0, theta[1]), float(k), k % 2
    )
    return series_coefficient(model.alpha, k) * cov


def series_ladder(model, theta, tol, n_max=DEFAULT_N_MAX):
    """Term-by-term oracle of scale_parameter_series: one row product, one
    Python coefficient step and one scalar remainder majorant per term, then
    the ordered folds.  Returns the expansion that the library returns or
    carries in its TruncationError, with the same arithmetic in the same order."""
    alpha = model.alpha
    t = np.asarray(theta, dtype=float)
    dirs, w = model.measure.directions, model.measure.weights
    u, v = dirs[:, 0] * t[0], dirs[:, 1] * t[1]
    au, av = np.abs(u), np.abs(v)
    small, large = np.minimum(au, av), np.maximum(au, av)
    sgn = np.sign(u) * np.sign(v)
    active = large > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        powers = w * np.float_power(np.where(active, large, 1.0), alpha)
    dominators = np.where(active, np.where(w > 0.0, powers, w), 0.0)  # a weight of +-0 is itself
    rho = np.where(active, small / np.where(active, large, 1.0), 0.0)
    rho_max = float(rho.max()) if rho.size else 0.0
    c_uniform = float(dominators.sum())

    coeffs, covs, dominated = [], [], []
    r = dominators.copy()
    coeff = 1.0
    for j in range(n_max):
        if j:
            r *= rho
            r *= r >= np.finfo(float).tiny  # products below the normal range are 0
            coeff *= (alpha - (j - 1)) / j
        t_j = float(r.sum())
        cov_j = t_j if j % 2 == 0 else float(np.sum(r * sgn))
        coeffs.append(coeff)
        covs.append(cov_j)
        dominated.append(abs(coeff) * t_j)
        rest = _remainder_majorant(alpha, j, abs(coeff), t_j, rho_max, c_uniform)
        if rest <= tol / 10.0:
            break

    suffix = list(itertools.accumulate(reversed(dominated), initial=rest))[::-1]
    stop = next((k for k in range(len(coeffs)) if suffix[k + 1] <= tol), len(coeffs) - 1)
    terms = [c * cov for c, cov in zip(coeffs[: stop + 1], covs)]
    slack = 1e-12 * (c_uniform + 1.0)
    escaped = next((k for k, t in enumerate(terms) if abs(t) > dominated[k] + slack), None)
    if escaped is not None:
        raise NumericalError(f"series term {escaped} escaped its domination bound")
    return SeriesExpansion(
        alpha=alpha,
        theta=(float(t[0]), float(t[1])),
        coefficients=coeffs[: stop + 1],
        covariations=covs[: stop + 1],
        terms=terms,
        partial_sums=list(itertools.accumulate(terms, initial=0.0))[1:],
        tail_bounds=suffix[1 : stop + 2],
        truncation_index=stop,
        tail_bound=suffix[stop + 1],
        converged=suffix[stop + 1] <= tol,
        requested_tol=tol,
    )


def _remainder_majorant(alpha, j, abs_coeff, t_j, rho_max, c_uniform):
    # The smaller of the geometric and the polynomial bound on
    # sum_{i>j} |coeff_i| * T_i (see scale_parameter_series).
    if abs_coeff == 0.0:
        return 0.0
    bounds = []
    if rho_max < 1.0:
        grow = max(alpha, 1.0) if j == 0 else 1.0
        bounds.append(grow * abs_coeff * t_j * rho_max / (1.0 - rho_max))
    if j > alpha:
        bounds.append(c_uniform * abs_coeff * j / alpha)
    return min(bounds) if bounds else math.inf


def standard_sas_oracle(alpha, n, seed, stream):
    """Whole-array Chambers-Mallows-Stuck draws from the Philox stream keyed
    by (seed, stream), unchecked: the oracle of sample_standard_sas."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    r = np.random.Generator(np.random.Philox(key=key)).random((n, 2))
    with np.errstate(all="ignore"):
        u = math.pi * (r[:, 0] - 0.5)
        w = -np.log1p(-r[:, 1])
        if alpha == 1.0:
            return np.tan(u)
        z = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
        z *= (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return z


def sample_vector_oracle(model, n, seed):
    """Whole-array oracle of sample_vector: each nonzero-weight atom's n draws
    in one pass, scaled and added onto zeros in stored atom order."""
    alpha = model.alpha
    dirs, weights = model.measure.directions, model.measure.weights
    out = np.zeros((n, model.dim))
    with np.errstate(all="ignore"):
        for j in np.flatnonzero(weights).tolist():
            z = standard_sas_oracle(alpha, n, seed, j)
            out += (weights[j] ** (1.0 / alpha) * z)[:, None] * dirs[j][None, :]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
