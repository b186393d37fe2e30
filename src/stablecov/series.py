"""Convergent covariation-series expansion of the scale parameter.

For a bivariate model, sigma**alpha(theta1, theta2) equals the sum over k
of ((alpha)_k / k!) times the (alpha, k, k mod 2) covariation of the scaled
pair (theta1*X1, theta2*X2).  Terms are evaluated on the pre-scaled atom
coordinates (theta1*s1, theta2*s2) without renormalizing to the sphere; the
two formulations agree and skipping the pushforward avoids needless atom
merging.

Truncation is certified: every covariation of index k is dominated atom-wise
by w * large**alpha * rho**k with rho = small/large (magnitude-ordered scaled
coordinates), so the tail of the series is bounded by the factorial-coefficient
tail against that geometric majorant.  At rho = 1 the bound degrades to the
uniform dominator C = sum w * large**alpha times the absolute factorial tail,
which still converges (the coefficients decay like k**(-alpha-1)) but slowly;
expansions that cannot be certified within the term cap raise TruncationError
instead of returning an unverified sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, TruncationError
from .spectral import StableModel

DEFAULT_N_MAX = 10000


@dataclass(frozen=True)
class SeriesExpansion:
    """Term-by-term record of a truncated scale-parameter expansion."""

    alpha: float
    theta: tuple[float, float]
    coefficients: tuple[float, ...]  # (alpha)_k / k!
    covariations: tuple[float, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    tail_bounds: tuple[float, ...]
    truncation_index: int
    tail_bound: float
    converged: bool
    requested_tol: float

    @property
    def value(self) -> float:
        return self.partial_sums[-1]

    def __len__(self) -> int:
        return len(self.terms)


def _scaled_pair(model: StableModel, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t = np.asarray(theta, dtype=float)
    if t.shape != (2,) or model.dim != 2:
        raise DimensionError("series operations require a bivariate model and theta pair")
    dirs = model.measure.directions
    return dirs[:, 0] * t[0], dirs[:, 1] * t[1], model.measure.weights


def scale_parameter_series(
    model: StableModel, theta, tol: float, n_max: int = DEFAULT_N_MAX
) -> SeriesExpansion:
    """Sum the covariation series until the certified tail drops below tol.

    Raises TruncationError (carrying the partial expansion) when the tail
    cannot be certified below tol within ``n_max`` terms.
    """
    if not tol > 0.0:
        raise DomainError("tolerance must be > 0")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    alpha = model.alpha
    u, v, w = _scaled_pair(model, theta)

    au, av = np.abs(u), np.abs(v)
    small = np.minimum(au, av)
    large = np.maximum(au, av)
    sgn = np.sign(u * v)
    active = large > 0.0
    dominators = np.where(active, w * np.where(active, large, 1.0) ** alpha, 0.0)
    rho = np.where(active, small / np.where(active, large, 1.0), 0.0)
    rho_max = float(rho.max()) if rho.size else 0.0
    c_uniform = float(dominators.sum())

    # Ladder pass: extend until the remainder majorant is negligible or the
    # cap is hit.  r holds dominators * rho**j; cov_j and T_j = sum(r) come
    # from the same ladder, so |cov_j| <= T_j by construction.  coeff is
    # (alpha)_j / j!, exactly zero past an integer alpha.
    coeffs: list[float] = []
    covs: list[float] = []
    dominated: list[float] = []  # |coeff_j| * T_j
    r = dominators.copy()
    coeff = 1.0
    for j in range(n_max):
        if j:
            r *= rho
            coeff *= (alpha - (j - 1)) / j
        t_j = float(r.sum())
        cov_j = t_j if j % 2 == 0 else float(np.sum(r * sgn))
        coeffs.append(coeff)
        covs.append(cov_j)
        dominated.append(abs(coeff) * t_j)
        rest = _remainder_majorant(alpha, j, abs(coeff), t_j, rho_max, c_uniform)
        if rest <= tol / 10.0:
            break

    # suffix[k] = sum_{j>=k} |coeff_j| * T_j + the remainder beyond the ladder,
    # summed from the far end; the tail bound after term k is suffix[k + 1].
    suffix = list(itertools.accumulate(reversed(dominated), initial=rest))[::-1]
    stop = next((k for k in range(len(coeffs)) if suffix[k + 1] <= tol), len(coeffs) - 1)
    converged = suffix[stop + 1] <= tol
    terms = [c * cov for c, cov in zip(coeffs[: stop + 1], covs)]
    slack = 1e-12 * (c_uniform + 1.0)
    escaped = next((k for k, t in enumerate(terms) if abs(t) > dominated[k] + slack), None)
    if escaped is not None:
        raise NumericalError(f"series term {escaped} escaped its domination bound")

    expansion = SeriesExpansion(
        alpha=alpha,
        theta=(float(np.asarray(theta)[0]), float(np.asarray(theta)[1])),
        coefficients=tuple(coeffs[: stop + 1]),
        covariations=tuple(covs[: stop + 1]),
        terms=tuple(terms),
        # Left to right from 0.0, as a running sum: a first term of -0.0 sums to 0.0.
        partial_sums=tuple(itertools.accumulate(terms, initial=0.0))[1:],
        tail_bounds=tuple(suffix[1 : stop + 2]),
        truncation_index=stop,
        tail_bound=suffix[stop + 1],
        converged=converged,
        requested_tol=tol,
    )
    if not converged:
        raise TruncationError(
            f"series tail not certified below {tol!r} within {n_max} terms "
            f"(tail bound {expansion.tail_bound:.3e})",
            expansion=expansion,
        )
    return expansion


def _remainder_majorant(
    alpha: float, j: int, abs_coeff: float, t_j: float, rho_max: float, c_uniform: float
) -> float:
    # Bounds sum_{i>j} |coeff_i| * T_i two ways and keeps the smaller:
    #   geometric: T_i <= T_j * rho_max**(i-j), and |coeff_i| <= grow * |coeff_j|
    #     where the coefficient ratio |alpha-l|/(l+1) is <= 1 for every l >= 1
    #     (alpha <= 2) and equals alpha at l = 0;
    #   polynomial: |coeff_i| <= |coeff_j| * (j/i)**(1+alpha) for j > alpha,
    #     whose tail sums below |coeff_j| * j / alpha, against the uniform
    #     dominator.
    if abs_coeff == 0.0:
        return 0.0
    bounds = []
    if rho_max < 1.0:
        grow = max(alpha, 1.0) if j == 0 else 1.0
        bounds.append(grow * abs_coeff * t_j * rho_max / (1.0 - rho_max))
    if j > alpha:
        bounds.append(c_uniform * abs_coeff * j / alpha)
    return min(bounds) if bounds else math.inf


def gaussian_quadratic_form(model: StableModel, theta) -> float:
    """Quadratic form of the Gaussian case (alpha = 2) from variances and covariance.

    Var(X_i) is twice the i-th second moment of the measure and Cov(X1, X2)
    twice the mixed moment.
    """
    if model.alpha != 2.0:
        raise DomainError("gaussian_quadratic_form requires alpha = 2")
    if model.dim != 2:
        raise DimensionError("gaussian_quadratic_form requires a bivariate model")
    t = np.asarray(theta, dtype=float)
    dirs = model.measure.directions
    w = model.measure.weights
    var1 = 2.0 * float(np.sum(w * dirs[:, 0] ** 2))
    var2 = 2.0 * float(np.sum(w * dirs[:, 1] ** 2))
    cov = 2.0 * float(np.sum(w * dirs[:, 0] * dirs[:, 1]))
    return 0.5 * t[1] ** 2 * var2 + t[0] * t[1] * cov + 0.5 * t[0] ** 2 * var1


def chf_series(model: StableModel, theta, tol: float) -> float:
    """Characteristic function evaluated through the series expansion."""
    return math.exp(-scale_parameter_series(model, theta, tol).value)
