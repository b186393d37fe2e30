"""Symmetric covariations of jointly stable pairs and their relatives.

The central object is the magnitude-ordered kernel

    K(s1, s2) = |s1|**beta * |s2|**(alpha-beta) * sign**m(s1*s2)   if |s1| <= |s2|
                |s1|**(alpha-beta) * |s2|**beta * sign**m(s1*s2)   otherwise

integrated against a discrete spectral measure on the plane.  Ties use the
first branch; both branches agree there.  Conventions: 0**0 = 1 and
sign**0 = 1, including at 0.  K(0, 0) = 0 for every beta (the integrand is
the expansion of the zero function there).

Every integral over the atoms is one array expression on the measure's
``directions`` and ``weights``; that includes the fractional-derivative limit
form, which evaluates the power rule at all atoms at once for each epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import DegenerateError, DimensionError, DomainError
from .fracderiv import FracDerivParams, gamma_ratio, power_rule
from .spectral import StableModel, pushforward_linear, scale_parameter_direct


def _plain(value):
    # Reports to JSON-ready values: dataclasses and named tuples become dicts
    # in field order, other tuples become lists.
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if hasattr(value, "_asdict"):
        return {k: _plain(v) for k, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class Report:
    """Base of the check-report dataclasses; ``to_dict`` feeds the CLI's JSON."""

    def to_dict(self) -> dict:
        return _plain(self)


def _check_order(beta: float, m: int) -> None:
    # The (beta, m) half of a covariation index; alpha is checked by StableModel.
    if beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta!r}")
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta!r}")
    if m not in (0, 1):
        raise DomainError(f"m must be 0 or 1, got {m!r}")


def kernel_values(
    alpha: float, beta: float, m: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Vectorized kernel over paired coordinate arrays."""
    au = np.abs(u)
    av = np.abs(v)
    small = np.minimum(au, av)
    large = np.maximum(au, av)
    out = np.zeros_like(small)
    mask = large > 0.0
    out[mask] = np.power(small[mask], beta) * np.power(large[mask], alpha - beta)
    if m == 1:
        out *= np.sign(u * v)
    return out


def symmetric_covariation(model: StableModel, beta: float, m: int) -> float:
    """Integral of the (alpha, beta, m) kernel against the spectral measure."""
    if model.dim != 2:
        raise DimensionError("symmetric_covariation requires a bivariate model")
    _check_order(beta, m)
    dirs = model.measure.directions
    vals = kernel_values(model.alpha, beta, m, dirs[:, 0], dirs[:, 1])
    return float(np.sum(model.measure.weights * vals))


def conventional_covariation(model: StableModel) -> float:
    """The classical covariation of the first coordinate on the second.

    Defined only for alpha in (1, 2]; unlike the symmetric covariation it is
    not symmetric in its arguments.
    """
    if model.dim != 2:
        raise DimensionError("conventional_covariation requires a bivariate model")
    if not (1.0 < model.alpha <= 2.0):
        raise DomainError("conventional_covariation requires alpha in (1, 2]")
    dirs = model.measure.directions
    s2 = dirs[:, 1]
    signed = np.abs(s2) ** (model.alpha - 1.0) * np.sign(s2)
    return float(np.sum(model.measure.weights * dirs[:, 0] * signed))


def covariation_norm(model: StableModel, coordinate: int = 0) -> float:
    """Marginal covariation norm: the scale parameter of the coordinate."""
    if not (0 <= coordinate < model.dim):
        raise DimensionError(f"coordinate {coordinate} out of range for dim {model.dim}")
    return scale_parameter_direct(model, np.eye(model.dim)[coordinate])


def correlation_coefficient(model: StableModel, beta: float, m: int) -> float:
    """Normalized symmetric covariation; lies in [-1, 1] for beta in [alpha/2, alpha]."""
    if model.dim != 2:
        raise DimensionError("correlation_coefficient requires a bivariate model")
    alpha = model.alpha
    if not (alpha / 2.0 <= beta <= alpha):
        raise DomainError("correlation_coefficient requires beta in [alpha/2, alpha]")
    n1 = covariation_norm(model, 0)
    n2 = covariation_norm(model, 1)
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateError("correlation undefined: a coordinate has zero norm")
    denom = min(n2**beta * n1 ** (alpha - beta), n1**beta * n2 ** (alpha - beta))
    rho = symmetric_covariation(model, beta, m) / denom
    if abs(rho) > 1.0 + 1e-12:
        raise DegenerateError(f"correlation left [-1, 1]: {rho!r}")
    return rho


def linear_combination_covariation(
    model: StableModel, a, b, beta: float, m: int
) -> float:
    """Symmetric covariation of the pair (<a, X>, <b, X>) by direct kernel integral."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (model.dim,) or b.shape != (model.dim,):
        raise DimensionError(f"coefficient vectors must have length {model.dim}")
    _check_order(beta, m)
    dirs = model.measure.directions
    u = dirs @ a
    v = dirs @ b
    vals = kernel_values(model.alpha, beta, m, u, v)
    return float(np.sum(model.measure.weights * vals))


def linear_combination_via_pushforward(
    model: StableModel, a, b, beta: float, m: int
) -> float:
    """Same covariation through the pushforward measure on the plane.

    Independent second route kept for cross-checking against
    `linear_combination_covariation`.
    """
    pushed = pushforward_linear(model, a, b, allow_degenerate=True)
    return symmetric_covariation(pushed, beta, m)


@dataclass(frozen=True)
class LimitCheckReport(Report):
    """Gap between the fractional-derivative limit form and the kernel integral."""

    beta: float
    m: int
    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    reference: float
    gaps: tuple[float, ...]
    final_gap: float
    decreasing: bool
    passed: bool


def _limit_form_value(model: StableModel, beta: float, m: int, eps: float) -> float:
    # Closed form of the limit definition, evaluated at theta = (eps, 1) on
    # the |s1| <= |s2| region and theta = (1, eps) on the rest.  An atom
    # contributes w * |lead|**alpha times the power-rule derivative based at
    # -other/lead, where lead is its smaller coordinate; the derivative at
    # eps about that base equals the one at eps - base about 0.  Atoms with
    # eps*|lead| <= 2**-53 * |other| (lead = 0 among them) contribute their
    # pointwise limit, the kernel value, directly: for them eps - base rounds
    # to other/lead, so both forms agree to rounding, while -other/lead and
    # its power may overflow.
    alpha = model.alpha
    ratio = gamma_ratio(alpha, beta)
    if ratio == 0.0:
        raise DomainError(
            "limit form degenerates when alpha - beta + 1 is a nonpositive integer"
        )
    dirs, w = model.measure.directions, model.measure.weights
    s1, s2 = dirs[:, 0], dirs[:, 1]
    first = np.abs(s1) <= np.abs(s2)
    lead, other = np.where(first, s1, s2), np.where(first, s2, s1)
    axis = eps * np.abs(lead) <= 2.0**-53 * np.abs(other)
    off = ~axis
    terms = np.empty_like(w)
    terms[axis] = w[axis] * kernel_values(alpha, beta, m, s1[axis], s2[axis]) * ratio
    base = -other[off] / lead[off]
    deriv = power_rule(alpha, FracDerivParams(0.0, beta, m), eps - base)
    terms[off] = w[off] * np.abs(lead[off]) ** alpha * deriv
    return (1.0 / ratio) * float(np.sum(terms))


def covariation_limit_check(
    model: StableModel,
    beta: float,
    m: int,
    epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8),
    final_tol: float = 1e-6,
) -> LimitCheckReport:
    """Verify that the limit-based definition converges to the kernel integral.

    Evaluates the closed-form limit expression at each epsilon, reports the
    absolute gap to `symmetric_covariation`, and passes when the gaps are
    non-increasing and the final gap is below ``final_tol``.
    """
    if model.dim != 2:
        raise DimensionError("covariation_limit_check requires a bivariate model")
    eps_list = tuple(epsilons)
    if any(e <= 0.0 for e in eps_list) or any(
        eps_list[i] <= eps_list[i + 1] for i in range(len(eps_list) - 1)
    ):
        raise DomainError("epsilons must be positive and strictly decreasing")
    reference = symmetric_covariation(model, beta, m)
    values = tuple(_limit_form_value(model, beta, m, e) for e in eps_list)
    gaps = tuple(abs(v - reference) for v in values)
    slack = 1e-15 * (abs(reference) + 1.0)
    decreasing = all(gaps[i + 1] <= gaps[i] + slack for i in range(len(gaps) - 1))
    final_gap = gaps[-1]
    passed = decreasing and final_gap < final_tol
    return LimitCheckReport(
        beta=beta,
        m=m,
        epsilons=eps_list,
        values=values,
        reference=reference,
        gaps=gaps,
        final_gap=final_gap,
        decreasing=decreasing,
        passed=passed,
    )
