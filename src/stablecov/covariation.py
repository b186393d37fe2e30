"""Symmetric covariations of jointly stable pairs and their relatives.

The central object is the magnitude-ordered kernel

    K(s1, s2) = |s1|**beta * |s2|**(alpha-beta) * sign**m(s1*s2)   if |s1| <= |s2|
                |s1|**(alpha-beta) * |s2|**beta * sign**m(s1*s2)   otherwise

integrated against a discrete spectral measure on the plane.  Ties use the
first branch; both branches agree there.  Conventions: 0**0 = 1 and
sign**0 = 1, including at 0.  K(0, 0) = 0 for every beta (the integrand is
the expansion of the zero function there).

Every integral over the atoms is one array expression on the measure's
``directions`` and ``weights``, in which an atom of weight 0 adds 0; that
includes the fractional-derivative limit form, which makes one power-rule call
for all its epsilons and shares one kernel row with its reference.  An array of
orders beta (and of branches m paired with them) is one kernel row and one row
sum per entry, each bit for bit the value at that entry alone.  Powers are
``np.float_power`` (C ``pow``), so no value depends on the CPU's SIMD level.
Where small**beta * large**(alpha-beta) loses an in-range value, at a large
beta, the kernel takes large**alpha * (small/large)**beta instead; where
small = 0 < beta it is exactly 0, and where that form leaves the float range
too with small > 0, it is exp(beta ln small + (alpha-beta) ln large).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import DegenerateError, DimensionError, DomainError, NumericalError, integer
from .fracderiv import FracDerivParams, _check_order, gamma_ratio, power_rule
from .spectral import (
    StableModel, _plane, _vector, _weighted, project, pushforward_linear, scale_parameter_direct
)

# The limit form's epsilons, strictly decreasing, and the largest final gap
# to the kernel integral that covariation_limit_check passes.
_LIMIT_EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
_LIMIT_FINAL_TOL = 1e-6
# The smallest normal float.
_TINY = np.finfo(float).tiny


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


def kernel_values(alpha: float, beta, m, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized kernel over paired coordinate arrays: one value per atom
    for a float ``beta``, an (orders x atoms) array for a 1-d array of them,
    with ``m`` one branch or one per order.  Values past the float range are
    inf or NaN without a RuntimeWarning."""
    _check_order(beta, m)
    au = np.abs(u)
    av = np.abs(v)
    small = np.minimum(au, av)
    large = np.maximum(au, av)
    b = np.asarray(beta, dtype=float)[..., None]
    mask = large > 0.0
    # Not numpy's power, whose SIMD kernels' last bits follow the CPU.  An atom
    # at the origin gets a finite power (of small = 0, large = 1), zeroed by the mask.
    with np.errstate(all="ignore"):
        large = np.where(mask, large, 1.0)
        head, tail = np.float_power(small, b), np.float_power(large, alpha - b)
        out = head * tail
        # At a large beta a factor may pass the float range, or small**beta
        # lose bits below the normal range, while the value is in range; the
        # rescaled form keeps it.
        redo = ~(np.isfinite(head) & np.isfinite(tail)) | ((head < _TINY) & (small > 0.0))
        if redo.any():
            # Where small = 0 < beta the kernel is exactly 0, while the rescaled
            # form may give inf * 0.
            rescaled = np.float_power(large, alpha) * np.float_power(small / large, b)
            # Where that form leaves the float range too (inf, or inf * 0 when the
            # ratio's power underflows) while small > 0, the value is exp(beta ln
            # small + (alpha - beta) ln large), entry by entry: inf past the float
            # range, 0 below it.  math's log and exp, since numpy's take SIMD kernels.
            lost = np.flatnonzero(redo & ~np.isfinite(rescaled) & (small > 0.0))
            if lost.size:
                shape = rescaled.shape
                cols = (np.broadcast_to(x, shape).flat[lost].tolist() for x in (b, small, large))
                rescaled.flat[lost] = [_log_form(alpha, *e) for e in zip(*cols)]
            out = np.where(redo, np.where((small == 0.0) & (b > 0.0), 0.0, rescaled), out)
        out *= mask
        if np.ndim(m):
            out[np.asarray(m) == 1] *= np.sign(u) * np.sign(v)  # the m = 1 rows only
        elif m == 1:
            out *= np.sign(u) * np.sign(v)
    return out


def _log_form(alpha: float, beta: float, small: float, large: float) -> float:
    try:
        return math.exp(beta * math.log(small) + (alpha - beta) * math.log(large))
    except OverflowError:
        return math.inf


def _integral(weights: np.ndarray, vals: np.ndarray):
    # One row sum per order, bit for bit the 1-d sum of the row; an error past
    # the float range.  An atom of weight +-0 adds its weight, whatever its value.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.sum(_weighted(weights, vals), axis=-1)
    bad = values[~np.isfinite(values)].tolist()
    if bad:
        raise NumericalError(f"covariation passes the float range ({bad[0]!r})")
    return values if values.ndim else float(values)


def symmetric_covariation(model: StableModel, beta, m):
    """Integral of the (alpha, beta, m) kernel against the spectral measure: a
    float for a float ``beta``, an array for a 1-d array of orders, with ``m``
    as in `kernel_values`."""
    s1, s2, w = _plane(model, "symmetric_covariation")
    return _integral(w, kernel_values(model.alpha, beta, m, s1, s2))


def conventional_covariation(model: StableModel) -> float:
    """The classical covariation of the first coordinate on the second.

    Defined only for alpha in (1, 2]; unlike the symmetric covariation it is
    not symmetric in its arguments.
    """
    s1, s2, w = _plane(model, "conventional_covariation")
    if not (1.0 < model.alpha <= 2.0):
        raise DomainError("conventional_covariation requires alpha in (1, 2]")
    signed = np.float_power(np.abs(s2), model.alpha - 1.0) * np.sign(s2)
    return float(np.sum(w * s1 * signed))


def covariation_norm(model: StableModel, coordinate: int = 0) -> float:
    """Marginal covariation norm: the scale parameter of the coordinate."""
    if not (0 <= integer(coordinate, "coordinate") < model.dim):
        raise DimensionError(f"coordinate {coordinate} out of range for dim {model.dim}")
    return scale_parameter_direct(model, np.eye(model.dim)[coordinate])


def correlation_coefficient(model: StableModel, beta: float, m: int) -> float:
    """Normalized symmetric covariation; lies in [-1, 1] for beta in [alpha/2, alpha]."""
    _plane(model, "correlation_coefficient")
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


def linear_combination_covariation(model: StableModel, a, b, beta, m):
    """Symmetric covariation of the pair (<a, X>, <b, X>) by direct kernel
    integral, at orders and branches as in `symmetric_covariation`, projected once."""
    dirs = model.measure.directions
    u = project(dirs, _vector(a, model.dim, "a"))
    v = project(dirs, _vector(b, model.dim, "b"))
    vals = kernel_values(model.alpha, beta, m, u, v)
    return _integral(model.measure.weights, vals)


def linear_combination_via_pushforward(model: StableModel, a, b, beta, m):
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


def covariation_limit_check(model: StableModel, beta: float, m: int) -> LimitCheckReport:
    """Verify that the limit-based definition converges to the kernel integral.

    Evaluates the closed-form limit expression at epsilon = 1e-2, 1e-3, ...,
    1e-8, reports the absolute gap to `symmetric_covariation`, and passes
    when the gaps are non-increasing and the final gap is below 1e-6.
    """
    s1, s2, w = _plane(model, "covariation_limit_check")
    alpha = model.alpha
    row = kernel_values(alpha, beta, m, s1, s2)
    reference = _integral(w, row)
    ratio = gamma_ratio(alpha, beta)
    if ratio == 0.0:
        raise DomainError(
            "limit form degenerates when alpha - beta + 1 is a nonpositive integer"
        )
    # Closed form of the limit definition, one row per epsilon of
    # _LIMIT_EPSILONS, at theta = (eps, 1) on the |s1| <= |s2| region and
    # theta = (1, eps) on the rest.  An atom contributes w * |lead|**alpha times
    # the power-rule derivative based at -other/lead, where lead is its smaller
    # coordinate; the derivative at eps about that base equals the one at
    # eps + other/lead (bit for bit eps - base) about 0.  Atoms with
    # eps*|lead| <= 2**-53 * |other| (lead = 0 among them) contribute their
    # pointwise limit, the kernel value, directly: for them eps - base rounds
    # to other/lead, so both forms agree to rounding, while -other/lead and
    # its power may overflow.
    first = np.abs(s1) <= np.abs(s2)
    lead, other = np.where(first, s1, s2), np.where(first, s2, s1)
    eps = np.array(_LIMIT_EPSILONS)[:, None]
    axis = eps * np.abs(lead) <= 2.0**-53 * np.abs(other)
    # Both forms run at every atom (the power rule at 1.0 where unused), warning of nothing.
    with np.errstate(all="ignore"):
        points = np.where(axis, 1.0, eps + other / lead)
        deriv = power_rule(alpha, FracDerivParams(0.0, beta, m), points)
        terms = np.where(axis, w * row * ratio, w * np.float_power(np.abs(lead), alpha) * deriv)
        values = tuple(((1.0 / ratio) * np.sum(terms, axis=1)).tolist())
    gaps = tuple(abs(v - reference) for v in values)
    slack = 1e-15 * (abs(reference) + 1.0)
    decreasing = all(gaps[i + 1] <= gaps[i] + slack for i in range(len(gaps) - 1))
    final_gap = gaps[-1]
    passed = decreasing and final_gap < _LIMIT_FINAL_TOL
    return LimitCheckReport(
        beta=beta,
        m=m,
        epsilons=_LIMIT_EPSILONS,
        values=values,
        reference=reference,
        gaps=gaps,
        final_gap=final_gap,
        decreasing=decreasing,
        passed=passed,
    )
