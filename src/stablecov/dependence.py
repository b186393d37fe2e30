"""Executable dependence checks: independence conditions, additivity, and
the James-orthogonality lower bound.

Each check returns a small report object with a ``passed`` flag and a
``to_dict`` method for the CLI's JSON output.  Covariation indices are
restricted to k >= 0 throughout (the kernel is defined for beta >= 0 only).
Each check makes one covariation call per coefficient pair (a, b), on its
whole (beta, m) grid as two paired arrays, and keeps its entries in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covariation import (
    Report,
    linear_combination_covariation,
    linear_combination_via_pushforward,
    symmetric_covariation,
)
from .errors import AxisSupportError, DomainError, NumericalError
from .series import _check_tol, scale_parameter_series
from .spectral import (
    StableModel,
    _plane,
    _projection_integral,
    _theta,
    characteristic_function,
    scale_parameter_direct,
)

AXIS_TOL = 1e-12
JAMES_K_CHECK = 40
_JAMES_ORDERS = np.arange(JAMES_K_CHECK + 1, dtype=float)


def min_max_inequality(x: float, y: float, p: float) -> bool:
    """Whether |x+y|**p + |x-y|**p >= min(2**p, 2) * max(|x|**p, |y|**p).

    Both sides are divided by max(|x|, |y|)**p first, so no power passes the
    float range.  The comparison allows 8 + 2p ulps of slack: equality
    configurations (x = +-y, or a vanishing argument) otherwise fail by
    rounding alone, and the power multiplies the rounding error of 1 +- t by
    about p.  Arguments that are not finite floats, and a negative p, raise
    DomainError.
    """
    try:
        finite = all(math.isfinite(v) for v in (x, y, p))
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise DomainError(f"min_max_inequality requires finite floats, got {(x, y, p)!r}")
    if p < 0.0:
        raise DomainError("min_max_inequality requires p >= 0")
    big = max(abs(x), abs(y))
    if big == 0.0:
        return True  # 0**p + 0**p >= min(2**p, 2) * 0**p, with 0**0 = 1
    # The sides are now (1 + t)**p + (1 - t)**p and min(2**p, 2) for t in
    # [0, 1].  Only (1 + t)**p can pass the float range, and then lhs > 2.
    t = min(abs(x), abs(y)) / big
    try:
        lhs = (1.0 + t) ** p + (1.0 - t) ** p
    except OverflowError:
        return True
    rhs = 2.0 ** min(p, 1.0)
    return lhs >= rhs - (8.0 + 2.0 * p) * math.ulp(1.0) * rhs


class NecessaryEntry(NamedTuple):
    beta: float
    m: int
    value: float
    expected: float
    ok: bool


@dataclass(frozen=True)
class IndependenceNecessaryReport(Report):
    total_mass: float
    entries: tuple[NecessaryEntry, ...]
    passed: bool


def _require_support(model: StableModel, outside: np.ndarray, what: str) -> None:
    # Names the first atom of positive weight flagged in ``outside``, as a scan
    # in atom order would; an atom of weight 0 is no part of the support.
    bad = np.flatnonzero(outside & (model.measure.weights > 0.0))
    if bad.size:
        raise AxisSupportError(f"atom {model.measure.directions[bad[0]].tolist()} {what}")


def independence_necessary_report(
    model: StableModel, beta_grid, tol: float
) -> IndependenceNecessaryReport:
    """Covariation values forced by independence on an axis-supported measure.

    The (0, 0) covariation must equal the total mass; every other (beta, m)
    pair on the grid must vanish.
    """
    _check_tol(tol)
    s1, s2, _ = _plane(model, "independence_necessary_report")
    off_axis = (np.abs(s1) > AXIS_TOL) & (np.abs(s2) > AXIS_TOL)
    _require_support(model, off_axis, "is not axis-supported")
    total = model.measure.total_mass
    pairs = [(0.0, 0)] + [
        (float(b), m) for b in beta_grid for m in (0, 1) if not (b == 0.0 and m == 0)
    ]
    values = symmetric_covariation(model, *np.array(pairs).T)
    want = np.zeros_like(values)
    want[0] = total  # (0, 0) is the first pair, and no other
    ok = np.abs(values - want) <= tol
    entries = tuple(map(NecessaryEntry, *zip(*pairs), values.tolist(), want.tolist(), ok.tolist()))
    return IndependenceNecessaryReport(total_mass=total, entries=entries, passed=bool(ok.all()))


@dataclass(frozen=True)
class SufficientConditionReport(Report):
    beta: float
    covariation: float
    triggered: bool
    max_factorization_gap: float | None
    passed: bool


def independence_sufficient_check(
    model: StableModel, beta: float, theta_grid, tol: float
) -> SufficientConditionReport:
    """When the (beta, 0) covariation vanishes the law must factorize.

    Triggered only if |[X1, X2]_{alpha, beta, 0}| <= tol; then the joint
    characteristic function is compared against the product of the marginals
    on the theta grid.
    """
    _check_tol(tol)
    cov = symmetric_covariation(model, beta, 0)
    thetas = [_theta(theta, 2).tolist() for theta in theta_grid]
    if abs(cov) > tol:
        return SufficientConditionReport(
            beta=beta, covariation=cov, triggered=False, max_factorization_gap=None, passed=True
        )
    gap = 0.0
    for t1, t2 in thetas:
        joint = characteristic_function(model, (t1, t2))
        split = characteristic_function(model, (t1, 0.0)) * characteristic_function(
            model, (0.0, t2)
        )
        gap = max(gap, abs(joint - split))
    return SufficientConditionReport(
        beta=beta,
        covariation=cov,
        triggered=True,
        max_factorization_gap=gap,
        passed=gap <= tol,
    )


class AdditivityEntry(NamedTuple):
    beta: float
    m: int
    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class AdditivityReport(Report):
    entries: tuple[AdditivityEntry, ...]
    max_gap: float
    passed: bool


def _default_additivity_grid(alpha: float):
    # (0, 0) is excluded: with the 0**0 = sign**0 = 1 conventions the kernel
    # assigns unit value whenever one argument vanishes, so splitting the sum
    # X2 + X3 double counts atoms on which exactly one summand is zero.
    betas = [0.25 * alpha, 0.5 * alpha, 0.75 * alpha, alpha, 1.25 * alpha]
    return [(b, m) for b in betas for m in (0, 1)] + [(0.0, 1)]


def additivity_check(
    model: StableModel, tol: float, grid=None
) -> AdditivityReport:
    """Covariation against a sum of independent coordinates splits additively.

    Requires a trivariate model whose atoms satisfy s2*s3 = 0.  The left
    side evaluates the pair (X1, X2+X3) directly; the right side goes
    through the marginal pushforwards of (X1, X2) and (X1, X3).
    """
    _check_tol(tol)
    if model.dim != 3:
        raise AxisSupportError("additivity check requires a trivariate model")
    dirs = model.measure.directions
    _require_support(
        model,
        np.abs(dirs[:, 1] * dirs[:, 2]) > AXIS_TOL,
        "violates the s2*s3 = 0 support condition",
    )
    if grid is None:
        grid = _default_additivity_grid(model.alpha)
    a = (1.0, 0.0, 0.0)
    betas, ms = np.array(grid, float).reshape(-1, 2).T  # the orders and their branches
    lhs = linear_combination_covariation(model, a, (0.0, 1.0, 1.0), betas, ms)
    rhs2, rhs3 = (
        linear_combination_via_pushforward(model, a, b, betas, ms)
        for b in ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    )
    # Each side is finite, but a sum or a gap may pass the float range: inf,
    # as the scalar sum of two floats gives it, and a failed check.
    with np.errstate(over="ignore"):
        rhs = rhs2 + rhs3
        gaps = np.abs(lhs - rhs).tolist()
    entries = tuple(map(AdditivityEntry, *zip(*grid), lhs.tolist(), rhs.tolist(), gaps))
    max_gap = max(gaps, default=0.0)
    return AdditivityReport(entries=entries, max_gap=max_gap, passed=max_gap <= tol)


@dataclass(frozen=True)
class JamesBoundReport(Report):
    lambdas: tuple[float, ...]
    hypothesis_ok: tuple[bool, ...]
    hypothesis_max_violation: tuple[float, ...]
    bound_margins: tuple[float | None, ...]
    james_margins: tuple[float | None, ...]
    passed: bool
    # lambdas whose covariations do not vanish: nothing to assert there
    hypothesis_failures: tuple[str, ...] = field(default_factory=tuple)
    # genuine violations of the asserted bounds
    failures: tuple[str, ...] = field(default_factory=tuple)


def james_bound_check(model: StableModel, lambda_grid, tol: float) -> JamesBoundReport:
    """Lower bound on the norm of a sum when all odd-branch covariations vanish.

    For each lambda: (i) verify [lambda*X1, X2]_{alpha, k, 1} = 0 for
    k = 0..JAMES_K_CHECK; (ii) if that holds, check
    ||lambda*X1 + X2|| >= min(2**(1-1/alpha), 1) * max(||lambda*X1||, ||X2||)
    and, for alpha >= 1, the James margin ||lambda*X1 + X2|| >= ||X2||.
    """
    _check_tol(tol)
    _plane(model, "james_bound_check")
    alpha = model.alpha
    const = min(2.0 ** (1.0 - 1.0 / alpha), 1.0)
    lams = [float(lam) for lam in lambda_grid]
    hyp_ok, hyp_viol, margins, james_margins = [], [], [], []
    hypothesis_failures: list[str] = []
    failures: list[str] = []
    for lam in lams:
        vals = np.abs(
            linear_combination_covariation(model, (lam, 0.0), (0.0, 1.0), _JAMES_ORDERS, 1)
        )
        worst_k = int(np.argmax(vals))  # the first of equals, as a scan would take
        worst = float(vals[worst_k])
        hyp_viol.append(worst)
        if worst > tol:
            hyp_ok.append(False)
            margins.append(None)
            james_margins.append(None)
            hypothesis_failures.append(
                f"hypothesis fails at lambda={lam!r}, k={worst_k} (|covariation|={worst:.3e})"
            )
            continue
        hyp_ok.append(True)
        norm_sum = scale_parameter_direct(model, (lam, 1.0))
        norm_l1 = abs(lam) * scale_parameter_direct(model, (1.0, 0.0))
        norm_2 = scale_parameter_direct(model, (0.0, 1.0))
        margin = norm_sum - const * max(norm_l1, norm_2)
        margins.append(margin)
        if margin < -tol:
            failures.append(f"lower bound fails at lambda={lam!r} (margin {margin:.3e})")
        if alpha >= 1.0:
            jm = norm_sum - norm_2
            james_margins.append(jm)
            if jm < -tol:
                failures.append(f"James margin fails at lambda={lam!r} ({jm:.3e})")
        else:
            james_margins.append(None)
    return JamesBoundReport(
        lambdas=tuple(lams),
        hypothesis_ok=tuple(hyp_ok),
        hypothesis_max_violation=tuple(hyp_viol),
        bound_margins=tuple(margins),
        james_margins=tuple(james_margins),
        passed=not failures,
        hypothesis_failures=tuple(hypothesis_failures),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class EvenSeriesReport(Report):
    odd_max: float
    even_sum: float | None
    half_sum_integral: float | None
    direct: float | None
    gap: float | None
    applicable: bool
    passed: bool


def even_series_identity_check(model: StableModel, tol: float = 1e-10) -> EvenSeriesReport:
    """With vanishing odd covariations, the even-index series at theta=(1,1)
    equals half the integral of |s1+s2|**alpha + |s1-s2|**alpha.

    Reports ``applicable=False`` (and passes vacuously), with the four
    values ``None``, when the odd covariations do not vanish.
    """
    _check_tol(tol)
    s1, s2, w = _plane(model, "even_series_identity_check")
    odd_max = float(np.max(np.abs(symmetric_covariation(model, _JAMES_ORDERS[1::2], 1))))
    if odd_max > tol:
        return EvenSeriesReport(
            odd_max=odd_max,
            even_sum=None,
            half_sum_integral=None,
            direct=None,
            gap=None,
            applicable=False,
            passed=True,
        )
    expansion = scale_parameter_series(model, (1.0, 1.0), tol / 10.0)
    even_sum = sum(expansion.terms[::2].tolist())
    alpha = model.alpha
    # Its own sum: as two projection integrals it would be summed in another order.
    with np.errstate(over="ignore"):
        powers = np.float_power(np.abs(s1 + s2), alpha) + np.float_power(np.abs(s1 - s2), alpha)
        half_sum = 0.5 * float(np.sum(w * powers))
    direct = _projection_integral(model, np.array([1.0, 1.0]))
    if not (math.isfinite(half_sum) and math.isfinite(direct)):
        raise NumericalError(
            f"even-series integrals pass the float range ({half_sum!r}, {direct!r})"
        )
    gap = max(abs(even_sum - half_sum), abs(direct - half_sum))
    return EvenSeriesReport(
        odd_max=odd_max,
        even_sum=even_sum,
        half_sum_integral=half_sum,
        direct=direct,
        gap=gap,
        applicable=True,
        passed=gap <= tol,
    )
