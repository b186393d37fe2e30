"""Two-sided fractional differentiation of Riemann-Liouville type.

The closed-form power rule is the production path.  The numeric evaluator
`frac_derivative_numeric` exists as an independent cross-check: it is
quadrature + finite-difference based and accurate to roughly 1e-3 relative,
not better.  It loads scipy the first time it needs a quadrature rule, so
importing this module does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, real_array


def _check_order(beta, m) -> None:
    # beta and m, scalars or paired arrays whose first bad entry is named; the kernel's orders too.
    betas = real_array(beta, "beta")
    bad = betas[~(np.isfinite(betas) & (betas >= 0.0))].tolist()
    if bad:
        raise DomainError(f"beta must be {'>= 0' if bad[0] < 0.0 else 'finite'}, got {bad[0]!r}")
    bad = [k for k in (np.ravel(m).tolist() if np.ndim(m) else [m]) if k not in (0, 1)]
    if bad:
        raise DomainError(f"m must be 0 or 1, got {bad[0]!r}")
    if np.ndim(m) and np.shape(m) != betas.shape:
        raise DimensionError(f"m has shape {np.shape(m)}, its orders {betas.shape}")


def _check_finite(name: str, value) -> None:
    # A float or an array of them; names the first entry that is not finite.
    values = real_array(value, name)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)].tolist()[0]
        raise DomainError(f"{name} must be finite, got {bad!r}")


def _reduced_sin_pi(z: float) -> float:
    """sin(pi*z) computed from the fractional part of z, accurate near integers."""
    r = round(z)
    s = math.sin(math.pi * (z - r))
    return -s if r % 2 else s


def gamma_ratio(p: float, beta: float) -> float:
    """Gamma(p+1) / Gamma(p-beta+1) for p > -1, beta >= 0.

    When p-beta+1 is a nonpositive integer the reciprocal gamma vanishes and
    the ratio is 0.  Negative non-integer arguments go through the reflection
    formula on log-gamma: 1/Gamma(z) = sin(pi z) * Gamma(1-z) / pi.
    A log-gamma or a ratio that passes the float range raises NumericalError,
    and a p or beta that is not finite DomainError.
    """
    if p <= -1.0:
        raise DomainError("gamma_ratio requires p > -1")
    _check_finite("p", p)
    _check_finite("beta", beta)
    z = p - beta + 1.0
    if z <= 0.0 and z == math.floor(z):
        return 0.0
    try:
        if z > 0.0:
            return math.exp(math.lgamma(p + 1.0) - math.lgamma(z))
        s = _reduced_sin_pi(z)
        mag = math.exp(
            math.lgamma(p + 1.0) + math.lgamma(1.0 - z) + math.log(abs(s)) - math.log(math.pi)
        )
    except OverflowError as exc:
        raise NumericalError(
            f"gamma ratio for p = {p!r}, beta = {beta!r} passes the float range"
        ) from exc
    return math.copysign(mag, s)


@dataclass(frozen=True)
class FracDerivParams:
    """Parameters of the two-sided fractional derivative.

    ``a`` is the base point, ``beta`` the order, ``m`` selects the sign
    branch for evaluation points left of ``a``.  ``n`` is the derived
    integer order floor(beta) + 1 used by the integral representation.
    ``beta`` and ``m`` follow the kernel's order rule; ``a`` is finite.
    """

    a: float
    beta: float
    m: int
    n: int = field(init=False)

    def __post_init__(self):
        _check_order(self.beta, self.m)
        _check_finite("a", self.a)
        object.__setattr__(self, "n", math.floor(self.beta) + 1)

    @property
    def is_integer_order(self) -> bool:
        return self.beta == math.floor(self.beta)


def power_rule(p: float, params: FracDerivParams, x):
    """Closed-form fractional derivative of |x - a|**p of order beta.

    Returns Gamma(p+1)/Gamma(p-beta+1) * |x-a|**(p-beta) * sign**m(x-a).
    The coefficient is 0 whenever p-beta+1 hits a nonpositive integer.
    At x = a the value is 0 for p > beta, the bare coefficient times
    sign**m(0) for p = beta, and singular (NumericalError) for p < beta.

    ``x`` is a float or an array of evaluation points; the result is a float
    or an array of the same shape.  NumericalError is raised if any point is
    singular or any value passes the float range, DomainError if p or a
    point is not finite.
    """
    if p <= -1.0:
        raise DomainError("power_rule requires p > -1")
    beta = params.beta
    coeff = gamma_ratio(p, beta)
    _check_finite("x", x)
    # x - a past the float range is inf; its power below is then the limit.
    with np.errstate(over="ignore"):
        u = np.asarray(x, dtype=float) - params.a
    if p < beta and np.any(u == 0.0):
        raise NumericalError("power_rule singular at x = a for p < beta")
    # At u = 0 the power gives 0 for p > beta and 0**0 = 1 for p = beta.
    # float_power is C pow, as Python's ** is; numpy's power may differ in the last bit.
    with np.errstate(over="ignore", invalid="ignore"):
        out = coeff * np.float_power(np.abs(u), p - beta)
    if not np.isfinite(out).all():
        bad = float(u[~np.isfinite(out)][0])
        raise NumericalError(f"power_rule overflows the float range at x - a = {bad!r}")
    if params.m == 1:
        out = out * np.sign(u)
    return out if np.ndim(x) else float(out)


# --------------------------------------------------------------------------
# Numeric evaluators (oracle grade).

# Base Gauss-Jacobi order (the error estimate doubles it), the relative bound
# above which that estimate raises, and the finite-difference step
# h = (|x-a|+1) * _STEP_SCALE.
_NODES = 200
_ERROR_BOUND = 1e-4
_STEP_SCALE = 1e-2


@lru_cache(maxsize=64)
def _jacobi_rule(nq: int, exponent: float):
    # Nodes/weights for integral_0^1 h(tau) * tau**exponent dtau.
    from scipy import special

    z, v = special.roots_jacobi(nq, 0.0, exponent)
    taus = 0.5 * (z + 1.0)
    weights = v * 0.5 ** (exponent + 1.0)
    return taus, weights


def _eval_on(f, points: np.ndarray) -> np.ndarray:
    vals = f(points)
    arr = np.asarray(vals, dtype=float)
    if arr.shape != points.shape:
        arr = np.array([float(f(t)) for t in points])
    return arr


def _central_difference(g, x: float, order: int, h: float) -> float:
    if order == 0:
        return g(x)
    total = 0.0
    try:
        for i in range(order + 1):
            offset = (order / 2.0 - i) * h
            total += (-1.0) ** i * math.comb(order, i) * g(x + offset)
        return total / h**order
    except OverflowError as exc:
        raise NumericalError(
            f"finite difference of order {order:.6g} passes the float range"
        ) from exc


def _richardson_derivative(g, x: float, order: int, h: float) -> float:
    # One Richardson level on the O(h^2) central difference -> O(h^4).
    d_h = _central_difference(g, x, order, h)
    d_h2 = _central_difference(g, x, order, h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


def _smoothed_integral_factory(f, params: FracDerivParams, nq: int):
    # After the substitution t = y - (y-a)*tau the defining integral becomes
    #   sign**(n+m)(y-a) * |y-a|**(n-beta) / Gamma(n-beta)
    #       * integral_0^1 f(y - (y-a)*tau) * tau**(n-beta-1) dtau,
    # so the endpoint weight tau**(n-beta-1) is fixed and handled exactly by
    # the Gauss-Jacobi rule.
    a, beta, m, n = params.a, params.beta, params.m, params.n
    taus, weights = _jacobi_rule(nq, n - beta - 1.0)
    inv_gamma = 1.0 / math.gamma(n - beta)

    def g(y: float) -> float:
        u = y - a
        if u == 0.0:
            return 0.0
        smooth = float(np.dot(weights, _eval_on(f, y - u * taus)))
        return math.copysign(1.0, u) ** (n + m) * abs(u) ** (n - beta) * inv_gamma * smooth

    return g


def frac_derivative_numeric(f, params: FracDerivParams, x: float) -> float:
    """Numeric two-sided fractional derivative of a continuous function.

    Non-integer beta: fixed-order Gauss-Jacobi quadrature on the weighted
    integral representation followed by an n-th order central finite
    difference with one Richardson level.  Integer beta reduces to the
    ordinary beta-th derivative times sign**(m+beta)(x-a); when that sign
    factor is 0 (even positive exponent at x = a) the literal value 0 is
    returned even if the ordinary derivative is not 0.

    The result is validated by recomputing at doubled quadrature order;
    a relative disagreement above 1e-4 raises NumericalError
    carrying the estimate, and so does a value that is not finite.
    """
    h = (abs(x - params.a) + 1.0) * _STEP_SCALE

    if params.is_integer_order:
        k = int(params.beta)
        if k == 0:
            deriv = float(f(x))
        else:
            deriv = _richardson_derivative(lambda y: float(f(y)), x, k, h)
        # A Python float power: sign**0 = 1 at x = a too.
        value = float(np.sign(x - params.a)) ** (params.m + k) * deriv
    else:
        n = params.n
        g_base = _smoothed_integral_factory(f, params, _NODES)
        g_fine = _smoothed_integral_factory(f, params, 2 * _NODES)
        d_base = _richardson_derivative(g_base, x, n, h)
        value = _richardson_derivative(g_fine, x, n, h)
        estimate = abs(value - d_base)
        if estimate > _ERROR_BOUND * max(1.0, abs(value)):
            raise NumericalError(
                f"quadrature did not converge (estimate {estimate:.3e})",
                estimate=estimate,
            )
    if not math.isfinite(value):
        raise NumericalError(f"numeric fractional derivative is not finite ({value!r})")
    return value
