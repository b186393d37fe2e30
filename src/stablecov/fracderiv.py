"""Two-sided fractional differentiation of Riemann-Liouville type.

The closed-form power rule is the production path.  The numeric evaluator
`frac_derivative_numeric` exists as an independent cross-check: it is
quadrature + finite-difference based and accurate to roughly 1e-3 relative,
not better.  It loads scipy the first time it needs a quadrature rule, so
importing this module does not.

Scalar conventions used throughout the library live here as well:
``0**0 == 1`` and ``sign**0 == 1`` everywhere, including at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalError


def sign(x: float) -> float:
    """Sign function with sign(0) = 0."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def sign_pow(x: float, m: int) -> float:
    """m-th power of sign(x); the zeroth power is 1 for every x, 0 included."""
    if m == 0:
        return 1.0
    s = sign(x)
    return s if m % 2 == 1 else abs(s)


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
    """
    if p <= -1.0:
        raise DomainError("gamma_ratio requires p > -1")
    z = p - beta + 1.0
    if z > 0.0:
        return math.exp(math.lgamma(p + 1.0) - math.lgamma(z))
    if z == math.floor(z):
        return 0.0
    s = _reduced_sin_pi(z)
    mag = math.exp(
        math.lgamma(p + 1.0) + math.lgamma(1.0 - z) + math.log(abs(s)) - math.log(math.pi)
    )
    return math.copysign(mag, s)


@dataclass(frozen=True)
class FracDerivParams:
    """Parameters of the two-sided fractional derivative.

    ``a`` is the base point, ``beta`` the order, ``m`` selects the sign
    branch for evaluation points left of ``a``.  ``n`` is the derived
    integer order floor(beta) + 1 used by the integral representation.
    """

    a: float
    beta: float
    m: int
    n: int = field(init=False)

    def __post_init__(self):
        if self.beta < 0.0:
            raise DomainError("derivative order beta must be >= 0")
        if self.m not in (0, 1):
            raise DomainError("branch selector m must be 0 or 1")
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
    A scalar ``x`` whose value passes the float range raises NumericalError.

    ``x`` may also be an array of evaluation points; the result is then an
    array of the same shape, and NumericalError is raised if any point is
    singular.  Array powers go through numpy, whose last bit may differ
    from Python's ``**`` used for a scalar ``x``.
    """
    if p <= -1.0:
        raise DomainError("power_rule requires p > -1")
    beta, m = params.beta, params.m
    coeff = gamma_ratio(p, beta)
    if np.ndim(x) > 0:
        u = np.asarray(x, dtype=float) - params.a
        if p < beta and np.any(u == 0.0):
            raise NumericalError("power_rule singular at x = a for p < beta")
        # At u = 0 the power gives 0 for p > beta and 0**0 = 1 for p = beta.
        out = coeff * np.abs(u) ** (p - beta)
        return out * np.sign(u) if m == 1 else out
    u = float(x - params.a)
    if u == 0.0:
        if p > beta:
            return 0.0
        if p == beta:
            return coeff * sign_pow(0.0, m)
        raise NumericalError("power_rule singular at x = a for p < beta")
    try:
        power = abs(u) ** (p - beta)
    except OverflowError:
        power = math.inf
    value = coeff * power * sign_pow(u, m)
    if not math.isfinite(value):
        raise NumericalError(f"power_rule overflows the float range at x - a = {u!r}")
    return value


def binomial_series_partial(x: float, b: float, alpha: float, n_terms: int) -> float:
    """Partial sum up to index N of the expansion of |x + b|**alpha around x=0.

    Valid (and convergent as N grows) on |x| <= |b| for b != 0, alpha > 0.
    """
    if b == 0.0:
        raise DomainError("binomial_series_partial requires b != 0")
    if alpha <= 0.0:
        raise DomainError("binomial_series_partial requires alpha > 0")
    if abs(x) > abs(b):
        raise DomainError("binomial_series_partial requires |x| <= |b|")
    if n_terms < 0:
        raise DomainError("n_terms must be >= 0")
    sb = sign(b)
    total = 0.0
    # term_k = (alpha)_k / k! * |b|**(alpha-k) * sign(b)**k * x**k, by recurrence
    term = abs(b) ** alpha
    for k in range(n_terms + 1):
        total += term
        term *= (alpha - k) / (k + 1.0) * x * sb / abs(b)
    return total


# --------------------------------------------------------------------------
# Numeric evaluators (oracle grade).

@dataclass(frozen=True)
class QuadratureConfig:
    """Fixed-order quadrature and finite-difference settings.

    ``nodes`` is the base Gauss-Jacobi order; the error estimate doubles it.
    ``error_bound`` is the relative bound above which the estimate raises.
    ``step_scale`` sets the finite-difference step h = (|x-a|+1)*step_scale.
    """

    nodes: int = 200
    error_bound: float = 1e-4
    step_scale: float = 1e-2


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
    for i in range(order + 1):
        offset = (order / 2.0 - i) * h
        total += (-1.0) ** i * math.comb(order, i) * g(x + offset)
    return total / h**order


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
        return sign_pow(u, n + m) * abs(u) ** (n - beta) * inv_gamma * smooth

    return g


def frac_derivative_numeric(
    f, params: FracDerivParams, x: float, quad: QuadratureConfig | None = None
) -> float:
    """Numeric two-sided fractional derivative of a continuous function.

    Non-integer beta: fixed-order Gauss-Jacobi quadrature on the weighted
    integral representation followed by an n-th order central finite
    difference with one Richardson level.  Integer beta reduces to the
    ordinary beta-th derivative times sign**(m+beta)(x-a); when that sign
    factor is 0 (even positive exponent at x = a) the literal value 0 is
    returned even if the ordinary derivative is not 0.

    The result is validated by recomputing at doubled quadrature order;
    disagreement above ``quad.error_bound`` (relative) raises NumericalError
    carrying the estimate.
    """
    if quad is None:
        quad = QuadratureConfig()
    h = (abs(x - params.a) + 1.0) * quad.step_scale

    if params.is_integer_order:
        k = int(params.beta)
        if k == 0:
            deriv = float(f(x))
        else:
            deriv = _richardson_derivative(lambda y: float(f(y)), x, k, h)
        return sign_pow(x - params.a, params.m + k) * deriv

    n = params.n
    g_base = _smoothed_integral_factory(f, params, quad.nodes)
    g_fine = _smoothed_integral_factory(f, params, 2 * quad.nodes)
    d_base = _richardson_derivative(g_base, x, n, h)
    d_fine = _richardson_derivative(g_fine, x, n, h)
    estimate = abs(d_fine - d_base)
    if estimate > quad.error_bound * max(1.0, abs(d_fine)):
        raise NumericalError(
            f"quadrature did not converge (estimate {estimate:.3e})",
            estimate=estimate,
        )
    return d_fine
