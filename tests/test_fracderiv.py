import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from stablecov import (
    DomainError,
    FracDerivParams,
    NumericalError,
    QuadratureConfig,
    binomial_series_partial,
    frac_derivative_numeric,
    gamma_ratio,
    power_rule,
    scale_parameter_series,
    series_term,
    sign_pow,
)
from stablecov.fracderiv import _richardson_derivative
from stablecov.series import _coefficients

from conftest import diagonal_model

# The derivative of order 0 with m = 1 is the signed power |x - a|**p * sign(x - a).
SIGNED = FracDerivParams(0.0, 0.0, 1)


def rl_left_numeric(f, a: float, beta: float, x: float, step_scale: float = 1e-2) -> float:
    """Left Riemann-Liouville derivative at x > a, via adaptive quadrature.

    Independent of `frac_derivative_numeric`: the inner integral uses
    QUADPACK's algebraic-weight rule instead of the fixed Jacobi rule.
    """
    n = math.floor(beta) + 1
    c = 1.0 / math.gamma(n - beta)

    def g(y: float) -> float:
        val, _ = integrate.quad(f, a, y, weight="alg", wvar=(0.0, n - beta - 1.0))
        return c * val

    h = (abs(x - a) + 1.0) * step_scale
    return _richardson_derivative(g, x, n, h)


def rl_right_numeric(f, b: float, beta: float, x: float, step_scale: float = 1e-2) -> float:
    """Right Riemann-Liouville derivative at x < b, via adaptive quadrature."""
    n = math.floor(beta) + 1
    c = (-1.0) ** n / math.gamma(n - beta)

    def g(y: float) -> float:
        val, _ = integrate.quad(f, y, b, weight="alg", wvar=(n - beta - 1.0, 0.0))
        return c * val

    h = (abs(x - b) + 1.0) * step_scale
    return _richardson_derivative(g, x, n, h)


class TestSignedPower:
    def test_odd_integer_power(self):
        assert power_rule(3.0, SIGNED, -2.0) == -8.0

    def test_fractional_power(self):
        assert power_rule(0.5, SIGNED, -4.0) == -2.0

    def test_zero_conventions(self):
        # sign**0 is 1 everywhere; the signed power itself vanishes at 0.
        assert sign_pow(0.0, 0) == 1.0
        assert sign_pow(0.0, 1) == 0.0
        assert power_rule(0.0, SIGNED, 0.0) == 0.0

    def test_singular_at_zero(self):
        with pytest.raises(NumericalError):
            power_rule(-0.5, SIGNED, 0.0)


class TestFallingFactorial:
    """(alpha)_k = alpha*(alpha-1)*...*(alpha-k+1) as the series records it."""

    def test_integer_alpha_vanishes(self):
        # The exact zero at k = 3 ends the alpha = 2 series with a zero tail.
        expansion = scale_parameter_series(diagonal_model(2.0), (1.0, 1.0), 1e-12)
        assert expansion.factorials == (1.0, 2.0, 2.0)
        assert expansion.tail_bound == 0.0
        facts = [fact for _, fact in itertools.islice(_coefficients(2.0), 8)]
        assert facts[3] == 0.0 and facts[7] == 0.0

    def test_empty_product(self):
        for alpha in (0.3, 1.7, 2.0):
            expansion = scale_parameter_series(diagonal_model(alpha), (1.0, 0.5), 1e-6)
            assert expansion.factorials[0] == 1.0

    def test_two_steps(self):
        expansion = scale_parameter_series(diagonal_model(1.5), (1.0, 0.5), 1e-6)
        assert expansion.factorials[2] == pytest.approx(0.75, rel=1e-15)

    def test_negative_k(self):
        with pytest.raises(DomainError):
            series_term(diagonal_model(1.0), (1.0, 1.0), -1)


class TestGammaRatio:
    def test_beta_zero(self):
        for p in (0.2, 1.0, 2.7):
            assert gamma_ratio(p, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_integer_beta_matches_recurrence(self):
        # Gamma(p+1)/Gamma(p-k+1) is the falling factorial of p for integer k.
        for p in (0.5, 1.2, 2.3, 3.7):
            for k in range(6):
                expected = math.prod(p - i for i in range(k))
                got = gamma_ratio(p, float(k))
                assert got == pytest.approx(expected, rel=1e-12)

    def test_pole_gives_zero(self):
        assert gamma_ratio(1.0, 2.0) == 0.0
        assert gamma_ratio(0.5, 1.5) == 0.0
        assert gamma_ratio(2.0, 4.0) == 0.0

    def test_reflection_branch(self):
        # p - beta + 1 = -1.5: Gamma(-1.5) = 4*sqrt(pi)/3
        got = gamma_ratio(0.5, 3.0)
        expected = math.gamma(1.5) / (4.0 * math.sqrt(math.pi) / 3.0)
        assert got == pytest.approx(expected, rel=1e-13)


class TestParams:
    def test_derived_order(self):
        assert FracDerivParams(0.0, 0.0, 0).n == 1
        assert FracDerivParams(0.0, 0.7, 1).n == 1
        assert FracDerivParams(0.0, 1.0, 0).n == 2
        assert FracDerivParams(0.0, 1.5, 0).n == 2
        assert FracDerivParams(0.0, 2.0, 1).n == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            FracDerivParams(0.0, -0.1, 0)
        with pytest.raises(DomainError):
            FracDerivParams(0.0, 0.5, 2)


class TestPowerRule:
    def test_ordinary_derivative_of_abs(self):
        params = FracDerivParams(a=0.0, beta=1.0, m=1)
        assert power_rule(1.0, params, -3.0) == pytest.approx(-1.0, rel=1e-15)
        assert power_rule(1.0, params, 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_half_derivative_of_sqrt(self):
        params = FracDerivParams(a=0.0, beta=0.5, m=0)
        assert power_rule(0.5, params, 4.0) == pytest.approx(math.gamma(1.5), rel=1e-14)

    def test_beta_zero_is_signed_power(self, rng):
        for _ in range(50):
            p = float(rng.uniform(-0.5, 3.0))
            a = float(rng.uniform(-2, 2))
            x = float(rng.uniform(-3, 3))
            if x == a:
                continue
            for m in (0, 1):
                got = power_rule(p, FracDerivParams(a, 0.0, m), x)
                assert got == abs(x - a) ** p * sign_pow(x - a, m)

    def test_at_base_point(self):
        assert power_rule(1.5, FracDerivParams(0.0, 0.5, 0), 0.0) == 0.0
        got = power_rule(0.5, FracDerivParams(0.0, 0.5, 0), 0.0)
        assert got == pytest.approx(math.gamma(1.5), rel=1e-15)
        assert power_rule(0.5, FracDerivParams(0.0, 0.5, 1), 0.0) == 0.0
        with pytest.raises(NumericalError):
            power_rule(0.5, FracDerivParams(0.0, 1.5, 0), 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            power_rule(-1.0, FracDerivParams(0.0, 0.5, 0), 1.0)

    def test_vanishing_coefficient(self):
        # p - beta + 1 = 0: the coefficient is zero everywhere.
        params = FracDerivParams(0.0, 2.0, 0)
        assert power_rule(1.0, params, 3.0) == 0.0

    def test_overflow_is_numerical_error(self):
        # |x - a|**(p - beta) = (1e-308)**-2 passes the float range.
        params = FracDerivParams(1e-308, 2.0, 0)
        for x in (0.0, np.float64(0.0)):
            with pytest.raises(NumericalError):
                power_rule(0.0, params, x)

    def test_array_singular_if_any_point_is_singular(self):
        params = FracDerivParams(0.5, 1.5, 0)
        with pytest.raises(NumericalError):
            power_rule(0.5, params, np.array([1.0, 0.5, 2.0]))
        assert power_rule(0.5, params, np.array([1.0, 2.0])).shape == (2,)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(min_value=-0.9, max_value=3.0),
    beta=st.floats(min_value=0.0, max_value=3.0),
    m=st.sampled_from((0, 1)),
    a=st.floats(min_value=-2.0, max_value=2.0),
    xs=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=12),
    at_a=st.booleans(),
)
def test_power_rule_array_matches_scalar(p, beta, m, a, xs, at_a):
    # Points at x = a are singular for p < beta; that case raises (test above).
    # Other points keep |x - a| >= 1e-3, so that |x - a|**(p - beta) is a
    # finite float: beyond the float range the scalar path raises NumericalError.
    if at_a and p >= beta:
        xs = xs + [a]
    xs = [x for x in xs if (x == a and p >= beta) or abs(x - a) >= 1e-3]
    params = FracDerivParams(a, beta, m)
    got = power_rule(p, params, np.array(xs))
    want = np.array([power_rule(p, params, x) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestNumericOracle:
    def test_matches_power_rule_spot(self):
        params = FracDerivParams(a=0.0, beta=0.7, m=1)
        f = lambda t: np.abs(t) ** 1.2
        closed = power_rule(1.2, params, -2.0)
        numeric = frac_derivative_numeric(f, params, -2.0)
        assert numeric == pytest.approx(closed, rel=1e-3)

    def test_integer_order_smooth(self):
        params = FracDerivParams(a=0.0, beta=1.0, m=1)
        for x in (-0.7, 0.9):
            got = frac_derivative_numeric(np.sin, params, x)
            assert got == pytest.approx(math.cos(x), rel=1e-6)

    def test_integer_order_sign_annihilation(self):
        # Literal convention: an even positive sign exponent at x = a gives 0.
        params = FracDerivParams(a=0.3, beta=1.0, m=0)  # sign**(m+1)(0) = 0
        assert frac_derivative_numeric(np.cos, params, 0.3) == 0.0

    def test_zero_order(self):
        params = FracDerivParams(a=0.0, beta=0.0, m=1)
        assert frac_derivative_numeric(np.cos, params, -2.0) == pytest.approx(
            -math.cos(2.0), rel=1e-14
        )

    def test_left_right_split(self):
        beta = 0.6
        f = np.exp
        a = 0.5
        for m in (0, 1):
            params = FracDerivParams(a=a, beta=beta, m=m)
            x_right = 1.7
            left_ref = rl_left_numeric(f, a, beta, x_right)
            assert frac_derivative_numeric(f, params, x_right) == pytest.approx(
                left_ref, rel=1e-4
            )
            x_left = -0.8
            right_ref = rl_right_numeric(f, a, beta, x_left)
            assert frac_derivative_numeric(f, params, x_left) == pytest.approx(
                (-1.0) ** m * right_ref, rel=1e-4
            )

    def test_quadrature_failure_raises(self):
        params = FracDerivParams(a=0.0, beta=0.5, m=0)
        f = lambda t: np.abs(t) ** 0.5
        quad = QuadratureConfig(nodes=4, error_bound=1e-14)
        with pytest.raises(NumericalError) as err:
            frac_derivative_numeric(f, params, 1.5, quad)
        assert err.value.estimate is not None


class TestBinomialSeries:
    def test_only_first_term_at_zero(self):
        for b, alpha in ((2.0, 1.3), (-0.7, 0.4)):
            got = binomial_series_partial(0.0, b, alpha, 17)
            assert got == pytest.approx(abs(b) ** alpha, rel=1e-15)

    def test_terminating_quadratic(self):
        assert binomial_series_partial(0.5, 1.0, 2.0, 2) == 2.25
        assert binomial_series_partial(0.5, 1.0, 2.0, 60) == 2.25

    def test_negative_base(self):
        got = binomial_series_partial(0.5, -1.0, 1.5, 60)
        assert got == pytest.approx(0.5**1.5, abs=1e-10)

    def test_outside_convergence_region(self):
        with pytest.raises(DomainError):
            binomial_series_partial(1.5, 1.0, 1.5, 10)

    def test_coefficient_decay(self):
        # |(alpha)_k| / k! <= C * k**(-alpha-1) with C fitted at k = 64.
        for alpha in (0.25, 0.8, 1.5, 1.9):
            coeffs = []
            c = 1.0
            for k in range(257):
                coeffs.append(abs(c))
                c *= (alpha - k) / (k + 1.0)
            fit = coeffs[64] * 64.0 ** (alpha + 1.0)
            for k in range(64, 257):
                assert coeffs[k] <= fit * k ** (-alpha - 1.0) * (1.0 + 1e-12)

    def test_partial_sums_converge(self):
        for alpha in (0.25, 0.7, 1.5, 2.0):
            for b in (1.7, -2.3):
                for ratio in (0.0, 0.25, -0.5, 0.75, -0.9):
                    x = ratio * abs(b)
                    got = binomial_series_partial(x, b, alpha, 200)
                    assert got == pytest.approx(abs(x + b) ** alpha, abs=1e-8)


@settings(max_examples=80, deadline=None)
@given(
    p=st.floats(min_value=-0.9, max_value=3.0),
    beta=st.floats(min_value=0.0, max_value=2.5),
)
def test_gamma_ratio_finite(p, beta):
    val = gamma_ratio(p, beta)
    assert math.isfinite(val)
