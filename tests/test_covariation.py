import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablecov import (
    DegenerateError,
    DimensionError,
    DomainError,
    FracDerivParams,
    NumericalError,
    SpectralMeasure,
    StableModel,
    ValidationError,
    conventional_covariation,
    correlation_coefficient,
    covariation_limit_check,
    covariation_norm,
    gamma_ratio,
    linear_combination_covariation,
    linear_combination_via_pushforward,
    power_rule,
    symmetric_covariation,
    symmetrize,
)
from stablecov import covariation
from stablecov.covariation import _LIMIT_EPSILONS, kernel_values

from conftest import (
    INV_SQRT2,
    anti_diagonal_model,
    axis_model,
    diagonal_model,
    line_model,
    make_measure,
    random_model,
    second_axis_model,
)


def swapped(model):
    m = model.measure
    return StableModel(model.alpha, SpectralMeasure(m.directions[:, ::-1], m.weights))


def second_negated(model):
    m = model.measure
    return StableModel(model.alpha, SpectralMeasure(m.directions * [1.0, -1.0], m.weights))


def holder_bound(model, beta):
    alpha = model.alpha
    n1 = covariation_norm(model, 0)
    n2 = covariation_norm(model, 1)
    k = min(alpha, beta)
    return min(n1**k * n2 ** (alpha - k), n2**k * n1 ** (alpha - k))


def kernel(alpha, beta, m, s1, s2):
    """The kernel at one point, through the array implementation."""
    return float(kernel_values(alpha, beta, m, np.array([s1]), np.array([s2]))[0])


class TestKernel:
    def test_gaussian_product(self):
        assert kernel(2.0, 1.0, 1, 0.6, 0.8) == pytest.approx(0.48, rel=1e-15)

    def test_even_branch(self):
        assert kernel(1.5, 0.0, 0, 0.6, -0.8) == pytest.approx(0.8**1.5, rel=1e-15)

    def test_tie_branches_agree_exactly(self):
        for alpha, beta, m in ((1.5, 0.7, 0), (0.8, 0.3, 1), (2.0, 1.9, 1)):
            for c in (0.3, 1.0 / math.sqrt(2.0), 0.95):
                for s1, s2 in ((c, c), (c, -c), (-c, c)):
                    sgn = 1.0 if m == 0 else math.copysign(1.0, s1 * s2)
                    first = abs(s1) ** beta * abs(s2) ** (alpha - beta) * sgn
                    second = abs(s1) ** (alpha - beta) * abs(s2) ** beta * sgn
                    assert first == second
                    assert kernel(alpha, beta, m, s1, s2) == first

    def test_zero_point(self):
        for beta in (0.0, 0.5, 3.0):
            assert kernel(1.5, beta, 0, 0.0, 0.0) == 0.0

    def test_zero_second_argument(self):
        assert kernel(1.5, 0.0, 0, 0.7, 0.0) == pytest.approx(0.7**1.5, rel=1e-15)
        assert kernel(1.5, 0.5, 0, 0.7, 0.0) == 0.0
        assert kernel(1.5, 0.0, 1, 0.7, 0.0) == 0.0

    def test_params_validation(self):
        # alpha is the model's: an alpha outside (0, 2] never reaches the kernel.
        with pytest.raises(ValidationError):
            diagonal_model(2.5)
        with pytest.raises(DomainError):
            symmetric_covariation(diagonal_model(1.5), -0.1, 0)
        with pytest.raises(DomainError):
            symmetric_covariation(diagonal_model(1.5), 0.5, 2)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
@pytest.mark.parametrize(
    "covariation",
    [
        symmetric_covariation,
        lambda model, beta, m: linear_combination_covariation(model, (1.0, 0.0), (0.0, 1.0), beta, m),
        covariation_limit_check,
        lambda model, beta, m: FracDerivParams(0.0, beta, m),
    ],
    ids=["symmetric", "linear_combination", "limit_check", "frac_deriv_params"],
)
def test_non_finite_beta_rejected(covariation, beta):
    with pytest.raises(DomainError):
        covariation(diagonal_model(1.5), beta, 0)


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    alpha=st.floats(min_value=0.05, max_value=2.0),
    beta=st.floats(min_value=0.0, max_value=4.0),
    m=st.integers(min_value=0, max_value=1),
)
def test_kernel_bounded_on_sphere(phi, alpha, beta, m):
    s1, s2 = math.cos(phi), math.sin(phi)
    assert abs(kernel(alpha, beta, m, s1, s2)) <= 1.0 + 1e-12


class TestSymmetricCovariation:
    def test_diagonal_constant_in_beta_m(self):
        for alpha in (0.5, 1.5, 2.0):
            model = diagonal_model(alpha)
            for beta in (0.0, 0.5, alpha / 2, alpha, alpha + 1.0):
                for m in (0, 1):
                    assert symmetric_covariation(model, beta, m) == pytest.approx(
                        2.0 ** (-alpha / 2.0), rel=1e-14
                    )

    def test_axis_values(self):
        model = axis_model(1.5)
        assert symmetric_covariation(model, 0.0, 0) == pytest.approx(1.0, abs=1e-15)
        for beta, m in ((0.5, 0), (1.0, 1), (1.5, 0), (0.0, 1)):
            assert symmetric_covariation(model, beta, m) == 0.0

    def test_gaussian_covariance_half(self):
        model = diagonal_model(2.0)
        # Cov(X1, X2) = 1 for this measure; the covariation is half of it.
        assert symmetric_covariation(model, 1.0, 1) == pytest.approx(0.5, rel=1e-14)

    def test_dimension_error(self, rng):
        model = random_model(rng, dim=3)
        with pytest.raises(DimensionError):
            symmetric_covariation(model, 1.0, 0)

    def test_symmetry_exact(self, rng):
        for _ in range(50):
            model = random_model(rng)
            beta = float(rng.uniform(0.0, model.alpha + 1.0))
            m = int(rng.integers(0, 2))
            assert symmetric_covariation(model, beta, m) == symmetric_covariation(
                swapped(model), beta, m
            )

    def test_sign_flip_exact(self, rng):
        for _ in range(50):
            model = random_model(rng)
            beta = float(rng.uniform(0.0, model.alpha + 1.0))
            for m in (0, 1):
                lhs = symmetric_covariation(second_negated(model), beta, m)
                rhs = (-1.0) ** m * symmetric_covariation(model, beta, m)
                assert lhs == rhs


class TestConventionalCovariation:
    def test_diagonal_gaussian(self):
        model = diagonal_model(2.0)
        value = conventional_covariation(model)
        assert value == pytest.approx(0.5, rel=1e-14)
        assert 2.0 * value == pytest.approx(1.0, rel=1e-14)  # = Cov

    def test_axis_vanishes(self):
        for alpha in (1.2, 1.7, 2.0):
            assert conventional_covariation(axis_model(alpha)) == 0.0

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            conventional_covariation(diagonal_model(0.9))

    def test_relation_to_symmetric(self, rng):
        for alpha in (1.2, 1.5, 1.8, 2.0):
            for _ in range(10):
                model = random_model(rng, alpha_range=(alpha, alpha))
                lhs = symmetric_covariation(model, 1.0, 1) + symmetric_covariation(
                    model, alpha - 1.0, 1
                )
                rhs = conventional_covariation(model) + conventional_covariation(
                    swapped(model)
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestCovariationNorm:
    def test_axis(self):
        model = axis_model(1.5)
        for coord in (0, 1):
            assert covariation_norm(model, coord) == pytest.approx(
                0.5 ** (1.0 / 1.5), rel=1e-14
            )

    def test_diagonal(self):
        for alpha in (0.5, 1.0, 2.0):
            model = diagonal_model(alpha)
            assert covariation_norm(model, 0) == pytest.approx(
                2.0 ** (-0.5), rel=1e-14
            )

    def test_self_covariation_independent_of_beta_m(self):
        model = axis_model(1.5)
        alpha = model.alpha
        e1 = (1.0, 0.0)
        base = linear_combination_covariation(model, e1, e1, 0.0, 0)
        for beta in (0.0, 1.0, alpha / 2, alpha, alpha + 1.0):
            for m in (0, 1):
                assert linear_combination_covariation(model, e1, e1, beta, m) == base
        assert base == pytest.approx(covariation_norm(model, 0) ** alpha, rel=1e-14)

    def test_self_covariation_random(self, rng):
        model = random_model(rng)
        alpha = model.alpha
        e2 = (0.0, 1.0)
        base = linear_combination_covariation(model, e2, e2, 0.0, 0)
        for beta in (0.7, alpha, alpha + 1.0):
            for m in (0, 1):
                got = linear_combination_covariation(model, e2, e2, beta, m)
                assert got == pytest.approx(base, rel=1e-13)


class TestCorrelationCoefficient:
    def test_identical_coordinates(self):
        for alpha in (0.5, 1.5, 2.0):
            model = diagonal_model(alpha)
            for beta in (alpha / 2, 0.75 * alpha, alpha):
                for m in (0, 1):
                    rho = correlation_coefficient(model, beta, m)
                    assert rho == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip(self):
        alpha = 1.5
        model = anti_diagonal_model(alpha)
        for m in (0, 1):
            rho = correlation_coefficient(model, alpha / 2, m)
            assert rho == pytest.approx((-1.0) ** m, abs=1e-12)

    def test_matches_pearson_for_gaussian(self, rng):
        for _ in range(25):
            model = random_model(rng, alpha_range=(2.0, 2.0))
            dirs = model.measure.directions
            w = model.measure.weights
            var1 = 2.0 * float(np.sum(w * dirs[:, 0] ** 2))
            var2 = 2.0 * float(np.sum(w * dirs[:, 1] ** 2))
            cov = 2.0 * float(np.sum(w * dirs[:, 0] * dirs[:, 1]))
            pearson = cov / math.sqrt(var1 * var2)
            rho = correlation_coefficient(model, 1.0, 1)
            assert rho == pytest.approx(pearson, abs=1e-12)

    def test_range_on_random_instances(self, rng):
        for _ in range(100):
            model = random_model(rng)
            beta = float(rng.uniform(model.alpha / 2.0, model.alpha))
            rho = correlation_coefficient(model, beta, int(rng.integers(0, 2)))
            assert -1.0 - 1e-12 <= rho <= 1.0 + 1e-12

    def test_degenerate_norm(self):
        with pytest.raises(DegenerateError):
            correlation_coefficient(second_axis_model(1.5), 1.0, 0)

    def test_beta_domain(self):
        model = diagonal_model(1.5)
        for beta in (0.1, 1.6):
            with pytest.raises(DomainError):
                correlation_coefficient(model, beta, 0)


class TestLinearCombination:
    def test_identity_combination(self, rng):
        model = random_model(rng)
        beta = 0.6
        assert linear_combination_covariation(
            model, (1.0, 0.0), (0.0, 1.0), beta, 1
        ) == symmetric_covariation(model, beta, 1)

    def test_half_alpha_scaling(self, rng):
        for _ in range(50):
            model = random_model(rng)
            alpha = model.alpha
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            for m in (0, 1):
                lhs = linear_combination_covariation(model, (a, 0.0), (0.0, b), alpha / 2, m)
                sgn = 1.0 if m == 0 else math.copysign(1.0, a * b) if a * b != 0 else 0.0
                rhs = (
                    abs(a) ** (alpha / 2)
                    * abs(b) ** (alpha / 2)
                    * sgn
                    * symmetric_covariation(model, alpha / 2, m)
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_first_argument_factoring(self, rng):
        for _ in range(50):
            model = random_model(rng)
            beta = float(rng.uniform(0.0, model.alpha))
            a = float(rng.uniform(0.2, 2.0)) * (-1.0) ** int(rng.integers(0, 2))
            b = float(rng.uniform(-2, 2))
            for m in (0, 1):
                lhs = linear_combination_covariation(model, (a, 0.0), (0.0, b), beta, m)
                rhs = abs(a) ** model.alpha * linear_combination_covariation(
                    model, (1.0, 0.0), (0.0, b / a), beta, m
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_two_path_equivalence(self, rng):
        for _ in range(10):
            dim = int(rng.integers(3, 5))
            model = random_model(rng, dim=dim)
            a = rng.uniform(-2, 2, dim)
            b = rng.uniform(-2, 2, dim)
            beta = float(rng.uniform(0.0, model.alpha))
            for m in (0, 1):
                direct = linear_combination_covariation(model, a, b, beta, m)
                pushed = linear_combination_via_pushforward(model, a, b, beta, m)
                assert direct == pytest.approx(pushed, abs=1e-12)

    def test_dimension_error(self, rng):
        model = random_model(rng, dim=3)
        with pytest.raises(DimensionError):
            linear_combination_covariation(model, (1.0, 0.0), (0.0, 1.0), 0.5, 0)


class TestHolderInequality:
    def test_random_instances(self, rng):
        for _ in range(200):
            model = random_model(rng)
            beta = float(rng.uniform(model.alpha / 2.0, model.alpha + 2.0))
            m = int(rng.integers(0, 2))
            value = abs(symmetric_covariation(model, beta, m))
            assert value <= holder_bound(model, beta) + 1e-12

    def test_equality_for_proportional_coordinates(self, rng):
        for _ in range(50):
            alpha = float(rng.uniform(0.3, 2.0))
            lam = float(rng.uniform(-3.0, 3.0))
            if lam == 0.0:
                continue
            model = line_model(alpha, lam, mass=float(rng.uniform(0.5, 2.0)))
            beta = float(rng.uniform(alpha / 2.0, alpha))
            m = int(rng.integers(0, 2))
            value = abs(symmetric_covariation(model, beta, m))
            assert value == pytest.approx(holder_bound(model, beta), abs=1e-10)

    def test_beta_above_alpha_counterexample(self):
        # X1 = 2*X2 with beta = 3 > alpha: the bound is not attained.
        for alpha in (0.8, 1.5, 2.0):
            model = line_model(alpha, 2.0)
            n2 = covariation_norm(model, 1)
            value = abs(symmetric_covariation(model, 3.0, 1))
            assert value == pytest.approx(2.0 ** (alpha - 3.0) * n2**alpha, rel=1e-12)
            bound = holder_bound(model, 3.0)
            assert bound == pytest.approx(n2**alpha, rel=1e-12)
            assert bound - value > 0.4 * n2**alpha


class TestLimitCheck:
    def test_diagonal(self):
        report = covariation_limit_check(diagonal_model(1.5), 0.5, 1)
        assert report.passed
        assert report.final_gap < 1e-6
        assert all(
            report.gaps[i + 1] < report.gaps[i] for i in range(len(report.gaps) - 1)
        )

    def test_gaussian_random(self, rng):
        model = random_model(rng, alpha_range=(2.0, 2.0))
        report = covariation_limit_check(model, 1.0, 1)
        assert report.passed

    def test_axis_limit_zero(self):
        model = axis_model(1.5)
        for beta, m in ((0.5, 0), (1.0, 1), (0.0, 1)):
            report = covariation_limit_check(model, beta, m)
            assert report.reference == 0.0
            assert report.passed
            assert report.final_gap == 0.0

    def test_degenerate_prefactor(self):
        model = diagonal_model(1.0)
        with pytest.raises(DomainError):
            covariation_limit_check(model, 2.0, 0)  # alpha - beta + 1 = 0

    @pytest.mark.parametrize(
        "small, alpha, beta, m",
        [(2.2e-311, 1.0, 0.0, 0), (1e-300, 1.5, 0.2, 1), (1e-300, 1.9, 0.2, 1)],
    )
    def test_near_axis_atoms(self, small, alpha, beta, m):
        # -other/lead, or its power, passes the float range for these atoms.
        model = StableModel(alpha, make_measure(2, [((1.0, small), 1.0), ((-1.0, -small), 1.0)]))
        report = covariation_limit_check(model, beta, m)
        assert report.reference == pytest.approx(2.0 * small**beta, rel=1e-12)
        for value in report.values:
            assert value == pytest.approx(report.reference, rel=1e-12)
        assert report.passed


def loop_limit_form_value(model, beta, m, eps):
    """A per-atom loop of one epsilon of covariation_limit_check's limit form,
    kept as its oracle.

    Returns the value and the sum of the absolute atom contributions.
    """
    alpha = model.alpha
    ratio = gamma_ratio(alpha, beta)
    total = scale = 0.0
    for (s1, s2), w in zip(model.measure.directions.tolist(), model.measure.weights.tolist()):
        lead, other = (s1, s2) if abs(s1) <= abs(s2) else (s2, s1)
        if eps * abs(lead) <= 2.0**-53 * abs(other):
            term = w * kernel(alpha, beta, m, s1, s2) * ratio
        else:
            deriv = power_rule(alpha, FracDerivParams(-other / lead, beta, m), eps)
            term = w * abs(lead) ** alpha * deriv
        total += term
        scale += abs(term)
    return (1.0 / ratio) * total, scale / abs(ratio)


def per_epsilon_limit_form_value(model, beta, m, eps):
    """One epsilon of the limit form with the power rule on the off-axis atoms
    alone, each at eps - base: the arithmetic of one row of
    covariation_limit_check's limit form in another layout, kept as its
    bit-for-bit oracle."""
    alpha = model.alpha
    ratio = gamma_ratio(alpha, beta)
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
    terms[off] = w[off] * np.float_power(np.abs(lead[off]), alpha) * deriv
    return (1.0 / ratio) * float(np.sum(terms))


def loop_conventional_covariation(model):
    """A per-atom loop of conventional_covariation, kept as its oracle.

    Returns the value and the sum of the absolute atom contributions.
    """
    total = scale = 0.0
    for (s1, s2), w in zip(model.measure.directions.tolist(), model.measure.weights.tolist()):
        term = w * s1 * math.copysign(abs(s2) ** (model.alpha - 1.0), s2)
        total += term
        scale += abs(term)
    return total, scale


# Axis atoms make the limit form's zero-denominator branch; diagonal atoms
# are the |s1| = |s2| ties.
SPECIAL_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))


@st.composite
def symmetric_models(draw, alpha_min=0.1):
    """Models whose atoms come in antipodal pairs, axis atoms often among them."""
    points = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            s = draw(st.sampled_from(SPECIAL_DIRECTIONS))
        else:
            t = draw(st.floats(0.0, 2.0 * math.pi))
            s = (math.cos(t), math.sin(t))
        w = draw(st.floats(0.01, 2.0))
        points += [(s, w), ((-s[0], -s[1]), w)]
    alpha = draw(st.floats(alpha_min, 2.0))
    return StableModel(alpha, make_measure(2, points))


@settings(max_examples=300, deadline=None)
@given(model=symmetric_models(), beta_frac=st.floats(0.0, 1.0), m=st.sampled_from((0, 1)))
def test_limit_form_matches_loop_oracle(model, beta_frac, m):
    # beta up to alpha + 0.9 keeps alpha - beta + 1 > 0, off the degenerate case.
    # Row k of the one array pass is the oracle's value at the k-th epsilon.
    beta = beta_frac * (model.alpha + 0.9)
    try:
        wants = [loop_limit_form_value(model, beta, m, eps) for eps in _LIMIT_EPSILONS]
    except NumericalError:
        with pytest.raises(NumericalError):
            covariation_limit_check(model, beta, m)
        return
    got = covariation_limit_check(model, beta, m).values
    assert len(got) == len(_LIMIT_EPSILONS)
    assert np.isfinite(got).all()
    for row, (want, scale) in zip(got, wants):
        np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-13 * scale)
    assert [row.hex() for row in got] == [
        per_epsilon_limit_form_value(model, beta, m, eps).hex() for eps in _LIMIT_EPSILONS
    ]


def test_limit_check_makes_one_power_rule_call(monkeypatch, rng):
    # All seven epsilons go through the power rule in one call.
    calls = []

    def spy(*args):
        calls.append(np.shape(args[2]))
        return power_rule(*args)

    monkeypatch.setattr(covariation, "power_rule", spy)
    for _ in range(5):
        model = random_model(rng, max_atoms=16)
        calls.clear()
        covariation_limit_check(model, 0.6 * model.alpha, 1)
        assert calls == [(len(_LIMIT_EPSILONS), len(model.measure.weights))]


def test_limit_check_makes_one_kernel_call(monkeypatch, rng):
    # One kernel row gives the reference and the axis atoms' limit terms.
    calls = []

    def spy(*args):
        calls.append(args[1:3])
        return kernel_values(*args)

    def no_covariation(*args):
        raise AssertionError("symmetric_covariation called")

    monkeypatch.setattr(covariation, "kernel_values", spy)
    monkeypatch.setattr(covariation, "symmetric_covariation", no_covariation)
    for _ in range(5):
        model = random_model(rng, max_atoms=16)
        calls.clear()
        covariation_limit_check(model, 0.6 * model.alpha, 1)
        assert calls == [(0.6 * model.alpha, 1)]


@settings(max_examples=300, deadline=None)
@given(model=symmetric_models(alpha_min=1.01))
def test_conventional_covariation_matches_loop_oracle(model):
    want, scale = loop_conventional_covariation(model)
    np.testing.assert_allclose(conventional_covariation(model), want, rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize("m", [0, 1])
def test_order_grid_matches_per_order_calls(rng, m):
    # One call on an array of orders gives, row by row, the repr of the call
    # at each order alone; a float order gives a float.
    for _ in range(20):
        model = random_model(rng, max_atoms=64)
        a, b = rng.uniform(-2.0, 2.0, (2, 2))
        for fn, args in (
            (symmetric_covariation, (model,)),
            (linear_combination_covariation, (model, a, b)),
            (linear_combination_via_pushforward, (model, a, b)),
        ):
            assert isinstance(fn(*args, 0.7, m), float)
            for orders in (np.arange(41.0), np.array([]), rng.uniform(0.0, 3.0, 5)):
                got = fn(*args, orders, m)
                assert isinstance(got, np.ndarray) and got.shape == orders.shape
                assert [repr(v) for v in got.tolist()] == [
                    repr(fn(*args, float(k), m)) for k in orders
                ]


@pytest.mark.parametrize(
    "bad, message",
    [(-0.5, "beta must be >= 0, got -0.5"), (math.nan, "beta must be finite, got nan")],
)
def test_bad_order_in_an_array_is_named(bad, message):
    orders = np.array([0.0, 1.0, bad, -2.0, math.inf])
    model = diagonal_model(1.5)
    for call in (
        lambda: symmetric_covariation(model, orders, 1),
        lambda: linear_combination_covariation(model, (1.0, 0.0), (0.0, 1.0), orders, 0),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


def test_branch_grid_matches_scalar_calls(rng):
    # Orders and branches paired entry for entry: every entry is the repr of
    # the call at its own (beta, m).
    for _ in range(20):
        model = random_model(rng, max_atoms=64)
        a, b = rng.uniform(-2.0, 2.0, (2, 2))
        orders = np.concatenate((np.arange(6.0), rng.uniform(0.0, 3.0, 6)))
        branches = rng.integers(0, 2, orders.size)
        for fn, args in (
            (symmetric_covariation, (model,)),
            (linear_combination_covariation, (model, a, b)),
            (linear_combination_via_pushforward, (model, a, b)),
        ):
            got = fn(*args, orders, branches)
            assert [repr(v) for v in got.tolist()] == [
                repr(fn(*args, float(k), int(m))) for k, m in zip(orders, branches)
            ]
        u, v = model.measure.directions.T
        rows = kernel_values(model.alpha, orders, branches, u, v)
        for row, k, m in zip(rows, orders, branches):
            assert row.tobytes() == kernel_values(model.alpha, float(k), int(m), u, v).tobytes()


def test_bad_branch_in_an_array_is_named():
    model = diagonal_model(1.5)
    orders = np.array([0.5, 1.0, 1.5, 2.0])
    for call in (
        lambda m: symmetric_covariation(model, orders, m),
        lambda m: linear_combination_covariation(model, (1.0, 0.0), (0.0, 1.0), orders, m),
    ):
        with pytest.raises(DomainError) as err:
            call(np.array([0, 1, 2, -1]))
        assert str(err.value) == "m must be 0 or 1, got 2"
        with pytest.raises(DimensionError):
            call(np.array([0, 1]))
    with pytest.raises(DimensionError):
        symmetric_covariation(model, 0.5, np.array([0]))


def test_kernel_values_checks_its_orders():
    u, v = np.array([0.6]), np.array([0.8])
    with pytest.raises(DimensionError, match=r"^m has shape \(2,\), its orders \(\)$"):
        kernel_values(1.5, 0.5, np.array([0, 1]), u, v)
    with pytest.raises(DimensionError):
        kernel_values(1.5, np.array([0.5, 1.0]), np.array([[0, 1]]), u, v)
    with pytest.raises(DomainError, match="^beta must be >= 0, got -0.5$"):
        kernel_values(1.5, -0.5, 0, u, v)
    with pytest.raises(DomainError, match="^m must be 0 or 1, got 2$"):
        kernel_values(1.5, 0.5, 2, u, v)


# One atom whose coordinates differ in the sixth digit: at beta near 2,000
# small**beta leaves the normal range (and at 2,200 the float range) while
# large**(alpha - beta) overflows.
LARGE_BETA_MODEL = StableModel(
    1.5,
    symmetrize(make_measure(2, [((0.7071060740794128, 0.7071074882929752), 1.0)])),
)


def _mp_covariation(model, beta, m, a=(1.0, 0.0), b=(0.0, 1.0)):
    # The covariation of (<a, X>, <b, X>) to 60 digits, from the stored atoms.
    import mpmath

    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for s, w in zip(model.measure.directions.tolist(), model.measure.weights.tolist()):
            u = sum(mpmath.mpf(c) * x for c, x in zip(a, s))
            v = sum(mpmath.mpf(c) * x for c, x in zip(b, s))
            small, large = sorted((abs(u), abs(v)))
            sign = mpmath.sign(u) * mpmath.sign(v) if m == 1 else 1
            total += mpmath.mpf(w) * small**beta * large ** (mpmath.mpf(model.alpha) - beta) * sign
        return float(total)


@pytest.mark.parametrize("beta", [2060.0, 2200.0])
@pytest.mark.parametrize("m", [0, 1])
def test_large_beta_matches_mpmath(beta, m):
    model = LARGE_BETA_MODEL
    got = symmetric_covariation(model, beta, m)
    assert got == pytest.approx(_mp_covariation(model, beta, m), rel=1e-12, abs=0.0)
    # Scaled by 3, small**beta passes the float range and large**(alpha - beta) does not.
    a, b = (3.0, 0.0), (0.0, 3.0)
    got = linear_combination_covariation(model, a, b, beta, m)
    assert got == pytest.approx(_mp_covariation(model, beta, m, a, b), rel=1e-12, abs=0.0)
    # The array form keeps each entry.
    grid = symmetric_covariation(model, np.array([1.0, beta]), np.array([0, m]))
    assert grid.tolist() == [symmetric_covariation(model, 1.0, 0), symmetric_covariation(model, beta, m)]


def test_large_beta_on_an_axis_is_zero():
    # small = 0 < large < 1: 0**beta * large**(alpha - beta) was 0 * inf = NaN.
    assert kernel(1.5, 2060.0, 0, 1e-5, 0.0) == 0.0
    assert kernel(1.5, 2060.0, 1, 0.0, -1e-5) == 0.0


def test_zero_coordinate_past_the_float_range_is_zero():
    # u = 1e200 or v = 1e200 with the other 0 on every atom: small**beta = 0
    # against large**(alpha - beta) = inf, and the rescaled form gave inf * 0.
    model = axis_model(1.9, 0.5, 0.25)
    for m in (0, 1):
        got = linear_combination_covariation(model, (1e200, 0.0), (0.0, 1e200), 0.01, m)
        assert got == 0.0
    assert kernel(1.9, 0.01, 0, 0.0, 1e200) == 0.0
    # At beta = 0 the kernel is large**alpha, here past the float range.
    with pytest.raises(NumericalError, match="passes the float range"):
        linear_combination_covariation(model, (1e200, 0.0), (0.0, 1e200), 0.0, 0)


def test_zero_weight_atom_adds_nothing():
    # At beta = 0.5 the zero-weight atoms' kernel values are inf; 0 * inf was NaN.
    points = [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5), ((0.6, 0.8), 0.0), ((-0.6, -0.8), 0.0)]
    model = StableModel(1.9, make_measure(2, points))
    for beta, m in ((0.5, 0), (0.5, 1), (1.7, 0)):
        assert linear_combination_covariation(model, (1.0, 0.0), (0.0, 1e300), beta, m) == 0.0


def test_large_beta_genuine_overflow_raises():
    # The value is about (7e299)**1.5, past the float range.
    with pytest.raises(NumericalError, match="passes the float range"):
        linear_combination_covariation(LARGE_BETA_MODEL, (1e300, 0.0), (0.0, 1e300), 2060.0, 0)


def test_subnormal_small_power_is_rescaled():
    # 0.6**1438 is about 2**-1060, a subnormal of 14 bits, while
    # 0.6172**(1.5 - 1438) is about 2**1000: the product, about 1e-18, needs
    # the rescaled form.
    import mpmath

    with mpmath.workdps(60):
        want = float(mpmath.mpf(0.6) ** 1438 * mpmath.mpf(0.6172) ** (mpmath.mpf(1.5) - 1438))
    assert 1e-19 < want < 1e-17
    assert kernel(1.5, 1438.0, 0, 0.6, 0.6172) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "a, b, beta",
    [
        ((1e200, 0.0), (0.0, 1e-200), 0.4),  # the ratio's power underflows: inf * 0
        ((1.6e163, 0.0), (0.0, 1.25e-37), 0.1),  # large**alpha passes the float range
        ((1e300, 0.0), (0.0, 1e-200), 2.0),  # about 6.4e-401: 0.0
    ],
)
def test_both_forms_lost_take_the_log_form(a, b, beta):
    # Both the plain and the rescaled form leave the float range on an atom
    # whose value is in range, or below it, at every branch and in an order array.
    model = StableModel(2.0, symmetrize(make_measure(2, [((0.6, 0.8), 1.0)])))
    for m in (0, 1):
        want = _mp_covariation(model, beta, m, a, b)
        got = linear_combination_covariation(model, a, b, beta, m)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        grid = linear_combination_covariation(model, a, b, np.array([1.0, beta]), np.array([0, m]))
        assert grid[1] == got
    assert linear_combination_covariation(model, (1e300, 0.0), (0.0, 1e-200), 2.0, 0) == 0.0


def test_log_form_past_the_float_range_raises():
    model = StableModel(2.0, symmetrize(make_measure(2, [((0.6, 0.8), 1.0)])))
    with pytest.raises(NumericalError, match=r"passes the float range \(inf\)"):
        linear_combination_covariation(model, (1e300, 0.0), (0.0, 1e-200), 0.1, 0)
