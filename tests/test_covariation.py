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
)
from stablecov.covariation import _limit_form_value, kernel_values

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
    pts = [((a.direction[1], a.direction[0]), a.weight) for a in model.measure.atoms]
    return StableModel(model.alpha, make_measure(2, pts))


def second_negated(model):
    pts = [((a.direction[0], -a.direction[1]), a.weight) for a in model.measure.atoms]
    return StableModel(model.alpha, make_measure(2, pts))


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
    ],
    ids=["symmetric", "linear_combination", "limit_check"],
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

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            covariation_limit_check(diagonal_model(1.5), 0.5, 1, epsilons=(1e-3, 1e-2))

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
    """A per-atom loop of _limit_form_value, kept as its oracle.

    Returns the value and the sum of the absolute atom contributions.
    """
    alpha = model.alpha
    ratio = gamma_ratio(alpha, beta)
    total = scale = 0.0
    for atom in model.measure.atoms:
        s1, s2 = atom.direction
        lead, other = (s1, s2) if abs(s1) <= abs(s2) else (s2, s1)
        if eps * abs(lead) <= 2.0**-53 * abs(other):
            term = atom.weight * kernel(alpha, beta, m, s1, s2) * ratio
        else:
            deriv = power_rule(alpha, FracDerivParams(-other / lead, beta, m), eps)
            term = atom.weight * abs(lead) ** alpha * deriv
        total += term
        scale += abs(term)
    return (1.0 / ratio) * total, scale / abs(ratio)


def loop_conventional_covariation(model):
    """A per-atom loop of conventional_covariation, kept as its oracle.

    Returns the value and the sum of the absolute atom contributions.
    """
    total = scale = 0.0
    for atom in model.measure.atoms:
        s1, s2 = atom.direction
        term = atom.weight * s1 * math.copysign(abs(s2) ** (model.alpha - 1.0), s2)
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
@given(
    model=symmetric_models(),
    beta_frac=st.floats(0.0, 1.0),
    m=st.sampled_from((0, 1)),
    eps=st.sampled_from((1e-2, 1e-4, 1e-8, 0.5)),
)
def test_limit_form_matches_loop_oracle(model, beta_frac, m, eps):
    # beta up to alpha + 0.9 keeps alpha - beta + 1 > 0, off the degenerate case.
    beta = beta_frac * (model.alpha + 0.9)
    try:
        want, scale = loop_limit_form_value(model, beta, m, eps)
    except NumericalError:
        with pytest.raises(NumericalError):
            _limit_form_value(model, beta, m, eps)
        return
    got = _limit_form_value(model, beta, m, eps)
    assert math.isfinite(got)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale)


@settings(max_examples=300, deadline=None)
@given(model=symmetric_models(alpha_min=1.01))
def test_conventional_covariation_matches_loop_oracle(model):
    want, scale = loop_conventional_covariation(model)
    np.testing.assert_allclose(conventional_covariation(model), want, rtol=0.0, atol=1e-13 * scale)
