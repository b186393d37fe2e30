import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablecov import (
    AxisSupportError,
    DomainError,
    StableModel,
    additivity_check,
    characteristic_function,
    even_series_identity_check,
    independence_necessary_report,
    independence_sufficient_check,
    james_bound_check,
    linear_combination_covariation,
    linear_combination_via_pushforward,
    min_max_inequality,
    symmetric_covariation,
    symmetrize,
)
from stablecov import dependence

from conftest import (
    axis_model,
    diagonal_model,
    make_measure,
    quadrant_model,
    second_axis_model,
)


def tri_model(alpha):
    """Trivariate measure with s2*s3 = 0 on every atom."""
    s = 1.0 / math.sqrt(2.0)
    measure = make_measure(
        3,
        [
            ((s, s, 0.0), 0.25),
            ((-s, -s, 0.0), 0.25),
            ((s, 0.0, s), 0.25),
            ((-s, 0.0, -s), 0.25),
        ],
    )
    return StableModel(alpha, measure)


class TestIndependenceNecessary:
    def test_axis_values(self):
        report = independence_necessary_report(
            axis_model(1.5), beta_grid=[0.5, 1.0, 1.5], tol=1e-12
        )
        assert report.passed
        assert report.total_mass == pytest.approx(1.0, abs=1e-15)
        by_key = {(b, m): v for b, m, v, _, _ in report.entries}
        assert by_key[(0.0, 0)] == pytest.approx(1.0, abs=1e-15)
        for key, value in by_key.items():
            if key != (0.0, 0):
                assert value == 0.0

    def test_unequal_masses(self):
        report = independence_necessary_report(
            axis_model(1.2, w1=0.1, w2=0.4), beta_grid=[0.6, 1.2], tol=1e-12
        )
        assert report.passed
        assert report.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_non_axis_support_rejected(self):
        with pytest.raises(AxisSupportError):
            independence_necessary_report(diagonal_model(1.5), beta_grid=[1.0], tol=1e-12)

    def test_zero_weight_atom_is_outside_the_support(self):
        # The off-axis atom has no mass: the support is the first axis.
        measure = symmetrize(make_measure(2, [((0.6, 0.8), 0.0), ((1.0, 0.0), 0.5)]))
        report = independence_necessary_report(StableModel(2.0, measure), [1.0, 2.0, 3.0], 1e-10)
        assert report.passed
        assert [e.value for e in report.entries] == [0.5] + [0.0] * 6


class TestIndependenceSufficient:
    def theta_grid(self):
        return [(0.5, 0.0), (0.0, 0.5), (1.0, 1.0), (2.0, -1.0), (-0.7, 0.3)]

    def test_axis_triggers_and_factorizes(self):
        report = independence_sufficient_check(
            axis_model(1.5), beta=1.0, theta_grid=self.theta_grid(), tol=1e-12
        )
        assert report.triggered
        assert report.passed
        assert report.max_factorization_gap < 1e-12

    def test_diagonal_not_triggered(self):
        alpha = 1.5
        report = independence_sufficient_check(
            diagonal_model(alpha), beta=alpha / 2, theta_grid=self.theta_grid(), tol=1e-12
        )
        assert not report.triggered
        assert report.covariation == pytest.approx(2.0 ** (-alpha / 2.0), rel=1e-14)
        assert report.passed  # nothing to verify when not triggered

    def test_single_pair_not_triggered(self):
        measure = make_measure(2, [((0.6, 0.8), 0.5), ((-0.6, -0.8), 0.5)])
        model = StableModel(1.5, measure)
        report = independence_sufficient_check(
            model, beta=0.75, theta_grid=self.theta_grid(), tol=1e-12
        )
        assert not report.triggered
        assert report.covariation > 0.0


class TestAdditivity:
    def test_constructed_measure(self):
        for alpha in (0.8, 1.5, 2.0):
            report = additivity_check(tri_model(alpha), tol=1e-12)
            assert report.passed
            assert report.max_gap < 1e-12

    def test_support_violation_names_atom(self):
        s = 1.0 / math.sqrt(3.0)
        measure = symmetrize(make_measure(3, [((s, s, s), 0.5)]))
        model = StableModel(1.5, measure)
        with pytest.raises(AxisSupportError) as err:
            additivity_check(model, tol=1e-12)
        assert "s2*s3" in str(err.value)

    def test_zero_weight_atom_is_outside_the_support(self):
        s = 1.0 / math.sqrt(3.0)
        kept = tri_model(1.5).measure
        points = [((s, s, s), 0.0), *zip(kept.directions.tolist(), kept.weights.tolist())]
        model = StableModel(1.5, symmetrize(make_measure(3, points)))
        assert additivity_check(model, tol=1e-12).passed

    def test_gaussian_bilinearity(self):
        # At alpha = 2, (1, 1) entries reproduce covariance bilinearity.
        model = tri_model(2.0)
        report = additivity_check(model, tol=1e-12, grid=[(1.0, 1)])
        (beta, m, lhs, rhs, gap) = report.entries[0]
        dirs = model.measure.directions
        w = model.measure.weights
        cov12 = float(np.sum(w * dirs[:, 0] * dirs[:, 1]))
        cov13 = float(np.sum(w * dirs[:, 0] * dirs[:, 2]))
        assert lhs == pytest.approx(cov12 + cov13, abs=1e-14)
        assert gap < 1e-14

    def test_requires_trivariate(self):
        with pytest.raises(AxisSupportError):
            additivity_check(diagonal_model(1.5), tol=1e-12)


class TestJamesBound:
    def test_quadrant_alpha_15(self):
        model = quadrant_model(1.5)
        report = james_bound_check(model, lambda_grid=(1.0,), tol=1e-12)
        assert report.passed
        assert all(report.hypothesis_ok)
        # hand values: ||X1 + X2||**alpha = 0.5*(1.4**1.5 + 0.2**1.5)
        norm_sum_alpha = 0.5 * (1.4**1.5 + 0.2**1.5)
        expected_margin = norm_sum_alpha ** (1.0 / 1.5) - 0.8
        assert report.bound_margins[0] == pytest.approx(expected_margin, abs=1e-12)
        assert report.james_margins[0] == pytest.approx(expected_margin, abs=1e-12)

    def test_quadrant_alpha_08(self):
        model = quadrant_model(0.8)
        report = james_bound_check(model, lambda_grid=(-1.5, 0.5, 1.0), tol=1e-12)
        assert report.passed
        # constant drops below one for alpha < 1
        const = 2.0 ** (1.0 - 1.0 / 0.8)
        assert const < 1.0
        assert all(m is None for m in report.james_margins)

    def test_axis_measure(self):
        report = james_bound_check(axis_model(1.5), lambda_grid=(-2.0, 0.7), tol=1e-12)
        assert report.passed
        assert all(report.hypothesis_ok)

    def test_degenerate_margin_exactly_zero(self):
        model = second_axis_model(1.5)
        report = james_bound_check(model, lambda_grid=(-3.0, 0.2, 5.0), tol=1e-12)
        assert report.passed
        for margin, jm in zip(report.bound_margins, report.james_margins):
            assert margin == 0.0
            assert jm == 0.0

    def test_hypothesis_failure_named_but_not_fatal(self):
        report = james_bound_check(diagonal_model(1.5), lambda_grid=(1.0,), tol=1e-12)
        assert not report.hypothesis_ok[0]
        assert report.hypothesis_failures
        assert "lambda=1.0" in report.hypothesis_failures[0]
        # nothing asserted, nothing violated
        assert report.passed
        assert report.bound_margins[0] is None


class TestEvenSeriesIdentity:
    def test_quadrant(self):
        for alpha in (0.8, 1.0, 1.5, 2.0):
            report = even_series_identity_check(quadrant_model(alpha), tol=1e-10)
            assert report.applicable
            assert report.passed
            assert report.gap < 1e-10

    def test_report_is_python_scalars(self):
        # The even sum adds the series' array terms as Python floats, so the
        # report serialises as strict JSON.
        report = even_series_identity_check(quadrant_model(1.5), tol=1e-10)
        assert type(report.even_sum) is float and type(report.passed) is bool
        json.dumps(report.to_dict(), allow_nan=False)

    def test_not_applicable_on_dependent_pair(self):
        report = even_series_identity_check(diagonal_model(1.5), tol=1e-10)
        assert not report.applicable
        assert report.passed


class TestMinMaxInequality:
    def test_examples(self):
        assert min_max_inequality(1.0, 1.0, 2.0)
        assert min_max_inequality(1.0, 0.0, 0.7)
        assert min_max_inequality(1.0, 0.0, 3.0)

    def test_fuzz(self, rng):
        for _ in range(10000):
            x = float(rng.uniform(-10, 10))
            y = float(rng.uniform(-10, 10))
            p = float(rng.uniform(0, 4))
            assert min_max_inequality(x, y, p)


    @pytest.mark.parametrize(
        "x, y, p",
        [
            (1e200, 1.0, 2.0),
            (1.0, 0.5, 2000.0),
            (1e308, 1e308, 1.0),
            (1e308, -1e308, 3.0),
            (0.7, 0.7, 1e300),
            (1e200, 0.0, 2.0),  # the equality configurations, scaled
            (1e200, -1e200, 1.5),
            (-3e155, 1e155, 2.0),
        ],
    )
    def test_powers_past_the_float_range(self, x, y, p):
        assert min_max_inequality(x, y, p) is True

    @pytest.mark.parametrize("p", [40.0, 2000.0])
    def test_slack_grows_with_p(self, p):
        # x - y rounds to 1 - 2**-53, and the p-th power multiplies that error
        # by p: the left side is 2 - p * 2**-53, more than 8 ulps short of 2.
        assert min_max_inequality(1.0, 6e-17, p) is True
        assert min_max_inequality(1e300, 6e283, p) is True

    @pytest.mark.parametrize(
        "x, y, p",
        [(1.0, 1.0, math.nan), (math.inf, 1.0, 1.0), (1.0, -math.inf, 2.0), (math.nan, 0.0, 1.0),
         (1.0, 1.0, math.inf), pytest.param(10**400, 1.0, 1.0, id="int-past-the-float-range")],
    )
    def test_non_finite_input_rejected(self, x, y, p):
        with pytest.raises(DomainError):
            min_max_inequality(x, y, p)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=-50.0, max_value=50.0),
    y=st.floats(min_value=-50.0, max_value=50.0),
    p=st.floats(min_value=0.0, max_value=4.0),
)
def test_min_max_inequality_hypothesis(x, y, p):
    assert min_max_inequality(x, y, p)


def test_factorization_matches_independence(rng_seed=3):
    # On axis support the law factorizes; the dependence checks agree.
    rng = np.random.default_rng(rng_seed)
    model = axis_model(0.7, w1=0.3, w2=0.15)
    for _ in range(20):
        theta = rng.uniform(-2, 2, 2)
        joint = characteristic_function(model, theta)
        split = characteristic_function(model, (theta[0], 0.0)) * characteristic_function(
            model, (0.0, theta[1])
        )
        assert joint == pytest.approx(split, abs=1e-14)


def test_one_covariation_call_per_coefficient_pair(monkeypatch):
    # Each check passes its whole (beta, m) grid in one call per (a, b).
    calls = []
    for name in (
        "symmetric_covariation",
        "linear_combination_covariation",
        "linear_combination_via_pushforward",
    ):

        def spy(*args, _name=name, _fn=getattr(dependence, name)):
            calls.append((_name, *(tuple(c) for c in args[1:-2])))
            return _fn(*args)

        monkeypatch.setattr(dependence, name, spy)
    a = (1.0, 0.0, 0.0)
    for run, want in (
        (lambda: independence_necessary_report(axis_model(1.5), [0.5, 1.0, 1.5], 1e-12),
         [("symmetric_covariation",)]),
        (lambda: additivity_check(tri_model(1.5), 1e-12),
         [("linear_combination_covariation", a, (0.0, 1.0, 1.0)),
          ("linear_combination_via_pushforward", a, (0.0, 1.0, 0.0)),
          ("linear_combination_via_pushforward", a, (0.0, 0.0, 1.0))]),
        (lambda: james_bound_check(axis_model(1.5), (-2.0, 0.7), 1e-12),
         [("linear_combination_covariation", (-2.0, 0.0), (0.0, 1.0)),
          ("linear_combination_covariation", (0.7, 0.0), (0.0, 1.0))]),
        (lambda: even_series_identity_check(quadrant_model(1.5), 1e-10),
         [("symmetric_covariation",)]),
    ):
        calls.clear()
        run()
        assert calls == want


def test_grid_entries_match_scalar_calls():
    # One call per (a, b) keeps every entry bit for bit that of its own call.
    model = StableModel(1.3, symmetrize(make_measure(
        3, [((0.6, 0.8, 0.0), 0.4), ((0.8, 0.0, -0.6), 0.7), ((0.0, 1.0, 0.0), 0.2)]
    )))
    grid = [(0.4, 1), (0.0, 1), (0.9, 0), (1.3, 1), (2.1, 0), (0.4, 0)]
    a = (1.0, 0.0, 0.0)
    for (beta, m), entry in zip(grid, additivity_check(model, 1e-12, grid).entries):
        lhs = linear_combination_covariation(model, a, (0.0, 1.0, 1.0), beta, m)
        rhs = sum(
            linear_combination_via_pushforward(model, a, b, beta, m)
            for b in ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        )
        assert (entry.beta, entry.m, repr(entry.lhs), repr(entry.rhs)) == (
            beta, m, repr(lhs), repr(rhs)
        )
    model = axis_model(1.2, w1=0.1, w2=0.4)
    report = independence_necessary_report(model, [0.0, 0.6, 1.2, 2.2], 1e-12)
    assert [(e.beta, e.m) for e in report.entries] == [
        (0.0, 0), (0.0, 1), (0.6, 0), (0.6, 1), (1.2, 0), (1.2, 1), (2.2, 0), (2.2, 1)
    ]
    for e in report.entries:
        assert repr(e.value) == repr(symmetric_covariation(model, e.beta, e.m))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10])
@pytest.mark.parametrize(
    "check",
    [
        lambda tol: independence_necessary_report(axis_model(1.5), [1.0], tol),
        lambda tol: independence_sufficient_check(axis_model(1.5), 0.75, [(1.0, 1.0)], tol),
        lambda tol: additivity_check(tri_model(1.5), tol),
        lambda tol: james_bound_check(quadrant_model(1.5), (1.0,), tol),
        lambda tol: even_series_identity_check(quadrant_model(1.5), tol),
    ],
    ids=["necessary", "sufficient", "additivity", "james", "even_series"],
)
def test_tolerance_must_be_positive(check, tol):
    # Every comparison with NaN is false: the James check passed at tol = nan.
    with pytest.raises(DomainError, match="^tolerance must be > 0$"):
        check(tol)
