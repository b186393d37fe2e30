import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy import special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablecov import (
    DegenerateMapError,
    DimensionError,
    DomainError,
    FracDerivParams,
    NumericalError,
    SpectralMeasure,
    StableModel,
    ValidationError,
    characteristic_function,
    chf_series,
    conventional_covariation,
    correlation_coefficient,
    covariation_limit_check,
    covariation_norm,
    discretize_density,
    empirical_chf,
    even_series_identity_check,
    gamma_ratio,
    gaussian_quadratic_form,
    independence_necessary_report,
    independence_sufficient_check,
    james_bound_check,
    linear_combination_covariation,
    load_model,
    model_from_dict,
    model_to_dict,
    pushforward_linear,
    sample_standard_sas,
    sample_vector,
    scale_parameter_direct,
    scale_parameter_series,
    symmetric_covariation,
    symmetrize,
)
from stablecov.covariation import kernel_values
from stablecov.spectral import (
    _ARRAY_MIN,
    DIRECTION_TOL,
    WEIGHT_TOL,
    _lone_partners,
    _merge_atoms,
    project,
)

from conftest import (
    OVERFLOW_SPEC,
    OVERFLOW_THETA,
    axis_model,
    diagonal_model,
    make_measure,
    random_model,
)


def raw_scale(measure, alpha, theta):
    # Independent evaluation of the defining integral, atom by atom.
    total = sum(
        w * abs(float(np.dot(theta, s))) ** alpha
        for s, w in zip(measure.directions, measure.weights.tolist())
    )
    return total ** (1.0 / alpha) if total > 0 else 0.0


class TestAtomAndMeasureInvariants:
    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValidationError, match=r"unit length, got norm 1\.4142135623730951$"):
            make_measure(2, [((1.0, 0.0), 0.5), ((1.0, 1.0), 0.5)])

    def test_negative_weight_rejected(self):
        # The first bad atom is named, its value printed as a Python float.
        with pytest.raises(ValidationError, match=r"finite and >= 0, got -0\.1$"):
            make_measure(2, [((1.0, 0.0), np.float64(-0.1)), ((2.0, 0.0), 0.5)])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"got {bad!r}$"):
                make_measure(2, [((1.0, 0.0), bad)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            make_measure(3, [((1.0, 0.0), 0.5)])
        for ragged in ([((1.0, 0.0), 0.5), ((0.0, 0.0, 1.0), 0.5)], [((1.0, 0.0), 0.5), ((), 0.5)]):
            with pytest.raises(DimensionError, match="real vector of dimension 2"):
                make_measure(2, ragged)

    def test_array_shapes_checked(self):
        for dirs, weights in (([[1.0, 0.0], [-1.0, 0.0]], [0.5]), ([1.0, 0.0], [0.5])):
            with pytest.raises(ValidationError, match="needs"):
                SpectralMeasure(dirs, weights)
        with pytest.raises(ValidationError, match="nonempty 1-d vector"):
            SpectralMeasure(np.zeros((1, 0)), [0.5])

    def test_arrays_are_read_only_copies(self):
        dirs, weights = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.5, 0.5])
        measure = SpectralMeasure(dirs, weights)
        dirs[0, 0], weights[0] = 0.0, 7.0
        assert measure.directions[0].tolist() == [1.0, 0.0] and measure.weights[0] == 0.5
        with pytest.raises(ValueError):
            measure.directions[0, 0] = 0.0
        with pytest.raises(ValueError):
            measure.weights[0] = 0.0
        assert measure.dim == 2 and measure.total_mass == 1.0
        assert [(s.tolist(), w) for s, w in measure.atoms] == [([1.0, 0.0], 0.5), ([-1.0, 0.0], 0.5)]

    def test_nan_direction_rejected(self):
        # NaN fails the unit-length test however it is reached.
        nan_atom = ((math.nan, 0.0), 0.5)
        with pytest.raises(ValidationError, match="got norm nan"):
            make_measure(2, [((1.0, 0.0), 0.5), nan_atom])
        with pytest.raises(ValidationError, match="got norm nan"):
            symmetrize(make_measure(2, [nan_atom]))
        with pytest.raises(ValidationError, match="got norm nan"):
            _merge_atoms(np.array([[1.0, 0.0], [math.nan, 0.0]]), np.array([0.5, 0.5]))
        model = StableModel(1.5, make_measure(2, [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]))
        with pytest.raises(ValidationError, match="got norm nan"):
            pushforward_linear(model, (math.nan, 0.0), (0.0, 1.0))

    def test_asymmetric_measure_rejected_by_model(self):
        measure = make_measure(2, [((1.0, 0.0), 0.5)])
        assert not measure.is_symmetric()
        with pytest.raises(ValidationError):
            StableModel(1.5, measure)

    def test_alpha_range(self):
        measure = symmetrize(make_measure(2, [((1.0, 0.0), 0.5)]))
        for bad in (0.0, -1.0, 2.5):
            with pytest.raises(ValidationError):
                StableModel(bad, measure)


class TestSymmetrize:
    def test_splits_single_atom(self):
        out = symmetrize(make_measure(2, [((1.0, 0.0), 1.0)]))
        assert out.directions.tolist() == [[1.0, 0.0], [-1.0, 0.0]]
        assert out.weights.tolist() == [0.5, 0.5]

    def test_already_symmetric_unchanged(self):
        measure = make_measure(2, [((0.0, 1.0), 0.5), ((0.0, -1.0), 0.5)])
        out = symmetrize(measure)
        np.testing.assert_array_equal(out.directions, measure.directions)
        np.testing.assert_array_equal(out.weights, measure.weights)

    def test_scale_parameter_preserved(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 7))
            dirs = rng.normal(size=(k, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            raw = make_measure(2, list(zip(dirs, rng.uniform(0.1, 1.0, k))))
            sym = symmetrize(raw)
            alpha = float(rng.uniform(0.3, 2.0))
            for _ in range(10):
                theta = rng.uniform(-2, 2, 2)
                assert raw_scale(raw, alpha, theta) == pytest.approx(
                    raw_scale(sym, alpha, theta), abs=1e-14
                )

    def test_merges_coincident_directions(self):
        out = symmetrize(make_measure(2, [((1.0, 0.0), 0.4), ((-1.0, 0.0), 0.6)]))
        assert len(out.weights) == 2
        assert out.weights[0] == pytest.approx(0.5, abs=1e-15)
        assert out.total_mass == pytest.approx(1.0, abs=1e-15)


def quadratic_merge(entries, dim):
    """The original pairwise merge, kept as the oracle for _merge_atoms."""
    merged = []
    for direction, weight in entries:
        direction = np.asarray(direction, dtype=float)
        for idx, (d0, w0) in enumerate(merged):
            if np.all(np.abs(direction - d0) <= DIRECTION_TOL):
                merged[idx] = (d0, w0 + weight)
                break
        else:
            merged.append((direction, weight))
    return SpectralMeasure.from_points(dim, merged)


def quadratic_is_symmetric(measure):
    """The original greedy pairing scan, kept as the oracle for is_symmetric."""
    dirs, weights = measure.directions, measure.weights
    unmatched = list(range(len(weights)))
    while unmatched:
        i = unmatched.pop(0)
        partner = None
        for j in unmatched:
            if (
                np.all(np.abs(dirs[i] + dirs[j]) <= DIRECTION_TOL)
                and abs(weights[i] - weights[j]) <= WEIGHT_TOL
            ):
                partner = j
                break
        if partner is None:
            return False
        unmatched.remove(partner)
    return True


def assert_same_measure(got, want):
    assert got.directions.shape == want.directions.shape
    assert got.directions.tobytes() == want.directions.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


def merge(points, dim):
    """_merge_atoms on a list of (direction, weight) pairs."""
    dirs = np.array([s for s, _ in points], dtype=float).reshape(len(points), dim)
    return _merge_atoms(dirs, np.array([w for _, w in points], dtype=float))


class TestMergeAndPairingRules:
    def test_chained_near_tolerance_entry_stays_separate(self):
        # e2 folds into e1; e3 is within tolerance of e2 but not of e1.
        e1, e2, e3 = (0.0, 1.0), (0.75 * DIRECTION_TOL, 1.0), (1.5 * DIRECTION_TOL, 1.0)
        out = merge([(e1, 1.0), (e2, 2.0), (e3, 4.0)], 2)
        assert out.directions.tolist() == [list(e1), list(e3)]
        assert out.weights.tolist() == [3.0, 4.0]

    def test_first_seen_keeps_position_and_direction(self):
        later = (0.5 * DIRECTION_TOL, -1.0)
        points = [((1.0, 0.0), 0.25), ((0.0, -1.0), 0.5), ((-1.0, 0.0), 0.25), (later, 0.5)]
        out = merge(points, 2)
        assert out.directions.tolist() == [[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]]
        assert out.weights.tolist() == [0.25, 1.0, 0.25]

    def test_weights_summed_in_entry_order(self):
        out = merge([((1.0, 0.0), w) for w in (1.0, 1e-16, 1e-16)], 2)
        assert out.weights[0] == (1.0 + 1e-16) + 1e-16
        assert out.weights[0] != 1.0 + (1e-16 + 1e-16)
        out = merge([((1.0, 0.0), w) for w in (1e-16, 1e-16, 1.0)], 2)
        assert out.weights[0] == (1e-16 + 1e-16) + 1.0

    def test_antipodes_listed_after_all_upper_atoms(self):
        angles = [math.pi * (j + 0.5) / 64 for j in range(64)]
        upper = [((math.cos(t), math.sin(t)), 0.1 + j) for j, t in enumerate(angles)]
        lower = [((-s[0], -s[1]), w) for s, w in upper]
        assert make_measure(2, upper + lower).is_symmetric()
        assert make_measure(2, upper + lower[::-1]).is_symmetric()
        lower[17] = (lower[17][0], lower[17][1] + 2 * WEIGHT_TOL)
        assert not make_measure(2, upper + lower).is_symmetric()

    def test_greedy_order_decides_between_two_partners(self):
        # A pairs with either antipode; D only with B, so A must take C.  Padded
        # past the cut, A's two candidates leave the decision to the loop.
        a = ((1.0, 0.0), 1.0)
        b = ((-1.0, 0.0), 1.0 + 0.75 * WEIGHT_TOL)
        c = ((-1.0, 0.0), 1.0 - 0.75 * WEIGHT_TOL)
        d = ((1.0, 0.0), 1.0 + 1.5 * WEIGHT_TOL)
        for fill in ([], filler_entries(2, _ARRAY_MIN)):
            unpaired, paired = make_measure(2, [a, b, c, d] + fill), make_measure(2, [a, c, b, d] + fill)
            assert array_pass(paired.directions, paired.weights) is None
            assert not unpaired.is_symmetric()
            assert paired.is_symmetric()

    def test_empty_and_single_atom(self):
        assert make_measure(2, []).is_symmetric()
        empty = merge([], 2)
        assert empty.directions.shape == (0, 2) and empty.atoms == () and empty.total_mass == 0.0
        assert not make_measure(3, [((0.0, 0.0, 1.0), 0.5)]).is_symmetric()
        out = merge([((0.0, 0.0, 1.0), 0.5)], 3)
        assert out.directions.tolist() == [[0.0, 0.0, 1.0]]
        assert out.weights.tolist() == [0.5]


def array_pass(dirs, weights=None):
    """_lone_partners on rows ``dirs``: merging them or, given weights, pairing them."""
    order = np.argsort(dirs[:, 0], kind="stable")
    return _lone_partners(dirs, order, dirs if weights is None else -dirs, weights)


class TestArrayPass:
    """Lists at or above the cut, checked against the quadratic oracles."""

    def test_midpoint_grid(self):
        # An atom at phi and its y-mirror at -phi share a first coordinate, so
        # each window holds both, but the antipode is each row's one candidate.
        upper = [(d, 0.5 + 0.01 * k) for k, (d, _) in enumerate(filler_entries(2, _ARRAY_MIN))]
        points = [e for d, w in upper for e in ((d, w / 2), (-d, w / 2))]
        assert array_pass(np.array([d for d, _ in points])) is not None
        got = merge(points, 2)
        assert_same_measure(got, quadratic_merge(points, 2))
        assert len(got.weights) == _ARRAY_MIN
        pairs = array_pass(got.directions, got.weights)
        assert pairs is not None and len(pairs[0]) == _ARRAY_MIN
        assert got.is_symmetric() and quadratic_is_symmetric(got)

    def test_atom_without_candidate(self):
        points = filler_entries(2, _ARRAY_MIN)
        points[5] = (points[5][0], points[5][1] + 2 * WEIGHT_TOL)
        measure = make_measure(2, points)
        # The bumped atom and its antipode have no candidate; the rest pair off.
        pairs = array_pass(measure.directions, measure.weights)
        assert pairs is not None and len(pairs[0]) == _ARRAY_MIN - 2
        assert not measure.is_symmetric() and not quadratic_is_symmetric(measure)

    def test_rank1_image_cluster_is_dense(self):
        # b = 2a sends every row to one of two directions: windows of 32 rows.
        dirs = np.array([d for d, _ in filler_entries(2, 64)])
        a = project(dirs, np.array([0.6, -1.3]))
        image = np.column_stack((a, 2.0 * a)) / np.hypot(a, 2.0 * a)[:, None]
        points = [(d, 0.1 + 0.01 * k) for k, d in enumerate(image)]
        assert array_pass(image) is None
        got = merge(points, 2)
        assert_same_measure(got, quadratic_merge(points, 2))
        assert len(got.weights) == 2


class TestScaleParameter:
    def test_diagonal_gaussian(self):
        model = diagonal_model(2.0)
        assert scale_parameter_direct(model, (1.0, 1.0)) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_zero_theta(self, rng):
        model = random_model(rng)
        assert scale_parameter_direct(model, (0.0, 0.0)) == 0.0

    def test_axis_measure(self):
        model = axis_model(1.5)
        assert scale_parameter_direct(model, (1.0, 0.0)) == pytest.approx(
            0.5 ** (1.0 / 1.5), rel=1e-15
        )

    def test_homogeneity(self, rng):
        model = random_model(rng)
        theta = rng.uniform(-2, 2, 2)
        base = scale_parameter_direct(model, theta)
        for c in (-3.0, -0.25, 0.5, 7.0):
            assert scale_parameter_direct(model, c * theta) == pytest.approx(
                abs(c) * base, rel=1e-12
            )

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            scale_parameter_direct(diagonal_model(1.5), (1.0, 0.0, 0.0))

    def test_past_float_range_is_numerical_error(self):
        model = model_from_dict(OVERFLOW_SPEC)
        with pytest.raises(NumericalError, match="float range"):
            scale_parameter_direct(model, OVERFLOW_THETA)


class TestCharacteristicFunction:
    def test_at_origin(self, rng):
        assert characteristic_function(random_model(rng), (0.0, 0.0)) == 1.0

    def test_gaussian_axis(self):
        model = StableModel(2.0, make_measure(2, [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]))
        for t in (0.3, 1.0, 2.5):
            assert characteristic_function(model, (t, 0.0)) == pytest.approx(
                math.exp(-t * t), rel=1e-14
            )

    def test_past_float_range_is_zero_without_warning(self):
        model = model_from_dict(OVERFLOW_SPEC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert characteristic_function(model, OVERFLOW_THETA) == 0.0

    def test_zero_weight_atom_past_float_range_adds_zero(self):
        # |<theta, s>|**2 of the weightless pair is inf; it has no mass, so
        # sigma**alpha is that of the pair on the first axis, 0 at theta1 = 0.
        points = [((0.6, 0.8), 0.0), ((-0.6, -0.8), 0.0), ((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]
        model = StableModel(2.0, make_measure(2, points))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert characteristic_function(model, (0.0, 1e308)) == 1.0
            assert scale_parameter_direct(model, (0.0, 1e308)) == 0.0
            assert characteristic_function(model, (1.0, 1e308)) == math.exp(-1.0)

    def test_even_exactly(self, rng):
        for _ in range(20):
            model = random_model(rng)
            theta = rng.uniform(-3, 3, 2)
            assert characteristic_function(model, theta) == characteristic_function(
                model, -theta
            )


def stored_order_projection(rows, c):
    # Python floats, coordinate by coordinate: ((0 + c0*x0) + c1*x1) + ...
    return np.array([sum(ck * xk for ck, xk in zip(c.tolist(), row)) for row in rows.tolist()])


@pytest.mark.parametrize("dim", [2, 3])
def test_every_projection_sums_coordinates_in_stored_order(rng, dim):
    # Bit for bit, against the Python-float sum: a BLAS product differs in the
    # last bits on some CPUs.
    model = random_model(rng, dim=dim, max_atoms=200)
    dirs, w, alpha = model.measure.directions, model.measure.weights, model.alpha
    theta, a, b = rng.uniform(-2.0, 2.0, (3, dim))
    proj = stored_order_projection(dirs, theta)
    assert project(dirs, theta).tolist() == proj.tolist()
    assert characteristic_function(model, theta) == math.exp(
        -float(np.sum(w * np.float_power(np.abs(proj), alpha)))
    )
    u, v = stored_order_projection(dirs, a), stored_order_projection(dirs, b)
    want = float(np.sum(w * kernel_values(alpha, 0.7 * alpha, 1, u, v)))
    assert linear_combination_covariation(model, a, b, 0.7 * alpha, 1) == want
    batch = sample_vector(model, 500, 3)
    drawn = stored_order_projection(batch.draws, theta)
    assert empirical_chf(batch, theta) == (
        float(np.mean(np.cos(drawn))),
        float(np.mean(np.sin(drawn))),
    )


class TestPushforward:
    def test_identity_map(self, rng):
        model = random_model(rng)
        out = pushforward_linear(model, (1.0, 0.0), (0.0, 1.0))
        assert out.n_dropped_atoms == 0
        np.testing.assert_allclose(out.measure.directions, model.measure.directions, atol=1e-15)
        np.testing.assert_allclose(out.measure.weights, model.measure.weights, rtol=1e-15)

    def test_scaling_weights(self):
        model = StableModel(1.0, make_measure(2, [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]))
        out = pushforward_linear(model, (2.0, 0.0), (0.0, 2.0))
        # weight picks up (A^2+B^2)^(alpha/2) = 2 per atom
        assert out.measure.weights.tolist() == [1.0, 1.0]
        assert out.measure.directions[0].tolist() == [1.0, 0.0]

    def test_chf_identity_random(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            model = random_model(rng, dim=dim)
            a = rng.uniform(-2, 2, dim)
            b = rng.uniform(-2, 2, dim)
            theta = rng.uniform(-2, 2, 2)
            pushed = pushforward_linear(model, a, b)
            lhs = characteristic_function(pushed, theta)
            rhs = characteristic_function(model, theta[0] * a + theta[1] * b)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_degenerate_map(self, rng):
        model = random_model(rng)
        with pytest.raises(DegenerateMapError):
            pushforward_linear(model, (0.0, 0.0), (0.0, 0.0))
        out = pushforward_linear(model, (0.0, 0.0), (0.0, 0.0), allow_degenerate=True)
        assert out.measure.directions.shape == (0, 2)
        assert out.n_dropped_atoms == len(model.measure.weights)
        assert characteristic_function(out, (1.0, 1.0)) == 1.0

    def test_dropped_atom_counter(self):
        measure = symmetrize(make_measure(3, [((0.0, 0.0, 1.0), 0.5), ((1.0, 0.0, 0.0), 0.5)]))
        model = StableModel(1.5, measure)
        out = pushforward_linear(model, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert out.n_dropped_atoms == 2
        assert len(out.measure.weights) == 2

    @pytest.mark.parametrize(
        "b2, weight",
        [
            (7.2e-158, 0.25 * 7.2e-158**1.5),  # A^2 + B^2 subnormal
            (1e160, 0.25 * 1e160**1.5),  # A^2 + B^2 = inf
            (1e-170, 0.25 * 1e-170**1.5),  # A^2 + B^2 underflows to 0
        ],
    )
    def test_image_outside_the_normal_range(self, b2, weight):
        # Only the atoms (+-1, 0) map to 0; (0, +-1) keep unit directions and
        # the weight w * |B|**alpha, although B**2 leaves the normal range.
        out = pushforward_linear(axis_model(1.5), (0.0, 0.0), (0.0, b2))
        assert out.n_dropped_atoms == 2
        assert out.measure.directions.tolist() == [[0.0, 1.0], [0.0, -1.0]]
        np.testing.assert_allclose(out.measure.weights, [weight, weight], rtol=1e-15)


def test_scale_parameter_overflow_is_numerical_error():
    # (2e300)**(1/alpha) passes the float range at alpha = 1e-9.
    model = StableModel(1e-9, make_measure(2, [((1.0, 0.0), 1e300), ((-1.0, 0.0), 1e300)]))
    with pytest.raises(NumericalError, match="passes the float range"):
        scale_parameter_direct(model, (1.0, 0.0))


class TestDiscretizeDensity:
    def test_uniform_density(self):
        out = discretize_density(lambda phi: 1.0 / (2.0 * math.pi), 8)
        assert len(out.weights) == 8
        np.testing.assert_allclose(out.weights, 1.0 / 8.0, rtol=0.0, atol=1e-15)
        assert out.total_mass == pytest.approx(1.0, abs=1e-14)
        assert out.is_symmetric()

    def test_negative_density_rejected(self):
        with pytest.raises(ValidationError):
            discretize_density(lambda phi: math.cos(phi), 8)

    def test_midpoint_order_on_kinked_density(self):
        # |sin| has kinks, so the midpoint rule really is second order here.
        density = lambda phi: abs(math.sin(phi)) + 0.1
        exact = 4.0 + 0.1 * 2.0 * math.pi
        errors = [abs(discretize_density(density, n).total_mass - exact) for n in (16, 32, 64)]
        assert errors[1] < errors[0] / 3.0
        assert errors[2] < errors[1] / 3.0

    def test_smooth_periodic_density_mass(self):
        density = lambda phi: math.exp(math.sin(2.0 * phi)) / (2.0 * math.pi)
        exact = 1.2660658777520082  # I_0(1), modified Bessel
        err = abs(discretize_density(density, 64).total_mass - exact)
        assert err < 1e-12

    def test_axis_bump_refinement(self):
        # Four sharp bumps at the axis angles: the discretization approaches
        # the four-point axis measure as the grid refines.
        kappa = 800.0
        norm = 2.0 * math.pi * special.i0e(kappa)  # 2*pi*exp(-kappa)*I_0(kappa)

        def density(phi):
            total = 0.0
            for center in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
                total += 0.25 * math.exp(kappa * (math.cos(phi - center) - 1.0)) / norm
            return total

        alpha = 1.5
        target = axis_model(alpha)
        thetas = [(1.0, 0.0), (1.0, 1.0), (0.3, -0.8)]
        prev = None
        for n in (128, 256, 512, 1024):
            model = StableModel(alpha, discretize_density(density, n))
            gaps = [
                abs(
                    scale_parameter_direct(model, t) - scale_parameter_direct(target, t)
                )
                for t in thetas
            ]
            if prev is not None:
                assert max(gaps) <= prev + 1e-12
            prev = max(gaps)
        # the floor is the residual bump width (~1/kappa), not the grid
        assert prev < 4.0 / kappa


class TestSpecFiles:
    def spec_dict(self):
        s = 1.0 / math.sqrt(2.0)
        return {
            "alpha": 1.5,
            "atoms": [{"s": [s, s], "w": 0.5}, {"s": [-s, -s], "w": 0.5}],
            "auto_symmetrize": False,
        }

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.spec_dict()))
        model = load_model(path)
        again = model_from_dict(model_to_dict(model))
        assert again.alpha == model.alpha
        np.testing.assert_allclose(again.measure.directions, model.measure.directions, atol=1e-15)
        np.testing.assert_array_equal(again.measure.weights, model.measure.weights)

    def test_auto_symmetrize(self):
        data = {"alpha": 1.0, "atoms": [{"s": [1.0, 0.0], "w": 1.0}], "auto_symmetrize": True}
        model = model_from_dict(data)
        assert model.measure.is_symmetric()
        assert model.measure.total_mass == pytest.approx(1.0)

    def test_asymmetric_without_flag_is_error(self):
        data = {"alpha": 1.0, "atoms": [{"s": [1.0, 0.0], "w": 1.0}], "auto_symmetrize": False}
        with pytest.raises(ValidationError):
            model_from_dict(data)

    def test_asymmetry_message(self):
        # The one symmetry gate is StableModel's, with the spec flag's wording;
        # an alpha out of range is named first.
        atoms = [{"s": [1.0, 0.0], "w": 1.0}]
        with pytest.raises(ValidationError) as err:
            model_from_dict({"alpha": 1.0, "atoms": atoms})
        assert str(err.value) == (
            'measure is not symmetric; set "auto_symmetrize": true to symmetrize on load'
        )
        with pytest.raises(ValidationError) as err:
            model_from_dict({"alpha": 2.5, "atoms": atoms})
        assert str(err.value) == "alpha must lie in (0, 2], got 2.5"

    @pytest.mark.parametrize("auto", [True, False, None])
    def test_one_symmetry_scan_per_load(self, monkeypatch, tmp_path, auto):
        scans = []
        original = SpectralMeasure.is_symmetric

        def spy(measure):
            scans.append(len(measure.weights))
            return original(measure)

        monkeypatch.setattr(SpectralMeasure, "is_symmetric", spy)
        spec = self.spec_dict()
        if auto is None:
            del spec["auto_symmetrize"]
        else:
            spec["auto_symmetrize"] = auto
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        load_model(path)
        assert scans == [2]

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [], {}])
    def test_auto_symmetrize_must_be_a_boolean(self, flag):
        data = {"alpha": 1.0, "atoms": [{"s": [1.0, 0.0], "w": 1.0}], "auto_symmetrize": flag}
        with pytest.raises(ValidationError) as err:
            model_from_dict(data)
        assert "'auto_symmetrize'" in str(err.value)
        data["atoms"].append({"s": [-1.0, 0.0], "w": 1.0})
        with pytest.raises(ValidationError):
            model_from_dict(data)

    def test_missing_auto_symmetrize_is_false(self):
        data = {"alpha": 1.0, "atoms": [{"s": [1.0, 0.0], "w": 1.0}, {"s": [-1.0, 0.0], "w": 1.0}]}
        assert len(model_from_dict(data).measure.weights) == 2
        with pytest.raises(ValidationError):
            model_from_dict({"alpha": 1.0, "atoms": data["atoms"][:1]})

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            model_from_dict({"atoms": []})
        with pytest.raises(ValidationError):
            model_from_dict({"alpha": 1.0})

    def test_alpha_override(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.spec_dict()))
        model = load_model(path, alpha_override=0.7)
        assert model.alpha == 0.7

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_model(tmp_path / "missing.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_model(path)


@settings(max_examples=50, deadline=None)
@given(
    c=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    alpha=st.floats(min_value=0.3, max_value=2.0),
)
def test_homogeneity_hypothesis(c, alpha):
    model = diagonal_model(alpha)
    theta = np.array([0.7, -1.3])
    lhs = scale_parameter_direct(model, c * theta)
    rhs = abs(c) * scale_parameter_direct(model, theta)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# Offsets planted between entries: exact, inside, on and outside the tolerance.
PLANTED = (0.0, 0.5, 1.0, 2.0)


@st.composite
def planted_entries(draw):
    """Entries on a few directions (shared first coordinates included) with
    near-duplicates and antipodes planted at PLANTED multiples of the tolerances."""
    dim = draw(st.sampled_from((2, 3)))
    angle = st.integers(0, 23).map(lambda k: k * math.pi / 12)
    bases = []
    for _ in range(draw(st.integers(1, 5))):
        t, p = draw(angle), draw(angle)
        if dim == 2:
            bases.append(np.array([math.cos(t), math.sin(t)]))
        else:
            bases.append(np.array([math.cos(t) * math.sin(p), math.sin(t) * math.sin(p), math.cos(p)]))
    out = []
    for _ in range(draw(st.integers(0, 14))):
        base = bases[draw(st.integers(0, len(bases) - 1))]
        sign = draw(st.sampled_from((1.0, -1.0)))
        shift = np.array([draw(st.sampled_from(PLANTED)) for _ in range(dim - 1)])
        direction = sign * base
        if shift.any():
            direction[:-1] += shift * DIRECTION_TOL * draw(st.sampled_from((1.0, -1.0)))
            rest = 1.0 - float(np.sum(direction[:-1] ** 2))
            direction[-1] = math.copysign(math.sqrt(max(rest, 0.0)), direction[-1])
        weight = draw(st.sampled_from((0.25, 0.5, 1.0)))
        weight += draw(st.sampled_from(PLANTED)) * WEIGHT_TOL
        out.append((direction, weight))
    # Half the lists also get _ARRAY_MIN fillers, so that they reach the array pass.
    fill = filler_entries(dim, _ARRAY_MIN) if draw(st.booleans()) else []
    return dim, out, fill


def filler_entries(dim, count):
    """``count`` entries of weight 0.75 that pair off as antipodes, none near
    a planted base: a midpoint grid on the circle, tilted off the plane in 3-D."""
    angles = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
    if dim == 2:
        dirs = np.column_stack((np.cos(angles), np.sin(angles)))
    else:
        half, tilt = angles[: count // 2], 5.0 * math.pi / 24.0
        up = np.column_stack(
            (np.cos(half) * math.sin(tilt), np.sin(half) * math.sin(tilt), np.full(half.size, math.cos(tilt)))
        )
        dirs = np.concatenate((up, -up))
    return [(d, 0.75) for d in dirs]


def interleave(data, *lists):
    """The entries of ``lists`` in a drawn order."""
    entries = [e for lst in lists for e in lst]
    return [entries[k] for k in data.draw(st.permutations(range(len(entries))))]


@settings(max_examples=300, deadline=None)
@given(case=planted_entries(), data=st.data())
def test_merge_matches_quadratic_oracle(case, data):
    dim, planted, fill = case
    points = interleave(data, planted, fill)
    try:
        want = quadratic_merge(points, dim)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            merge(points, dim)
        return
    assert_same_measure(merge(points, dim), want)


@settings(max_examples=300, deadline=None)
@given(case=planted_entries(), data=st.data())
def test_is_symmetric_matches_quadratic_oracle(case, data):
    dim, planted, fill = case
    # Mirror a drawn subset so that symmetric and nearly symmetric lists are common.
    mirrored = [
        (-d, w + data.draw(st.sampled_from(PLANTED)) * WEIGHT_TOL)
        for d, w in planted
        if data.draw(st.booleans())
    ]
    listed = interleave(data, planted, mirrored, fill)
    try:
        measure = make_measure(dim, listed)
    except ValidationError:
        assume(False)
    assert measure.is_symmetric() == quadratic_is_symmetric(measure)
    merged = merge(listed, dim)
    assert merged.is_symmetric() == quadratic_is_symmetric(merged)


def loop_pushforward(model, a, b):
    """The original per-atom pushforward loop, kept as the oracle for pushforward_linear,
    with the same rescaling of images whose r**2 leaves the normal range.

    Returns the merged measure, the count of dropped atoms and the largest
    conditioning (sum |a_k s_k| + sum |b_k s_k|) / r over the atoms: it
    bounds how far rounding can move an image direction, in units of the
    roundoff.  An atom with a zero image and nonzero products counts as inf.
    """
    entries, dropped, conditioning = [], 0, 0.0
    for s, w in zip(model.measure.directions, model.measure.weights.tolist()):
        av, bv = float(a @ s), float(b @ s)
        products = float(np.sum(np.abs(a * s)) + np.sum(np.abs(b * s)))
        if av == 0.0 and bv == 0.0:
            dropped += 1
            conditioning = max(conditioning, math.inf if products > 0.0 else 0.0)
            continue
        # An image whose r**2 leaves the normal range is divided by its larger part first.
        r2 = av * av + bv * bv
        scale = 1.0 if math.isfinite(r2) and r2 >= sys.float_info.min else max(abs(av), abs(bv))
        av, bv = av / scale, bv / scale
        r2 = av * av + bv * bv
        r = math.sqrt(r2)
        entries.append(((av / r, bv / r), w * r2 ** (model.alpha / 2.0) * scale**model.alpha))
        conditioning = max(conditioning, products / (scale * r))
    return quadratic_merge(entries, 2), dropped, conditioning


COEFFICIENT = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 0.5)), st.floats(-2.0, 2.0))


@st.composite
def pushforward_cases(draw):
    """A symmetric model with axis atoms among its atoms, and a map (a, b),
    sometimes of rank one (b = c * a)."""
    dim = draw(st.sampled_from((2, 3)))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            s = np.zeros(dim)
            s[draw(st.integers(0, dim - 1))] = 1.0
        else:
            s = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(dim)])
            assume(np.linalg.norm(s) > 0.1)
            s /= np.linalg.norm(s)
        points.append((s, draw(st.floats(0.01, 2.0))))
    model = StableModel(draw(st.floats(0.3, 2.0)), symmetrize(make_measure(dim, points)))
    a = np.array([draw(COEFFICIENT) for _ in range(dim)])
    if draw(st.booleans()):
        b = draw(COEFFICIENT) * a
    else:
        b = np.array([draw(COEFFICIENT) for _ in range(dim)])
    return model, a, b


@settings(max_examples=300, deadline=None)
@given(case=pushforward_cases())
def test_pushforward_matches_loop_oracle(case):
    model, a, b = case
    want, dropped, conditioning = loop_pushforward(model, a, b)
    # Past this conditioning an image direction is mostly rounding noise, and
    # a merge or a drop can go either way between the two summation orders.
    assume(conditioning <= 100.0)
    got = pushforward_linear(model, a, b, allow_degenerate=True)
    assert got.n_dropped_atoms == dropped
    assert got.measure.directions.shape == want.directions.shape
    tol = 8.0 * 2.0**-53 * conditioning
    np.testing.assert_allclose(got.measure.directions, want.directions, rtol=0.0, atol=tol)
    np.testing.assert_allclose(got.measure.weights, want.weights, rtol=4.0 * tol + 1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_axis_pushforward_is_exact(rng, dim):
    for _ in range(10):
        model = random_model(rng, dim=dim)
        for i, j in ((0, 1), (1, 0), (0, dim - 1)):
            a, b = np.eye(dim)[i], np.eye(dim)[j]
            want, dropped, _ = loop_pushforward(model, a, b)
            got = pushforward_linear(model, a, b)
            assert got.n_dropped_atoms == dropped
            assert_same_measure(got.measure, want)


# --------------------------------------------------------------------------
# Argument rules: one theta rule, one bivariate rule, typed errors for
# counts and for values numpy cannot convert.

def _trivariate(alpha):
    points = [((1.0, 0.0, 0.0), 0.5), ((0.0, 0.6, 0.8), 0.5)]
    return StableModel(alpha, symmetrize(make_measure(3, points)))


_THETA_ROUTINES = {
    "scale_parameter_direct": lambda t: scale_parameter_direct(axis_model(1.5), t),
    "characteristic_function": lambda t: characteristic_function(axis_model(1.5), t),
    "scale_parameter_series": lambda t: scale_parameter_series(axis_model(1.5), t, 1e-6),
    "chf_series": lambda t: chf_series(axis_model(1.5), t, 1e-6),
    "gaussian_quadratic_form": lambda t: gaussian_quadratic_form(axis_model(2.0), t),
    "empirical_chf": lambda t: empirical_chf(sample_vector(axis_model(1.5), 10, 0), t),
    # The axis model's (0.75, 0) covariation vanishes, so the grid is evaluated.
    "independence_sufficient_check": lambda t: independence_sufficient_check(
        axis_model(1.5), 0.75, [(1.0, 1.0), t], 1e-10
    ),
}


@pytest.mark.parametrize("routine", list(_THETA_ROUTINES))
@pytest.mark.parametrize(
    "theta", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0), np.array([0.5, math.nan])]
)
def test_theta_must_be_finite(routine, theta):
    # The series once returned a certified sigma**alpha = 0 at (nan, 1), the
    # direct forms nan or 0.0, and the factorization check passed.
    with pytest.raises(DomainError, match=r"^theta must be finite, got \["):
        _THETA_ROUTINES[routine](theta)


@pytest.mark.parametrize("routine", list(_THETA_ROUTINES))
@pytest.mark.parametrize("theta", [(1.0,), (1.0, 0.0, 0.0), [[1.0, 0.0]], 1.0])
def test_theta_must_have_the_model_dimension(routine, theta):
    with pytest.raises(DimensionError, match="^theta must have length 2$"):
        _THETA_ROUTINES[routine](theta)


_BIVARIATE_ROUTINES = {
    "symmetric_covariation": lambda model: symmetric_covariation(model, 1.0, 0),
    "conventional_covariation": conventional_covariation,
    "correlation_coefficient": lambda model: correlation_coefficient(model, 1.5, 0),
    "covariation_limit_check": lambda model: covariation_limit_check(model, 1.0, 0),
    "scale_parameter_series": lambda model: scale_parameter_series(model, (1.0, 1.0), 1e-6),
    "gaussian_quadratic_form": lambda model: gaussian_quadratic_form(model, (1.0, 1.0)),
    "independence_necessary_report": lambda model: independence_necessary_report(
        model, [1.0], 1e-10
    ),
    "james_bound_check": lambda model: james_bound_check(model, (1.0,), 1e-10),
    "even_series_identity_check": lambda model: even_series_identity_check(model, 1e-10),
}


@pytest.mark.parametrize("routine", list(_BIVARIATE_ROUTINES))
def test_bivariate_routines_name_themselves(routine):
    # alpha = 2 passes every other check these routines make first.
    with pytest.raises(DimensionError, match=f"^{routine} requires a bivariate model$"):
        _BIVARIATE_ROUTINES[routine](_trivariate(2.0))


_TYPED_ARGUMENT_CASES = [
    (lambda m: sample_vector(m, 2.5, 0), DomainError, "^n must be an integer, got 2.5$"),
    (lambda m: sample_vector(m, 3, 1.5), DomainError, "^seed must be an integer, got 1.5$"),
    (lambda m: sample_standard_sas(1.5, True, 0), DomainError, "^n must be an integer, got True$"),
    (lambda m: sample_standard_sas(1.5, 3, 0, 1.5), DomainError, "^stream must be an integer, got 1.5$"),
    (
        lambda m: scale_parameter_series(m, (1.0, 1.0), 1e-3, n_max=2.5),
        DomainError,
        "^n_max must be an integer, got 2.5$",
    ),
    (lambda m: covariation_norm(m, 1.5), DomainError, "^coordinate must be an integer, got 1.5$"),
    (
        lambda m: discretize_density(lambda phi: 1.0, 4.5),
        ValidationError,
        "^n_points must be an integer, got 4.5$",
    ),
    (lambda m: gamma_ratio(10**400, 0.5), DomainError, r"^p must hold real numbers \(int too large"),
    (lambda m: symmetric_covariation(m, 10**400, 0), DomainError, "^beta must hold real numbers"),
    (lambda m: FracDerivParams(10**400, 0.5, 0), DomainError, "^a must hold real numbers"),
    (lambda m: scale_parameter_direct(m, (10**400, 0)), DomainError, "^theta must hold real numbers"),
    (lambda m: pushforward_linear(m, ("x", 1.0), (0.0, 1.0)), DomainError, "^a must hold real numbers"),
    (
        lambda m: linear_combination_covariation(m, (1.0, 0.0), (1j, 1.0), 1.0, 0),
        DomainError,
        "^b must hold real numbers",
    ),
]


@pytest.mark.parametrize("call, error, message", _TYPED_ARGUMENT_CASES)
def test_counts_and_unconvertible_values_are_typed(call, error, message):
    # Each raised TypeError, IndexError or OverflowError before.
    with pytest.raises(error, match=message):
        call(axis_model(1.5))


def test_coefficient_vectors_are_named():
    with pytest.raises(DimensionError, match="^a must have length 2$"):
        pushforward_linear(axis_model(1.5), (1.0,), (0.0, 1.0))
    with pytest.raises(DimensionError, match="^b must have length 2$"):
        linear_combination_covariation(axis_model(1.5), (1.0, 0.0), (0.0, 1.0, 0.0), 1.0, 0)
