import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablecov import (
    DimensionError,
    DomainError,
    NumericalError,
    StableModel,
    TruncationError,
    chf_series,
    model_from_dict,
    characteristic_function,
    gaussian_quadratic_form,
    linear_combination_covariation,
    scale_parameter_direct,
    scale_parameter_series,
)
from stablecov import series
from stablecov.series import _BLOCK, _DIAGONAL_BLOCK, DEFAULT_N_MAX

from conftest import (
    ARRAY_FIELDS,
    HUGE_WEIGHT_SPEC,
    INV_SQRT2,
    OVERFLOW_SPEC,
    OVERFLOW_THETA,
    axis_model,
    diagonal_model,
    diagonal_theta,
    first_mismatches,
    grid_refusal_case,
    hex_fields,
    make_measure,
    paired_model,
    random_model,
    series_coefficient,
    series_ladder,
    series_term,
)


class TestSeriesTerm:
    """The per-term oracle against closed forms, and the ladder against both."""

    def test_axis_zeroth_term(self):
        model = axis_model(1.5)
        assert series_term(model, (1.0, 1.0), 0) == pytest.approx(1.0, abs=1e-15)
        expansion = scale_parameter_series(model, (1.0, 1.0), 1e-12)
        assert expansion.terms[0] == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_terms_vanish(self, rng):
        for _ in range(10):
            model = random_model(rng, alpha_range=(2.0, 2.0))
            theta = rng.uniform(-3, 3, 2)
            for k in (3, 4, 7):
                assert series_term(model, theta, k) == 0.0

    def test_diagonal_term_formula(self):
        alpha = 1.5
        model = diagonal_model(alpha)
        theta = (0.3, 1.0)
        expansion = scale_parameter_series(model, theta, 1e-10)
        coeff = 1.0
        for k in range(7):
            expected = coeff * 0.3**k * 2.0 ** (-0.75)
            assert series_term(model, theta, k) == pytest.approx(expected, rel=1e-13)
            assert expansion.terms[k] == pytest.approx(expected, rel=1e-13)
            coeff *= (alpha - k) / (k + 1.0)

    def test_negative_index(self):
        with pytest.raises(DomainError):
            series_term(diagonal_model(1.5), (1.0, 1.0), -1)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.tuples(*[st.floats(0.1, 2.0) | st.floats(-2.0, -0.1) | st.just(0.0)] * 2),
)
def test_ladder_terms_match_per_term_oracle(seed, theta):
    # The ladder builds T_k from dominators * rho**k by k products; the oracle
    # evaluates the kernel at beta = k with two powers.  Per atom that is at
    # most 2k + 3 roundoffs against 6 (numpy's power taken as 2 ulp), and each
    # sum over the n <= 16 atoms adds at most 15 roundoffs of the sum of
    # magnitudes, T_k = the kernel integral at (beta, m) = (k, 0).  So the
    # terms agree to (2k + 40) roundoffs of the dominated bound |coeff_k| * T_k.
    model = random_model(np.random.default_rng(seed))
    try:
        expansion = scale_parameter_series(model, theta, 1e-12)
    except TruncationError as err:
        expansion = err.expansion
    for k, term in enumerate(expansion.terms[:30]):
        assert expansion.coefficients[k] == series_coefficient(model.alpha, k)
        t_k = linear_combination_covariation(model, (theta[0], 0.0), (0.0, theta[1]), float(k), 0)
        bound = (2 * k + 40) * 2.0**-53 * abs(expansion.coefficients[k]) * t_k
        assert abs(term - series_term(model, theta, k)) <= bound


def assert_matches_ladder_oracle(model, theta, tol, n_max=DEFAULT_N_MAX):
    """scale_parameter_series equals the term-by-term oracle field for field,
    bit for bit, and refuses exactly when the oracle's tail is uncertified."""
    expected = series_ladder(model, theta, tol, n_max)
    try:
        got = scale_parameter_series(model, theta, tol, n_max)
    except TruncationError as err:
        got = err.expansion
        assert not expected.converged
    mismatches = first_mismatches(hex_fields(got), hex_fields(expected))
    assert not mismatches, "; ".join(mismatches)
    return got


def _tol_for_length(model, theta, length):
    # Bisect log10(tol) for an expansion of exactly `length` terms; the
    # length does not grow as tol does.
    lo, hi = -16.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        n = len(series_ladder(model, theta, 10.0**mid))
        if n == length:
            return 10.0**mid
        lo, hi = (mid, hi) if n > length else (lo, mid)
    pytest.fail(f"no tolerance gives {length} terms")


class TestBlockLadder:
    """The blocked ladder against the term-by-term oracle, bit for bit."""

    @pytest.mark.parametrize(
        "theta, length",
        [pytest.param((0.9, 1.0), n, id=str(n)) for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1)]
        # On the rho = 1 diagonal the blocks have _DIAGONAL_BLOCK rows.
        + [
            pytest.param((1.0, 1.0), n, id=str(n))
            for n in (_DIAGONAL_BLOCK - 1, _DIAGONAL_BLOCK, _DIAGONAL_BLOCK + 1)
        ],
    )
    def test_certified_stop_at_block_edges(self, theta, length):
        model = diagonal_model(1.5)
        tol = _tol_for_length(model, theta, length)
        expansion = assert_matches_ladder_oracle(model, theta, tol)
        assert expansion.converged and len(expansion) == length

    @pytest.mark.parametrize(
        "n_max",
        [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37]
        + [_DIAGONAL_BLOCK - 1, _DIAGONAL_BLOCK, _DIAGONAL_BLOCK + 1, 2 * _DIAGONAL_BLOCK + 37],
    )
    def test_refusal_at_the_cap(self, n_max):
        # On the rho = 1 diagonal the ladder runs to the cap, also when the
        # cap is not a multiple of the block.
        expansion = assert_matches_ladder_oracle(diagonal_model(1.5), (1.0, 1.0), 1e-10, n_max)
        assert not expansion.converged and len(expansion) == n_max

    def test_refusal_at_the_default_cap(self):
        expansion = assert_matches_ladder_oracle(diagonal_model(0.7), (1.0, -1.0), 1e-12)
        assert not expansion.converged and len(expansion) == DEFAULT_N_MAX

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_integer_alpha_stops_at_first_zero_coefficient(self, rng, alpha):
        model = random_model(rng, alpha_range=(alpha, alpha))
        expansion = assert_matches_ladder_oracle(model, (0.7, -1.3), 1e-14)
        assert len(expansion) <= alpha + 2
        assert all(c == 0.0 for c in expansion.coefficients[int(alpha) + 1 :])

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta", [(1.0, 1.0), (1.0, -1.0), (0.7, -1.3)])
    def test_integer_alpha_short_caps(self, alpha, n_max, theta):
        # The first block of an integer alpha has alpha + 2 rows, cut by a
        # smaller cap; (1, +-1) is on the rho = 1 diagonal.
        assert_matches_ladder_oracle(diagonal_model(alpha), theta, 1e-12, n_max)

    def test_zero_theta(self, rng):
        expansion = assert_matches_ladder_oracle(random_model(rng), (0.0, 0.0), 1e-12)
        assert len(expansion) == 1 and expansion.value == 0.0

    def test_zero_weight_atoms(self):
        points = [((0.6, 0.8), 0.0), ((-0.6, -0.8), 0.0), ((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]
        model = StableModel(1.3, make_measure(2, points))
        assert_matches_ladder_oracle(model, (1.1, -0.4), 1e-12)

    def test_zero_weight_atom_past_the_float_range(self):
        # The zero-weight atom's large**alpha is inf: its dominator is its
        # weight, not 0 * inf = NaN, so sigma**alpha = 0 is certified.
        spec = {"alpha": 2, "auto_symmetrize": True,
                "atoms": [{"s": [0.6, 0.8], "w": 0.0}, {"s": [1, 0], "w": 0.5}]}
        model = model_from_dict(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expansion = assert_matches_ladder_oracle(model, (0.0, 1e308), 1e-10)
            assert chf_series(model, (0.0, 1e308), 1e-10) == 1.0
        assert expansion.converged and expansion.value == 0.0

    def test_underflowed_products_are_zero(self):
        # Two rho = 1 pairs whose odd contributions cancel, and +-(0.6, 0.8)
        # at rho = 0.75, whose products leave the normal range near k = 2460.
        # Its odd covariations are exactly 0.0 from k = 2459 on (3,771 of
        # them, where the unflushed products summed to subnormals of about
        # 4e-308 and below), and no covariation is subnormal.
        h = INV_SQRT2
        points = [((h, h), 0.25), ((-h, -h), 0.25), ((h, -h), 0.25), ((-h, h), 0.25)]
        points += [((0.6, 0.8), 0.5), ((-0.6, -0.8), 0.5)]
        model = StableModel(1.5, make_measure(2, points))
        expansion = assert_matches_ladder_oracle(model, (1.0, 1.0), 1e-12)
        assert not expansion.converged and len(expansion) == DEFAULT_N_MAX
        odd = np.array(expansion.covariations[1::2])
        assert np.all(np.abs(odd[: 2459 // 2]) >= np.finfo(float).tiny)
        assert np.all(odd[2459 // 2 :] == 0.0) and odd[2459 // 2 :].size == 3771
        covariations = np.abs(expansion.covariations)
        assert not np.any((covariations > 0.0) & (covariations < np.finfo(float).tiny))

    def test_negative_zero_weights(self):
        # Every dominator is -0.0; whichever zero a row sum of them gives,
        # the partial sums start from 0.0, so a first term of -0.0 sums to 0.0.
        model = StableModel(1.5, make_measure(2, [((0.6, 0.8), -0.0), ((-0.6, -0.8), -0.0)]))
        expansion = assert_matches_ladder_oracle(model, (1.0, 1.0), 1e-10)
        assert float(expansion.partial_sums[0]).hex() == (0.0).hex()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.tuples(*[st.floats(-2.0, 2.0)] * 2),
    log_tol=st.floats(-14.0, -2.0),
    n_max=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37, DEFAULT_N_MAX]),
)
def test_block_ladder_matches_term_by_term_oracle(seed, theta, log_tol, n_max):
    model = random_model(np.random.default_rng(seed))
    assert_matches_ladder_oracle(model, theta, 10.0**log_tol, n_max)


_PAIR_WEIGHTS = st.floats(0.01, 1.0) | st.sampled_from([0.0, -0.0, 1e-310])


@st.composite
def _diagonal_ladders(draw):
    # 8-100 antipodal pairs (16-200 atoms, both sides of numpy's 128-element
    # pairwise block), theta on one atom's rho = 1 diagonal and a cap of up
    # to a few thousand terms: the other columns reach zero mid-ladder.
    pairs = draw(st.integers(8, 100))
    angles = draw(st.lists(st.floats(0.0, math.pi), min_size=pairs, max_size=pairs))
    weights = draw(st.lists(_PAIR_WEIGHTS, min_size=pairs, max_size=pairs))
    alpha = draw(st.floats(0.3, 1.95))
    atom = draw(st.integers(0, 2 * pairs - 1))
    # At scale 1 rho_max is exactly 1 (long blocks), elsewhere mostly an ulp below.
    scale = draw(st.just(1.0) | st.floats(0.1, 2.0))
    signs = draw(st.tuples(*[st.sampled_from([1.0, -1.0])] * 2))
    n_max = draw(
        st.integers(1000, 4000)
        | st.sampled_from([1, _BLOCK - 1, _BLOCK + 1, _DIAGONAL_BLOCK - 1, _DIAGONAL_BLOCK + 1])
    )
    tol = 10.0 ** draw(st.floats(-14.0, -8.0))
    return alpha, angles, weights, atom, scale, signs, n_max, tol


def _pinned_case(weights, atom=0):
    # 16 pairs at angles 0.05 ... 3.05; atom 0's diagonal.
    return 1.4, [0.05 + 0.2 * i for i in range(16)], weights, atom, 1.3, (1.0, -1.0), 2000, 1e-12


@settings(max_examples=100, deadline=None)
@given(case=_diagonal_ladders())
# Zero weights: 4 of 32 columns are live from the first block on.
@example(case=_pinned_case([1.0, 0.7] + [0.0] * 14))
# -0.0 weights: dead columns of negative zeros inside every row sum.
@example(case=_pinned_case([0.6, -0.0, 0.9] + [-0.0] * 13))
# A subnormal dominator: the diagonal column is flushed at j = 1, the
# others carry zero weight or die.
@example(case=_pinned_case([1e-310] + [0.0] * 7 + [0.5] + [0.0] * 7))
# Two rho = 1 pairs whose odd contributions cancel and a pair at rho = 0.75
# (as in test_underflowed_products_are_zero), live among 24 zero-weight
# columns: the flush inside the live block decides the odd covariations.
@example(
    case=(
        1.5,
        [math.pi / 4, 3 * math.pi / 4, math.atan2(0.8, 0.6)] + [0.1 + 0.05 * i for i in range(12)],
        [0.25, 0.25, 0.5] + [0.0] * 12,
        0,
        math.sqrt(2.0),
        (1.0, 1.0),
        3000,
        1e-12,
    )
)
def test_live_column_ladder_matches_oracle(case):
    alpha, angles, weights, atom, scale, signs, n_max, tol = case
    model = paired_model(alpha, angles, weights)
    theta = diagonal_theta(model, atom % len(model.measure.weights), scale, signs)
    assert_matches_ladder_oracle(model, theta, tol, n_max)


def _spy_on_ladder_blocks(monkeypatch):
    """(width, steps) of every _ladder_block call, in order."""
    calls, ladder_block = [], series._ladder_block

    def spy(r, rho, steps):
        calls.append((r.size, steps))
        return ladder_block(r, rho, steps)

    monkeypatch.setattr(series, "_ladder_block", spy)
    return calls


def test_live_column_refusal_at_the_default_cap(monkeypatch):
    # 128 atoms on one atom's diagonal: most blocks multiply only the few
    # columns still live, and every field keeps the oracle's bits.
    calls = _spy_on_ladder_blocks(monkeypatch)
    model, theta = grid_refusal_case()
    expansion = assert_matches_ladder_oracle(model, theta, 1e-12)
    assert not expansion.converged and len(expansion) == DEFAULT_N_MAX
    widths = [width for width, _ in calls]
    assert widths[0] == 128 and min(widths) <= 128 * series._NARROW_SHARE
    assert sum(w < 128 for w in widths) > len(widths) // 2


def test_diagonal_refusal_runs_long_blocks(monkeypatch):
    # At theta = (|s2|, |s1|) of an atom its scaled magnitudes are the same
    # product, so rho_max is exactly 1 and the blocks have _DIAGONAL_BLOCK
    # terms: 20 calls to the cap, where 128-term blocks took 79.
    calls = _spy_on_ladder_blocks(monkeypatch)
    model, _ = grid_refusal_case()
    expansion = assert_matches_ladder_oracle(model, diagonal_theta(model, 20), 1e-12)
    assert not expansion.converged and len(expansion) == DEFAULT_N_MAX
    assert len(calls) == math.ceil(DEFAULT_N_MAX / _DIAGONAL_BLOCK) == 20
    assert [steps for _, steps in calls[:2]] == [_DIAGONAL_BLOCK - 1, _DIAGONAL_BLOCK]


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "off-diagonal"])
def test_integer_alpha_runs_one_short_block(monkeypatch, alpha, diagonal):
    # c_{alpha+1} = 0 ends the series within the first block of alpha + 2 rows.
    calls = _spy_on_ladder_blocks(monkeypatch)
    model = paired_model(alpha, [0.05 + 0.2 * i for i in range(16)], [0.5] * 16)
    theta = diagonal_theta(model, 3, 1.3, (1.0, -1.0)) if diagonal else (0.7, -1.3)
    expansion = assert_matches_ladder_oracle(model, theta, 1e-14)
    assert expansion.converged and len(expansion) <= alpha + 2
    assert len(calls) == 1 and calls[0][1] <= alpha + 1


class TestScaleParameterSeries:
    def test_fields_are_read_only_arrays(self):
        expansion = scale_parameter_series(diagonal_model(1.5), (0.3, 1.0), 1e-10)
        hex_fields(expansion)  # float64, read-only; Python value, tail_bound, converged
        assert type(expansion.value) is float
        for name in ARRAY_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(expansion, name)[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(expansion, name, np.zeros(len(expansion)))

    def test_gaussian_reduces_to_quadratic_form(self, rng):
        for _ in range(20):
            model = random_model(rng, alpha_range=(2.0, 2.0))
            theta = rng.uniform(-3, 3, 2)
            expansion = scale_parameter_series(model, theta, 1e-12)
            assert expansion.converged
            assert expansion.truncation_index <= 2
            assert expansion.value == pytest.approx(
                gaussian_quadratic_form(model, theta), abs=1e-12
            )

    def test_diagonal_binomial_identity(self):
        model = diagonal_model(1.5)
        expansion = scale_parameter_series(model, (0.3, 1.0), 1e-10)
        assert expansion.converged
        assert expansion.value == pytest.approx((1.3 / math.sqrt(2.0)) ** 1.5, abs=1e-9)

    def test_matches_direct_on_random_instances(self, rng):
        for _ in range(30):
            model = random_model(rng)
            theta = rng.uniform(-3, 3, 2)
            try:
                expansion = scale_parameter_series(model, theta, 1e-9)
            except TruncationError:
                continue  # certification can stall near the convergence boundary
            assert expansion.converged and expansion.tail_bound <= 1e-9
            direct = scale_parameter_direct(model, theta) ** model.alpha
            assert expansion.value == pytest.approx(direct, abs=1e-8)

    def test_alpha_one_truncates(self, rng):
        model = random_model(rng, alpha_range=(1.0, 1.0))
        theta = (0.4, -1.2)
        expansion = scale_parameter_series(model, theta, 1e-12)
        assert expansion.truncation_index <= 1
        direct = scale_parameter_direct(model, theta) ** 1.0
        assert expansion.value == pytest.approx(direct, abs=1e-13)

    def test_partial_sums_are_prefix_sums(self, rng):
        model = random_model(rng, alpha_range=(0.6, 1.9))
        expansion = scale_parameter_series(model, (0.4, 1.1), 1e-9)
        running = 0.0
        for term, ps in zip(expansion.terms, expansion.partial_sums):
            running += term
            assert ps == running

    def test_term_domination(self, rng):
        for _ in range(10):
            model = random_model(rng)
            theta = rng.uniform(-2, 2, 2)
            try:
                expansion = scale_parameter_series(model, theta, 1e-8)
            except TruncationError as err:
                expansion = err.expansion
            dirs = model.measure.directions
            u = np.abs(dirs[:, 0] * theta[0])
            v = np.abs(dirs[:, 1] * theta[1])
            c_unif = float(np.sum(model.measure.weights * np.maximum(u, v) ** model.alpha))
            coeff = 1.0
            for k, term in enumerate(expansion.terms):
                assert abs(term) <= abs(coeff) * c_unif + 1e-10
                coeff *= (model.alpha - k) / (k + 1.0)

    def test_tail_bounds_non_increasing(self, rng):
        model = random_model(rng, alpha_range=(0.4, 1.8))
        expansion = scale_parameter_series(model, (0.5, 1.3), 1e-10)
        for a, b in zip(expansion.tail_bounds, expansion.tail_bounds[1:]):
            assert b <= a

    def test_tail_bounds_are_suffix_sums(self, rng):
        # tail_bounds[k] exceeds tail_bounds[k + 1] by exactly the dominated
        # bound |coeff| * T of term k + 1, and T is the covariation itself at
        # even indices; the last one is the certified tail bound.
        model = random_model(rng, alpha_range=(0.4, 1.8))
        expansion = scale_parameter_series(model, (0.5, 1.3), 1e-10)
        bounds = expansion.tail_bounds
        assert len(bounds) > 3
        assert bounds[-1] == expansion.tail_bound <= 1e-10
        for k in range(1, len(bounds) - 1, 2):
            c, t = expansion.coefficients[k + 1], expansion.covariations[k + 1]
            assert bounds[k] == bounds[k + 1] + abs(c) * t

    def test_tail_bound_dominates_true_remainder(self, rng):
        # the certificate must hold at every index, including index 0 where
        # the coefficient magnitudes may still grow (|c_1| = alpha * |c_0|)
        for _ in range(40):
            model = random_model(rng, alpha_range=(0.3, 2.0))
            theta = rng.uniform(-2, 2, 2)
            try:
                expansion = scale_parameter_series(model, theta, 1e-9)
            except TruncationError:
                continue
            limit = scale_parameter_direct(model, theta) ** model.alpha
            for ps, bound in zip(expansion.partial_sums, expansion.tail_bounds):
                assert abs(limit - ps) <= bound + 1e-13

    def test_truncation_error_carries_expansion(self):
        # Equal scaled magnitudes put the expansion on its convergence
        # boundary; the polynomial tail cannot certify 1e-10 within the cap.
        model = diagonal_model(1.5)
        with pytest.raises(TruncationError) as err:
            scale_parameter_series(model, (1.0, 1.0), 1e-10, n_max=2000)
        expansion = err.value.expansion
        assert expansion is not None
        assert not expansion.converged
        assert len(expansion.terms) == 2000

    def test_zero_theta(self, rng):
        model = random_model(rng)
        expansion = scale_parameter_series(model, (0.0, 0.0), 1e-12)
        assert expansion.converged
        assert expansion.value == 0.0

    def test_value_past_float_range_is_numerical_error(self):
        # Every term is finite, and the sum of the first two passes the float range.
        model = model_from_dict(OVERFLOW_SPEC)
        with pytest.raises(NumericalError, match="float range"):
            scale_parameter_series(model, OVERFLOW_THETA, 1e-10)

    @pytest.mark.parametrize(
        "spec, theta",
        [
            (HUGE_WEIGHT_SPEC, OVERFLOW_THETA),  # the uniform dominator's sum
            ({**OVERFLOW_SPEC, "atoms": [{"s": [0.6, 0.8], "w": 1e308}]}, (1e112, 1.0)),
        ],
        ids=["dominator-sum", "dominators"],
    )
    def test_overflowing_dominators_raise_without_warning(self, spec, theta):
        # numpy attributes reduce warnings to its own modules, so only an
        # "error" filter for every module sees them.
        model = model_from_dict(spec)
        with warnings.catch_warnings(), pytest.raises(NumericalError, match="float range"):
            warnings.simplefilter("error")
            scale_parameter_series(model, theta, 1e-10)

    @pytest.mark.parametrize(
        "atoms, alpha, theta, message",
        [
            # Each dominator is finite, their sum is not; sigma is 0 here.
            ([((INV_SQRT2, INV_SQRT2), 5e307)], 1.5, (3.0, -3.0), "series majorant"),
            # Each dominator is inf; sigma is 9.6e189.
            ([((0.6, 0.8), 5e307)], 1.5, (4.0, -3.0), "series majorant"),
            # The tail bound after term 0, |coeff_1| T_1 + |coeff_2| T_2 =
            # 1.28e308 + 5.2e307, passes the float range, while the value and
            # the final bound are finite.
            ([((-0.6281736227227391, 0.7780731968879212), 1.310145707057661e308 / 2.0)],
             2.0, (1.0, 1.0), "series tail bound"),
            # Every bound is finite; sigma**2 = 2e308 itself is not.
            ([((INV_SQRT2, INV_SQRT2), 5e307)], 2.0, (1.0, 1.0), "series value"),
        ],
        ids=["dominator-sum", "dominators", "tail-bound", "value"],
    )
    def test_overflow_names_its_cause(self, atoms, alpha, theta, message):
        points = [p for s, w in atoms for p in ((s, w), (tuple(-c for c in s), w))]
        model = StableModel(alpha, make_measure(2, points))
        with warnings.catch_warnings(), pytest.raises(NumericalError) as err:
            warnings.simplefilter("error")
            scale_parameter_series(model, theta, 1e-12)
        assert str(err.value).startswith(message)
        assert "passes the float range" in str(err.value)

    def test_tolerance_validation(self, rng):
        model = random_model(rng)
        for tol in (0.0, math.nan):
            with pytest.raises(DomainError):
                scale_parameter_series(model, (1.0, 1.0), tol)

    def test_non_separability_in_theta(self):
        # The covariation factors of the terms do not scale like theta1**k:
        # doubling theta1 moves atoms across the magnitude-order boundary.
        model = diagonal_model(1.5)
        for k in (0, 1):
            cov_11 = linear_combination_covariation(
                model, (1.0, 0.0), (0.0, 1.0), float(k), k % 2
            )
            cov_21 = linear_combination_covariation(
                model, (2.0, 0.0), (0.0, 1.0), float(k), k % 2
            )
            assert abs(cov_21 - 2.0**k * cov_11) > 0.1


class TestGaussianQuadraticForm:
    def test_diagonal(self):
        model = diagonal_model(2.0)
        assert gaussian_quadratic_form(model, (1.0, 1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_single_coordinate(self, rng):
        model = random_model(rng, alpha_range=(2.0, 2.0))
        var1 = 2.0 * float(
            np.sum(model.measure.weights * model.measure.directions[:, 0] ** 2)
        )
        for t in (0.5, 1.7):
            assert gaussian_quadratic_form(model, (t, 0.0)) == pytest.approx(
                0.5 * t * t * var1, rel=1e-14
            )

    def test_matches_direct_scale(self, rng):
        for _ in range(50):
            model = random_model(rng, alpha_range=(2.0, 2.0))
            theta = rng.uniform(-3, 3, 2)
            direct = scale_parameter_direct(model, theta) ** 2
            assert gaussian_quadratic_form(model, theta) == pytest.approx(
                direct, abs=1e-12
            )

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            gaussian_quadratic_form(diagonal_model(1.5), (1.0, 1.0))

    @pytest.mark.parametrize("theta", [(1.0,), (1.0, 0.0, 0.0), 1.0])
    def test_theta_shape(self, theta):
        with pytest.raises(DimensionError):
            gaussian_quadratic_form(diagonal_model(2.0), theta)


class TestChfSeries:
    def test_at_origin(self, rng):
        assert chf_series(random_model(rng), (0.0, 0.0), 1e-10) == 1.0

    def test_matches_direct(self, rng):
        for _ in range(20):
            model = random_model(rng)
            theta = rng.uniform(-2, 2, 2)
            try:
                via_series = chf_series(model, theta, 1e-10)
            except TruncationError:
                continue
            assert via_series == pytest.approx(
                characteristic_function(model, theta), abs=1e-9
            )
