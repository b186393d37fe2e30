import json
import math
import re

import numpy as np
import pytest
from scipy import special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablecov import (
    DegenerateMapError,
    DimensionError,
    SpectralAtom,
    SpectralMeasure,
    StableModel,
    ValidationError,
    characteristic_function,
    discretize_density,
    load_model,
    model_from_dict,
    model_to_dict,
    pushforward_linear,
    scale_parameter_direct,
    symmetrize,
)
from stablecov.spectral import DIRECTION_TOL, WEIGHT_TOL, _merge_atoms

from conftest import (
    axis_model,
    diagonal_model,
    make_measure,
    random_model,
)


def raw_scale(measure, alpha, theta):
    # Independent evaluation of the defining integral, atom by atom.
    total = sum(a.weight * abs(float(np.dot(theta, a.direction))) ** alpha for a in measure.atoms)
    return total ** (1.0 / alpha) if total > 0 else 0.0


class TestAtomAndMeasureInvariants:
    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValidationError):
            SpectralAtom((1.0, 1.0), 0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            SpectralAtom((1.0, 0.0), -0.1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            SpectralMeasure(3, (SpectralAtom((1.0, 0.0), 0.5),))

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
        assert len(out.atoms) == 2
        np.testing.assert_array_equal(out.atoms[0].direction, [1.0, 0.0])
        np.testing.assert_array_equal(out.atoms[1].direction, [-1.0, 0.0])
        assert out.atoms[0].weight == 0.5
        assert out.atoms[1].weight == 0.5

    def test_already_symmetric_unchanged(self):
        measure = make_measure(2, [((0.0, 1.0), 0.5), ((0.0, -1.0), 0.5)])
        out = symmetrize(measure)
        assert len(out.atoms) == 2
        for a, b in zip(measure.atoms, out.atoms):
            np.testing.assert_array_equal(a.direction, b.direction)
            assert a.weight == b.weight

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
        assert len(out.atoms) == 2
        assert out.atoms[0].weight == pytest.approx(0.5, abs=1e-15)
        assert out.total_mass == pytest.approx(1.0, abs=1e-15)


def quadratic_merge(entries, dim):
    """The original pairwise merge, kept as the oracle for _merge_atoms."""
    merged = []
    for direction, weight in entries:
        for idx, (d0, w0) in enumerate(merged):
            if np.all(np.abs(direction - d0) <= DIRECTION_TOL):
                merged[idx] = (d0, w0 + weight)
                break
        else:
            merged.append((direction, weight))
    return SpectralMeasure.from_points(dim, merged)


def quadratic_is_symmetric(measure):
    """The original greedy pairing scan, kept as the oracle for is_symmetric."""
    unmatched = list(range(len(measure.atoms)))
    while unmatched:
        i = unmatched.pop(0)
        ai = measure.atoms[i]
        partner = None
        for j in unmatched:
            aj = measure.atoms[j]
            if (
                np.all(np.abs(ai.direction + aj.direction) <= DIRECTION_TOL)
                and abs(ai.weight - aj.weight) <= WEIGHT_TOL
            ):
                partner = j
                break
        if partner is None:
            return False
        unmatched.remove(partner)
    return True


def assert_same_measure(got, want):
    assert got.dim == want.dim
    assert len(got.atoms) == len(want.atoms)
    for a, b in zip(got.atoms, want.atoms):
        assert a.direction.tobytes() == b.direction.tobytes()
        assert a.weight.hex() == b.weight.hex()


def as_entries(points):
    return [(np.array(s, dtype=float), w) for s, w in points]


class TestMergeAndPairingRules:
    def test_chained_near_tolerance_entry_stays_separate(self):
        # e2 folds into e1; e3 is within tolerance of e2 but not of e1.
        e1, e2, e3 = (0.0, 1.0), (0.75 * DIRECTION_TOL, 1.0), (1.5 * DIRECTION_TOL, 1.0)
        out = _merge_atoms(as_entries([(e1, 1.0), (e2, 2.0), (e3, 4.0)]), 2)
        assert [a.direction.tolist() for a in out.atoms] == [list(e1), list(e3)]
        assert [a.weight for a in out.atoms] == [3.0, 4.0]

    def test_first_seen_keeps_position_and_direction(self):
        later = (0.5 * DIRECTION_TOL, -1.0)
        points = [((1.0, 0.0), 0.25), ((0.0, -1.0), 0.5), ((-1.0, 0.0), 0.25), (later, 0.5)]
        out = _merge_atoms(as_entries(points), 2)
        assert [a.direction.tolist() for a in out.atoms] == [[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]]
        assert [a.weight for a in out.atoms] == [0.25, 1.0, 0.25]

    def test_weights_summed_in_entry_order(self):
        out = _merge_atoms(as_entries([((1.0, 0.0), w) for w in (1.0, 1e-16, 1e-16)]), 2)
        assert out.atoms[0].weight == (1.0 + 1e-16) + 1e-16
        assert out.atoms[0].weight != 1.0 + (1e-16 + 1e-16)
        out = _merge_atoms(as_entries([((1.0, 0.0), w) for w in (1e-16, 1e-16, 1.0)]), 2)
        assert out.atoms[0].weight == (1e-16 + 1e-16) + 1.0

    def test_antipodes_listed_after_all_upper_atoms(self):
        angles = [math.pi * (j + 0.5) / 64 for j in range(64)]
        upper = [((math.cos(t), math.sin(t)), 0.1 + j) for j, t in enumerate(angles)]
        lower = [((-s[0], -s[1]), w) for s, w in upper]
        assert make_measure(2, upper + lower).is_symmetric()
        assert make_measure(2, upper + lower[::-1]).is_symmetric()
        lower[17] = (lower[17][0], lower[17][1] + 2 * WEIGHT_TOL)
        assert not make_measure(2, upper + lower).is_symmetric()

    def test_greedy_order_decides_between_two_partners(self):
        # A pairs with either antipode; D only with B, so A must take C.
        a = ((1.0, 0.0), 1.0)
        b = ((-1.0, 0.0), 1.0 + 0.75 * WEIGHT_TOL)
        c = ((-1.0, 0.0), 1.0 - 0.75 * WEIGHT_TOL)
        d = ((1.0, 0.0), 1.0 + 1.5 * WEIGHT_TOL)
        assert not make_measure(2, [a, b, c, d]).is_symmetric()
        assert make_measure(2, [a, c, b, d]).is_symmetric()

    def test_empty_and_single_atom(self):
        assert SpectralMeasure(2, ()).is_symmetric()
        assert _merge_atoms([], 2).atoms == ()
        assert not make_measure(3, [((0.0, 0.0, 1.0), 0.5)]).is_symmetric()
        out = _merge_atoms(as_entries([((0.0, 0.0, 1.0), 0.5)]), 3)
        assert [a.direction.tolist() for a in out.atoms] == [[0.0, 0.0, 1.0]]
        assert [a.weight for a in out.atoms] == [0.5]


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


class TestCharacteristicFunction:
    def test_at_origin(self, rng):
        assert characteristic_function(random_model(rng), (0.0, 0.0)) == 1.0

    def test_gaussian_axis(self):
        model = StableModel(2.0, make_measure(2, [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]))
        for t in (0.3, 1.0, 2.5):
            assert characteristic_function(model, (t, 0.0)) == pytest.approx(
                math.exp(-t * t), rel=1e-14
            )

    def test_even_exactly(self, rng):
        for _ in range(20):
            model = random_model(rng)
            theta = rng.uniform(-3, 3, 2)
            assert characteristic_function(model, theta) == characteristic_function(
                model, -theta
            )


class TestPushforward:
    def test_identity_map(self, rng):
        model = random_model(rng)
        out = pushforward_linear(model, (1.0, 0.0), (0.0, 1.0))
        assert out.n_dropped_atoms == 0
        assert len(out.measure.atoms) == len(model.measure.atoms)
        for a, b in zip(model.measure.atoms, out.measure.atoms):
            np.testing.assert_allclose(a.direction, b.direction, atol=1e-15)
            assert a.weight == pytest.approx(b.weight, rel=1e-15)

    def test_scaling_weights(self):
        model = StableModel(1.0, make_measure(2, [((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)]))
        out = pushforward_linear(model, (2.0, 0.0), (0.0, 2.0))
        # weight picks up (A^2+B^2)^(alpha/2) = 2 per atom
        assert [a.weight for a in out.measure.atoms] == [1.0, 1.0]
        np.testing.assert_array_equal(out.measure.atoms[0].direction, [1.0, 0.0])

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
        assert len(out.measure.atoms) == 0
        assert out.n_dropped_atoms == len(model.measure.atoms)
        assert characteristic_function(out, (1.0, 1.0)) == 1.0

    def test_dropped_atom_counter(self):
        measure = symmetrize(make_measure(3, [((0.0, 0.0, 1.0), 0.5), ((1.0, 0.0, 0.0), 0.5)]))
        model = StableModel(1.5, measure)
        out = pushforward_linear(model, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert out.n_dropped_atoms == 2
        assert len(out.measure.atoms) == 2


class TestDiscretizeDensity:
    def test_uniform_density(self):
        out = discretize_density(lambda phi: 1.0 / (2.0 * math.pi), 8)
        assert len(out.atoms) == 8
        for atom in out.atoms:
            assert atom.weight == pytest.approx(1.0 / 8.0, abs=1e-15)
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
        assert len(again.measure.atoms) == len(model.measure.atoms)
        for a, b in zip(model.measure.atoms, again.measure.atoms):
            np.testing.assert_allclose(a.direction, b.direction, atol=1e-15)
            assert a.weight == b.weight

    def test_auto_symmetrize(self):
        data = {"alpha": 1.0, "atoms": [{"s": [1.0, 0.0], "w": 1.0}], "auto_symmetrize": True}
        model = model_from_dict(data)
        assert model.measure.is_symmetric()
        assert model.measure.total_mass == pytest.approx(1.0)

    def test_asymmetric_without_flag_is_error(self):
        data = {"alpha": 1.0, "atoms": [{"s": [1.0, 0.0], "w": 1.0}], "auto_symmetrize": False}
        with pytest.raises(ValidationError):
            model_from_dict(data)

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
    return dim, out


@settings(max_examples=300, deadline=None)
@given(case=planted_entries())
def test_merge_matches_quadratic_oracle(case):
    dim, points = case
    try:
        want = quadratic_merge(points, dim)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            _merge_atoms(points, dim)
        return
    assert_same_measure(_merge_atoms(points, dim), want)


@settings(max_examples=300, deadline=None)
@given(case=planted_entries(), data=st.data())
def test_is_symmetric_matches_quadratic_oracle(case, data):
    dim, points = case
    # Mirror a drawn subset so that symmetric and nearly symmetric lists are common.
    mirrored = [
        (-d, w + data.draw(st.sampled_from(PLANTED)) * WEIGHT_TOL)
        for d, w in points
        if data.draw(st.booleans())
    ]
    order = data.draw(st.permutations(range(len(points) + len(mirrored))))
    listed = [(points + mirrored)[k] for k in order]
    try:
        measure = make_measure(dim, listed)
    except ValidationError:
        assume(False)
    assert measure.is_symmetric() == quadratic_is_symmetric(measure)
    merged = _merge_atoms(listed, dim)
    assert merged.is_symmetric() == quadratic_is_symmetric(merged)
