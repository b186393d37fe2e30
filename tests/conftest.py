"""Shared measure builders for the test suite."""

import math

import numpy as np
import pytest

from stablecov import SpectralMeasure, StableModel, linear_combination_covariation, symmetrize

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def make_measure(dim, points):
    return SpectralMeasure.from_points(dim, points)


def diagonal_model(alpha):
    """Mass 1 split on +-(1,1)/sqrt(2): the law of (X, X)."""
    measure = make_measure(
        2, [((INV_SQRT2, INV_SQRT2), 0.5), ((-INV_SQRT2, -INV_SQRT2), 0.5)]
    )
    return StableModel(alpha, measure)


def anti_diagonal_model(alpha):
    measure = make_measure(
        2, [((INV_SQRT2, -INV_SQRT2), 0.5), ((-INV_SQRT2, INV_SQRT2), 0.5)]
    )
    return StableModel(alpha, measure)


def axis_model(alpha, w1=0.25, w2=0.25):
    """Mass on the four axis points: the law of an independent pair."""
    measure = make_measure(
        2,
        [((1.0, 0.0), w1), ((-1.0, 0.0), w1), ((0.0, 1.0), w2), ((0.0, -1.0), w2)],
    )
    return StableModel(alpha, measure)


def quadrant_model(alpha, sx=0.6, sy=0.8, w=0.25):
    """Sign-symmetric four-point measure; all odd-branch covariations vanish."""
    measure = make_measure(
        2,
        [((sx, sy), w), ((sx, -sy), w), ((-sx, sy), w), ((-sx, -sy), w)],
    )
    return StableModel(alpha, measure)


def line_model(alpha, lam, mass=1.0):
    """The law of (lam*X, X): mass on +-(lam, 1)/sqrt(1+lam^2)."""
    norm = math.hypot(lam, 1.0)
    measure = make_measure(
        2, [((lam / norm, 1.0 / norm), mass / 2.0), ((-lam / norm, -1.0 / norm), mass / 2.0)]
    )
    return StableModel(alpha, measure)


def second_axis_model(alpha, mass=1.0):
    """Degenerate measure concentrated on (0, +-1)."""
    measure = make_measure(2, [((0.0, 1.0), mass / 2.0), ((0.0, -1.0), mass / 2.0)])
    return StableModel(alpha, measure)


def random_symmetric_measure(rng, dim=2, max_atoms=8, min_weight=0.05, max_weight=1.0):
    k = int(rng.integers(1, max_atoms + 1))
    dirs = rng.normal(size=(k, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    weights = rng.uniform(min_weight, max_weight, size=k)
    return symmetrize(make_measure(dim, list(zip(dirs, weights))))


def random_model(rng, dim=2, alpha_range=(0.25, 2.0), max_atoms=8):
    alpha = float(rng.uniform(*alpha_range))
    return StableModel(alpha, random_symmetric_measure(rng, dim=dim, max_atoms=max_atoms))


def series_coefficient(alpha, k):
    """(alpha)_k / k!, multiplied up from 1 in the order of the series recurrence."""
    return math.prod((alpha - i) / (i + 1.0) for i in range(k))


def series_term(model, theta, k):
    """Independent k-th term of the scale-parameter series: (alpha)_k / k! times
    the kernel integral at beta = k, m = k mod 2 on the scaled pair
    (theta1*X1, theta2*X2); raises DomainError for k < 0."""
    cov = linear_combination_covariation(
        model, (theta[0], 0.0), (0.0, theta[1]), float(k), k % 2
    )
    return series_coefficient(model.alpha, k) * cov


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
