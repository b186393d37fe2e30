import math
import warnings

import numpy as np
import pytest

from stablecov import (
    DomainError,
    NumericalError,
    StableModel,
    characteristic_function,
    empirical_chf,
    gaussian_quadratic_form,
    sample_standard_sas,
    sample_vector,
    symmetrize,
)

from conftest import axis_model, diagonal_model, make_measure

MC_N = 1_000_000


class TestStandardScalar:
    def test_alpha_range(self):
        for bad in (0.0, -0.5, 2.1):
            with pytest.raises(DomainError):
                sample_standard_sas(bad, 10, seed=0)

    def test_deterministic(self):
        a = sample_standard_sas(1.3, 1000, seed=99)
        b = sample_standard_sas(1.3, 1000, seed=99)
        np.testing.assert_array_equal(a, b)
        c = sample_standard_sas(1.3, 1000, seed=100)
        assert not np.array_equal(a, c)

    def test_gaussian_variance(self):
        # alpha = 2 is Normal(0, 2): sample variance within 3 standard errors.
        z = sample_standard_sas(2.0, MC_N, seed=11)
        var = float(np.var(z))
        se = math.sqrt(8.0 / MC_N)  # Var(X^2) = 2*Var^2 = 8
        assert abs(var - 2.0) < 3.0 * se

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_empirical_chf_scalar(self, alpha):
        z = sample_standard_sas(alpha, MC_N, seed=5)
        for t in (0.5, 1.0, 2.0):
            emp = float(np.mean(np.cos(t * z)))
            assert abs(emp - math.exp(-(t**alpha))) < 0.01


class TestOverflow:
    # Near alpha = 0 the transform's powers pass the float range: the draws
    # are rejected by name, with their count, and no numpy warning leaks.
    def test_scalar_draws(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^\d+ of 20000 draws are not finite"):
                sample_standard_sas(0.01, 20000, seed=3)

    def test_vector_draws(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^58 of 20000 draws are not finite"):
                sample_vector(axis_model(0.01, w1=0.5, w2=0.0), 20000, seed=3)
            # w**(1/alpha) = 1e4**100 itself overflows.
            with pytest.raises(NumericalError, match="^10 of 10 draws are not finite"):
                sample_vector(axis_model(0.01, w1=1e4, w2=0.0), 10, seed=0)


class TestVectorSampler:
    def test_deterministic_batches(self):
        model = diagonal_model(1.5)
        a = sample_vector(model, 500, seed=3)
        b = sample_vector(model, 500, seed=3)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.n == 500 and a.dim == 2 and a.alpha == 1.5

    def test_gaussian_covariance(self):
        batch = sample_vector(diagonal_model(2.0), 400_000, seed=21)
        cov = np.cov(batch.draws.T)
        np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 1.0]], atol=0.02)

    def test_axis_factorizes(self):
        batch = sample_vector(axis_model(1.5), MC_N, seed=8)
        for theta in ((1.0, 0.5), (0.7, -1.3)):
            joint, _ = empirical_chf(batch, theta)
            m1, _ = empirical_chf(batch, (theta[0], 0.0))
            m2, _ = empirical_chf(batch, (0.0, theta[1]))
            assert abs(joint - m1 * m2) < 0.01

    def test_single_pair_draws_collinear(self):
        measure = make_measure(2, [((0.6, 0.8), 0.5), ((-0.6, -0.8), 0.5)])
        model = StableModel(1.2, measure)
        batch = sample_vector(model, 2000, seed=4)
        cross = batch.draws[:, 0] * 0.8 - batch.draws[:, 1] * 0.6
        scale = np.abs(batch.draws).sum(axis=1)
        assert np.all(np.abs(cross) <= 1e-13 * (scale + 1e-300))

    def test_splitting_invariance(self):
        # The law only depends on the symmetrized measure.
        raw = make_measure(2, [((0.6, 0.8), 0.7), ((-1.0, 0.0), 0.3)])
        model_raw = StableModel(1.5, symmetrize(raw))
        # same mass arrangement, different atom bookkeeping
        split = symmetrize(symmetrize(raw))
        model_split = StableModel(1.5, split)
        b1 = sample_vector(model_raw, 200_000, seed=17)
        b2 = sample_vector(model_split, 200_000, seed=18)
        for theta in ((1.0, 0.0), (0.5, 0.5), (-0.3, 1.1)):
            r1, _ = empirical_chf(b1, theta)
            r2, _ = empirical_chf(b2, theta)
            assert abs(r1 - r2) < 0.02

    def test_gaussian_matches_direct_normal_sampler(self):
        # Recover the covariance matrix from the quadratic form by
        # polarization, then compare against numpy's normal sampler.
        model = diagonal_model(2.0)
        q11 = gaussian_quadratic_form(model, (1.0, 0.0))
        q22 = gaussian_quadratic_form(model, (0.0, 1.0))
        q12 = gaussian_quadratic_form(model, (1.0, 1.0))
        cov_mat = np.array(
            [[2.0 * q11, q12 - q11 - q22], [q12 - q11 - q22, 2.0 * q22]]
        )
        rng = np.random.default_rng(123)
        direct = rng.multivariate_normal([0.0, 0.0], cov_mat, size=200_000)
        batch = sample_vector(model, 200_000, seed=9)
        for theta in ((0.5, 0.0), (0.3, 0.3), (1.0, -1.0), (0.8, 0.2)):
            emp_cms, _ = empirical_chf(batch, theta)
            proj = direct @ np.asarray(theta)
            emp_normal = float(np.mean(np.cos(proj)))
            assert abs(emp_cms - emp_normal) < 0.01


class TestEmpiricalChf:
    def test_at_origin_exact(self):
        batch = sample_vector(diagonal_model(1.5), 1000, seed=0)
        assert empirical_chf(batch, (0.0, 0.0)) == (1.0, 0.0)

    def test_real_close_imaginary_small(self):
        model = axis_model(1.0)
        n = 250_000
        batch = sample_vector(model, n, seed=13)
        bound = 4.0 / math.sqrt(n)
        for theta in ((1.0, 0.0), (0.5, 0.5), (2.0, -1.0)):
            re_emp, im_emp = empirical_chf(batch, theta)
            assert abs(re_emp - characteristic_function(model, theta)) < bound
            assert abs(im_emp) < bound

    def test_empty_batch_rejected(self):
        batch = sample_vector(diagonal_model(1.5), 0, seed=0)
        with pytest.raises(DomainError):
            empirical_chf(batch, (1.0, 0.0))

    def test_theta_length(self):
        batch = sample_vector(diagonal_model(1.5), 10, seed=0)
        with pytest.raises(DomainError):
            empirical_chf(batch, (1.0, 0.0, 0.0))
