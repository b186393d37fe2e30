import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stablecov import (
    DimensionError,
    DomainError,
    NumericalError,
    StableModel,
    characteristic_function,
    empirical_chf,
    gaussian_quadratic_form,
    sample_standard_sas,
    sample_vector,
    sampler,
    symmetrize,
)
from stablecov.sampler import _ROWS
from stablecov.spectral import project

from conftest import (
    axis_model,
    diagonal_model,
    make_measure,
    sample_vector_oracle,
    standard_sas_oracle,
)

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
        with pytest.raises(DimensionError, match="^theta must have length 2$"):
            empirical_chf(batch, (1.0, 0.0, 0.0))


@pytest.fixture(params=["host", "inline", "four-cpus"])
def split(request, monkeypatch):
    """How the rows are shared: by the running machine's CPU count; every
    range on the calling thread; or four ranges, three of them on a pool of
    three threads (so the threaded split runs on any CPU count)."""
    if request.param == "inline":
        monkeypatch.setattr(sampler, "_pool", lambda: None)
    elif request.param == "four-cpus":
        pool = ThreadPoolExecutor(3)
        request.addfinalizer(pool.shutdown)
        monkeypatch.setattr(sampler, "_cpus", lambda: 4)
        monkeypatch.setattr(sampler, "_pool", lambda: pool)
    return request.param


def _bits(a):
    # Byte-level equality: -0.0 differs from 0.0, and NaN equals itself.
    return np.ascontiguousarray(a).view(np.uint64)


def _model_with_zero_weights(alpha, dim):
    # Three antipodal pairs, the middle one of weight 0 (its stream is skipped).
    rng = np.random.default_rng(dim)
    dirs = rng.normal(size=(3, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = [p for s, w in zip(dirs, (0.3, 0.0, 0.7)) for p in ((s, w), (-s, w))]
    return StableModel(alpha, make_measure(dim, points))


class TestSlicedFill:
    """The sliced, shared fill against the whole-array oracle, bit for bit."""

    # 4 * _ROWS + 6 rows split in two or four give an odd n * i // parts,
    # which a range start must round down to an even row.
    @pytest.mark.parametrize("n", [0, 1, 2, _ROWS - 1, _ROWS, 2 * _ROWS + 1, 4 * _ROWS + 6, 50001])
    def test_vector_sizes(self, split, n):
        model = _model_with_zero_weights(1.5, 2)
        got = sample_vector(model, n, seed=11).draws
        np.testing.assert_array_equal(_bits(got), _bits(sample_vector_oracle(model, n, 11)))

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_vector_laws(self, split, alpha, dim):
        model = _model_with_zero_weights(alpha, dim)
        n = 2 * _ROWS + 1
        got = sample_vector(model, n, seed=5).draws
        np.testing.assert_array_equal(_bits(got), _bits(sample_vector_oracle(model, n, 5)))

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0])
    def test_standard_draws(self, split, alpha):
        got = sample_standard_sas(alpha, 50001, seed=2, stream=9)
        np.testing.assert_array_equal(_bits(got), _bits(standard_sas_oracle(alpha, 50001, 2, 9)))

    def test_prefix_of_a_longer_draw(self, split):
        # Row i depends on (seed, atom, i) only, so a short draw is a prefix.
        model = _model_with_zero_weights(1.2, 3)
        long = sample_vector(model, 50001, seed=8).draws
        np.testing.assert_array_equal(_bits(sample_vector(model, 64, seed=8).draws), _bits(long[:64]))

    def test_non_finite_count_message(self, split):
        model = axis_model(0.01, w1=0.5, w2=0.0)
        oracle = sample_vector_oracle(model, 50001, 3)
        bad = int(np.count_nonzero(~np.isfinite(oracle).all(axis=1)))
        assert bad > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{bad} of 50001 draws are not finite"):
                sample_vector(model, 50001, seed=3)

    def test_empirical_chf_keeps_whole_array_means(self, split):
        batch = sample_vector(axis_model(1.5), 50001, seed=4)
        theta = np.array([0.7, -1.3])
        proj = project(batch.draws, theta)
        expected = (float(np.mean(np.cos(proj))), float(np.mean(np.sin(proj))))
        assert empirical_chf(batch, theta) == expected

    def test_many_threads_short_switch_interval(self, monkeypatch):
        # Nine ranges on eight pool threads plus the caller, more threads than
        # CPUs, switching every microsecond: no row is lost or written twice.
        pool = ThreadPoolExecutor(8)
        monkeypatch.setattr(sampler, "_cpus", lambda: 9)
        monkeypatch.setattr(sampler, "_pool", lambda: pool)
        model = _model_with_zero_weights(1.5, 2)
        n = 9 * _ROWS + 7
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(1) as runner:
                got = runner.submit(sample_vector, model, n, 6).result(timeout=120).draws
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        np.testing.assert_array_equal(_bits(got), _bits(sample_vector_oracle(model, n, 6)))

    @staticmethod
    def _run_raising(monkeypatch, bad):
        """sample_vector on 4 * _ROWS + 6 rows, the range starting at row bad
        raising at once and every later one sleeping before its fill.  Gives
        the thread that raised and the starts of the ranges that had started
        and finished once the error re-raised."""
        real = sampler._fill
        raiser, started, finished = [], [], []

        def fill(*args):
            lo = args[-2]
            if lo == bad:
                raiser.append(threading.get_ident())
                raise ValueError(f"from range {lo}")
            started.append(lo)
            time.sleep(0.05 if lo else 0.0)
            real(*args)
            finished.append(lo)

        monkeypatch.setattr(sampler, "_fill", fill)
        with pytest.raises(ValueError, match=f"^from range {bad}$"):
            sample_vector(_model_with_zero_weights(1.5, 2), 4 * _ROWS + 6, seed=1)
        return raiser[0], sorted(started), sorted(finished)

    @staticmethod
    def _parts():
        return min(sampler._cpus(), 4)

    def test_pool_range_exception_reraises(self, split, monkeypatch):
        # The second range raises (on one CPU, the only one): a pool range
        # wherever there is a pool, with further pool ranges still asleep.
        parts = self._parts()
        bad = ((4 * _ROWS + 6) // parts) & ~1 if parts > 1 else 0
        raiser, started, finished = self._run_raising(monkeypatch, bad)
        assert started == finished
        if split != "inline":
            assert len(finished) == parts - 1
            assert (raiser == threading.get_ident()) == (parts == 1)

    def test_caller_range_exception_waits_for_workers(self, split, monkeypatch):
        raiser, started, finished = self._run_raising(monkeypatch, 0)
        assert raiser == threading.get_ident()
        # Inline, no later range starts; pooled, every one ends before the raise.
        assert started == finished
        assert len(finished) == (0 if split == "inline" else self._parts() - 1)


class _RefusingPool:
    def submit(self, *args):
        raise AssertionError("submitted to the pool")


def test_empirical_chf_runs_on_the_calling_thread(monkeypatch):
    batch = sample_vector(axis_model(1.5), 4 * _ROWS + 6, seed=4)
    monkeypatch.setattr(sampler, "_pool", lambda: _RefusingPool())
    theta = np.array([0.7, -1.3])
    proj = project(batch.draws, theta)
    expected = (float(np.mean(np.cos(proj))), float(np.mean(np.sin(proj))))
    assert empirical_chf(batch, theta) == expected
