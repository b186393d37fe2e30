"""End-to-end acceptance criteria.

Each test prints one [ACCEPTANCE nn] PASS/FAIL line (visible with -s) and
asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np

from stablecov import (
    FracDerivParams,
    characteristic_function,
    conventional_covariation,
    covariation_limit_check,
    covariation_norm,
    even_series_identity_check,
    empirical_chf,
    frac_derivative_numeric,
    gaussian_quadratic_form,
    independence_necessary_report,
    independence_sufficient_check,
    james_bound_check,
    linear_combination_covariation,
    linear_combination_via_pushforward,
    min_max_inequality,
    power_rule,
    sample_vector,
    scale_parameter_direct,
    scale_parameter_series,
    series_term,
    additivity_check,
    symmetric_covariation,
    SpectralMeasure,
    StableModel,
    symmetrize,
)
from stablecov.spectral import SpectralAtom

from conftest import (
    axis_model,
    line_model,
    make_measure,
    quadrant_model,
    random_model,
    random_symmetric_measure,
)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {status} {detail}".rstrip())
    assert ok, f"acceptance {num} ({name}) failed: {detail}"


def _magnitude_ratios(model, theta):
    u = np.abs(model.measure.directions[:, 0] * theta[0])
    v = np.abs(model.measure.directions[:, 1] * theta[1])
    large = np.maximum(u, v)
    safe = np.where(large > 0.0, large, 1.0)
    return np.where(large > 0.0, np.minimum(u, v) / safe, 0.0)


def test_01_series_direct_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(200):
        model = random_model(rng, alpha_range=(0.25, 2.0), max_atoms=8)
        # Certified truncation needs the scaled magnitude ratios bounded away
        # from 1, else the tail bound decays too slowly for the term cap;
        # redraw theta until every atom is clear of the boundary.
        while True:
            theta = rng.uniform(-3.0, 3.0, 2)
            if float(_magnitude_ratios(model, theta).max()) <= 0.95:
                break
        expansion = scale_parameter_series(model, theta, 1e-9)
        direct = scale_parameter_direct(model, theta) ** model.alpha
        worst = max(worst, abs(expansion.value - direct))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    _line(1, "series equals direct scale parameter", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_02_gaussian_reduction():
    rng = np.random.default_rng(202)
    worst_form = 0.0
    worst_cov = 0.0
    trunc_ok = True
    for _ in range(50):
        model = random_model(rng, alpha_range=(2.0, 2.0), max_atoms=8)
        theta = rng.uniform(-3.0, 3.0, 2)
        expansion = scale_parameter_series(model, theta, 1e-12)
        trunc_ok = trunc_ok and expansion.truncation_index == 2
        trunc_ok = trunc_ok and all(
            series_term(model, theta, k) == 0.0 for k in (3, 4, 5)
        )
        worst_form = max(
            worst_form, abs(expansion.value - gaussian_quadratic_form(model, theta))
        )
        dirs = model.measure.directions
        cov_moment = 2.0 * float(np.sum(model.measure.weights * dirs[:, 0] * dirs[:, 1]))
        worst_cov = max(
            worst_cov, abs(2.0 * symmetric_covariation(model, 1.0, 1) - cov_moment)
        )
    ok = trunc_ok and worst_form < 1e-12 and worst_cov < 1e-12
    _line(
        2,
        "Gaussian case truncates at k=2 with variance/covariance form",
        ok,
        f"form gap {worst_form:.2e}, covariance gap {worst_cov:.2e}",
    )


def test_03_power_rule_vs_numeric():
    worst = 0.0
    start = time.perf_counter()
    for p in (0.5, 1.2, 2.3):
        for beta in (0.3, 0.7, 1.4):
            for m in (0, 1):
                for a in (0.0, 1.5):
                    f = lambda t: np.abs(t - a) ** p
                    for dx in (-2.0, -0.5, 0.5, 2.0):
                        params = FracDerivParams(a=a, beta=beta, m=m)
                        x = a + dx
                        closed = power_rule(p, params, x)
                        numeric = frac_derivative_numeric(f, params, x)
                        worst = max(worst, abs(numeric - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3
    _line(3, "power rule matches numeric fractional derivative", ok,
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


def _swapped(model):
    pts = [((a.direction[1], a.direction[0]), a.weight) for a in model.measure.atoms]
    return StableModel(model.alpha, make_measure(2, pts))


def _second_negated(model):
    pts = [((a.direction[0], -a.direction[1]), a.weight) for a in model.measure.atoms]
    return StableModel(model.alpha, make_measure(2, pts))


def test_04_symmetry_sign_flip_scaling():
    rng = np.random.default_rng(404)
    sym_exact = True
    flip_exact = True
    worst = 0.0
    for _ in range(500):
        model = random_model(rng)
        alpha = model.alpha
        beta = float(rng.uniform(0.0, alpha + 1.0))
        m = int(rng.integers(0, 2))
        a = float(rng.uniform(0.2, 2.0)) * (-1.0) ** int(rng.integers(0, 2))
        b = float(rng.uniform(-2.0, 2.0))

        base = symmetric_covariation(model, beta, m)
        sym_exact = sym_exact and symmetric_covariation(_swapped(model), beta, m) == base
        flip_exact = (
            flip_exact
            and symmetric_covariation(_second_negated(model), beta, m) == (-1.0) ** m * base
        )

        half = alpha / 2.0
        lhs = linear_combination_covariation(model, (a, 0.0), (0.0, b), half, m)
        sgn = 1.0 if m == 0 else (math.copysign(1.0, a * b) if a * b != 0.0 else 0.0)
        rhs = abs(a) ** half * abs(b) ** half * sgn * symmetric_covariation(model, half, m)
        worst = max(worst, abs(lhs - rhs))

        lhs = linear_combination_covariation(model, (a, 0.0), (0.0, b), beta, m)
        rhs = abs(a) ** alpha * linear_combination_covariation(
            model, (1.0, 0.0), (0.0, b / a), beta, m
        )
        worst = max(worst, abs(lhs - rhs))
    ok = sym_exact and flip_exact and worst < 1e-12
    _line(4, "symmetry, sign flip, and scaling identities", ok,
          f"exact swaps {sym_exact and flip_exact}, max scaling gap {worst:.2e}")


def _holder_bound(model, beta):
    alpha = model.alpha
    n1 = covariation_norm(model, 0)
    n2 = covariation_norm(model, 1)
    k = min(alpha, beta)
    return min(n1**k * n2 ** (alpha - k), n2**k * n1 ** (alpha - k))


def test_05_holder_inequality():
    rng = np.random.default_rng(505)
    worst_excess = -math.inf
    for _ in range(1000):
        model = random_model(rng)
        beta = float(rng.uniform(model.alpha / 2.0, model.alpha + 2.0))
        m = int(rng.integers(0, 2))
        value = abs(symmetric_covariation(model, beta, m))
        worst_excess = max(worst_excess, value - _holder_bound(model, beta))
    bound_ok = worst_excess <= 1e-12

    worst_eq = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.3, 2.0))
        lam = float(rng.uniform(0.1, 3.0)) * (-1.0) ** int(rng.integers(0, 2))
        model = line_model(alpha, lam, mass=float(rng.uniform(0.5, 2.0)))
        beta = float(rng.uniform(alpha / 2.0, alpha))
        m = int(rng.integers(0, 2))
        value = abs(symmetric_covariation(model, beta, m))
        worst_eq = max(worst_eq, abs(value - _holder_bound(model, beta)))
    equality_ok = worst_eq < 1e-10

    counter_ok = True
    for alpha in (0.8, 1.5, 2.0):
        model = line_model(alpha, 2.0)
        n2 = covariation_norm(model, 1)
        value = abs(symmetric_covariation(model, 3.0, 1))
        expected = 2.0 ** (alpha - 3.0) * n2**alpha
        counter_ok = counter_ok and abs(value - expected) < 1e-12
        counter_ok = counter_ok and _holder_bound(model, 3.0) - value > 0.4 * n2**alpha

    ok = bound_ok and equality_ok and counter_ok
    _line(5, "Cauchy-Schwarz style bound, equality case, and large-order gap", ok,
          f"excess {worst_excess:.2e}, equality gap {worst_eq:.2e}")


def test_06_conventional_covariation_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    alphas = (1.2, 1.5, 1.8, 2.0)
    for i in range(50):
        alpha = alphas[i % 4]
        model = random_model(rng, alpha_range=(alpha, alpha))
        lhs = symmetric_covariation(model, 1.0, 1) + symmetric_covariation(
            model, alpha - 1.0, 1
        )
        rhs = conventional_covariation(model) + conventional_covariation(_swapped(model))
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-12
    _line(6, "symmetric covariations recover conventional covariations", ok,
          f"max gap {worst:.2e}")


def test_07_two_path_equivalence():
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(50):
        dim = 3 if i % 2 == 0 else 4
        model = random_model(rng, dim=dim)
        a = rng.uniform(-2.0, 2.0, dim)
        b = rng.uniform(-2.0, 2.0, dim)
        beta = float(rng.uniform(0.0, model.alpha + 1.0))
        m = int(rng.integers(0, 2))
        direct = linear_combination_covariation(model, a, b, beta, m)
        pushed = linear_combination_via_pushforward(model, a, b, beta, m)
        worst = max(worst, abs(direct - pushed))
    ok = worst < 1e-12
    _line(7, "direct kernel integral equals pushforward covariation", ok,
          f"max gap {worst:.2e}")


def test_08_limit_definition_convergence():
    rng = np.random.default_rng(808)
    ok = True
    worst_final = 0.0
    for _ in range(20):
        model = random_model(rng, alpha_range=(0.3, 2.0), max_atoms=6)
        beta = float(rng.uniform(0.0, model.alpha))
        m = int(rng.integers(0, 2))
        report = covariation_limit_check(model, beta, m)
        strict = all(
            report.gaps[i + 1] < report.gaps[i] for i in range(len(report.gaps) - 1)
        )
        ok = ok and strict and report.final_gap < 1e-6
        worst_final = max(worst_final, report.final_gap)
    _line(8, "limit-based definition converges to the kernel integral", ok,
          f"max final gap {worst_final:.2e}")


def test_09_monte_carlo_chf():
    rng = np.random.default_rng(909)
    start = time.perf_counter()
    worst_re = 0.0
    worst_im = 0.0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        measure = random_symmetric_measure(rng, max_atoms=4)
        scale = 1.0 / measure.total_mass
        atoms = [
            SpectralAtom(atom.direction, atom.weight * scale) for atom in measure.atoms
        ]
        model = StableModel(alpha, SpectralMeasure(2, tuple(atoms)))
        batch = sample_vector(model, 1_000_000, seed=int(rng.integers(0, 2**31)))
        for _ in range(20):
            theta = rng.uniform(-1.5, 1.5, 2)
            re_emp, im_emp = empirical_chf(batch, theta)
            worst_re = max(worst_re, abs(re_emp - characteristic_function(model, theta)))
            worst_im = max(worst_im, abs(im_emp))
    elapsed = time.perf_counter() - start
    ok = worst_re < 0.01 and worst_im < 0.01 and elapsed < 60.0
    _line(9, "sampler reproduces the characteristic function", ok,
          f"re gap {worst_re:.3e}, im {worst_im:.3e}, {elapsed:.1f}s")


def test_10_dependence_suite():
    # forced covariation values on independent-pair measures
    necessary_ok = True
    for alpha, w1, w2 in ((0.5, 0.25, 0.25), (1.2, 0.1, 0.4), (1.9, 0.3, 0.45)):
        model = axis_model(alpha, w1=w1, w2=w2)
        report = independence_necessary_report(
            model, beta_grid=[alpha / 2.0, alpha, alpha + 0.5], tol=1e-12
        )
        necessary_ok = necessary_ok and report.passed

    # additivity over sums of independent coordinates
    s = 1.0 / math.sqrt(2.0)
    additive_ok = True
    for alpha in (0.8, 1.5, 2.0):
        equal = StableModel(
            alpha,
            make_measure(
                3,
                [
                    ((s, s, 0.0), 0.25),
                    ((-s, -s, 0.0), 0.25),
                    ((s, 0.0, s), 0.25),
                    ((-s, 0.0, -s), 0.25),
                ],
            ),
        )
        generic = StableModel(
            alpha,
            symmetrize(
                make_measure(
                    3,
                    [((0.6, 0.8, 0.0), 0.3), ((0.28, 0.0, 0.96), 0.2), ((0.0, 1.0, 0.0), 0.1)],
                )
            ),
        )
        for model in (equal, generic):
            additive_ok = additive_ok and additivity_check(model, tol=1e-12).passed

    # vanishing covariation forces factorization
    thetas = [(0.5, 0.5), (1.0, -0.7), (2.0, 1.0), (0.3, 0.0)]
    suff = independence_sufficient_check(axis_model(1.5), 1.0, thetas, tol=1e-12)
    sufficient_ok = suff.triggered and suff.passed

    # norm lower bound with the alpha-dependent constant, plus the even-index
    # series identity, on sign-symmetric measures
    james_ok = True
    even_ok = True
    for alpha in (0.8, 1.0, 1.5, 2.0):
        model = quadrant_model(alpha)
        report = james_bound_check(model, lambda_grid=(-2.0, -0.5, 1.0, 3.0), tol=1e-12)
        james_ok = james_ok and report.passed and all(report.hypothesis_ok)
        even = even_series_identity_check(model, tol=1e-10)
        even_ok = even_ok and even.applicable and even.passed

    ok = necessary_ok and additive_ok and sufficient_ok and james_ok and even_ok
    _line(
        10,
        "independence, additivity, factorization, and norm bound suite",
        ok,
        f"necessary {necessary_ok}, additivity {additive_ok}, "
        f"sufficient {sufficient_ok}, james {james_ok}, even-series {even_ok}",
    )


def test_11_min_max_inequality_fuzz():
    rng = np.random.default_rng(111)
    xs = rng.uniform(-10.0, 10.0, 100_000)
    ys = rng.uniform(-10.0, 10.0, 100_000)
    ps = rng.uniform(0.0, 4.0, 100_000)
    violations = sum(
        0 if min_max_inequality(float(x), float(y), float(p)) else 1
        for x, y, p in zip(xs, ys, ps)
    )
    ok = violations == 0
    _line(11, "two-point power inequality fuzz", ok, f"{violations} violations in 100000")
