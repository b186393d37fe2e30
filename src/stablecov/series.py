"""Convergent covariation-series expansion of the scale parameter.

For a bivariate model, sigma**alpha(theta1, theta2) equals the sum over k
of ((alpha)_k / k!) times the (alpha, k, k mod 2) covariation of the scaled
pair (theta1*X1, theta2*X2).  Terms are evaluated on the pre-scaled atom
coordinates (theta1*s1, theta2*s2) without renormalizing to the sphere; the
two formulations agree and skipping the pushforward avoids needless atom
merging.

Truncation is certified: every covariation of index k is dominated atom-wise
by w * large**alpha * rho**k with rho = small/large (magnitude-ordered scaled
coordinates), so the tail of the series is bounded by the factorial-coefficient
tail against that geometric majorant.  At rho = 1 the bound degrades to the
uniform dominator C = sum w * large**alpha times the absolute factorial tail,
which still converges (the coefficients decay like k**(-alpha-1)) but slowly;
expansions that cannot be certified within the term cap raise TruncationError
instead of returning an unverified sum.

The ladder runs in blocks of terms.  A block is a (terms x atoms) array
whose first row is the previous block's last r_j (the dominators at j = 0)
and whose other rows are rho; ``np.multiply.accumulate`` down the rows
is the recurrence r_j = r_{j-1} * rho product by product, each T_j is the
sum of one contiguous row (numpy's pairwise order of a one-dimensional sum)
and the coefficients (alpha)_j / j! are an accumulate of their ratios.  The
remainder majorant is one array expression per block, the tail bounds and
the partial sums are sequential accumulates, and the ladder stops at the
first term whose majorant is negligible.  Every field is bit for bit that of
the term-by-term recurrence, which the tests keep as the oracle.

The blocks are sized from what is known before any product runs.  Past an
integer alpha the coefficients are exactly 0, so the remainder majorant is 0
at j = alpha + 1 and the first block has alpha + 2 rows; later blocks, were
there any, have the usual size.  When rho_max = 1 the remainder majorant
depends on the coefficients alone and a series that stops does so late, so
its blocks have ``_DIAGONAL_BLOCK`` rows instead of ``_BLOCK``.  Block
boundaries cannot move bits: each product is the sequential product or a
flushed zero, each T_j is the pairwise sum of its own full row, and both
accumulates resume from the carried seed, wherever a block ends.

Ladder products r_j (j >= 1) below the normal range, 2**-1022, are 0: each
block flushes them after its accumulate, before the row sums and the carry
to the next block.  A multiply that makes a subnormal is several times
slower, and a flushed column stays 0 (0 * rho = 0), so an atom spends at
most one block in the subnormal range instead of 52 ln 2 / -ln rho terms.
Normal products keep their bits.  A flush moves a T_j or a covariation by
less than n_atoms * 2**-1022, which the certificate ignores as it ignores
rounding.  The j = 0 dominators are not flushed, so a subnormal sigma**alpha
keeps its value.  Since a column never increases (rho <= 1), a block whose
last row is normal in every column of positive seed has nothing to flush and
skips the pass.

A product that reached +-0 stays exactly that zero: rho is finite and >= +0,
so each further product and flush gives the same signed zero.  On the
rho = 1 diagonal most columns die long before the term cap, so a block whose
live (nonzero) columns are at most ``_NARROW_SHARE`` of the atoms multiplies
and flushes only those, and writes them into a full-width block filled with
the carried row.  The row sums T_j and the odd signed sums still run over the
full width: numpy's pairwise grouping of a row sum depends on the row's
length, so summing the live columns alone would move the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, TruncationError, integer
from .spectral import StableModel, _plane, _theta, _weighted

DEFAULT_N_MAX = 10000
# Terms per block of the ladder: enough rows to amortise numpy's per-call
# overhead, few enough that a series stopping early wastes little.
_BLOCK = 128
# Terms per block when rho_max = 1 (see the module docstring): a 10,000-term
# refusal on 128 atoms took 8.7/7.1/6.9/8.1/11.8 ms with blocks of
# 128/256/512/1024/2048 rows (best of 7; 2-vCPU AVX-512 host).
_DIAGONAL_BLOCK = 512
# Ladder products r_j (j >= 1) below the normal range are 0.
_TINY = np.finfo(float).tiny
# A block multiplies only its live (nonzero) columns when they are at most
# this share of the atoms.  At a larger share the scatter back into the
# full-width block costs about what the multiplies save: taking the narrow
# path whenever a column was dead read about 5% fewer series-queries ops/s
# and a 5% higher p90 (CHANGES.md).
_NARROW_SHARE = 0.25


@dataclass(frozen=True, eq=False)
class SeriesExpansion:
    """Term-by-term record of a truncated scale-parameter expansion: the
    per-term fields are read-only float64 arrays of one length, as in
    ``SpectralMeasure``."""

    alpha: float
    theta: tuple[float, float]
    coefficients: np.ndarray  # (alpha)_k / k!
    covariations: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
    tail_bounds: np.ndarray
    truncation_index: int
    tail_bound: float
    converged: bool
    requested_tol: float

    def __post_init__(self):
        for name in ("coefficients", "covariations", "terms", "partial_sums", "tail_bounds"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def value(self) -> float:
        return float(self.partial_sums[-1])

    def __len__(self) -> int:
        return len(self.terms)


def _check_tol(tol) -> None:
    # The tolerance rule of the series and of the dependence checks; NaN fails it.
    if not tol > 0.0:
        raise DomainError("tolerance must be > 0")


def _ladder_block(r: np.ndarray, rho: np.ndarray, steps: int) -> np.ndarray:
    """Rows r * rho**0 ... r * rho**steps of the recurrence, flushed."""
    block = np.empty((steps + 1, r.size))
    block[0] = r
    block[1:] = rho
    np.multiply.accumulate(block, axis=0, out=block)
    # The flush of the module docstring; zeros keep their sign.  A column
    # from a positive seed never increases (rho <= 1), so the last row shows
    # whether any of its products left the normal range.
    if np.any((block[-1] < _TINY) & (r > 0.0)):
        block[1:] *= block[1:] >= _TINY
    return block


def scale_parameter_series(
    model: StableModel, theta, tol: float, n_max: int = DEFAULT_N_MAX
) -> SeriesExpansion:
    """Sum the covariation series until the certified tail drops below tol.

    Raises TruncationError (carrying the partial expansion) when the tail
    cannot be certified below tol within ``n_max`` terms, and NumericalError
    when the value (sigma**alpha), the uniform majorant or a tail bound
    passes the float range.
    """
    _check_tol(tol)
    if integer(n_max, "n_max") < 1:
        raise DomainError("n_max must be >= 1")
    alpha = model.alpha
    s1, s2, w = _plane(model, "scale_parameter_series")
    theta = _theta(theta, 2)
    u, v = s1 * theta[0], s2 * theta[1]

    au, av = np.abs(u), np.abs(v)
    small = np.minimum(au, av)
    large = np.maximum(au, av)
    sgn = np.sign(u) * np.sign(v)
    active = large > 0.0
    # A dominator or their sum past the float range is no warning but a
    # NumericalError: every bound of the ladder would be inf or NaN.  An atom
    # of weight +-0 dominates with its own weight.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.float_power(np.where(active, large, 1.0), alpha)
        dominators = np.where(active, _weighted(w, powers), 0.0)
        c_uniform = float(dominators.sum())
    if not math.isfinite(c_uniform):
        raise NumericalError(
            f"series majorant sum(w * large**alpha) passes the float range ({c_uniform!r})"
        )
    rho = np.where(active, small / np.where(active, large, 1.0), 0.0)
    rho_max = float(rho.max()) if rho.size else 0.0

    # Ladder pass, one block of terms at a time (see the module docstring),
    # until the remainder majorant is negligible or the cap is hit.  Row j
    # holds r_j = dominators * rho**j; cov_j and T_j = sum(r_j) come from the
    # same row, so |cov_j| <= T_j by construction.  coeff_j is (alpha)_j / j!,
    # exactly zero past an integer alpha.  Both accumulates start from a seed
    # (the j = 0 value, or the previous block's last entry, whose repeat is
    # then dropped).  The block sizes follow the plan of the module docstring.
    block = _BLOCK if rho_max < 1.0 else _DIAGONAL_BLOCK
    rows = int(alpha) + 2 if alpha.is_integer() else block
    blocks = []  # (coeff, cov, |coeff| * T) per block, cut at the stop
    r, coeff, j0 = dominators, 1.0, 0
    while True:
        j = np.arange(j0, min(j0 + rows, n_max), dtype=float)
        lead = 1 if j0 else 0  # the repeated seed row
        steps = j[1 - lead :]  # the j >= 1 of this block
        live = np.flatnonzero(r)
        # No RuntimeWarnings in the block: an inf dominator or row sum (past
        # the float range) only makes its products, T_j and bounds inf or
        # NaN, which never stop the ladder or certify a tail.
        with np.errstate(all="ignore"):
            if live.size <= _NARROW_SHARE * rho.size:
                # The narrow path of the module docstring: a zero column
                # repeats its seed, so only the live columns are multiplied.
                ladder = np.empty((steps.size + 1, rho.size))
                ladder[:] = r
                ladder[:, live] = _ladder_block(r[live], rho[live], steps.size)
            else:
                ladder = _ladder_block(r, rho, steps.size)
            ladder = ladder[lead:]
            t = ladder.sum(axis=1)
            cov = t.copy()
            first_odd = 1 - j0 % 2
            cov[first_odd::2] = (ladder[first_odd::2] * sgn).sum(axis=1)
            c = np.multiply.accumulate(np.concatenate(([coeff], (alpha - (steps - 1.0)) / steps)))
            c = c[lead:]
            abs_c = np.abs(c)
            dominated = abs_c * t
            # rest_j bounds sum_{i>j} |coeff_i| * T_i two ways and keeps the
            # smaller as min() would (the first of equals or of a NaN pair):
            #   geometric: T_i <= T_j * rho_max**(i-j), and |coeff_i| <= grow *
            #     |coeff_j| where the coefficient ratio |alpha-l|/(l+1) is <= 1
            #     for every l >= 1 (alpha <= 2) and equals alpha at l = 0;
            #   polynomial: |coeff_i| <= |coeff_j| * (j/i)**(1+alpha) for
            #     j > alpha, whose tail sums below |coeff_j| * j / alpha,
            #     against the uniform dominator.
            poly = c_uniform * abs_c * j / alpha
            if rho_max < 1.0:
                grow = np.where(j == 0.0, max(alpha, 1.0), 1.0)
                rest = grow * abs_c * t * rho_max / (1.0 - rho_max)
                rest = np.where((j > alpha) & (poly < rest), poly, rest)
            else:
                rest = np.where(j > alpha, poly, math.inf)
            rest = np.where(abs_c == 0.0, 0.0, rest)
        hit = np.flatnonzero(rest <= tol / 10.0)
        n = int(hit[0]) + 1 if hit.size else j.size
        blocks.append((c[:n], cov[:n], dominated[:n]))
        j0 += n
        if hit.size or j0 == n_max:
            rest = rest[n - 1]
            break
        r, coeff, rows = ladder[-1], c[-1], block
    coeffs, covs, dominated = (np.concatenate(parts) for parts in zip(*blocks))
    del blocks, ladder

    with np.errstate(all="ignore"):
        # suffix[k] = sum_{j>=k} |coeff_j| * T_j + the remainder beyond the
        # ladder, summed from the far end; the tail bound after term k is
        # suffix[k + 1].
        suffix = np.add.accumulate(np.concatenate(([rest], dominated[::-1])))[::-1]
        below = np.flatnonzero(suffix[1:] <= tol)
        stop = int(below[0]) if below.size else coeffs.size - 1
        terms = coeffs[: stop + 1] * covs[: stop + 1]
        slack = 1e-12 * (c_uniform + 1.0)
        escaped = np.flatnonzero(np.abs(terms) > dominated[: stop + 1] + slack)
    if escaped.size:
        raise NumericalError(f"series term {int(escaped[0])} escaped its domination bound")
    # suffix[1], the tail bound after term 0, is the largest, and an inf or
    # NaN anywhere in the sum reaches it.  A remainder of inf means no
    # majorant applies (a refusal); past a finite one, an inf tail bound is
    # a sum that passed the float range.
    if not math.isfinite(suffix[1]) and math.isfinite(rest):
        raise NumericalError(f"series tail bound passes the float range ({float(suffix[1])!r})")
    with np.errstate(all="ignore"):
        # Left to right from 0.0, as a running sum: a first term of -0.0 sums to 0.0.
        partial = np.add.accumulate(np.concatenate(([0.0], terms)))[1:]
    if not math.isfinite(partial[-1]):
        raise NumericalError(f"series value passes the float range ({float(partial[-1])!r})")

    tail_bound = float(suffix[stop + 1])
    expansion = SeriesExpansion(
        alpha=alpha,
        theta=tuple(theta.tolist()),
        coefficients=coeffs[: stop + 1],
        covariations=covs[: stop + 1],
        terms=terms,
        partial_sums=partial,
        tail_bounds=suffix[1 : stop + 2],
        truncation_index=stop,
        tail_bound=tail_bound,
        converged=tail_bound <= tol,
        requested_tol=tol,
    )
    if not expansion.converged:
        raise TruncationError(
            f"series tail not certified below {tol!r} within {n_max} terms "
            f"(tail bound {expansion.tail_bound:.3e})",
            expansion=expansion,
        )
    return expansion


def gaussian_quadratic_form(model: StableModel, theta) -> float:
    """Quadratic form of the Gaussian case (alpha = 2) from variances and covariance.

    Var(X_i) is twice the i-th second moment of the measure and Cov(X1, X2)
    twice the mixed moment.
    """
    if model.alpha != 2.0:
        raise DomainError("gaussian_quadratic_form requires alpha = 2")
    s1, s2, w = _plane(model, "gaussian_quadratic_form")
    t = _theta(theta, 2)
    var1 = 2.0 * float(np.sum(w * s1**2))
    var2 = 2.0 * float(np.sum(w * s2**2))
    cov = 2.0 * float(np.sum(w * s1 * s2))
    return 0.5 * t[1] ** 2 * var2 + t[0] * t[1] * cov + 0.5 * t[0] ** 2 * var1


def chf_series(model: StableModel, theta, tol: float) -> float:
    """Characteristic function evaluated through the series expansion."""
    return math.exp(-scale_parameter_series(model, theta, tol).value)
