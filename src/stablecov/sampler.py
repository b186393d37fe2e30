"""Monte Carlo realization of stable models and the empirical characteristic function.

Scalar draws use the Chambers-Mallows-Stuck transform in its symmetric
specialization: with U uniform on (-pi/2, pi/2) and W unit exponential,

    X = sin(alpha*U) / cos(U)**(1/alpha) * (cos((1-alpha)*U) / W)**((1-alpha)/alpha)

has characteristic function exp(-|t|**alpha).  The alpha = 1 branch is the
closed form tan(U) (standard Cauchy), avoiding the 0/0 in the general
exponent.  Note the scale convention: alpha = 2 yields Normal(0, 2), not
Normal(0, 1).  Near alpha = 0 the transform's powers pass the float range;
a draw that is not finite raises NumericalError, naming how many there are.

Randomness comes from counter-based Philox streams keyed by
(seed, stream index); a vector draw assigns stream j to atom j, and draw i
consumes exactly the two uniforms at counter positions (2i, 2i+1) of each
stream, so generation may be split across workers without changing output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .spectral import StableModel, project


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Monte Carlo draws of a stable vector plus the seed that produced them."""

    draws: np.ndarray  # shape (n, d)
    seed: int
    alpha: float

    def __post_init__(self):
        arr = np.asarray(self.draws, dtype=float)
        if arr.ndim != 2:
            raise DomainError("draws must be a 2-d array (n, d)")
        arr.setflags(write=False)
        object.__setattr__(self, "draws", arr)

    @property
    def n(self) -> int:
        return int(self.draws.shape[0])

    @property
    def dim(self) -> int:
        return int(self.draws.shape[1])


def _stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _cms_draws(alpha: float, n: int, seed: int, stream: int) -> np.ndarray:
    # The transform, unchecked: overflowing powers give inf or NaN silently.
    rng = _stream(seed, stream)
    r = rng.random((n, 2))
    u = math.pi * (r[:, 0] - 0.5)
    w = -np.log1p(-r[:, 1])
    if alpha == 1.0:
        return np.tan(u)
    with np.errstate(all="ignore"):
        cos_u = np.cos(u)
        x = np.sin(alpha * u) / cos_u ** (1.0 / alpha)
        x *= (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return x


def _require_finite(draws: np.ndarray, alpha: float) -> np.ndarray:
    # A vector draw counts once, however many of its coordinates are bad.
    bad = int(np.count_nonzero(~np.isfinite(draws).all(axis=tuple(range(1, draws.ndim)))))
    if bad:
        raise NumericalError(f"{bad} of {len(draws)} draws are not finite at alpha {alpha!r}")
    return draws


def sample_standard_sas(alpha: float, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. draws with characteristic function exp(-|t|**alpha)."""
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (0, 2], got {alpha!r}")
    if n < 0:
        raise DomainError("n must be >= 0")
    return _require_finite(_cms_draws(alpha, n, seed, stream), alpha)


def sample_vector(model: StableModel, n: int, seed: int) -> SampleBatch:
    """Draws of the model's law: X = sum_j w_j**(1/alpha) * Z_j * s_j.

    Each atom contributes an independent scalar stable stream; the law's
    characteristic function is the model's regardless of whether the atom
    list is symmetrized, because the scalar draws are symmetric.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    alpha = model.alpha
    dirs, weights = model.measure.directions, model.measure.weights
    out = np.zeros((n, model.dim))
    with np.errstate(all="ignore"):
        for j in np.flatnonzero(weights).tolist():
            # A numpy scalar power is C pow, like Python's, but gives inf on overflow.
            scale = weights[j] ** (1.0 / alpha)
            out += (scale * _cms_draws(alpha, n, seed, j))[:, None] * dirs[j][None, :]
    return SampleBatch(draws=_require_finite(out, alpha), seed=seed, alpha=alpha)


def empirical_chf(batch: SampleBatch, theta) -> tuple[float, float]:
    """(mean cos<theta, X>, mean sin<theta, X>) over the batch."""
    if batch.n == 0:
        raise DomainError("empirical_chf requires a nonempty batch")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (batch.dim,):
        raise DomainError(f"theta must have length {batch.dim}")
    proj = project(batch.draws, theta)
    return float(np.mean(np.cos(proj))), float(np.mean(np.sin(proj)))
