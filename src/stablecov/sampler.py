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
stream.  One Philox4x64 step yields four outputs, two draws, so a stream
advanced by k steps starts at draw 2k.

The draws fill a preallocated array in slices of ``_ROWS`` rows.  The rows
are split into one contiguous range per CPU of the process's affinity mask
(each range at least ``_ROWS`` rows and starting at an even row); the
calling thread fills the first and a lazily built thread pool the others.
Each range keeps one generator per atom, advanced to its start.  Within a
slice the atoms' scaled contributions are added in stored atom order onto
zeros, so every element is the same sum in the same order as a single
whole-array pass, and the bytes do not depend on the CPU count.  The
transform's numpy ``log1p``, ``tan`` and ``power`` (C ``pow`` costs five
times as much, and numpy has no C route for the others) take SIMD kernels
whose last bits follow the CPU, so draws repeat per numpy build and SIMD
level.  Only the draws are shared out: the empirical characteristic
function is one ``np.mean`` each of cos and sin, on the calling thread.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, integer
from .spectral import StableModel, _theta, project

# Rows per slice of a fill, and the fewest rows a range of the split gets.
_ROWS = 8192


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


def _cms(alpha: float, r: np.ndarray) -> np.ndarray:
    # The transform of (n, 2) uniforms, unchecked: overflowing powers give
    # inf or NaN silently under the caller's errstate.
    u = math.pi * (r[:, 0] - 0.5)
    w = -np.log1p(-r[:, 1])
    if alpha == 1.0:
        return np.tan(u)
    cos_u = np.cos(u)
    x = np.sin(alpha * u) / cos_u ** (1.0 / alpha)
    x *= (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return x


def _fill(out, alpha, seed, streams, scales, dirs, lo, hi) -> None:
    # Adds rows lo..hi of each stream's draws, times its scale and direction,
    # onto out, slice by slice and stream by stream.  lo is even.
    rngs = [_stream(seed, j) for j in streams]
    for rng in rngs:
        rng.bit_generator.advance(lo // 2)
    # Overflowing draws are counted by _require_finite, not warned about;
    # errstate is per thread, so this holds on a pool thread too.
    with np.errstate(all="ignore"):
        for a in range(lo, hi, _ROWS):
            rows = out[a : min(a + _ROWS, hi)]
            for rng, scale, d in zip(rngs, scales, dirs):
                rows += (scale * _cms(alpha, rng.random((len(rows), 2))))[:, None] * d


@functools.cache
def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool():
    """Threads beside the calling one, one per further CPU; None on one CPU."""
    if _cpus() < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_cpus() - 1, thread_name_prefix="stablecov-sampler")


if hasattr(os, "register_at_fork"):
    # A forked child has the pool object but not its threads.
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _draw(out, alpha, seed, streams, scales, dirs) -> np.ndarray:
    # Fills out in one range per CPU, each at least _ROWS rows and starting
    # at an even row, so on a Philox step.  With a pool the calling thread
    # fills the first range and the pool the others; else all run here.
    n = len(out)
    parts = max(1, min(_cpus(), n // _ROWS))
    bounds = [(n * i // parts) & ~1 for i in range(parts)] + [n]
    ranges = [(out, alpha, seed, streams, scales, dirs, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    pool = _pool() if parts > 1 else None
    mine = ranges if pool is None else ranges[:1]
    futures = [pool.submit(_fill, *r) for r in ranges[len(mine) :]]
    try:
        for r in mine:
            _fill(*r)
    finally:
        # Every worker range ends before the first worker exception
        # re-raises here, so no worker outlives the call.
        for f in futures:
            f.exception()
        for f in futures:
            f.result()
    return out


def _require_finite(draws: np.ndarray, alpha: float) -> np.ndarray:
    # A vector draw counts once, however many of its coordinates are bad.
    bad = int(np.count_nonzero(~np.isfinite(draws).all(axis=tuple(range(1, draws.ndim)))))
    if bad:
        raise NumericalError(f"{bad} of {len(draws)} draws are not finite at alpha {alpha!r}")
    return draws


def _check_counts(n, seed) -> None:
    # n a count and seed an integer, each named when it is not.
    if integer(n, "n") < 0:
        raise DomainError("n must be >= 0")
    integer(seed, "seed")


def sample_standard_sas(alpha: float, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. draws with characteristic function exp(-|t|**alpha)."""
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (0, 2], got {alpha!r}")
    _check_counts(n, seed)
    integer(stream, "stream")
    # -0.0 + z is z bit for bit (a -0.0 draw included), as are 1.0 * z and z * 1.0.
    out = _draw(np.full((n, 1), -0.0), alpha, seed, [stream], [1.0], [np.ones(1)])
    return _require_finite(out.reshape(n), alpha)


def sample_vector(model: StableModel, n: int, seed: int) -> SampleBatch:
    """Draws of the model's law: X = sum_j w_j**(1/alpha) * Z_j * s_j.

    Each atom contributes an independent scalar stable stream; the law's
    characteristic function is the model's regardless of whether the atom
    list is symmetrized, because the scalar draws are symmetric.
    """
    _check_counts(n, seed)
    alpha = model.alpha
    dirs, weights = model.measure.directions, model.measure.weights
    streams = np.flatnonzero(weights).tolist()
    with np.errstate(over="ignore"):
        # A numpy scalar power is C pow, like Python's, but gives inf on overflow.
        scales = [weights[j] ** (1.0 / alpha) for j in streams]
    out = _draw(np.zeros((n, model.dim)), alpha, seed, streams, scales, dirs[streams])
    return SampleBatch(draws=_require_finite(out, alpha), seed=seed, alpha=alpha)


def empirical_chf(batch: SampleBatch, theta) -> tuple[float, float]:
    """(mean cos<theta, X>, mean sin<theta, X>) over the batch; NumericalError,
    naming theta, when <theta, X> passes the float range."""
    if batch.n == 0:
        raise DomainError("empirical_chf requires a nonempty batch")
    theta = _theta(theta, batch.dim)
    proj = project(batch.draws, theta)
    if not np.isfinite(proj).all():
        raise NumericalError(f"<theta, X> passes the float range at theta = {theta.tolist()!r}")
    return float(np.mean(np.cos(proj))), float(np.mean(np.sin(proj)))
