"""Finite discrete spectral measures on the unit sphere and the stable laws they define.

A measure is two arrays: unit-vector directions, one per row, and their
nonnegative weights; row j with its weight is atom j.  All operations are
pure; the types are immutable after construction; summation is always in
stored atom order so results are bit-reproducible.

Two directions coincide when every coordinate differs by at most
``DIRECTION_TOL``.  Building a measure from rows of entries (symmetrize,
pushforward, discretization, spec files) merges coinciding directions:

- the first-seen entry keeps its position and its direction;
- a later entry is compared only with the representatives kept so far, in
  merged order, and folds into the first that coincides with it.  Matching
  is not transitive: an entry close to a folded entry but not to its
  representative stays separate;
- merged weights are summed left to right in entry order.

A measure is symmetric when its atoms pair off greedily: the lowest
unpaired atom takes the lowest-index unpaired atom at its antipode (within
``DIRECTION_TOL``) whose weight is within ``WEIGHT_TOL`` of its own.

Both searches sort the directions by their first coordinate and test only
the atoms in a narrow window around each query, so building a measure
takes O(n log n) comparisons in the atom count n, plus the size of any
window that holds many atoms (as when many directions share a first
coordinate).  From _ARRAY_MIN atoms on, one array pass first tests every
(query, atom) pair in the windows at once.  Where no atom has two
candidates, every candidate is mutual and the greedy rules above have one
outcome, which the pass returns: a later row folds into its earlier
partner, and a measure is symmetric when every atom has a partner.  Below
the cut, in windows denser than _ARRAY_DENSITY atoms per atom (a rank-1
pushforward's clusters), or when some atom has two candidates, a per-atom
loop in entry order decides.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateMapError,
    DimensionError,
    DomainError,
    NumericalError,
    ValidationError,
    finite_real,
    integer,
    real_array,
)

DIRECTION_TOL = 1e-12
WEIGHT_TOL = 1e-12

# Half-width of the first-coordinate window searched for coinciding directions.
# A pair that passes the per-coordinate test has first coordinates whose exact
# distance is below DIRECTION_TOL * (1 + 2**-52); rounding is monotone, so the
# rounded bounds x -/+ _WINDOW still enclose every such partner.
_WINDOW = 2.0 * DIRECTION_TOL

# On a 2-vCPU x86 host (Python 3.11, numpy 2.4) the array pass costs about
# 40-60 us at any atom count and the per-atom loop about 1.15 us per atom,
# so they cross near 40 atoms: below _ARRAY_MIN the loop decides, as it does
# for every spec of a few atoms.  Past _ARRAY_DENSITY window pairs per atom
# (the clusters of a rank-1 pushforward) the pass would build large arrays
# only to find atoms with many candidates, so the loop decides there too.
_ARRAY_MIN = 48
_ARRAY_DENSITY = 4


def _lone_partners(
    rows: np.ndarray, order: np.ndarray, queries: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The candidate pairs (query i, row j), with i ascending and at most one
    j per i, or None when the per-atom loop must decide.

    Row j != i is a candidate of query i when every coordinate satisfies
    ``abs(queries[i][k] - rows[j][k]) <= DIRECTION_TOL`` and, given weights,
    ``abs(weights[i] - weights[j]) <= WEIGHT_TOL``.  ``order`` is the stable
    argsort of the rows' first coordinates.  None below _ARRAY_MIN rows, past
    _ARRAY_DENSITY window pairs per row, or when a query has two candidates.
    """
    n = len(order)
    if n < _ARRAY_MIN:
        return None
    keys, x = rows[:, 0].take(order), queries[:, 0]
    lo = np.searchsorted(keys, x - _WINDOW, "left")
    counts = np.searchsorted(keys, x + _WINDOW, "right") - lo
    total = int(counts.sum())
    if total > _ARRAY_DENSITY * n:
        return None
    # Pair p lists query q[p] with the row at sorted position lo[q] + (p - start of q's pairs).
    q = np.repeat(np.arange(n), counts)
    j = order.take(np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf fails the test, as in the loop
        near = np.abs(queries.take(q, axis=0) - rows.take(j, axis=0)) <= DIRECTION_TOL
    hit = (q != j) & near.all(axis=1)
    if weights is not None:
        hit &= np.abs(weights.take(q) - weights.take(j)) <= WEIGHT_TOL
    q, j = q[hit], j[hit]
    if (q[1:] == q[:-1]).any():
        return None
    return q, j


class _SortedWindow:
    """A changing set of direction rows kept sorted by first coordinate.

    ``lowest_match(query)`` returns the lowest-index member j for which every
    coordinate satisfies ``abs(query[k] - rows[j][k]) <= DIRECTION_TOL`` and
    ``accept(j)`` holds, or None.  Only members whose first coordinate lies
    within _WINDOW of the query's are tested.
    """

    def __init__(self, rows: list[list[float]], members: Sequence[int] = ()):
        self.rows = rows
        self.members = list(members)  # must be given in first-coordinate order
        self.keys = [rows[j][0] for j in self.members]

    def insert(self, j: int) -> None:
        key = self.rows[j][0]
        pos = bisect_right(self.keys, key)
        self.keys.insert(pos, key)
        self.members.insert(pos, j)

    def remove(self, j: int) -> None:
        pos = self.members.index(j, bisect_left(self.keys, self.rows[j][0]))
        del self.keys[pos], self.members[pos]

    def lowest_match(self, query: list[float], accept=None) -> int | None:
        lo = bisect_left(self.keys, query[0] - _WINDOW)
        hi = bisect_right(self.keys, query[0] + _WINDOW, lo)
        best = None
        for j in self.members[lo:hi]:
            if (
                (best is None or j < best)
                and all(abs(q - r) <= DIRECTION_TOL for q, r in zip(query, self.rows[j]))
                and (accept is None or accept(j))
            ):
                best = j
        return best


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Mass ``weights[j]`` at the unit vector ``directions[j]``, for read-only
    arrays ``directions`` of shape (n, dim) and ``weights`` of shape (n,)."""

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        dirs = np.array(self.directions, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if dirs.ndim != 2 or weights.shape != dirs.shape[:1]:
            raise ValidationError(
                f"a measure needs (n, dim) directions and n weights, "
                f"got shapes {dirs.shape} and {weights.shape}"
            )
        if dirs.shape[1] < 1:
            raise ValidationError("atom direction must be a nonempty 1-d vector")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(dirs, axis=1)
        # Written so that NaN fails both tests.  The first bad atom is named.
        bad_direction = ~(np.abs(norms - 1.0) <= DIRECTION_TOL)
        bad = np.flatnonzero(bad_direction | ~(np.isfinite(weights) & (weights >= 0.0)))
        if bad.size and bad_direction[bad[0]]:
            norm = float(norms[bad[0]])
            raise ValidationError(f"atom direction must be unit length, got norm {norm!r}")
        if bad.size:
            weight = float(weights[bad[0]])
            raise ValidationError(f"atom weight must be finite and >= 0, got {weight!r}")
        for name, arr in (("directions", dirs), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_points(cls, dim: int, points: Sequence[tuple[Sequence[float], float]]):
        """The measure with one atom (s, w) per pair in ``points``, in order."""
        points = list(points)
        try:
            dirs = np.array([s for s, _ in points] or np.zeros((0, dim)), dtype=float)
        except ValueError:  # rows of unequal lengths, or not numbers
            dirs = None
        if dirs is None or dirs.shape[1:] != (dim,):
            raise DimensionError(f"every atom direction must be a real vector of dimension {dim}")
        return cls(dirs, [w for _, w in points])

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def atoms(self) -> tuple[tuple[np.ndarray, float], ...]:
        """The (direction, weight) pairs, a view derived from the two arrays."""
        return tuple(zip(self.directions, self.weights.tolist()))

    @property
    def total_mass(self) -> float:
        # Python's sum adds left to right, in stored atom order.
        return float(sum(self.weights.tolist()))

    def is_symmetric(self) -> bool:
        """True when every atom has an antipodal partner of equal weight.

        Pairing is greedy: the lowest unpaired atom takes the lowest-index
        unpaired atom at its antipode whose weight is within WEIGHT_TOL.
        """
        dirs = self.directions
        order = np.argsort(dirs[:, 0], kind="stable")
        # Negation is exact and rounding is symmetric, so the window's test
        # abs(-a - b) <= DIRECTION_TOL is bit-for-bit abs(a + b) <= DIRECTION_TOL,
        # and a candidate of a is one of b's when b is one of a's.
        pairs = _lone_partners(dirs, order, -dirs, self.weights)
        if pairs is not None:
            # Partners are mutual, so the atoms pair off unless one has none.
            return len(pairs[0]) == len(order)
        antipodes = (-dirs).tolist()
        weights = self.weights.tolist()
        unpaired = _SortedWindow(dirs.tolist(), order.tolist())
        paired = [False] * len(weights)
        for i, wi in enumerate(weights):
            if paired[i]:
                continue
            unpaired.remove(i)
            j = unpaired.lowest_match(antipodes[i], lambda k: abs(wi - weights[k]) <= WEIGHT_TOL)
            if j is None:
                return False
            unpaired.remove(j)
            paired[j] = True
        return True


def _merge_atoms(directions: np.ndarray, weights: np.ndarray) -> SpectralMeasure:
    # First-seen row keeps its position; a later row folds into the first
    # representative that coincides with it (see the module docstring).
    # A row whose sorted neighbours are both more than _WINDOW away matches
    # nothing: it stays a representative and is left out of the window.  Gaps
    # next to a NaN or infinite first coordinate are never within _WINDOW.
    order = np.argsort(directions[:, 0], kind="stable")
    pairs = _lone_partners(directions, order, directions)
    if pairs is not None:
        # Each pair is listed both ways; the later row folds into the earlier one.
        q, j = pairs
        first = q < j
        summed = weights.copy()
        summed[q[first]] += weights[j[first]]
        kept = np.ones(len(weights), dtype=bool)
        kept[q[~first]] = False
        return SpectralMeasure(directions[kept], summed[kept])
    order = order.tolist()
    crowded = [False] * len(weights)
    for p in np.flatnonzero(np.diff(directions[order, 0]) <= _WINDOW).tolist():
        crowded[order[p]] = crowded[order[p + 1]] = True
    rows = directions.tolist()
    representatives = _SortedWindow(rows)
    merged: dict[int, float] = {}
    for i, weight in enumerate(weights.tolist()):
        j = representatives.lowest_match(rows[i]) if crowded[i] else None
        if j is None:
            merged[i] = weight
            if crowded[i]:
                representatives.insert(i)
        else:
            merged[j] += weight
    return SpectralMeasure(directions[list(merged)], list(merged.values()))


def symmetrize(measure: SpectralMeasure) -> SpectralMeasure:
    """Split each atom (s, w) into (s, w/2) and (-s, w/2) and merge duplicates.

    The scale parameter is unchanged for every argument because
    |<theta, -s>| = |<theta, s>|.
    """
    dirs = measure.directions
    rows = np.stack((dirs, -dirs), axis=1).reshape(-1, measure.dim)
    return _merge_atoms(rows, np.repeat(measure.weights / 2.0, 2))


@dataclass(frozen=True, eq=False)
class StableModel:
    """A jointly symmetric stable law: stability index plus symmetric measure."""

    alpha: float
    measure: SpectralMeasure

    def __post_init__(self):
        a = float(self.alpha)
        if not (0.0 < a <= 2.0):
            raise ValidationError(f"alpha must lie in (0, 2], got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)
        if not self.measure.is_symmetric():
            raise ValidationError(
                "measure is not symmetric; set \"auto_symmetrize\": true to symmetrize on load"
            )

    @property
    def dim(self) -> int:
        return self.measure.dim


@dataclass(frozen=True, eq=False)
class PushforwardModel(StableModel):
    """Stable model produced by a linear pushforward, with drop metadata."""

    n_dropped_atoms: int = 0


def project(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """<c, row> for each row of an (n, dim) array, summed over the
    coordinates in stored order.

    A matrix-vector product would leave the order to the BLAS kernel the CPU
    selects, so its last bits could differ from machine to machine.  Like
    that product, a sum past the float range is inf or NaN without a
    RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return sum(c[k] * rows[:, k] for k in range(rows.shape[1]))


def _vector(value, dim: int, name: str) -> np.ndarray:
    # The one length rule of theta and of coefficient vectors.
    vec = real_array(value, name)
    if vec.shape != (dim,):
        raise DimensionError(f"{name} must have length {dim}")
    return vec


def _theta(theta, dim: int) -> np.ndarray:
    # The one theta rule: length dim, every entry finite.
    t = _vector(theta, dim, "theta")
    if not np.isfinite(t).all():
        raise DomainError(f"theta must be finite, got {t.tolist()!r}")
    return t


def _plane(model: StableModel, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The one bivariate rule: columns s1 and s2 and the weights, or an error naming ``what``.
    if model.dim != 2:
        raise DimensionError(f"{what} requires a bivariate model")
    dirs = model.measure.directions
    return dirs[:, 0], dirs[:, 1], model.measure.weights


def _weighted(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    # w * values per atom (values may have a leading axis), under the caller's errstate.
    # An atom of weight +-0 gives its weight, also where its value is inf and the product NaN.
    return np.where(w > 0.0, w * values, w)


def _projection_integral(model: StableModel, theta) -> float:
    # integral of |<theta, s>|**alpha, vectorized but summed in atom order.
    # Past the float range it is inf, without a RuntimeWarning.
    proj = np.abs(project(model.measure.directions, _theta(theta, model.dim)))
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(_weighted(model.measure.weights, np.float_power(proj, model.alpha))))


def scale_parameter_direct(model: StableModel, theta) -> float:
    """Scale parameter of <theta, X>: the alpha-th root of the projection integral.

    NumericalError when the integral or its root passes the float range.
    """
    val = _projection_integral(model, theta)
    if val == 0.0:
        return 0.0
    try:
        sigma = val ** (1.0 / model.alpha)
    except OverflowError:
        sigma = math.inf
    if not math.isfinite(sigma):
        raise NumericalError(
            f"scale parameter passes the float range: {val!r}**(1/{model.alpha!r})"
        )
    return sigma


def characteristic_function(model: StableModel, theta) -> float:
    """Joint characteristic function exp(-sigma**alpha(theta)); real-valued in (0, 1]."""
    return math.exp(-_projection_integral(model, theta))


def pushforward_linear(
    model: StableModel, a, b, *, allow_degenerate: bool = False
) -> PushforwardModel:
    """Spectral measure of the pair (sum a_k X_k, sum b_k X_k) on the plane.

    Each atom s maps to direction (A, B)/sqrt(A^2+B^2) with A = <a, s>,
    B = <b, s>, carrying weight w*(A^2+B^2)**(alpha/2).  Atoms with
    A = B = 0 carry zero pushforward weight and are dropped; the count of
    dropped atoms is reported on the result.  Coinciding output directions
    are merged, first seen kept in place.
    """
    a, b = _vector(a, model.dim, "a"), _vector(b, model.dim, "b")
    if not allow_degenerate and not a.any() and not b.any():
        raise DegenerateMapError(
            "both coefficient vectors are zero: pushforward is the zero measure "
            "(pass allow_degenerate=True to receive it)"
        )
    # A = <a, s> and B = <b, s>.  A row whose A^2 + B^2 leaves the normal
    # float range is first divided by max(|A|, |B|), and its weight
    # multiplied by that scale**alpha; every other row keeps the unscaled
    # expression and its bits.  An image past the float range fails the
    # build's checks.
    dirs = model.measure.directions
    with np.errstate(over="ignore", invalid="ignore"):
        av, bv = project(dirs, a), project(dirs, b)
        kept = (av != 0.0) | (bv != 0.0)
        av, bv = av[kept], bv[kept]
        r2 = av * av + bv * bv
        normal = np.isfinite(r2) & (r2 >= np.finfo(float).tiny)
        scale = np.where(normal, 1.0, np.maximum(np.abs(av), np.abs(bv)))
        av, bv = av / scale, bv / scale
        r2 = av * av + bv * bv
        r = np.sqrt(r2)
        # float_power is C pow, as Python's ** is; numpy's power may differ in the last bit.
        weights = (
            model.measure.weights[kept]
            * np.float_power(r2, model.alpha / 2.0)
            * np.float_power(scale, model.alpha)
        )
        directions = np.column_stack((av / r, bv / r))
    merged = _merge_atoms(directions, weights)
    return PushforwardModel(model.alpha, merged, n_dropped_atoms=int(np.count_nonzero(~kept)))


def discretize_density(density: Callable[[float], float], n_points: int) -> SpectralMeasure:
    """Midpoint-rule discretization of an angular density on the circle.

    Atom j sits at angle phi_j = 2*pi*(j + 1/2)/n with weight
    density(phi_j) * 2*pi/n; the result is symmetrized.
    """
    if integer(n_points, "n_points", ValidationError) < 4:
        raise ValidationError("discretize_density requires n_points >= 4")
    step = 2.0 * math.pi / n_points
    dirs: list[tuple[float, float]] = []
    weights: list[float] = []
    for j in range(n_points):
        phi = (j + 0.5) * step
        dens = float(density(phi))
        if not math.isfinite(dens) or dens < 0.0:
            raise ValidationError(f"density must be finite and >= 0, got {dens!r} at {phi!r}")
        dirs.append((math.cos(phi), math.sin(phi)))
        weights.append(dens * step)
    return symmetrize(SpectralMeasure(dirs, weights))


# --------------------------------------------------------------------------
# Measure spec files.
#
# JSON schema: {"alpha": <real>,
#               "atoms": [{"s": [<real>, ...], "w": <real>}, ...],
#               "auto_symmetrize": <bool>}

def model_from_dict(data: dict, *, alpha_override: float | None = None) -> StableModel:
    if not isinstance(data, dict):
        raise ValidationError("measure spec must be a JSON object")
    for key in ("alpha", "atoms"):
        if key not in data:
            raise ValidationError(f"measure spec missing required key {key!r}")
    if alpha_override is None:
        alpha = finite_real(data["alpha"], "measure spec 'alpha'")
    else:
        alpha = finite_real(alpha_override, "alpha_override")
    raw_atoms = data["atoms"]
    if not isinstance(raw_atoms, list) or not raw_atoms:
        raise ValidationError("measure spec 'atoms' must be a nonempty list")
    points = []
    for entry in raw_atoms:
        if not isinstance(entry, dict) or "s" not in entry or "w" not in entry:
            raise ValidationError("each atom must be an object with keys 's' and 'w'")
        if not isinstance(entry["s"], (list, tuple)):
            raise ValidationError(f"atom 's' must be a list of numbers, got {entry['s']!r}")
        s = [finite_real(x, "atom 's' coordinate") for x in entry["s"]]
        points.append((s, finite_real(entry["w"], "atom 'w'")))
    dims = {len(p[0]) for p in points}
    if len(dims) != 1:
        raise ValidationError("all atom directions must share one dimension")
    measure = SpectralMeasure.from_points(dims.pop(), points)
    auto = data.get("auto_symmetrize", False)
    if not isinstance(auto, bool):
        raise ValidationError(f"measure spec 'auto_symmetrize' must be true or false, got {auto!r}")
    # StableModel's symmetry check is the only one a load makes.
    return StableModel(alpha, symmetrize(measure) if auto else measure)


def load_model(path, *, alpha_override: float | None = None) -> StableModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(
            f"cannot read measure spec {path!r}: {exc}", code="unreadable_file"
        ) from exc
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise ValidationError(
            f"malformed JSON in measure spec {path!r}: {exc}", code="malformed_json"
        ) from exc
    return model_from_dict(data, alpha_override=alpha_override)


def model_to_dict(model: StableModel) -> dict:
    return {
        "alpha": model.alpha,
        "atoms": [
            {"s": s, "w": w}
            for s, w in zip(model.measure.directions.tolist(), model.measure.weights.tolist())
        ],
        "auto_symmetrize": False,
    }
