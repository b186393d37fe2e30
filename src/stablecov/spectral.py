"""Finite discrete spectral measures on the unit sphere and the stable laws they define.

A measure is a finite list of weighted unit-vector atoms.  All operations
are pure; the types are immutable after construction; summation is always
in stored atom order so results are bit-reproducible.

Two directions coincide when every coordinate differs by at most
``DIRECTION_TOL``.  Building a measure from a list of entries (symmetrize,
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
coordinate).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateMapError,
    DimensionError,
    ValidationError,
    finite_real,
)

DIRECTION_TOL = 1e-12
WEIGHT_TOL = 1e-12

# Half-width of the first-coordinate window searched for coinciding directions.
# A pair that passes the per-coordinate test has first coordinates whose exact
# distance is below DIRECTION_TOL * (1 + 2**-52); rounding is monotone, so the
# rounded bounds x -/+ _WINDOW still enclose every such partner.
_WINDOW = 2.0 * DIRECTION_TOL


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


def _as_unit_vector(direction) -> np.ndarray:
    vec = np.array(direction, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ValidationError("atom direction must be a nonempty 1-d vector")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > DIRECTION_TOL:
        raise ValidationError(f"atom direction must be unit length, got norm {norm!r}")
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True, eq=False)
class SpectralAtom:
    """One weighted point mass on the unit sphere."""

    direction: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_unit_vector(self.direction))
        w = float(self.weight)
        if not math.isfinite(w) or w < 0.0:
            raise ValidationError(f"atom weight must be finite and >= 0, got {self.weight!r}")
        object.__setattr__(self, "weight", w)

    @property
    def dim(self) -> int:
        return int(self.direction.size)


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Finite nonnegative measure given by a list of spectral atoms."""

    dim: int
    atoms: tuple[SpectralAtom, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("measure dimension must be >= 1")
        atoms = tuple(self.atoms)
        for atom in atoms:
            if atom.dim != self.dim:
                raise DimensionError(
                    f"atom of dimension {atom.dim} in measure of dimension {self.dim}"
                )
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_points(cls, dim: int, points: Sequence[tuple[Sequence[float], float]]):
        return cls(dim, tuple(SpectralAtom(s, w) for s, w in points))

    @cached_property
    def directions(self) -> np.ndarray:
        if not self.atoms:
            arr = np.zeros((0, self.dim))
        else:
            arr = np.vstack([a.direction for a in self.atoms])
        arr.setflags(write=False)
        return arr

    @cached_property
    def weights(self) -> np.ndarray:
        arr = np.array([a.weight for a in self.atoms], dtype=float)
        arr.setflags(write=False)
        return arr

    @property
    def total_mass(self) -> float:
        return float(sum(a.weight for a in self.atoms))

    def is_symmetric(self) -> bool:
        """True when every atom has an antipodal partner of equal weight.

        Pairing is greedy: the lowest unpaired atom takes the lowest-index
        unpaired atom at its antipode whose weight is within WEIGHT_TOL.
        """
        dirs = self.directions
        order = np.argsort(dirs[:, 0], kind="stable").tolist()
        # argsort puts NaN last.  An atom with a NaN first coordinate can never
        # be paired, and it would break the window's bisection.
        if order and math.isnan(dirs[order[-1], 0]):
            return False
        # Negation is exact and rounding is symmetric, so the window's test
        # abs(-a - b) <= DIRECTION_TOL is bit-for-bit abs(a + b) <= DIRECTION_TOL.
        antipodes = (-dirs).tolist()
        weights = [a.weight for a in self.atoms]
        unpaired = _SortedWindow(dirs.tolist(), order)
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


def _merge_atoms(entries: list[tuple[np.ndarray, float]], dim: int) -> SpectralMeasure:
    # First-seen entry keeps its position; a later entry folds into the first
    # representative that coincides with it (see the module docstring).
    dirs = np.array([d for d, _ in entries], dtype=float).reshape(len(entries), dim)
    # An entry whose sorted neighbours are both more than _WINDOW away matches
    # nothing: it stays a representative and is left out of the window.  Gaps
    # next to a NaN or infinite first coordinate are never within _WINDOW.
    order = np.argsort(dirs[:, 0], kind="stable").tolist()
    crowded = [False] * len(entries)
    for p in np.flatnonzero(np.diff(dirs[order, 0]) <= _WINDOW).tolist():
        crowded[order[p]] = crowded[order[p + 1]] = True
    rows = dirs.tolist()
    representatives = _SortedWindow(rows)
    merged: dict[int, float] = {}
    for i, (_, weight) in enumerate(entries):
        j = representatives.lowest_match(rows[i]) if crowded[i] else None
        if j is None:
            merged[i] = weight
            if crowded[i]:
                representatives.insert(i)
        else:
            merged[j] += weight
    return SpectralMeasure.from_points(dim, [(entries[i][0], w) for i, w in merged.items()])


def symmetrize(measure: SpectralMeasure) -> SpectralMeasure:
    """Split each atom (s, w) into (s, w/2) and (-s, w/2) and merge duplicates.

    The scale parameter is unchanged for every argument because
    |<theta, -s>| = |<theta, s>|.
    """
    entries: list[tuple[np.ndarray, float]] = []
    for atom in measure.atoms:
        entries.append((atom.direction, atom.weight / 2.0))
        entries.append((-atom.direction, atom.weight / 2.0))
    return _merge_atoms(entries, measure.dim)


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
            raise ValidationError("spectral measure must be symmetric (antipodal pairing)")

    @property
    def dim(self) -> int:
        return self.measure.dim


@dataclass(frozen=True, eq=False)
class PushforwardModel(StableModel):
    """Stable model produced by a linear pushforward, with drop metadata."""

    n_dropped_atoms: int = 0


def _projection_integral(model: StableModel, theta: np.ndarray) -> float:
    # integral of |<theta, s>|**alpha, vectorized but summed in atom order.
    if len(model.measure.atoms) == 0:
        return 0.0
    proj = np.abs(model.measure.directions @ theta)
    return float(np.sum(model.measure.weights * proj**model.alpha))


def scale_parameter_direct(model: StableModel, theta) -> float:
    """Scale parameter of <theta, X>: the alpha-th root of the projection integral."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise DimensionError(f"theta must have length {model.dim}")
    val = _projection_integral(model, theta)
    if val == 0.0:
        return 0.0
    return val ** (1.0 / model.alpha)


def characteristic_function(model: StableModel, theta) -> float:
    """Joint characteristic function exp(-sigma**alpha(theta)); real-valued in (0, 1]."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise DimensionError(f"theta must have length {model.dim}")
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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (model.dim,) or b.shape != (model.dim,):
        raise DimensionError(f"coefficient vectors must have length {model.dim}")
    if not allow_degenerate and not a.any() and not b.any():
        raise DegenerateMapError(
            "both coefficient vectors are zero: pushforward is the zero measure "
            "(pass allow_degenerate=True to receive it)"
        )
    entries: list[tuple[np.ndarray, float]] = []
    dropped = 0
    for atom in model.measure.atoms:
        av = float(a @ atom.direction)
        bv = float(b @ atom.direction)
        r2 = av * av + bv * bv
        if r2 == 0.0:
            dropped += 1
            continue
        r = math.sqrt(r2)
        entries.append((np.array([av / r, bv / r]), atom.weight * r2 ** (model.alpha / 2.0)))
    merged = _merge_atoms(entries, 2)
    return PushforwardModel(model.alpha, merged, n_dropped_atoms=dropped)


def discretize_density(density: Callable[[float], float], n_points: int) -> SpectralMeasure:
    """Midpoint-rule discretization of an angular density on the circle.

    Atom j sits at angle phi_j = 2*pi*(j + 1/2)/n with weight
    density(phi_j) * 2*pi/n; the result is symmetrized.
    """
    if n_points < 4:
        raise ValidationError("discretize_density requires n_points >= 4")
    step = 2.0 * math.pi / n_points
    entries: list[tuple[np.ndarray, float]] = []
    for j in range(n_points):
        phi = (j + 0.5) * step
        dens = float(density(phi))
        if not math.isfinite(dens) or dens < 0.0:
            raise ValidationError(f"density must be finite and >= 0, got {dens!r} at {phi!r}")
        entries.append((np.array([math.cos(phi), math.sin(phi)]), dens * step))
    return symmetrize(SpectralMeasure.from_points(2, entries))


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
    if bool(data.get("auto_symmetrize", False)):
        measure = symmetrize(measure)
    elif not measure.is_symmetric():
        raise ValidationError(
            "measure is not symmetric; set \"auto_symmetrize\": true to symmetrize on load"
        )
    return StableModel(alpha, measure)


def load_model(path, *, alpha_override: float | None = None) -> StableModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(
            f"cannot read measure spec {path!r}: {exc}", code="unreadable_file"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in measure spec {path!r}: {exc}", code="malformed_json"
        ) from exc
    return model_from_dict(data, alpha_override=alpha_override)


def model_to_dict(model: StableModel) -> dict:
    return {
        "alpha": model.alpha,
        "atoms": [
            {"s": atom.direction.tolist(), "w": atom.weight} for atom in model.measure.atoms
        ],
        "auto_symmetrize": False,
    }
