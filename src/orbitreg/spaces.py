"""Covariate spaces, points, intrinsic distances, and point samplers.

Three compact covariate spaces are supported:

* the closed unit ball in R^3 (``UNIT_BALL3``),
* the unit sphere S^2 embedded in R^3 (``UNIT_SPHERE2``),
* the flat d-torus [0, 1)^d with opposite faces identified (``TORUS``).

Each space carries a membership predicate, an intrinsic distance (Euclidean
on the ball, great-circle on the sphere, wrap-around Euclidean on the
torus, read through its unit ``period``), and a uniform sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, SpaceMismatchError
from .randomness import polar_gaussian

_MEMBERSHIP_TOL = 1e-12
# entries of the transient score or distance matrix built per chunk
CHUNK_ELEMENTS = 4_000_000


class SpaceKind(Enum):
    UNIT_BALL3 = "unit_ball3"
    UNIT_SPHERE2 = "unit_sphere2"
    TORUS = "torus"


class PointDistribution(Enum):
    UNIFORM_SPACE = "uniform_space"
    GAUSSIAN3 = "gaussian3"


@dataclass(frozen=True)
class CovariateSpace:
    """A covariate space: its kind and dimensions."""

    kind: SpaceKind
    ambient_dim: int
    intrinsic_dim: int

    @property
    def period(self) -> np.ndarray | None:
        """Per-axis period of a torus (ones); None on the ball and sphere."""
        return np.ones(self.ambient_dim) if self.kind is SpaceKind.TORUS else None

    def contains_rows(self, coords: np.ndarray) -> np.ndarray:
        """Membership of each row of ``coords``; NaN or inf rows lie outside."""
        c = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        if c.shape[1] != self.ambient_dim:
            return np.zeros(c.shape[0], dtype=bool)
        if self.kind is SpaceKind.UNIT_BALL3:
            return np.linalg.norm(c, axis=1) <= 1.0 + _MEMBERSHIP_TOL
        if self.kind is SpaceKind.UNIT_SPHERE2:
            return np.abs(np.linalg.norm(c, axis=1) - 1.0) <= _MEMBERSHIP_TOL
        return np.all((c >= 0.0) & (c < 1.0), axis=1)

    def contains(self, coords: np.ndarray) -> bool:
        c = np.asarray(coords, dtype=np.float64)
        return c.shape == (self.ambient_dim,) and bool(self.contains_rows(c)[0])

    def __str__(self) -> str:
        if self.kind is SpaceKind.TORUS:
            return f"torus{self.intrinsic_dim}"
        return self.kind.value


def unit_ball3() -> CovariateSpace:
    return CovariateSpace(SpaceKind.UNIT_BALL3, ambient_dim=3, intrinsic_dim=3)


def unit_sphere2() -> CovariateSpace:
    return CovariateSpace(SpaceKind.UNIT_SPHERE2, ambient_dim=3, intrinsic_dim=2)


def torus(d: int) -> CovariateSpace:
    if d < 1:
        raise ConfigError("torus dimension must be a positive integer")
    return CovariateSpace(SpaceKind.TORUS, ambient_dim=d, intrinsic_dim=d)


@dataclass(frozen=True, eq=False)
class Point:
    """A point of a covariate space; coordinates are ambient and read-only."""

    coords: np.ndarray
    space: CovariateSpace

    def __post_init__(self):
        c = np.array(self.coords, dtype=np.float64)
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @staticmethod
    def of(space: CovariateSpace, coords) -> "Point":
        """The point with these coordinates, which must lie in ``space``."""
        c = np.asarray(coords, dtype=np.float64)
        if not space.contains(c):
            raise SpaceMismatchError(f"coordinates {c} do not lie in {space}")
        return Point(c, space)


def query_rows(space: CovariateSpace, coords) -> np.ndarray:
    """``coords`` as a 2-D float array of query rows for ``space``.

    Raises :class:`SpaceMismatchError` naming the first row that has the
    wrong width or a NaN or infinite entry.  Membership is not checked.
    """
    rows = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    if rows.ndim != 2 or rows.shape[1] != space.ambient_dim:
        raise SpaceMismatchError(f"query row 0 has width {rows.shape[-1]}, "
                                 f"but {space} needs {space.ambient_dim}")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise SpaceMismatchError(f"query row {bad[0]} ({rows[bad[0]]}) is not finite")
    return rows


def _check_same_space(x: Point, y: Point) -> None:
    if x.space != y.space:
        raise SpaceMismatchError(f"points live in different spaces: {x.space} vs {y.space}")


def space_distance(x: Point, y: Point) -> float:
    """Intrinsic distance between two points of the same space."""
    _check_same_space(x, y)
    return float(pairwise_distance(x.space, x.coords[None, :], y.coords[None, :])[0, 0])


def pairwise_distance(space: CovariateSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix between row-stacked coordinate arrays ``a`` and ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if space.kind is SpaceKind.UNIT_SPHERE2:
        # half-chord form: well conditioned near zero, exact for equal points
        chord = flat_distance_matrix(a, b)
        return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    return flat_distance_matrix(a, b, space.period)


def flat_distance_matrix(a: np.ndarray, b: np.ndarray, period=None) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``, wrapped
    around each axis of the given period (the torus metric)."""
    # direct difference form: no cancellation, exact zeros for equal points
    diff = np.abs(a[:, None, :] - b[None, :, :])
    if period is not None:
        diff = np.minimum(diff, period - diff)
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _ball_score(space: CovariateSpace, queries: np.ndarray, data: np.ndarray,
                h: float) -> np.ndarray:
    """Positive entries mark strict h-neighbours: h^2 minus the squared
    distance, or the cosine margin on the sphere, so no square root is
    taken."""
    if space.kind is SpaceKind.UNIT_SPHERE2:
        score = queries @ data.T
        score -= np.cos(min(h, np.pi)) if h <= np.pi else -2.0
        return score
    if space.kind is SpaceKind.UNIT_BALL3:
        # score = h^2 - |q - x|^2, assembled as 2 q.x + (h^2 - |q|^2) - |x|^2
        score = queries @ (data.T * 2.0)
        score += (h * h - np.einsum("ij,ij->i", queries, queries))[:, None]
        score -= np.einsum("ij,ij->i", data, data)[None, :]
        return score
    sq = np.zeros((queries.shape[0], data.shape[0]))
    for j in range(data.shape[1]):
        diff = np.abs(np.subtract.outer(queries[:, j], data[:, j]))
        np.minimum(diff, 1.0 - diff, out=diff)
        diff *= diff
        sq += diff
    return h * h - sq


def neighbor_stats(space: CovariateSpace, queries: np.ndarray, data: np.ndarray,
                   h: float, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-query count of, and value sum over, data in the open h-ball.

    Chunked over query rows so the transient score matrix stays within
    ``CHUNK_ELEMENTS`` entries; the indicator is formed in place (heaviside
    of the score) and both the count and the value sum come out of a single
    matrix product.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    q = queries.shape[0]
    counts = np.zeros(q, dtype=np.int64)
    sums = np.zeros(q, dtype=np.float64)
    if data.shape[0] == 0:
        return counts, sums
    stacked = np.column_stack([np.asarray(values, dtype=np.float64),
                               np.ones(data.shape[0])])
    rows = max(1, CHUNK_ELEMENTS // data.shape[0])
    for start in range(0, q, rows):
        score = _ball_score(space, queries[start : start + rows], data, h)
        # overwrite the score with the 0/1 indicator in place
        np.greater(score, 0.0, out=score, casting="unsafe")
        agg = score @ stacked
        sums[start : start + rows] = agg[:, 0]
        counts[start : start + rows] = np.rint(agg[:, 1]).astype(np.int64)
    return counts, sums


def sample_points(space: CovariateSpace, distribution: PointDistribution, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. points as an (n, ambient_dim) array.

    ``UNIFORM_SPACE`` is uniform with respect to the space's volume: the
    ball radius follows ``z**(1/3)`` with z uniform on [0, 1], sphere
    directions are normalised Gaussians, and torus coordinates are
    uniform.  ``GAUSSIAN3`` is a standard Gaussian on ambient R^3 (used by
    validation oracles; not membership-checked).
    """
    if distribution is PointDistribution.GAUSSIAN3:
        if space.ambient_dim != 3:
            raise SpaceMismatchError("gaussian3 sampling requires an ambient dimension of 3")
        return polar_gaussian(rng, 3 * n).reshape(n, 3)
    if space.kind is SpaceKind.UNIT_BALL3:
        direction = _unit_directions(rng, n)
        radius = rng.random(n) ** (1.0 / 3.0)
        return direction * radius[:, None]
    if space.kind is SpaceKind.UNIT_SPHERE2:
        return _unit_directions(rng, n)
    return rng.random((n, space.ambient_dim))


def _unit_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    v = polar_gaussian(rng, 3 * n).reshape(n, 3)
    norms = np.linalg.norm(v, axis=1)
    # A zero vector has probability zero; guard against it anyway.
    norms[norms == 0.0] = 1.0
    return v / norms[:, None]
