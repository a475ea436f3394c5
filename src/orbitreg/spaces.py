"""Covariate spaces, their rows, intrinsic distances, and point samplers.

Three compact covariate spaces are supported:

* the closed unit ball in R^3 (``UNIT_BALL3``),
* the unit sphere S^2 embedded in R^3 (``UNIT_SPHERE2``),
* the flat d-torus [0, 1)^d with opposite faces identified (``TORUS``).

Points are always passed as rows of one named space: a point is one row,
a set of points a row-stacked array, and a function that takes points
takes the space too.  Each space carries a batched membership predicate
(``contains_rows``), an intrinsic distance (Euclidean on the ball,
great-circle on the sphere, wrap-around Euclidean on the torus), and a
uniform sampler.  Rows from callers are checked by one of two rules:
:func:`member_rows`, the membership rule for rows that must lie in the
space (data sets, orbit grid base points and targets), and
:func:`query_rows`, the narrower rule for prediction queries.

:func:`wrap_rows` is the torus's one coordinate reduction: every torus
row is reduced into [0, 1) where it enters -- the distances, the
neighbour search, and the parent group's action and canonical shifts in
:mod:`orbitreg.groups` -- so a row off [0, 1), however far, is treated
exactly as its reduction.

:func:`neighbor_stats` is the one neighbour search: per query, the count of
and the value sum over the data strictly within distance h.  It bins
queries and data into a uniform grid of cells at least as wide as the
reach and scores each query only against the data in the 3^d cells around
its own cell (``[-1, 1]^3`` with clipped indices on the ball and sphere,
``[0, 1)^d`` with wrapped indices on the torus).  On the torus each
neighbour cell's rows are moved by the period it was wrapped across, so a
block is scored as flat Euclidean space, like the ball.  A small cost
model picks the cells per axis; one cell is the dense all-pairs kernel,
taken when binning would not pay, for instance on at most
``_QUERY_COST`` data points.  Each chunk of a block is laid out
candidates x queries and scored by one BLAS product of augmented rows:
the candidate rows ``[2x, 1, -|x|^2]`` times the query columns ``[q, h^2 -
|q|^2, 1]^T`` is h^2 - |q - x|^2 (ball, unwrapped torus), and ``[x, -cos
h]`` times ``[q, 1]^T`` is q.x - cos h (sphere).  The data rows are
augmented and gathered once per call (on the torus after the move) and
the query rows transposed one chunk at a time, into per-call scratch;
only the torus's dense kernel, which wraps differences, scores
elementwise.  Counts and value sums come from one more product, the
``(2, candidates)`` rows ``[values, 1]`` times the chunk's indicator, so
every product runs along the chunk's long side, its queries.  The grid
path writes every chunk's ``[sums, counts]`` into the columns of one
``(2, queries)`` array in cell order and scatters it back once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import SpaceMismatchError, check_count
from .randomness import polar_gaussian

_MEMBERSHIP_TOL = 1e-12
# entries of the (candidates, queries) score matrix of one chunk of query
# rows, and of the chunk's augmented query columns (one query when the
# data, or the augmented row, alone are wider).  neighbor_stats allocates
# that scratch once per call, a line for the scores and one for the
# augmented query columns or, in the torus's dense kernel, two for its
# differences and their rounding, and every chunk writes into it: fresh
# 512 KB temporaries per chunk were handed back to the OS by glibc and
# faulted in again, 445 minor faults and 1.2 ms per torus chunk against
# 0.34 ms in reused buffers.  At 512 KB a chunk stays in one core's L2
# cache, and its two BLAS products (the score, [2x, 1, -|x|^2] times
# [q, h^2 - |q|^2, 1]^T or [x, -cos h] times [q, 1]^T, K = d + 2 or d + 1
# multiply-adds, and [values, 1]^T times the indicator, 2 x candidates)
# are too small for OpenBLAS to split over threads, so the kernel runs on
# the calling thread.  Both run along the chunk's long side, its queries:
# laid out queries x candidates, the same products of a 1,310-query x
# 50-point dense chunk took 121 against 85 us on a 2-core x86-64 host
# (OpenBLAS 0.3.31), and of a 675 x 30 cell block 48 against 34 us.  32 MB chunks
# went through OpenBLAS's thread team: on a 2-core x86-64 host (OpenBLAS
# 0.3.31) they ran 10-30 % slower for up to 65 % more CPU, their call
# times swung with any other load on the machine, and under a process
# pool each worker's team fought the other worker for the cores.
CHUNK_ELEMENTS = 65_536


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

    def contains_rows(self, coords: np.ndarray) -> np.ndarray:
        """Membership of each row of ``coords``; NaN or inf rows lie outside.

        An array of more than two axes raises :class:`SpaceMismatchError`
        (see :func:`_row_array`).
        """
        c = _row_array(self, coords)
        if c.shape[1] != self.ambient_dim:
            return np.zeros(c.shape[0], dtype=bool)
        if self.kind is SpaceKind.UNIT_BALL3:
            return np.linalg.norm(c, axis=1) <= 1.0 + _MEMBERSHIP_TOL
        if self.kind is SpaceKind.UNIT_SPHERE2:
            return np.abs(np.linalg.norm(c, axis=1) - 1.0) <= _MEMBERSHIP_TOL
        return np.all((c >= 0.0) & (c < 1.0), axis=1)

    def __str__(self) -> str:
        if self.kind is SpaceKind.TORUS:
            return f"torus{self.intrinsic_dim}"
        return self.kind.value


def unit_ball3() -> CovariateSpace:
    return CovariateSpace(SpaceKind.UNIT_BALL3, ambient_dim=3, intrinsic_dim=3)


def unit_sphere2() -> CovariateSpace:
    return CovariateSpace(SpaceKind.UNIT_SPHERE2, ambient_dim=3, intrinsic_dim=2)


def torus(d: int) -> CovariateSpace:
    check_count(d, 1, "torus dimension must be an integer of at least 1")
    return CovariateSpace(SpaceKind.TORUS, ambient_dim=d, intrinsic_dim=d)


def _row_array(space: CovariateSpace, coords) -> np.ndarray:
    """``coords`` as a 2-D float array of rows (one row for a 1-D input).

    The one shape rule for rows of ``space``: an array of more than two
    axes raises :class:`SpaceMismatchError` naming its shape.
    """
    rows = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    if rows.ndim != 2:
        raise SpaceMismatchError(f"rows of shape {rows.shape} are not a 2-D array of rows of {space}")
    return rows


def member_rows(space: CovariateSpace, coords) -> np.ndarray:
    """``coords`` as a 2-D float array of rows that lie in ``space``.

    The one membership rule for rows that must lie in the space (a
    dataset's covariates, the base point and target of an orbit grid):
    an array of more than two axes, or the first row that has the wrong
    width, a NaN or infinite entry, or lies outside the space (see
    :meth:`CovariateSpace.contains_rows`), raises
    :class:`SpaceMismatchError` naming it.
    """
    rows = _row_array(space, coords)
    bad = np.flatnonzero(~space.contains_rows(rows))
    if bad.size:
        raise SpaceMismatchError(f"row {bad[0]} ({rows[bad[0]]}) does not lie in {space}")
    return rows


def query_rows(space: CovariateSpace, coords) -> np.ndarray:
    """``coords`` as a 2-D float array of query rows for ``space``.

    Raises :class:`SpaceMismatchError` naming the shape of an array of
    more than two axes, or the first row that has the wrong width or a
    NaN or infinite entry, or, on the sphere, whose norm
    is off 1 by more than the membership tolerance: the neighbour kernel
    thresholds ``q.x > cos h``, which is the geodesic ball only for ``q``
    on the sphere.  Ball and torus membership is not checked: a ball query
    outside the ball has well-defined neighbours, and a torus query off
    [0, 1) is reduced exactly by :func:`neighbor_stats`.
    """
    rows = _row_array(space, coords)
    if rows.shape[1] != space.ambient_dim:
        raise SpaceMismatchError(f"query row 0 has width {rows.shape[1]}, "
                                 f"but {space} needs {space.ambient_dim}")
    # one test of the whole array; the first bad row is looked for only
    # when it fails (0.25 against 4.6 ms on 244,800 rows of the ball, best
    # of 30 on a 2-core x86-64 host)
    if not np.isfinite(rows).all():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        raise SpaceMismatchError(f"query row {bad} ({rows[bad]}) is not finite")
    if space.kind is SpaceKind.UNIT_SPHERE2:
        bad = np.flatnonzero(~space.contains_rows(rows))
        if bad.size:
            raise SpaceMismatchError(f"query row {bad[0]} ({rows[bad[0]]}) has norm "
                                     f"{float(np.linalg.norm(rows[bad[0]]))!r}, not 1: "
                                     f"it does not lie on {space}")
    return rows


def pairwise_distance(space: CovariateSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix between row-stacked coordinate arrays ``a`` and ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if space.kind is SpaceKind.UNIT_SPHERE2:
        # half-chord form: well conditioned near zero, exact for equal points
        chord = flat_distance_matrix(a, b)
        return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    if space.kind is SpaceKind.TORUS:
        return flat_distance_matrix(wrap_rows(a), wrap_rows(b), wrap=True)
    return flat_distance_matrix(a, b)


def flat_distance_matrix(a: np.ndarray, b: np.ndarray, wrap: bool = False) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``; with
    ``wrap``, between rows in [0, 1) around each unit axis (the torus
    metric)."""
    # direct difference form: no cancellation, exact zeros for equal points
    diff = a[:, None, :] - b[None, :, :]
    if wrap:
        # |d - rint(d)| is min(|d|, 1 - |d|) bit for bit when |d| < 1 (Sterbenz)
        diff -= np.rint(diff)
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def wrap_rows(coords: np.ndarray) -> np.ndarray:
    """Torus coordinates reduced into [0, 1), bit for bit ``np.mod(coords,
    1.0)`` except that the 1.0 it rounds a tiny negative up to becomes 0.
    Coordinates already in [0, 1) (-0.0 included) are returned as they
    are, the same array, after a min/max check: on 60,000 x 2 rows (2-core
    x86-64 host) the check takes 0.04 ms and ``np.mod`` 1.3 ms; on rows
    off [0, 1), ``x - floor(x)`` takes 0.6 ms and ``np.mod`` 2.1 ms."""
    if coords.size == 0 or (coords.min() >= 0.0 and coords.max() < 1.0):
        return coords
    # x - floor(x) rounds once, like np.mod
    wrapped = coords - np.floor(coords)
    wrapped[wrapped == 1.0] = 0.0
    return wrapped


# The neighbour grid.  Costs are in dense pair scores (2.2 ns each on the
# ball, measured on a 2-core x86-64 host with OpenBLAS).  Binning, sorting
# and gathering one query took 81 ns there, and one occupied cell's block
# 15-20 us of fixed work; the constants round these up.  Scored as one
# product of augmented rows, a dense ball pair costs 1.2 ns on that host
# (2.4 ns for the three-pass score, timed alongside; 100,000 queries
# against 300 or 1,000 points).  With the candidates gathered once per
# call and the cells binned by one clip and an int16 cast, binning,
# sorting, gathering and scattering back one query costs 34 ns (36-49 ns
# before; 244,800 queries at 12 cells per axis) and one occupied cell
# 12.5 us (14-20 us; one query and at most one data point in each of the
# 1,728 cells), best of 7 and 15 runs on that host.  The constants are
# kept: a new grid choice would reorder the value sums.
_MAX_CELLS = 12 ** 3   # grid cells at most (12 per axis in three dimensions); fits int16
_QUERY_COST = 55       # binning, sorting and gathering one query
_CELL_COST = 8_000     # setting up the block of one occupied cell
_CELL_SLACK = 1e-6     # relative margin of the cell side over the reach, for rounding
# volume of the ball, area of the sphere, volume of the torus
_MEASURE = {SpaceKind.UNIT_BALL3: 4.0 * math.pi / 3.0, SpaceKind.UNIT_SPHERE2: 4.0 * math.pi,
            SpaceKind.TORUS: 1.0}


def _augmented(metric: SpaceKind, rows: np.ndarray, h: float) -> np.ndarray:
    """Candidate rows ``x`` as the right factor of the one-product score:
    ``[2x, 1, -|x|^2]`` on the ball and the unwrapped torus, against query
    rows ``[q, h^2 - |q|^2, 1]`` (h^2 - |q - x|^2), and ``[x, -cos h]`` on
    the sphere, against ``[q, 1]`` (the cosine margin q.x - cos h; past pi
    every point is a neighbour, and -cos h becomes 2)."""
    if metric is SpaceKind.UNIT_SPHERE2:
        return np.column_stack([rows, np.full(rows.shape[0], -np.cos(h) if h <= np.pi else 2.0)])
    return np.column_stack([2.0 * rows, np.ones(rows.shape[0]), -np.einsum("ij,ij->i", rows, rows)])


def _ball_score(metric: SpaceKind, queries: np.ndarray, rows: np.ndarray,
                h: float, scratch: np.ndarray) -> np.ndarray:
    """Positive entries mark strict h-neighbours: h^2 minus the squared
    distance, or the cosine margin on the sphere, so no square root is
    taken.  The score is laid out candidates x queries, one column per
    query row, and written into ``scratch[0]``.  ``metric`` is the space
    kind whose distance is scored; the unwrapped blocks of the torus's
    cell path are scored as ``UNIT_BALL3`` (flat Euclidean, any
    dimension).  On the ball and the sphere ``rows`` are augmented
    candidate rows (see :func:`_augmented`), and the score is one product
    ``rows @ left`` of them with the query rows, augmented and transposed
    into ``scratch[1]`` as the columns of ``left``; the torus's wrapped
    dense kernel takes plain rows and scores each axis elementwise, in
    ``scratch[1]`` and ``scratch[2]``."""
    q, width = queries.shape[0], rows.shape[0]
    score = scratch[0, : width * q].reshape(width, q)
    if metric is not SpaceKind.TORUS:
        d, k = queries.shape[1], rows.shape[1]
        left = scratch[1, : k * q].reshape(k, q)
        left[:d] = queries.T
        if metric is SpaceKind.UNIT_BALL3:
            np.subtract(h * h, np.einsum("ij,ij->i", queries, queries), out=left[d])
        left[-1] = 1.0
        return np.matmul(rows, left, out=score)
    diff = scratch[1, : width * q].reshape(width, q)
    rounded = scratch[2, : width * q].reshape(width, q)
    score.fill(0.0)
    for j in range(rows.shape[1]):
        # x - q is -(q - x) exactly, and rint is odd, so the squares are
        # those of the query-major q - x bit for bit
        np.subtract.outer(rows[:, j], queries[:, j], out=diff)
        # |d - rint(d)| wraps any finite difference; it equals
        # min(|d|, 1 - |d|) bit for bit when |d| < 1 (Sterbenz)
        diff -= np.rint(diff, out=rounded)
        diff *= diff
        score += diff
    return np.subtract(h * h, score, out=score)


def neighbor_stats(space: CovariateSpace, queries: np.ndarray, data: np.ndarray,
                   h: float, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-query count of, and value sum over, data in the open h-ball.

    Queries and data are binned into a uniform grid of ``m`` cells per
    axis, each at least as wide as the reach (``h``, or the chord on the
    sphere), and each query is scored only against the data in the 3^d
    cells around its own.  ``m = 1`` is the dense kernel: every query
    against all data, in the caller's order.  It is taken when binning
    would not pay (see :func:`_cells_per_axis`), for example whenever
    there are at most ``_QUERY_COST`` data points.  Each block is chunked
    over query rows so a chunk's score matrix, and its augmented query
    columns, stay within ``CHUNK_ELEMENTS`` entries (one query row when
    the block is wider), written into scratch allocated once per call.  A
    chunk is laid out candidates x queries, and its score is one BLAS
    product of the augmented candidate rows (see :func:`_augmented`) with
    the augmented query columns: the data are augmented once per call, the
    queries transposed one chunk at a time.  The indicator is formed in
    place (heaviside of the score) and both the count and the value sum
    come out of a single matrix product, the ``(2, candidates)`` weights
    ``[values, 1]`` (built once per call) times the indicator.  The grid
    path gathers every block's candidate rows and weight columns once per
    call, writes each chunk's product into the columns of one ``(2,
    queries)`` array in cell order and scatters its two rows back to the
    caller's order, with no other array as long as the queries.  Counts
    are exact; a value sum is added in the order BLAS takes, which may
    differ in the last bits from a sum in another order or another batch.

    On the torus, queries and data are first reduced into [0, 1) by
    :func:`wrap_rows` (exactly, however far off a row lies), and the grid
    path unwraps: each candidate is moved by the period its neighbour cell
    was wrapped across.  With cells at least h wide and ``m >= 3``, a pair
    within reach then has its nearest image in the block, which is scored
    with the ball's product, its candidates augmented once per call after
    the move.  Only the dense kernel wraps differences with ``rint``,
    elementwise; the cell ids are elementwise too.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if space.kind is SpaceKind.TORUS:
        queries, data = wrap_rows(queries), wrap_rows(data)
    if data.shape[0] == 0 or queries.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=np.int64), np.zeros(queries.shape[0])
    # the [values, 1] rows of the data, as the two rows of one array
    weights = np.empty((2, data.shape[0]))
    weights[0], weights[1] = values, 1.0
    m = _cells_per_axis(space, queries, data.shape[0], h)
    # unwrapped torus blocks are flat: the ball's Euclidean score
    metric = SpaceKind.UNIT_BALL3 if space.kind is SpaceKind.TORUS and m > 1 else space.kind
    # a chunk is one query row when the data, or its augmented row (d + 2
    # entries), alone are wider than CHUNK_ELEMENTS
    scratch = np.empty((3 if metric is SpaceKind.TORUS else 2,
                        max(CHUNK_ELEMENTS, data.shape[0], data.shape[1] + 2)))
    # torus rows are augmented on the cell path only, after their move
    rows = data if space.kind is SpaceKind.TORUS else _augmented(metric, data, h)
    if m == 1:
        counts = np.empty(queries.shape[0], dtype=np.int64)
        sums = np.empty(queries.shape[0])
        for start, indicator in _indicators(metric, queries, rows, h, scratch):
            agg = weights @ indicator
            sums[start : start + agg.shape[1]] = agg[0]
            counts[start : start + agg.shape[1]] = np.rint(agg[1], out=agg[1])
        return counts, sums
    order, agg = _cell_stats(space, metric, queries, data, rows, h, weights, m, scratch)
    # allocated only now, after the sorted queries and the gathered
    # candidates are dropped, so the kernel's peak holds neither pair
    counts = np.empty(queries.shape[0], dtype=np.int64)
    sums = np.empty(queries.shape[0])
    counts[order] = np.rint(agg[1], out=agg[1])
    sums[order] = agg[0]
    return counts, sums


def _cell_stats(space: CovariateSpace, metric: SpaceKind, queries: np.ndarray,
                data: np.ndarray, rows: np.ndarray, h: float, weights: np.ndarray, m: int,
                scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid path of :func:`neighbor_stats` with ``m`` cells per axis:
    the order that sorts the queries by cell, and ``[sums, counts]`` of
    the sorted queries as the two rows of one ``(2, queries)`` array, into
    whose columns every chunk's product ``weights @ indicator`` is
    written.  The sorted queries, the cell ids and the gathered candidate
    rows and weights are dropped on return, before the caller scatters
    the array back."""
    qids = _cell_ids(space, queries, m)
    order = np.argsort(qids, kind="stable")
    # rows are gathered with take, not fancy indexing: 2.4 against 5.4 ms for
    # 244,800 query rows
    sorted_queries = queries.take(order, axis=0)
    qcount = np.bincount(qids, minlength=m ** space.ambient_dim)
    occupied = np.flatnonzero(qcount)
    qend = np.cumsum(qcount[occupied])
    qstart = qend - qcount[occupied]
    cand, shift, offsets = _candidates(space, _cell_ids(space, data, m), m, occupied)
    # every block's candidate rows and [values, 1] columns, gathered once
    near = rows.take(cand, axis=0)
    if shift is not None:
        near = _augmented(metric, near + shift, h)
    near_weights = weights.take(cand, axis=1)
    agg = np.zeros((2, queries.shape[0]))
    for k in range(occupied.size):
        lo, hi = offsets[k], offsets[k + 1]
        if hi > lo:
            a = qstart[k]
            for start, indicator in _indicators(metric, sorted_queries[a : qend[k]],
                                                near[lo:hi], h, scratch):
                np.matmul(near_weights[:, lo:hi], indicator,
                          out=agg[:, a + start : a + start + indicator.shape[1]])
    return order, agg


def _indicators(metric: SpaceKind, queries: np.ndarray, rows: np.ndarray, h: float,
                scratch: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The 0/1 neighbour indicator of each chunk of query rows against one
    block of candidate rows (augmented on the ball and sphere), scored in
    ``metric`` (see :func:`_ball_score`), with the chunk's first row.  An
    indicator is laid out candidates x queries, one column per query row
    of the chunk, and written over its score in ``scratch``, so it is
    valid until the next one is drawn."""
    # max(rows.shape): the chunk's augmented query rows must fit a line too
    step = max(1, CHUNK_ELEMENTS // max(rows.shape))
    for start in range(0, queries.shape[0], step):
        score = _ball_score(metric, queries[start : start + step], rows, h, scratch)
        yield start, np.greater(score, 0.0, out=score, casting="unsafe")


def _cells_per_axis(space: CovariateSpace, queries: np.ndarray, n: int, h: float) -> int:
    """Cells per axis of the neighbour grid; 1 when binning does not pay.

    Costs are counted in dense pair scores per query.  The dense kernel
    scores all ``n`` data points.  A grid of ``m`` cells scores the data in
    the 3^k block around the query's cell (the block's share of the space's
    measure, k its intrinsic dimension), plus ``_QUERY_COST`` to bin, sort
    and gather the query and ``_CELL_COST`` per occupied cell, shared by
    the queries.  The cheapest ``m`` wins.
    """
    if n <= _QUERY_COST:
        return 1
    q, d = queries.shape
    span, reach = (1.0 if space.kind is SpaceKind.TORUS else 2.0), abs(h)
    if space.kind is SpaceKind.UNIT_SPHERE2:
        # q.x > cos h with |x| = 1 bounds |q - x|^2 by |q|^2 + 1 - 2 cos h,
        # the squared chord 4 sin^2(h/2) for a query on the sphere; past pi
        # every point is a neighbour
        reach = math.inf
        if h <= math.pi:
            reach = math.sqrt(float(np.einsum("ij,ij->i", queries, queries).max())
                              + 1.0 - 2.0 * math.cos(h))
    k = space.intrinsic_dim
    top = int(_MAX_CELLS ** (1.0 / d) + 1e-9)
    if reach * (1.0 + _CELL_SLACK) * top > span:
        top = int(span / (reach * (1.0 + _CELL_SLACK)))
    best, best_cost = 1, float(n)
    # below 3 cells per axis every cell neighbours every other one (and on
    # the torus a 2-cell axis would list one neighbour twice)
    for m in range(3, top + 1):
        cells = _MEASURE[space.kind] * (m / span) ** k
        cost = n * min(1.0, 3 ** k / cells) + _QUERY_COST + _CELL_COST * min(q, cells) / q
        if cost < best_cost:
            best, best_cost = m, cost
    return best


def _cell_ids(space: CovariateSpace, coords: np.ndarray, m: int) -> np.ndarray:
    """Row-major grid cell of each row over ``[-1, 1]^3`` on the ball and
    sphere and ``[0, 1)^d`` on the torus, whose rows arrive reduced (so
    only a row within rounding of 1 is clipped, into the last cell, next
    to the seam).  Each axis index is ``(x - low) m / span`` clipped to
    [0, m - 1] and cast to int16, which truncates it: the floor, for the
    clip leaves nothing negative, and a far-off row (1e300) is clipped
    before the cast, so it cannot overflow.  The ids are int16, for which
    numpy's stable sort is a radix sort, and summed elementwise (Horner)."""
    low, span = (0.0, 1.0) if space.kind is SpaceKind.TORUS else (-1.0, 2.0)
    scaled = coords - low
    scaled *= m / span
    axis = np.clip(scaled, 0, m - 1, out=scaled).astype(np.int16)
    ids = axis[:, 0]
    for j in range(1, coords.shape[1]):
        ids = ids * m + axis[:, j]
    return ids


def _candidates(space: CovariateSpace, dids: np.ndarray, m: int,
                cells: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Data rows (of cell ids ``dids``) in the 3^d block around each of
    ``cells``, concatenated; on the torus, the whole periods to add to each
    candidate for the neighbour cell it was listed from (None on the ball
    and sphere); and the offsets of each cell's run."""
    d = space.ambient_dim
    dorder = np.argsort(dids, kind="stable")
    dcount = np.bincount(dids, minlength=m ** d)
    dstart = np.cumsum(dcount) - dcount
    axes = np.stack(np.unravel_index(cells, (m,) * d), axis=1)
    shifts = np.stack(np.meshgrid(*[[-1, 0, 1]] * d, indexing="ij"), axis=-1).reshape(-1, d)
    around = axes[:, None, :] + shifts[None, :, :]
    if space.kind is SpaceKind.TORUS:
        wraps = np.floor_divide(around, m)
        around -= wraps * m
        valid = np.ones(around.shape[:2], dtype=bool)
    else:
        valid = np.all((around >= 0) & (around < m), axis=2)
        np.clip(around, 0, m - 1, out=around)
    neighbours = np.ravel_multi_index(tuple(np.moveaxis(around, -1, 0)), (m,) * d)
    lengths = np.where(valid, dcount[neighbours], 0).ravel()
    starts = dstart[neighbours].ravel()
    total = int(lengths.sum())
    # concatenated ranges [starts[i], starts[i] + lengths[i])
    run_start = np.cumsum(lengths) - lengths
    flat = np.arange(total) - np.repeat(run_start - starts, lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths.reshape(len(cells), -1).sum(axis=1))])
    shift = None
    if space.kind is SpaceKind.TORUS:
        shift = np.repeat(wraps.reshape(-1, d).astype(np.float64), lengths, axis=0)
    return dorder[flat], shift, offsets


def sample_points(space: CovariateSpace, distribution: PointDistribution, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. points as an (n, ambient_dim) array.

    ``UNIFORM_SPACE`` is uniform with respect to the space's volume: the
    ball radius follows ``z**(1/3)`` with z uniform on [0, 1], sphere
    directions are normalised Gaussians, and torus coordinates are
    uniform.  ``GAUSSIAN3`` is a standard Gaussian on ambient R^3 (used by
    validation oracles; not membership-checked).  A count ``n`` that is not
    an integer of at least 0 raises :class:`ConfigError`.
    """
    check_count(n, 0, "sample_points: n must be an integer of at least 0")
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
