import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from orbitreg import (
    Point,
    PointDistribution,
    SpaceMismatchError,
    sample_points,
    space_distance,
    substream,
    torus,
    unit_ball3,
    unit_sphere2,
)
from orbitreg import spaces
from orbitreg.spaces import SpaceKind, neighbor_stats, pairwise_distance

ALL_SPACES = [unit_ball3(), unit_sphere2(), torus(2), torus(3)]


class TestMembership:
    def test_ball_accepts_interior_and_boundary(self):
        Point.of(unit_ball3(), [0.3, -0.2, 0.1])
        Point.of(unit_ball3(), [1.0, 0.0, 0.0])

    def test_ball_rejects_outside(self):
        with pytest.raises(SpaceMismatchError):
            Point.of(unit_ball3(), [1.1, 0.0, 0.0])

    def test_sphere_requires_unit_norm(self):
        Point.of(unit_sphere2(), [0.0, 0.0, 1.0])
        with pytest.raises(SpaceMismatchError):
            Point.of(unit_sphere2(), [0.0, 0.0, 0.99])

    def test_torus_coordinates_in_unit_interval(self):
        Point.of(torus(2), [0.0, 0.999])
        with pytest.raises(SpaceMismatchError):
            Point.of(torus(2), [1.0, 0.5])

    def test_intrinsic_dimensions(self):
        assert unit_ball3().intrinsic_dim == 3
        assert unit_sphere2().intrinsic_dim == 2
        assert torus(4).intrinsic_dim == 4


class TestDistances:
    def test_zero_distance_to_self(self):
        for space in ALL_SPACES:
            x = Point.of(space, sample_points(space, PointDistribution.UNIFORM_SPACE, 1,
                                              substream(0, str(space)))[0])
            assert space_distance(x, x) == 0.0

    def test_sphere_quarter_great_circle(self):
        sphere = unit_sphere2()
        x = Point.of(sphere, [1.0, 0.0, 0.0])
        y = Point.of(sphere, [0.0, 1.0, 0.0])
        assert space_distance(x, y) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_torus_wraps_across_the_seam(self):
        t2 = torus(2)
        x = Point.of(t2, [0.95, 0.5])
        y = Point.of(t2, [0.05, 0.5])
        assert space_distance(x, y) == pytest.approx(0.1, abs=1e-12)

    def test_space_mismatch_raises(self):
        with pytest.raises(SpaceMismatchError):
            space_distance(Point.of(unit_ball3(), [0, 0, 0]), Point.of(torus(3), [0, 0, 0]))

    @pytest.mark.parametrize("space", ALL_SPACES, ids=str)
    def test_metric_axioms_sampled(self, space):
        rng = substream(7, "metric", str(space))
        pts = sample_points(space, PointDistribution.UNIFORM_SPACE, 60, rng)
        d = pairwise_distance(space, pts, pts)
        assert np.allclose(d, d.T, atol=1e-12)
        assert np.all(np.diag(d) <= 1e-12)
        # triangle inequality over all index triples
        lhs = d[:, None, :]
        rhs = d[:, :, None] + d[None, :, :]
        assert np.all(lhs <= rhs + 1e-10)


class TestSamplers:
    def test_uniform_ball_radius_law(self):
        # |X| is distributed as z**(1/3); E|X|^-2 = 3 follows from it.
        rng = substream(11, "ball")
        X = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, 200_000, rng)
        values = 1.0 / np.sum(X * X, axis=1)
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - 3.0) <= max(3 * se, 0.05)

    def test_gaussian3_inverse_norm_moment(self):
        rng = substream(11, "gauss")
        X = sample_points(unit_ball3(), PointDistribution.GAUSSIAN3, 200_000, rng)
        values = 1.0 / np.sum(X * X, axis=1)
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - 1.0) <= max(3 * se, 0.02)

    def test_uniform_sphere_coordinates_center_at_zero(self):
        rng = substream(11, "sphere")
        X = sample_points(unit_sphere2(), PointDistribution.UNIFORM_SPACE, 100_000, rng)
        assert np.all(np.abs(np.linalg.norm(X, axis=1) - 1.0) < 1e-12)
        assert np.all(np.abs(X.mean(axis=0)) < 0.01)

    def test_torus_uniform_in_unit_square(self):
        rng = substream(11, "torus")
        X = sample_points(torus(2), PointDistribution.UNIFORM_SPACE, 50_000, rng)
        assert X.min() >= 0.0 and X.max() < 1.0
        assert np.all(np.abs(X.mean(axis=0) - 0.5) < 0.01)

    def test_gaussian3_rejected_off_r3(self):
        with pytest.raises(SpaceMismatchError):
            sample_points(torus(2), PointDistribution.GAUSSIAN3, 10, substream(0))


def stats_membership(space, queries, data, h):
    """Membership matrix read back from ``neighbor_stats``: the values are
    distinct powers of two, so each query's sum names its members."""
    values = 2.0 ** np.arange(len(data))
    counts, sums = neighbor_stats(space, queries, data, h, values)
    members = (sums.astype(np.int64)[:, None] >> np.arange(len(data))) & 1 == 1
    assert counts.tolist() == members.sum(axis=1).tolist()
    return members.tolist()


def brute_membership(space, queries, data, h):
    return (pairwise_distance(space, queries, data) < h).tolist()


class TestNeighborQueries:
    def test_strict_inequality_at_the_boundary(self):
        space = unit_ball3()
        queries = np.array([[0.0, 0.0, 0.0]])
        data = np.array([[0.25, 0.0, 0.0], [0.2499, 0.0, 0.0]])
        assert stats_membership(space, queries, data, 0.25) == [[False, True]]
        assert brute_membership(space, queries, data, 0.25) == [[False, True]]

    def test_torus_seam_at_exactly_h_is_out(self):
        # dyadic coordinates: the wrapped distance from 0.125 to 0.875 is
        # exactly 0.25 = h, so that point is outside the open ball
        queries = np.array([[0.125, 0.5], [0.875, 0.5]])
        data = np.array([[0.875, 0.5], [0.125, 0.5], [0.880, 0.5]])
        expected = [[False, True, True], [True, False, True]]
        assert stats_membership(torus(2), queries, data, 0.25) == expected
        assert brute_membership(torus(2), queries, data, 0.25) == expected

    @pytest.mark.parametrize("space", ALL_SPACES, ids=str)
    def test_stats_match_brute_force(self, space):
        rng = substream(3, "stats", str(space))
        queries = sample_points(space, PointDistribution.UNIFORM_SPACE, 40, rng)
        data = sample_points(space, PointDistribution.UNIFORM_SPACE, 70, rng)
        values = rng.random(70)
        h = 0.3
        counts, sums = neighbor_stats(space, queries, data, h, values)
        dist = pairwise_distance(space, queries, data)
        brute = dist < h
        assert np.array_equal(counts, brute.sum(axis=1))
        assert np.allclose(sums, brute @ values, atol=1e-12)

    def test_sphere_mask_uses_geodesic(self):
        sphere = unit_sphere2()
        q = np.array([[1.0, 0.0, 0.0]])
        # chord 2 sin(0.4/2) < 0.4 but the geodesic distance is exactly 0.4
        data = np.array([[np.cos(0.4), np.sin(0.4), 0.0],
                         [np.cos(0.39), np.sin(0.39), 0.0]])
        assert stats_membership(sphere, q, data, 0.4) == [[False, True]]
        # the arcsin form of the brute-force distance rounds the first point
        # to 1 ulp below 0.4, so it cannot judge that probe; these two
        # boundaries are exact in both forms
        right_angle = np.array([[0.0, 1.0, 0.0], [np.cos(1.5), np.sin(1.5), 0.0]])
        assert stats_membership(sphere, q, right_angle, np.pi / 2) == [[False, True]]
        assert brute_membership(sphere, q, right_angle, np.pi / 2) == [[False, True]]
        antipode = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert stats_membership(sphere, q, antipode, np.pi) == [[False, True]]
        assert brute_membership(sphere, q, antipode, np.pi) == [[False, True]]


def _dyadic_probes(space, rng, k):
    """``k`` points on the 1/16 lattice, where squared distances are exact."""
    if space.kind is SpaceKind.TORUS:
        return rng.integers(0, 16, (k, space.ambient_dim)) / 16.0
    pts = rng.integers(-16, 17, (4 * k, 3)) / 16.0
    return pts[np.einsum("ij,ij->i", pts, pts) <= 1.0][:k]


def _queries(space, rng, count, spread):
    """Queries of the space, with the ball's scaled up to ``spread`` (so some
    lie outside it) and the torus's shifted by whole periods off [0, 1)."""
    pts = sample_points(space, PointDistribution.UNIFORM_SPACE, count, rng)
    if space.kind is SpaceKind.UNIT_BALL3:
        return pts * spread
    if space.kind is SpaceKind.TORUS:
        pts = pts + rng.integers(-3, 4, pts.shape) * (rng.random(pts.shape) < 0.3)
        # a query exactly on the seam: the wrap of a tiny negative coordinate
        pts[0, 0] = np.mod(-1e-17, 1.0)
    return pts


class TestNeighborStatsProperty:
    """Differential property test of the neighbour kernel against brute force.

    ``cells`` zeroes the binning costs, so the kernel takes the finest grid
    its reach allows even on small inputs; otherwise the cost model picks,
    which on these sizes is mostly the dense ``m = 1``.
    """

    @settings(max_examples=100, deadline=None)
    @given(space=st.sampled_from(ALL_SPACES), n=st.integers(0, 1500),
           h=st.one_of(st.floats(0.02, 1.2), st.sampled_from([0.125, 0.25, 0.5])),
           cells=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_counts_exact_and_sums_close(self, space, n, h, cells, seed):
        rng = np.random.default_rng(seed)
        sphere = space.kind is SpaceKind.UNIT_SPHERE2
        probes = 0 if sphere else n // 10
        data = np.vstack([sample_points(space, PointDistribution.UNIFORM_SPACE, n - probes, rng),
                          _dyadic_probes(space, rng, probes)])
        queries = np.vstack([_queries(space, rng, 150, 1.6),
                             _dyadic_probes(space, rng, 0 if sphere else 50)])
        values = rng.normal(size=len(data))
        binning = (mock.patch.multiple(spaces, _QUERY_COST=0, _CELL_COST=0) if cells
                   else contextlib.nullcontext())
        with binning:
            note(f"cells per axis: {spaces._cells_per_axis(space, queries, len(data), h)}")
            counts, sums = neighbor_stats(space, queries, data, h, values)
        dist = pairwise_distance(space, queries, data)
        # the arcsin form of the sphere's brute-force distance may round an
        # exact-h pair 1 ulp low, so pairs that close to h are not judged
        tol = 1e-12 if sphere else 0.0
        inside, unsure = dist < h - tol, np.abs(dist - h) <= tol
        assert np.all(counts >= inside.sum(axis=1))
        assert np.all(counts <= (inside | unsure).sum(axis=1))
        for i in np.flatnonzero(~unsure.any(axis=1)):
            member = values[inside[i]]
            assert counts[i] == member.size
            assert abs(sums[i] - math.fsum(member)) <= 1e-12 * np.abs(member).sum()

    def test_far_off_torus_queries_match_brute_force(self):
        # 2^53 - x rounds away x's fraction, so the float distance is not
        # the distance to 2^53 mod 1 = 0 that a grid cell would be read from
        data = substream(4, "far").random((2000, 2))
        queries = np.array([[2.0**53, 0.5], [2.0**40 + 0.3, 0.5], [-2.0**45, 0.2], [0.3, 0.5]])
        with mock.patch.multiple(spaces, _QUERY_COST=0, _CELL_COST=0):
            counts, _ = neighbor_stats(torus(2), queries, data, 0.1, np.ones(2000))
        brute = (pairwise_distance(torus(2), queries, data) < 0.1).sum(axis=1)
        assert counts.tolist() == brute.tolist()

    @pytest.mark.parametrize("space", ALL_SPACES, ids=str)
    def test_cost_model_bins_many_queries_against_much_data(self, space):
        # the property test reaches the grid mostly through zeroed costs;
        # at benchmark sizes the real cost model bins too
        queries = sample_points(space, PointDistribution.UNIFORM_SPACE, 400_000, substream(2))
        assert spaces._cells_per_axis(space, queries, 1000, 0.15) > 1
        assert spaces._cells_per_axis(space, queries[:200], 1000, 0.15) == 1
        assert spaces._cells_per_axis(space, queries, 50, 0.15) == 1


# for m cells per axis, a dyadic reach of at most 1/m
_UNWRAP_REACH = {3: 0.25, 5: 0.1875, 6: 0.15625, 7: 0.125}


class TestUnwrappedTorus:
    """The torus's cell path, which scores unwrapped rows with the ball's form.

    Each case forces ``m`` cells per axis (any ``m`` whose cells are at
    least h wide, including 3, where every cell neighbours every other and
    the cost model never bins).  Coordinates lie on the 1/64 lattice and
    values on the 1/8 lattice, so the ball's form and the sums are exact:
    counts must equal brute force and sums the dense kernel's, bit for bit.
    """

    @staticmethod
    def _check(queries, data, h, m):
        d = queries.shape[1]
        assert m >= 3 and m * h * (1.0 + spaces._CELL_SLACK) <= 1.0
        rng = substream(10, "unwrap", m, len(data))
        values = np.round(8.0 * rng.normal(size=len(data))) / 8.0
        results = {}
        for cells in (m, 1):
            calls = []
            block_stats = spaces._block_stats
            with mock.patch.multiple(spaces, _cells_per_axis=lambda *args: cells,
                                     _block_stats=lambda *args: calls.append(args[0])
                                     or block_stats(*args)):
                results[cells] = neighbor_stats(torus(d), queries, data, h, values)
            # the cell path scores flat blocks, the dense kernel wraps
            assert set(calls) == {SpaceKind.UNIT_BALL3 if cells > 1 else SpaceKind.TORUS}
        (counts, sums), (_, dense_sums) = results[m], results[1]
        brute = pairwise_distance(torus(d), queries, data) < h
        assert counts.tolist() == brute.sum(axis=1).tolist()
        assert sums.tolist() == dense_sums.tolist()

    @pytest.mark.parametrize("m", [3, 5, 6, 7])
    def test_pairs_exactly_h_apart_across_the_seam(self, m):
        h = _UNWRAP_REACH[m]
        eps = 1.0 / 64.0
        queries, data = [], []
        for q0 in (0.0, eps, 1.0 / 16.0, 1.0 - eps, 1.0 - 1.0 / 16.0):
            for axis in (0, 1):
                q = np.array([0.5, 0.5])
                q[axis] = q0
                queries.append(q)
                for t in (-h, -h + eps, h - eps, h):
                    x = q.copy()
                    x[axis] = (q0 + t) % 1.0
                    data.append(x)
        # the 3-4-5 pair (3/32, 4/32) is 5/32 apart, across both seams
        queries.append([1.0 / 64.0, 1.0 / 32.0])
        data.append([1.0 - 5.0 / 64.0, 1.0 - 3.0 / 32.0])
        queries, data = np.array(queries), np.array(data)
        assert (pairwise_distance(torus(2), queries, data) == h).any()
        self._check(queries, data, h, m)

    @pytest.mark.parametrize("m", [3, 5, 7])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_shifted_by_whole_periods(self, d, m):
        rng = substream(10, "periods", d, m)
        queries = rng.integers(0, 64, (300, d)) / 64.0
        data = rng.integers(0, 64, (200, d)) / 64.0
        queries += rng.choice([-3, -1, 0, 1, 3], queries.shape)
        data += rng.choice([-3, -1, 0, 1, 3], data.shape)
        self._check(queries, data, _UNWRAP_REACH[m], m)

    @pytest.mark.parametrize("m", [3, 5, 6, 7])
    def test_row_just_below_one(self, m):
        # the largest double below 1: x m lands next to m (for these m the
        # double just below it), so the row sits at the seam edge of the
        # last cell, 2^-53 from the rows at 0 across the seam; its cell and
        # its period come from the same floor(x m)
        top = 1.0 - 2.0**-53
        lattice = np.array([0.0, 1.0 / 64.0, 0.5, 1.0 - 1.0 / 64.0])
        rows = np.array([[a, b] for a in [top, *lattice] for b in [top, *lattice]])
        self._check(rows, rows, _UNWRAP_REACH[m], m)

    @pytest.mark.parametrize("d", [2, 3])
    def test_three_cells_all_neighbours(self, d):
        # at m = 3 every cell is in every other cell's 3^d block, through
        # wraps of -1, 0 and +1 periods
        rng = substream(10, "three", d)
        queries = rng.integers(0, 64, (400, d)) / 64.0
        data = rng.integers(0, 64, (300, d)) / 64.0
        self._check(queries, data, 0.25, 3)


class TestChunkShapes:
    """Counts through every chunk shape of the kernel against brute force.

    A patched ``CHUNK_ELEMENTS`` of 1 or 7 makes every block wider than a
    chunk (one query row per chunk); at 100, the 23 data points give
    chunks of 4 rows, so the 41 queries end in a ragged chunk of one.  The
    cell path (binning costs zeroed) scores blocks of different widths in
    one call, all through the same scratch.
    """

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("space", [unit_ball3(), unit_sphere2(), torus(2)], ids=str)
    @pytest.mark.parametrize("n", [23, 150])
    @pytest.mark.parametrize("cells", [False, True], ids=["dense", "cells"])
    def test_counts_match_brute_force(self, chunk, space, n, cells, monkeypatch):
        rng = substream(8, "chunks", str(space), n)
        data = sample_points(space, PointDistribution.UNIFORM_SPACE, n, rng)
        queries = sample_points(space, PointDistribution.UNIFORM_SPACE, 41, rng)
        values = np.round(8.0 * rng.normal(size=n)) / 8.0  # exact sums in any order
        monkeypatch.setattr(spaces, "CHUNK_ELEMENTS", chunk)
        if cells:
            monkeypatch.setattr(spaces, "_QUERY_COST", 0)
            monkeypatch.setattr(spaces, "_CELL_COST", 0)
        widths = []
        block_stats = spaces._block_stats
        monkeypatch.setattr(spaces, "_block_stats", lambda space, q, d, *rest: widths.append(
            len(d)) or block_stats(space, q, d, *rest))
        counts, sums = neighbor_stats(space, queries, data, 0.2, values)
        brute = pairwise_distance(space, queries, data) < 0.2
        assert counts.tolist() == brute.sum(axis=1).tolist()
        assert sums.tolist() == (brute @ values).tolist()
        if cells:
            assert len(set(widths)) > 1
        else:
            assert widths == [n]
            assert n > chunk or 41 % (chunk // n) != 0

    def test_torus_data_wider_than_a_chunk(self):
        # 70,000 data points at h = 0.4 stay on the dense path (a 2-cell
        # axis cannot bin), so each chunk is one query row of 70,000 scores
        rng = substream(8, "wide")
        data = rng.random((70_000, 2))
        queries = np.vstack([rng.random((4, 2)), [[np.mod(-1e-17, 1.0), 0.5]]])
        assert spaces._cells_per_axis(torus(2), queries, len(data), 0.4) == 1
        assert len(data) > spaces.CHUNK_ELEMENTS
        counts, sums = neighbor_stats(torus(2), queries, data, 0.4, np.ones(len(data)))
        brute = (pairwise_distance(torus(2), queries, data) < 0.4).sum(axis=1)
        assert counts.tolist() == brute.tolist()
        assert sums.tolist() == brute.tolist()


class TestCellIds:
    """Grid cells against an int64 reference, ``(a0 * m + a1) * m + a2``."""

    @staticmethod
    def _reference(space, coords, m):
        ids = np.zeros(len(coords), dtype=np.int64)
        for j in range(coords.shape[1]):
            if space.kind is SpaceKind.TORUS:
                axis = [math.floor(x * float(m)) % m for x in coords[:, j]]
            else:
                axis = [min(max(math.floor((x + 1.0) * (m / 2.0)), 0), m - 1)
                        for x in coords[:, j]]
            ids = ids * m + np.array(axis, dtype=np.int64)
        return ids

    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize("space", [unit_ball3(), torus(2), torus(3)], ids=str)
    def test_ids_match_reference(self, space, m):
        d = space.ambient_dim
        rng = substream(9, "ids", str(space), m)
        if space.kind is SpaceKind.TORUS:
            # cell edges k / m, the seam (1.0 and just below it, -0.0, a
            # negative coordinate) and whole periods off [0, 1)
            edges = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.mod(-1e-17, 1.0),
                              -0.25, 2.75, *(np.arange(m) / m)])
            coords = np.vstack([rng.random((200, d)), rng.choice(edges, (200, d))])
        else:
            # the clip edges -1 and 1, points beyond them, and cell edges
            edges = np.array([-1.0, 1.0, -1.6, 1.6, np.nextafter(1.0, 2.0),
                              np.nextafter(-1.0, -2.0), *(-1.0 + 2.0 * np.arange(m) / m)])
            coords = np.vstack([rng.uniform(-1.0, 1.0, (200, d)), rng.choice(edges, (200, d))])
        ids, rows = spaces._cell_ids(space, coords, m)
        assert ids.dtype == np.int16
        assert ids.tolist() == self._reference(space, coords, m).tolist()
        assert ids.min() >= 0 and ids.max() < m ** d
        if space.kind is SpaceKind.TORUS:
            # each row moves by the whole periods its cell axis implies
            periods = coords - rows
            assert np.array_equal(periods, np.round(periods))
            for x, p in zip(coords.ravel(), periods.ravel()):
                assert 0 <= math.floor(x * float(m)) - m * int(p) < m
        else:
            assert rows is coords
