import contextlib
import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from orbitreg import (
    BestSymmetricPredictor,
    ConfigError,
    Dataset,
    LocalConstantEstimator,
    PointDistribution,
    SpaceMismatchError,
    SymmetrySelection,
    full_so3,
    sample_points,
    substream,
    torus,
    unit_ball3,
    unit_sphere2,
)
from orbitreg import spaces
from orbitreg.spaces import SpaceKind, member_rows, neighbor_stats, pairwise_distance, query_rows

ALL_SPACES = [unit_ball3(), unit_sphere2(), torus(2), torus(3)]


class TestMembership:
    @pytest.mark.parametrize("d", [2.5, 2.0, True, 0, -1], ids=repr)
    def test_torus_dimension_must_be_a_positive_integer(self, d):
        with pytest.raises(ConfigError):
            torus(d)

    def test_ball_accepts_interior_and_boundary(self):
        rows = [[0.3, -0.2, 0.1], [1.0, 0.0, 0.0]]
        assert member_rows(unit_ball3(), rows).tolist() == rows

    def test_ball_rejects_outside(self):
        with pytest.raises(SpaceMismatchError):
            member_rows(unit_ball3(), [1.1, 0.0, 0.0])

    def test_sphere_requires_unit_norm(self):
        member_rows(unit_sphere2(), [0.0, 0.0, 1.0])
        with pytest.raises(SpaceMismatchError):
            member_rows(unit_sphere2(), [0.0, 0.0, 0.99])

    def test_torus_coordinates_in_unit_interval(self):
        member_rows(torus(2), [0.0, 0.999])
        with pytest.raises(SpaceMismatchError):
            member_rows(torus(2), [1.0, 0.5])

    @pytest.mark.parametrize("space, rows, first", [
        (unit_ball3(), [[0.1, 0.0, 0.0], [0.2, 0.0, 0.0], [5.0, 0.0, 0.0], [np.nan, 0.0, 0.0]], 2),
        (unit_ball3(), [[0.1, 0.0, 0.0], [np.inf, 0.0, 0.0]], 1),
        (unit_sphere2(), [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0 + 1e-9]], 1),
        (torus(2), [[0.5, 0.5], [0.5, np.nan], [1.0, 0.5]], 1),
        (torus(2), [[0.5, 0.5, 0.5]], 0),
    ], ids=["ball_outside", "ball_inf", "sphere_off", "torus_nan", "torus_width"])
    def test_first_row_outside_is_named(self, space, rows, first):
        with pytest.raises(SpaceMismatchError, match=f"^row {first} .* does not lie in {space}$"):
            member_rows(space, rows)

    @pytest.mark.parametrize("space, shape", [(torus(2), (4, 2, 5)), (unit_ball3(), (2, 3, 3))],
                             ids=["torus", "ball"])
    def test_arrays_of_more_than_two_axes_are_refused(self, space, shape):
        # every row of the array would pass the membership test on its own
        shape_text = re.escape(str(shape))
        with pytest.raises(SpaceMismatchError, match=f"^rows of shape {shape_text} are not a 2-D"):
            member_rows(space, np.zeros(shape))

    @pytest.mark.parametrize("check, shape", [
        (torus(2).contains_rows, (4, 2, 5)),
        (lambda rows: query_rows(torus(2), rows), (4, 2, 5)),
        (lambda rows: query_rows(torus(2), rows), (4, 5, 2)),
    ], ids=["contains_rows", "query_rows_width_axis_1", "query_rows_width_axis_2"])
    def test_membership_and_queries_refuse_more_than_two_axes(self, check, shape):
        # not a mask over the last axes, and not a row width read off the wrong axis
        shape_text = re.escape(str(shape))
        with pytest.raises(SpaceMismatchError, match=f"^rows of shape {shape_text} are not a 2-D"):
            check(np.zeros(shape))

    @pytest.mark.parametrize("entry", ["query_rows", "LocalConstantEstimator",
                                       "BestSymmetricPredictor"])
    def test_first_non_finite_row_of_a_large_array_is_named(self, entry):
        # the whole array is tested at once, the first bad row looked for after
        rows = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, 100_000,
                             substream(3, "non-finite"))
        rows[73_512, 1] = np.nan
        rows[99_999, 2] = -np.inf
        base = LocalConstantEstimator(Dataset(unit_ball3(), rows[:10], np.ones(10)), 0.3)
        check = {"query_rows": lambda r: query_rows(unit_ball3(), r),
                 "LocalConstantEstimator": base.predict_coords,
                 "BestSymmetricPredictor": BestSymmetricPredictor(
                     base, SymmetrySelection(full_so3(), 0.3, {})).predict_coords}[entry]
        message = re.escape(f"query row 73512 ({rows[73_512]}) is not finite")
        with pytest.raises(SpaceMismatchError, match=f"^{message}$"):
            check(rows)

    def test_member_rows_are_two_dimensional_float_rows(self):
        rows = member_rows(torus(3), [0, 0, 0])
        assert rows.shape == (1, 3) and rows.dtype == np.float64
        assert member_rows(torus(3), np.zeros((0, 3))).shape == (0, 3)

    def test_intrinsic_dimensions(self):
        assert unit_ball3().intrinsic_dim == 3
        assert unit_sphere2().intrinsic_dim == 2
        assert torus(4).intrinsic_dim == 4


class TestDistances:
    def test_zero_distance_to_self(self):
        for space in ALL_SPACES:
            x = sample_points(space, PointDistribution.UNIFORM_SPACE, 1, substream(0, str(space)))
            assert pairwise_distance(space, x, x)[0, 0] == 0.0

    def test_sphere_quarter_great_circle(self):
        d = pairwise_distance(unit_sphere2(), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])[0, 0]
        assert d == pytest.approx(np.pi / 2, abs=1e-12)

    def test_torus_wraps_across_the_seam(self):
        d = pairwise_distance(torus(2), [0.95, 0.5], [0.05, 0.5])[0, 0]
        assert d == pytest.approx(0.1, abs=1e-12)

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

    @pytest.mark.parametrize("n", [2.5, True, -1], ids=repr)
    @pytest.mark.parametrize("distribution", list(PointDistribution), ids=str)
    def test_count_must_be_a_non_negative_integer(self, distribution, n):
        with pytest.raises(ConfigError, match="sample_points: n"):
            sample_points(unit_ball3(), distribution, n, substream(0))

    @pytest.mark.parametrize("space", ALL_SPACES, ids=str)
    def test_zero_count_gives_an_empty_array(self, space):
        X = sample_points(space, PointDistribution.UNIFORM_SPACE, 0, substream(0))
        assert X.shape == (0, space.ambient_dim)


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
            # a sum of k terms in any order lies within about k eps sum|terms|
            # of the exact sum, whatever order the BLAS product adds them in
            bound = max(member.size, 1) * np.finfo(float).eps * np.abs(member).sum()
            assert abs(sums[i] - math.fsum(member)) <= bound

    @staticmethod
    def _reduced_brute_counts(queries, data, h):
        """Torus neighbour counts of the queries reduced with ``np.mod``
        (exact on these rows), by the wrap metric written out here."""
        diff = np.abs(np.mod(queries, 1.0)[:, None, :] - data[None, :, :])
        return (np.sqrt((np.minimum(diff, 1.0 - diff) ** 2).sum(axis=2)) < h).sum(axis=1)

    def test_far_off_torus_queries_match_brute_force(self):
        # 2^53 - x rounds away x's fraction, so a query that is not reduced
        # first is measured from the wrong place; dense kernel and grid
        data = substream(4, "far").random((2000, 2))
        queries = np.array([[2.0**53, 0.5], [2.0**40 + 0.3, 0.5], [-2.0**45, 0.2], [0.3, 0.5]])
        brute = self._reduced_brute_counts(queries, data, 0.1).tolist()
        assert np.array_equal(pairwise_distance(torus(2), queries, data),
                              pairwise_distance(torus(2), np.mod(queries, 1.0), data))
        for binning in (contextlib.nullcontext(),
                        mock.patch.multiple(spaces, _QUERY_COST=0, _CELL_COST=0)):
            with binning:
                counts, _ = neighbor_stats(torus(2), queries, data, 0.1, np.ones(2000))
            assert counts.tolist() == brute

    def test_far_off_torus_queries_predict_as_their_reductions(self):
        # at 2^40 a coordinate keeps 12 fraction bits, so np.mod is exact;
        # these queries go through the cost model's own grid
        rng = substream(4, "far-many")
        data = Dataset(torus(2), rng.random((3000, 2)), rng.normal(size=3000))
        far = 2.0**40 + rng.random((3000, 2))
        reduced = np.mod(far, 1.0)
        counts, sums = neighbor_stats(torus(2), far, data.X, 0.1, data.Y)
        reduced_counts, reduced_sums = neighbor_stats(torus(2), reduced, data.X, 0.1, data.Y)
        assert counts.tolist() == reduced_counts.tolist()
        assert sums.tolist() == reduced_sums.tolist()
        assert counts.tolist() == self._reduced_brute_counts(far, data.X, 0.1).tolist()
        estimator = LocalConstantEstimator(data, 0.1)
        assert (estimator.predict_coords(far).tolist()
                == estimator.predict_coords(reduced).tolist())

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
            indicators = spaces._indicators
            with mock.patch.multiple(spaces, _cells_per_axis=lambda *args: cells,
                                     _indicators=lambda *args: calls.append(args[0])
                                     or indicators(*args)):
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
        indicators = spaces._indicators
        monkeypatch.setattr(spaces, "_indicators", lambda space, q, d, *rest: widths.append(
            len(d)) or indicators(space, q, d, *rest))
        counts, sums = neighbor_stats(space, queries, data, 0.2, values)
        brute = pairwise_distance(space, queries, data) < 0.2
        assert counts.tolist() == brute.sum(axis=1).tolist()
        assert sums.tolist() == (brute @ values).tolist()
        if cells:
            assert len(set(widths)) > 1
        else:
            assert widths == [n]
            assert n > chunk or 41 % (chunk // n) != 0

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("space, h", [(unit_ball3(), 0.5), (unit_sphere2(), 0.3),
                                          (unit_sphere2(), math.pi), (unit_sphere2(), 3.5),
                                          (torus(3), 0.2)], ids=str)
    @pytest.mark.parametrize("n", [3, 60])
    @pytest.mark.parametrize("cells", [False, True], ids=["dense", "cells"])
    def test_augmented_rows_match_brute_force(self, chunk, space, h, n, cells, monkeypatch):
        # three data points make blocks narrower than their augmented rows
        # (five columns on the ball and torus(3), four on the sphere), so a
        # chunk's rows are bounded by those columns; past pi on the sphere
        # every point is a neighbour; torus(3) cells are unwrapped blocks
        rng = substream(8, "augmented", str(space), h, n)
        data = sample_points(space, PointDistribution.UNIFORM_SPACE, n, rng)
        queries = _queries(space, rng, 41, 1.3)
        values = np.round(8.0 * rng.normal(size=n)) / 8.0  # exact sums in any order
        monkeypatch.setattr(spaces, "CHUNK_ELEMENTS", chunk)
        if cells:
            monkeypatch.setattr(spaces, "_QUERY_COST", 0)
            monkeypatch.setattr(spaces, "_CELL_COST", 0)
        counts, sums = neighbor_stats(space, queries, data, h, values)
        brute = pairwise_distance(space, queries, data) < h
        assert counts.tolist() == brute.sum(axis=1).tolist()
        assert sums.tolist() == (brute @ values).tolist()
        if h > math.pi:
            assert counts.tolist() == [n] * 41

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


class TestKernelMemory:
    """Peak traced memory of one neighbour search, against the queries' size.

    Query rows are augmented one chunk at a time, into scratch that each
    call allocates once: the kernel reads 2.35 (cell path) and 0.79 (dense
    path) times ``queries.nbytes``, where an (n_queries, d + 2) array of
    augmented queries would read about 4.6 and 3.1.  The cell path writes
    its ``[sums, counts]`` into one array in cell order and allocates the
    returned counts and sums only after its sorted queries are dropped
    (2.96 when both pairs were held at once).  Each bound sits about 15 %
    above a reading.
    """

    @pytest.mark.parametrize("label, q, n, h, bound", [("cells", 240_000, 300, 0.24, 2.7),
                                                       ("dense", 400_000, 25, 0.3, 0.85)])
    def test_peak_traced_memory(self, label, q, n, h, bound):
        rng = substream(5, "memory", label)
        queries = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, q, rng)
        data = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, n, rng)
        values = rng.normal(size=n)
        assert (spaces._cells_per_axis(unit_ball3(), queries, n, h) > 1) == (label == "cells")
        tracemalloc.start()
        try:
            neighbor_stats(unit_ball3(), queries, data, h, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * queries.nbytes


class TestCellIds:
    """Grid cells against an int64 reference, ``(a0 * m + a1) * m + a2``."""

    @staticmethod
    def _reference(space, coords, m):
        ids = np.zeros(len(coords), dtype=np.int64)
        for j in range(coords.shape[1]):
            if space.kind is SpaceKind.TORUS:
                axis = [min(math.floor(x * float(m)), m - 1) for x in coords[:, j]]
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
            # rows reduced into [0, 1), as neighbor_stats passes them: cell
            # edges k / m, the seam (0.0, -0.0, the largest doubles below
            # 1.0) and the reduction of a tiny negative coordinate
            edges = np.array([0.0, -0.0, np.nextafter(1.0, 0.0), 1.0 - 2.0**-52,
                              spaces.wrap_rows(np.array([-1e-17]))[0], *(np.arange(m) / m)])
            coords = np.vstack([rng.random((200, d)), rng.choice(edges, (200, d))])
            assert space.contains_rows(coords).all()
        else:
            # the clip edges -1 and 1, points beyond them, and cell edges
            edges = np.array([-1.0, 1.0, -1.6, 1.6, np.nextafter(1.0, 2.0),
                              np.nextafter(-1.0, -2.0), *(-1.0 + 2.0 * np.arange(m) / m)])
            coords = np.vstack([rng.uniform(-1.0, 1.0, (200, d)), rng.choice(edges, (200, d))])
        ids = spaces._cell_ids(space, coords, m)
        assert ids.dtype == np.int16
        assert ids.tolist() == self._reference(space, coords, m).tolist()
        assert ids.min() >= 0 and ids.max() < m ** d

    @pytest.mark.parametrize("m", [3, 7, 12])
    def test_far_off_ball_rows_bin_to_the_edge_cells(self, m):
        # the clip comes before the int16 cast: nothing overflows or warns
        far = [1e6, -1e6, 1e300, -1e300]
        coords = np.array(list(itertools.product(far, repeat=3)))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            ids = spaces._cell_ids(unit_ball3(), coords, m)
        edge = np.where(coords > 0.0, m - 1, 0)
        assert ids.dtype == np.int16
        assert ids.tolist() == ((edge[:, 0] * m + edge[:, 1]) * m + edge[:, 2]).tolist()
        assert ids.tolist() == self._reference(unit_ball3(), coords, m).tolist()


class TestWrapRows:
    """The torus's one coordinate reduction against ``np.mod``."""

    def test_matches_mod_except_at_one(self):
        rng = substream(9, "wrap")
        tiny = np.array([-1e-17, -2.0**-60, -5e-324, -0.0, 0.0, 2.0**-60])
        rows = np.concatenate([rng.uniform(-3.0, 3.0, 4000), tiny, -tiny + 1.0,
                               2.0**60 * rng.uniform(-1.0, 1.0, 100), [2.0**60, -(2.0**60)],
                               2.0**40 + rng.random(100), -(2.0**45) + rng.random(100)])
        rows = rows.reshape(-1, 2)
        wrapped = spaces.wrap_rows(rows)
        expected = np.mod(rows, 1.0)
        expected[expected == 1.0] = 0.0
        assert np.array_equal(wrapped, expected)
        assert wrapped.min() >= 0.0 and wrapped.max() < 1.0

    def test_reduced_rows_come_back_as_they_are(self):
        rows = substream(9, "wrap-in").random((50, 3))
        rows[0] = [0.0, -0.0, np.nextafter(1.0, 0.0)]
        assert spaces.wrap_rows(rows) is rows
        assert spaces.wrap_rows(np.empty((0, 2))).shape == (0, 2)
