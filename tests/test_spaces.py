import numpy as np
import pytest

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
from orbitreg.spaces import neighbor_mask, neighbor_stats, pairwise_distance

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


class TestNeighborQueries:
    def test_strict_inequality_at_the_boundary(self):
        space = unit_ball3()
        queries = np.array([[0.0, 0.0, 0.0]])
        data = np.array([[0.25, 0.0, 0.0], [0.2499, 0.0, 0.0]])
        mask = neighbor_mask(space, queries, data, h=0.25)
        assert mask.tolist() == [[False, True]]

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
        mask = neighbor_mask(sphere, q, data, h=0.4)
        assert mask.tolist() == [[False, True]]
