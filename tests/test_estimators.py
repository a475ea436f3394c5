import numpy as np
import pytest

from orbitreg import (
    BestSymmetricPredictor,
    ConfigError,
    Dataset,
    FunctionPredictor,
    LocalConstantEstimator,
    PARENT_SO3,
    PointDistribution,
    SpaceMismatchError,
    SymmetrySelection,
    bandwidth,
    build_orbit_grid,
    circle3,
    full_so3,
    sample_points,
    substream,
    torus,
    trivial_subgroup,
    unit_ball3,
    unit_sphere2,
)
from orbitreg.groups import PARENT_SO3, parent_group, quat_from_axis_angle
from orbitreg.orbit_grids import orbit_coords_batch
from orbitreg.spaces import neighbor_stats, pairwise_distance

BALL = unit_ball3()
ORIGIN = np.zeros((1, 3))


def symmetrised(base, group, h, method="grid"):
    """The base predictor symmetrised by a fixed subgroup at bandwidth ``h``."""
    return BestSymmetricPredictor(base, SymmetrySelection(group, h, {}), method)


def at(pred, x):
    """The prediction at the row ``x``, through a one-row batch."""
    return pred.predict_coords(np.asarray(x)[None, :])[0]


def one_point(X, y):
    """A data set of one row ``X`` with response ``y``."""
    return Dataset(BALL, [X], [y])


def ball_dataset(rng, n, fn, noise_sd=0.0):
    X = sample_points(BALL, PointDistribution.UNIFORM_SPACE, n, rng)
    noise = noise_sd * rng.standard_normal(n) if noise_sd else 0.0
    return Dataset(BALL, X, fn(X) + noise)


class TestLocalConstantEstimator:
    def test_empty_ball_returns_default_zero(self):
        data = one_point([0.9, 0, 0], 5.0)
        assert LocalConstantEstimator(data, 0.1).predict_coords(ORIGIN).tolist() == [0.0]

    def test_single_neighbour_returns_its_value(self):
        data = one_point([0.05, 0.0, 0.0], 2.5)
        assert LocalConstantEstimator(data, 0.1).predict_coords(ORIGIN).tolist() == [2.5]

    def test_two_neighbours_average(self):
        data = Dataset(BALL, [[0.05, 0, 0], [0, 0.05, 0], [0.9, 0, 0]], [1.0, 2.0, 50.0])
        assert LocalConstantEstimator(data, 0.1).predict_coords(ORIGIN).tolist() == [1.5]

    def test_boundary_point_excluded(self):
        data = one_point([0.25, 0.0, 0.0], 9.0)
        assert LocalConstantEstimator(data, 0.25).predict_coords(ORIGIN).tolist() == [0.0]

    def test_empty_dataset_predicts_default_everywhere(self):
        data = Dataset(BALL, np.zeros((0, 3)), np.zeros(0))
        est = LocalConstantEstimator(data, 0.3)
        assert est.predict_coords([[0.1, 0.1, 0.1]]).tolist() == [0.0]
        assert np.all(est.predict_coords(np.zeros((4, 3))) == 0.0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -0.1])
    def test_bandwidth_must_be_finite_and_positive(self, h):
        data = one_point([0.05, 0.0, 0.0], 2.5)
        with pytest.raises(ConfigError):
            LocalConstantEstimator(data, h)

    def test_strict_locality_disjoint_index_sets(self):
        # shifting the responses in the brute-force h-ball around one point
        # moves the prediction there by the shift and leaves the prediction
        # 2h away bit-for-bit unchanged
        rng = substream(0, "local")
        data = ball_dataset(rng, 400, lambda X: np.linalg.norm(X, axis=1))
        h = 0.2
        queries = np.array([[0.5, 0.0, 0.0], [0.5 - 2 * h, 0.0, 0.0]])
        before = LocalConstantEstimator(data, h).predict_coords(queries)
        for i in (0, 1):
            in_ball = pairwise_distance(BALL, queries[i : i + 1], data.X)[0] < h
            assert in_ball.any()
            shifted = Dataset(BALL, data.X, data.Y + 1000.0 * in_ball)
            after = LocalConstantEstimator(shifted, h).predict_coords(queries)
            assert after[i] == pytest.approx(before[i] + 1000.0, abs=1e-9)
            assert after[1 - i] == before[1 - i]

    def test_noiseless_bias_bounded_by_bandwidth(self):
        # f(x) = |x| is 1-Lipschitz: averaging values within distance h of x
        # keeps the prediction within h of f(x), exactly.
        rng = substream(0, "bias")
        data = ball_dataset(rng, 500, lambda X: np.linalg.norm(X, axis=1))
        h = 0.25
        est = LocalConstantEstimator(data, h)
        queries = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 200, rng)
        preds = est.predict_coords(queries)
        truth = np.linalg.norm(queries, axis=1)
        counts, _ = _counts(est, queries)
        nonempty = counts > 0
        assert np.all(np.abs(preds[nonempty] - truth[nonempty]) <= h)

    def test_batch_matches_pointwise(self):
        rng = substream(0, "bp")
        data = ball_dataset(rng, 200, lambda X: X[:, 0])
        est = LocalConstantEstimator(data, 0.3)
        queries = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 50, rng)
        batch = est.predict_coords(queries)
        single = [est.predict_coords(q[None, :])[0] for q in queries]
        assert np.allclose(batch, single, atol=1e-12)

    @pytest.mark.parametrize("space", [BALL, torus(2)], ids=str)
    @pytest.mark.parametrize("row", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]])
    def test_non_finite_query_row_raises(self, space, row):
        data = Dataset(space, np.full((1, space.ambient_dim), 0.5 / space.ambient_dim), [1.0])
        queries = np.zeros((2, space.ambient_dim))
        queries[1, :2] = row
        with pytest.raises(SpaceMismatchError, match="query row 1 "):
            LocalConstantEstimator(data, 0.3).predict_coords(queries)

    def test_off_sphere_query_row_raises(self):
        # q.x > cos h is the geodesic ball only for q on the sphere
        data = Dataset(unit_sphere2(), [[1.0, 0.0, 0.0]], [1.0])
        queries = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(SpaceMismatchError, match="query row 1 .*norm 2.0"):
            LocalConstantEstimator(data, 0.5).predict_coords(queries)

    def test_sphere_query_within_the_membership_tolerance_is_accepted(self):
        data = Dataset(unit_sphere2(), [[1.0, 0.0, 0.0]], [1.0])
        queries = np.array([[1.0 + 5e-13, 0.0, 0.0], [0.0, 1.0 - 5e-13, 0.0]])
        assert LocalConstantEstimator(data, 0.5).predict_coords(queries).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("space", [BALL, torus(2)], ids=str)
    def test_query_of_the_wrong_width_raises(self, space):
        data = Dataset(space, np.full((1, space.ambient_dim), 0.1), [1.0])
        with pytest.raises(SpaceMismatchError, match="width"):
            LocalConstantEstimator(data, 0.3).predict_coords(np.zeros((2, space.ambient_dim + 1)))


def _counts(est, queries):
    return neighbor_stats(est.space, queries, est.data.X, est.h, est.data.Y)


class TestTorusSeamNeighbours:
    """Neighbour search of the estimator on the torus, across its wrap seam."""

    def test_estimator_averages_across_the_wrap_seam(self):
        space = torus(2)
        X = np.array([[0.98, 0.5], [0.02, 0.5], [0.5, 0.5]])
        X = np.vstack([X, substream(0, "pad").random((2000, 2))])
        query = np.array([[0.999, 0.5]])
        seam_pair = np.zeros(len(X))
        seam_pair[:2] = 1.0
        counts, in_pair = neighbor_stats(space, query, X, 0.06, seam_pair)
        assert in_pair.tolist() == [2.0]
        assert counts.tolist() == [int((pairwise_distance(space, query, X) < 0.06).sum())]
        seam = Dataset(space, X[:3], np.arange(3.0))
        assert LocalConstantEstimator(seam, 0.06).predict_coords(query).tolist() == [0.5]

    def test_off_range_queries_wrap(self):
        # a torus query off [0, 1) is read modulo 1
        X = [[0.2, 0.5], [0.21, 0.5], [0.99, 0.5], [0.01, 0.5]]
        est = LocalConstantEstimator(Dataset(torus(2), X, [1.0, 3.0, 4.0, 6.0]), 0.05)
        queries = [[x1, 0.5] for x1 in (0.2, 1.2, -0.8, 3.2)]
        seam = np.mod(-1e-17, 1.0)
        assert seam == 1.0
        queries += [[seam, 0.5], [0.0, 0.5]]
        assert est.predict_coords(queries).tolist() == [2.0] * 4 + [5.0] * 2
        brute = (pairwise_distance(torus(2), queries, X) < 0.05).sum(axis=1)
        assert brute.tolist() == _counts(est, np.array(queries))[0].tolist() == [2] * 6


class TestBandwidth:
    def test_substitution_examples(self):
        assert bandwidth(1.0, 100, 1.0, 3, 2) == pytest.approx(100 ** (-1 / 3), abs=1e-12)
        assert bandwidth(1.0, 100, 1.0, 3, 0) == pytest.approx(100 ** (-1 / 5), abs=1e-12)

    def test_linear_in_a(self):
        assert bandwidth(2.0, 50, 1.0, 3, 1) == pytest.approx(2 * bandwidth(1.0, 50, 1.0, 3, 1))

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            bandwidth(0.0, 10, 1.0, 3, 0)
        with pytest.raises(ConfigError):
            bandwidth(1.0, 0, 1.0, 3, 0)
        with pytest.raises(ConfigError):
            bandwidth(1.0, 10, 1.0, 2, 5)

    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_non_finite_constant_rejected(self, a):
        with pytest.raises(ConfigError):
            bandwidth(a, 10, 1.0, 3, 0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ConfigError):
            bandwidth(1.0, 10, beta, 3, 0)

    @pytest.mark.parametrize("n", [2.5, 10.0, True])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ConfigError):
            bandwidth(1.0, n, 1.0, 3, 0)
        assert bandwidth(1.0, np.int64(10), 1.0, 3, 0) == bandwidth(1.0, 10, 1.0, 3, 0)


class TestPartialSymmetrised:
    def test_trivial_grid_returns_base_prediction(self):
        rng = substream(0, "triv")
        data = ball_dataset(rng, 100, lambda X: X[:, 0])
        est = LocalConstantEstimator(data, 0.3)
        x = np.array([0.2, 0.1, 0.0])
        grid = build_orbit_grid(BALL, trivial_subgroup(PARENT_SO3), x, est.h)
        assert np.array_equal(grid.orbit_coords, x[None, :])
        assert at(symmetrised(est, trivial_subgroup(PARENT_SO3), est.h), x) == at(est, x)

    def test_constant_predictor_unchanged(self):
        const = FunctionPredictor(BALL, lambda X: np.full(X.shape[0], 3.25))
        x = np.array([0.4, 0.1, 0.2])
        assert at(symmetrised(const, full_so3(), 0.1), x) == pytest.approx(3.25, abs=1e-12)

    def test_invariant_function_reproduced_exactly(self):
        f = FunctionPredictor(BALL, lambda X: np.cos(np.linalg.norm(X, axis=1)))
        x = np.array([0.3, -0.2, 0.5])
        assert at(symmetrised(f, full_so3(), 0.07), x) == pytest.approx(
            np.cos(np.linalg.norm(x)), abs=1e-12)

    def test_sup_norm_contraction(self):
        rng = substream(0, "contract")
        data = ball_dataset(rng, 200, lambda X: X[:, 0] * 3.0, noise_sd=0.3)
        est = LocalConstantEstimator(data, 0.25)
        X = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 40, rng)
        worst_sym = np.abs(symmetrised(est, full_so3(), est.h).predict_coords(X)).max()
        orbit_points, _ = orbit_coords_batch(BALL, full_so3(), X, est.h)
        worst_base = np.abs(est.predict_coords(orbit_points)).max()
        assert worst_sym <= worst_base + 1e-12


def f2(X):
    return np.cos(np.sqrt(X[:, 1] ** 2 + X[:, 2] ** 2))


class TestUniformSymmetrised:
    def test_trivial_group_returns_base_prediction(self):
        rng = substream(0, "mc1")
        data = ball_dataset(rng, 100, lambda X: X[:, 0])
        est = LocalConstantEstimator(data, 0.3)
        x = np.array([0.1, 0.2, 0.3])
        value = at(symmetrised(est, trivial_subgroup(PARENT_SO3), est.h, "uniform"), x)
        assert value == at(est, x)

    def test_invariant_predictor_exact(self):
        f = FunctionPredictor(BALL, lambda X: np.cos(np.linalg.norm(X, axis=1)))
        x = np.array([0.3, 0.4, -0.1])
        value = at(symmetrised(f, full_so3(), 0.1, "uniform"), x)
        assert value == pytest.approx(float(np.cos(np.linalg.norm(x))), abs=1e-12)

    def test_axis_aligned_symmetry_of_f2(self):
        f = FunctionPredictor(BALL, f2)
        x = np.array([0.2, 0.5, 0.1])
        value = at(symmetrised(f, circle3([1.0, 0.0, 0.0]), 0.1, "uniform"), x)
        assert value == pytest.approx(at(f, x), abs=1e-12)

    def test_misaligned_axis_gives_the_dense_orbit_average(self):
        # dense-quadrature oracle for the orbit average about the z axis;
        # f2's orbit values are smooth in the angle, so 24 nodes reach it
        f = FunctionPredictor(BALL, f2)
        x = np.array([0.2, 0.5, 0.1])
        angles = np.linspace(0.0, 2 * np.pi, 8192, endpoint=False)
        quats = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), angles)
        dense = float(f2(parent_group(PARENT_SO3).act_rows(quats, x)).mean())
        assert abs(dense - at(f, x)) > 1e-3  # generic point: a genuine orbit-average gap
        value = at(symmetrised(f, circle3([0.0, 0.0, 1.0]), 0.1, "uniform"), x)
        assert value == pytest.approx(dense, abs=1e-12)

    def test_sub_torus_average_of_a_function_of_the_other_coordinates_is_exact(self):
        from orbitreg import axis_translations

        t3 = torus(3)
        f = FunctionPredictor(t3, lambda X: np.sin(2 * np.pi * X[:, 1]))
        x = np.array([0.3, 0.2, 0.9])
        value = at(symmetrised(f, axis_translations(3, [0, 2]), 0.1, "uniform"), x)
        assert value == pytest.approx(at(f, x), abs=1e-12)


class TestDatasetValidation:
    def test_row_mismatch(self):
        with pytest.raises(ConfigError):
            Dataset(BALL, np.zeros((3, 3)), np.zeros(2))

    def test_space_mismatch(self):
        from orbitreg import SpaceMismatchError

        with pytest.raises(SpaceMismatchError):
            Dataset(BALL, np.zeros((3, 2)), np.zeros(3))

    def test_ball_row_outside_the_ball_rejected(self):
        with pytest.raises(SpaceMismatchError, match=r"^row 1 \(\[2\. 0\. 0\.\]\) does not lie in unit_ball3$"):
            Dataset(BALL, [[0.5, 0.0, 0.0], [2.0, 0.0, 0.0]], [1.0, 1.0])

    def test_three_axis_covariates_rejected(self):
        with pytest.raises(SpaceMismatchError, match=r"shape \(2, 3, 3\)"):
            Dataset(BALL, np.zeros((2, 3, 3)), np.zeros(2))

    def test_frozen_copies_leave_the_callers_arrays_writable(self):
        X, Y = np.full((2, 2), 0.5), np.zeros(2)
        data = Dataset(torus(2), X, Y)
        assert X.flags.writeable and Y.flags.writeable
        assert not data.X.flags.writeable and not data.Y.flags.writeable
        assert np.array_equal(data.X, X) and np.array_equal(data.Y, Y)
        X[0, 0] = 0.25
        assert data.X[0, 0] == 0.5

    def test_non_finite_response_rejected(self):
        with pytest.raises(ConfigError, match="response 1 is not finite"):
            Dataset(torus(2), np.array([[0.2, 0.3], [0.5, 0.2]]), np.array([1.0, np.inf]))

    @pytest.mark.parametrize("row", [[1.5, 0.2], [np.nan, 0.2], [-np.inf, 0.2], [0.2, 1.0]])
    def test_row_outside_the_space_rejected(self, row):
        from orbitreg import SpaceMismatchError

        with pytest.raises(SpaceMismatchError, match="row 1 "):
            Dataset(torus(2), np.array([[0.2, 0.3], row]), np.array([1.0, 2.0]))
