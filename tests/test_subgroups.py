import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitreg import (
    ConfigError,
    PARENT_SO3,
    PointDistribution,
    Rotation3,
    axis_translations,
    catalog_lines,
    circle3,
    delta_cover,
    delta_schedule,
    full_so3,
    full_torus,
    hausdorff_U_distance,
    orbit_dimension,
    parent_torus,
    sample_group,
    sample_points,
    substream,
    torus,
    torus_line,
    trivial_subgroup,
    unit_ball3,
    unit_sphere2,
)
from orbitreg import subgroups
from orbitreg.errors import IncompatibleActionError
from orbitreg.groups import parent_group, quat_from_axis_angle, quat_rotation_angle
from orbitreg.orbit_grids import orbit_coords_batch
from orbitreg.randomness import polar_gaussian
from orbitreg.spaces import pairwise_distance
from orbitreg.subgroups import (
    FAMILY_TABLE,
    SubgroupFamily,
    fibonacci_sphere,
    orbit_quadrature_coords,
    sample_orbit_coords,
    sphere_net,
    subgroup_net,
)


def random_axis(rng):
    v = polar_gaussian(rng, 3)
    return v / np.linalg.norm(v)


def _masks(d):
    """Every nonempty coordinate mask of the d-torus, the full one included."""
    return [mask for r in range(1, d + 1) for mask in itertools.combinations(range(d), r)]


class TestOrbitDimension:
    def test_catalog_values(self):
        ball, sphere, t2 = unit_ball3(), unit_sphere2(), torus(2)
        assert orbit_dimension(trivial_subgroup(PARENT_SO3), ball) == 0
        assert orbit_dimension(circle3([0, 0, 1]), ball) == 1
        assert orbit_dimension(full_so3(), ball) == 2
        assert orbit_dimension(full_so3(), sphere) == 2
        assert orbit_dimension(torus_line(1, 1), t2) == 1
        assert orbit_dimension(full_torus(2), t2) == 2
        assert orbit_dimension(axis_translations(3, [0, 2]), torus(3)) == 2

    def test_incompatible_pairings_raise(self):
        with pytest.raises(IncompatibleActionError):
            orbit_dimension(full_so3(), torus(2))
        with pytest.raises(IncompatibleActionError):
            orbit_dimension(full_torus(2), torus(3))


class TestCanonicalForms:
    def test_torus_line_reduces_to_coprime(self):
        assert torus_line(2, -2).direction == (1, -1)
        assert torus_line(-1, -1).direction == (1, 1)
        assert torus_line(0, -3).direction == (0, 1)

    def test_circle_axes_identify_antipodes(self):
        assert circle3([0, 0, 1]) == circle3([0, 0, -1])

    def test_the_full_mask_is_the_full_torus(self):
        assert axis_translations(2, [0, 1]) == full_torus(2)
        assert axis_translations(3, [2, 0, 1, 0]) == full_torus(3)
        assert axis_translations(3, [0, 2]) != full_torus(3)

    @pytest.mark.parametrize("axis", [[float("nan"), 0.0, 0.0], [1.0, float("nan"), 0.0],
                                      [float("inf"), 0.0, 0.0], [0.6, 0.0, 0.0]])
    def test_circle_axis_must_be_a_finite_unit_vector(self, axis):
        with pytest.raises(ConfigError):
            circle3(axis)

    @pytest.mark.parametrize("make", [
        lambda: axis_translations(3, [0, 1.5]),
        lambda: axis_translations(3, [True]),
        lambda: torus_line(0.5, 1),
        lambda: full_torus(0),
        lambda: full_torus(-1),
        lambda: delta_schedule(10, float("nan"), 3, 2),
    ], ids=["mask_float", "mask_bool", "line_float", "torus_zero", "torus_negative",
            "schedule_nan_beta"])
    def test_integer_arguments_are_checked(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_numpy_integers_count(self):
        assert axis_translations(np.int64(3), np.array([0, 2])) == axis_translations(3, [0, 2])
        assert torus_line(np.int64(2), np.int64(2)) == torus_line(1, 1)


class TestSampling:
    def test_trivial_always_identity(self):
        rng = substream(0, "triv")
        for parent in (PARENT_SO3, parent_torus(2)):
            g = sample_group(trivial_subgroup(parent), rng)
            if isinstance(g, Rotation3):
                assert quat_rotation_angle(g.quaternion) == 0.0
            else:
                assert np.all(g.shift == 0.0)

    def test_circle_angles_uniform(self):
        rng = substream(0, "circle")
        group = circle3([0.0, 0.0, 1.0])
        angles = np.array([quat_rotation_angle(sample_group(group, rng).quaternion)
                           for _ in range(20_000)])
        # rotation angle of a uniform circle element is uniform on [0, pi]
        # after folding, so its mean is pi/2
        se = angles.std(ddof=1) / np.sqrt(angles.size)
        assert abs(angles.mean() - np.pi / 2) <= 3 * se

    def test_so3_trace_distribution_matches_rejection_oracle(self):
        # Oracle: Haar rotations from QR decompositions of Gaussian matrices
        # (sign-fixed, determinant corrected), entirely independent of the
        # quaternion sampler under test.
        rng = substream(0, "trace")
        n = 20_000
        group = full_so3()
        traces = np.empty(n)
        for i in range(n):
            g = sample_group(group, rng)
            w, x, y, z = g.quaternion
            # trace of the rotation matrix equals 1 + 2 cos(angle)
            traces[i] = 1.0 + 2.0 * (2.0 * w * w - 1.0)
        oracle = np.empty(n)
        rng2 = substream(1, "qr-oracle")
        mats = rng2.standard_normal((n, 3, 3))
        for i in range(n):
            q, r = np.linalg.qr(mats[i])
            q = q * np.sign(np.diag(r))
            if np.linalg.det(q) < 0:
                q[:, [0, 1]] = q[:, [1, 0]]
            oracle[i] = np.trace(q)
        bins = np.linspace(-1.0, 3.0, 21)
        hist_a, _ = np.histogram(traces, bins=bins, density=True)
        hist_b, _ = np.histogram(oracle, bins=bins, density=True)
        # three combined binomial standard errors per bin
        width = bins[1] - bins[0]
        se = np.sqrt((hist_a + hist_b) / (n * width) + 1e-12)
        assert np.all(np.abs(hist_a - hist_b) <= 3.5 * se + 0.02)

    def test_orbit_samples_stay_on_orbit(self):
        rng = substream(0, "orbit")
        from orbitreg.subgroups import sample_orbit_coords

        x = np.array([[0.3, 0.4, 0.5]])
        pts = sample_orbit_coords(circle3([0.0, 0.0, 1.0]), x, 200, rng)[0]
        assert np.allclose(pts[:, 2], 0.5, atol=1e-12)
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 0.5, atol=1e-12)


class TestNets:
    def test_circle_net_radius(self):
        group = circle3([0.0, 1.0, 0.0])
        net = subgroup_net(group, eps=0.1)
        rng = substream(0, "netcheck")
        for _ in range(200):
            g = sample_group(group, rng)
            dots = np.abs(net @ g.quaternion)
            dist = 2.0 * np.arccos(np.clip(dots, -1.0, 1.0))
            assert dist.min() <= 0.1

    def test_so3_net_radius(self):
        net = subgroup_net(full_so3(), eps=0.35)
        rng = substream(0, "so3check")
        worst = 0.0
        for _ in range(300):
            g = sample_group(full_so3(), rng)
            dots = np.abs(net @ g.quaternion)
            worst = max(worst, 2.0 * np.arccos(np.clip(dots.max(), -1.0, 1.0)))
        assert worst <= 0.35

    def test_sphere_net_radius(self):
        net = sphere_net(0.2)
        rng = substream(0, "s2check")
        for _ in range(500):
            u = random_axis(rng)
            angle = np.arccos(np.clip(net @ u, -1.0, 1.0)).min()
            assert angle <= 0.2

    def test_torus_line_net_radius(self):
        group = torus_line(2, 1)
        net = subgroup_net(group, eps=0.05)
        rng = substream(0, "linecheck")
        for _ in range(200):
            t = rng.random()
            shift = np.mod(t * np.array([2.0, 1.0]), 1.0)
            diff = np.abs(net - shift)
            diff = np.minimum(diff, 1.0 - diff)
            assert np.sqrt((diff * diff).sum(axis=1)).min() <= 0.05


class TestHausdorff:
    def test_self_distance_zero(self):
        # identical nets; only arccos round-off noise remains
        g = circle3([0.0, 0.0, 1.0])
        assert hausdorff_U_distance(g, g, net_resolution=0.05) <= 1e-6
        t = torus_line(1, 1)
        assert hausdorff_U_distance(t, t, net_resolution=0.05) == 0.0

    def test_symmetry(self):
        a = circle3([0.0, 0.0, 1.0])
        b = circle3([0.0, 1.0, 0.0])
        d1 = hausdorff_U_distance(a, b, net_resolution=0.05)
        d2 = hausdorff_U_distance(b, a, net_resolution=0.05)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_triangle_inequality_with_net_slack(self):
        eps = 0.05
        rng = substream(0, "tri")
        groups = [circle3(random_axis(rng)) for _ in range(6)]
        dist = {}
        for i, a in enumerate(groups):
            for j, b in enumerate(groups):
                if i < j:
                    dist[(i, j)] = hausdorff_U_distance(a, b, net_resolution=eps)

        def d(i, j):
            return 0.0 if i == j else dist[(min(i, j), max(i, j))]

        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert d(i, j) <= d(i, k) + d(k, j) + 4 * eps

    def test_circle_pair_bounded_by_twice_axis_angle(self):
        eps = 0.05
        rng = substream(0, "pairbound")
        for _ in range(10):
            u, v = random_axis(rng), random_axis(rng)
            if u @ v < 0:
                v = -v
            d = hausdorff_U_distance(circle3(u), circle3(v), net_resolution=eps)
            assert d <= 2.0 * np.arccos(np.clip(u @ v, -1.0, 1.0)) + 2 * eps

    def test_distance_from_trivial_to_circle_is_pi(self):
        # Brute-force oracle: the farthest circle element from the identity
        # over a dense angle sweep is the half turn, at distance pi.
        angles = np.linspace(0.0, 2.0 * np.pi, 20_001)
        oracle = np.max(2.0 * np.arccos(np.abs(np.cos(angles / 2.0))))
        assert oracle == pytest.approx(np.pi, abs=1e-6)
        eps = 0.05
        d = hausdorff_U_distance(trivial_subgroup(PARENT_SO3), circle3([0, 0, 1.0]),
                                 net_resolution=eps)
        assert abs(d - np.pi) <= 2 * eps

    def test_nonpositive_resolution_rejected(self):
        with pytest.raises(ConfigError):
            hausdorff_U_distance(full_so3(), full_so3(), net_resolution=0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_resolution_rejected(self, eps):
        with pytest.raises(ConfigError):
            hausdorff_U_distance(full_so3(), circle3([0, 0, 1.0]), net_resolution=eps)
        with pytest.raises(ConfigError):
            subgroup_net(full_torus(2), eps)

    def test_parent_mismatch_rejected(self):
        with pytest.raises(IncompatibleActionError):
            hausdorff_U_distance(full_so3(), full_torus(2))

    def test_torus_long_line_close_to_full_torus(self):
        # a length-L line covers the torus to within 1/(2L)
        line = torus_line(3, 2)
        d = hausdorff_U_distance(line, full_torus(2), net_resolution=0.02)
        assert d <= 1.0 / (2.0 * np.hypot(3, 2)) + 2 * 0.02


class TestDeltaCover:
    def test_so3_cover_contains_all_strata(self):
        cover = delta_cover(PARENT_SO3, unit_ball3(), 1.0)
        fams = {g.family for g in cover}
        assert SubgroupFamily.TRIVIAL in fams
        assert SubgroupFamily.FULL_SO3 in fams
        assert SubgroupFamily.CIRCLE3 in fams
        dims = {orbit_dimension(g, unit_ball3()) for g in cover}
        assert dims == {0, 1, 2}

    def test_so3_cover_coarse_delta_still_has_axes(self):
        cover = delta_cover(PARENT_SO3, unit_ball3(), np.pi)
        fams = [g.family for g in cover]
        assert fams.count(SubgroupFamily.TRIVIAL) == 1
        assert fams.count(SubgroupFamily.FULL_SO3) == 1
        assert fams.count(SubgroupFamily.CIRCLE3) >= 1

    def test_so3_cover_axis_bound_sampled(self):
        delta = 0.5
        cover = delta_cover(PARENT_SO3, unit_ball3(), delta)
        axes = np.array([g.axis for g in cover if g.family is SubgroupFamily.CIRCLE3])
        rng = substream(0, "coverbound")
        for _ in range(500):
            u = random_axis(rng)
            best = 2.0 * np.arccos(np.clip(np.abs(axes @ u), -1.0, 1.0).max())
            assert best <= delta

    def test_so3_cover_property_in_hausdorff_metric(self):
        delta, eps = 0.5, 0.05
        cover = delta_cover(PARENT_SO3, unit_ball3(), delta)
        circles = [g for g in cover if g.family is SubgroupFamily.CIRCLE3]
        axes = np.array([g.axis for g in circles])
        rng = substream(0, "coverhaus")
        for _ in range(8):
            u = random_axis(rng)
            nearest = circles[int(np.argmax(np.abs(axes @ u)))]
            d = hausdorff_U_distance(circle3(u), nearest, net_resolution=eps)
            assert d <= delta + 2 * eps

    @pytest.mark.parametrize("delta", [1.0, 0.5, delta_schedule(30, 1.0, 3, 2)])
    @settings(max_examples=40, deadline=None)
    @given(raw=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3))
    @example(raw=(0.0, 0.0, 1.0))
    @example(raw=(0.0, 0.0, -1.0))
    @example(raw=(1.0, 0.0, 0.0))
    @example(raw=(0.0, -1.0, 1e-3))
    def test_so3_cover_within_delta_of_every_circle(self, delta, raw):
        # the Hausdorff metric on nets is the oracle; the nearest axis
        # (up to sign) picks the cover circle to compare with
        eps = 0.05
        u = np.asarray(raw) / np.linalg.norm(raw)
        circles = [g for g in delta_cover(PARENT_SO3, unit_ball3(), delta)
                   if g.family is SubgroupFamily.CIRCLE3]
        nearest = circles[int(np.argmax(np.abs(np.array([g.axis for g in circles]) @ u)))]
        assert hausdorff_U_distance(circle3(u), nearest, net_resolution=eps) <= delta + 2 * eps

    def test_so3_cover_sizes_are_pinned(self):
        # trivial + axis circles + full group at the benchmark scale, at
        # 0.5 and 0.0548 (where a 12-digit axis key would keep 3 rounding
        # twins), and at the schedule's scales at n = 30 and 50, and at
        # n = 3000, the largest cover the size limit must let through
        deltas = (1.0, 0.5, 0.0548, *(delta_schedule(n, 1.0, 3, 2) for n in (30, 50, 3000)))
        assert ([len(delta_cover(PARENT_SO3, unit_ball3(), d)) for d in deltas]
                == [36, 72, 6889, 393, 667, 6982])

    @pytest.mark.parametrize("delta", [2.0, 1.0, 0.5, 0.25, 0.05,
                                       *(delta_schedule(n, 1.0, 3, 2) for n in (30, 50, 300))])
    def test_so3_cover_is_canonical_with_circle3_axes(self, delta):
        # the batched cover against circle3, one net point at a time: the
        # first circle of each canonical key, with its axis's bits
        cover = delta_cover(PARENT_SO3, unit_ball3(), delta)
        assert subgroups.canonical_cover(cover) == cover
        by_key = {}
        for u in sphere_net(delta / 2.0):
            circle = circle3(u / np.linalg.norm(u))
            by_key.setdefault(circle.canonical_key(), circle)
        circles = [g for g in cover if g.family is SubgroupFamily.CIRCLE3]
        assert len(circles) == len(by_key)
        for g in circles:
            assert np.array(g.axis).tobytes() == np.array(by_key[g.canonical_key()].axis).tobytes()

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.2])
    def test_so3_cover_names_each_circle_once(self, delta):
        axes = np.array([g.axis for g in delta_cover(PARENT_SO3, unit_ball3(), delta)
                         if g.family is SubgroupFamily.CIRCLE3])
        gram = np.abs(axes @ axes.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-9  # no axis repeats, with either sign

    def test_torus_cover_at_half(self):
        cover = delta_cover(parent_torus(2), torus(2), 0.5)
        fams = {g.family for g in cover}
        assert SubgroupFamily.TRIVIAL in fams and SubgroupFamily.FULL_TORUS in fams
        directions = [g.direction for g in cover if g.family is SubgroupFamily.TORUS_LINE]
        assert sorted(directions) == sorted({(1, 0), (1, 1), (0, 1), (1, -1)})  # each line once

    def test_torus_cover_property(self):
        delta, eps = 0.5, 0.02
        cover = delta_cover(parent_torus(2), torus(2), delta)
        rng = substream(0, "torcover")
        for _ in range(12):
            p = int(rng.integers(0, 5))
            q = int(rng.integers(-4, 5))
            if p == 0 and q == 0:
                continue
            line = torus_line(p, q)
            best = min(hausdorff_U_distance(line, g, net_resolution=eps) for g in cover)
            assert best <= delta + 2 * eps

    def test_torus_cover_lines_are_primitive(self):
        for delta in (0.2, 0.1):
            for g in delta_cover(parent_torus(2), torus(2), delta):
                if g.family is SubgroupFamily.TORUS_LINE:
                    p, q = g.direction
                    assert np.gcd(abs(p), abs(q)) == 1

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ConfigError):
            delta_cover(PARENT_SO3, unit_ball3(), delta)
        with pytest.raises(ConfigError):
            delta_cover(parent_torus(2), torus(2), delta)

    @pytest.mark.parametrize("delta", [1e-300, 5e-324, 1e-10, 5e-11, 1e-3])
    def test_delta_too_fine_for_a_cover_rejected(self, delta):
        # checked in closed form before the net or the line grid is built
        with pytest.raises(ConfigError, match="too fine"):
            delta_cover(parent_torus(2), torus(2), delta)
        with pytest.raises(ConfigError, match="too fine"):
            delta_cover(PARENT_SO3, unit_ball3(), delta)

    def test_unsupported_parent(self):
        with pytest.raises(ConfigError, match="no cover construction"):
            delta_cover(parent_torus(3), torus(3), 0.5)

    def test_box_parent_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown parent group 'box3'"):
            parent_group("box3")
        with pytest.raises(ConfigError, match="unknown parent group 'box3'"):
            delta_cover("box3", torus(3), 0.5)

    def test_catalog_lines_format(self):
        cover = delta_cover(parent_torus(2), torus(2), 0.5)
        lines = catalog_lines(cover)
        assert lines[0] == "trivial parent=torus2"
        assert any(line == "torus_line direction=1,1" for line in lines)
        assert lines[-1] == "full_torus parent=torus2"

    def test_catalog_lines_print_integer_parameters_in_full(self):
        assert catalog_lines([torus_line(1, 10**13), torus_line(np.int64(3), np.int64(-7))]) == [
            "torus_line direction=1,10000000000000", "torus_line direction=3,-7"]

    @pytest.mark.parametrize("d, expected", [
        (3, ["trivial parent=torus3", "axis_translations mask=0", "axis_translations mask=0,1",
             "axis_translations mask=0,2", "axis_translations mask=1", "axis_translations mask=1,2",
             "axis_translations mask=2", "full_torus parent=torus3"]),
        (4, ["trivial parent=torus4", "axis_translations mask=0", "axis_translations mask=0,1",
             "axis_translations mask=0,1,2", "axis_translations mask=0,1,3",
             "axis_translations mask=0,2", "axis_translations mask=0,2,3",
             "axis_translations mask=0,3", "axis_translations mask=1", "axis_translations mask=1,2",
             "axis_translations mask=1,2,3", "axis_translations mask=1,3", "axis_translations mask=2",
             "axis_translations mask=2,3", "axis_translations mask=3", "full_torus parent=torus4"]),
    ])
    def test_reversed_torus_catalog_sorts_by_rank_then_mask(self, d, expected):
        # the full mask is the full torus, which ranks after every sub-torus
        catalog = [trivial_subgroup(parent_torus(d))] + [axis_translations(d, mask) for mask in _masks(d)]
        assert catalog_lines(subgroups.canonical_cover(catalog[::-1])) == expected


class TestDeltaSchedule:
    def test_direct_substitution(self):
        assert delta_schedule(1, 1.0, 3, 2) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert delta_schedule(1000, 1.0, 3, 2) == pytest.approx(
            np.sqrt(1000.0 ** (-2.0 / 3.0) / 2.0), abs=1e-12)

    def test_monotone_decreasing_to_zero(self):
        values = [delta_schedule(n, 1.0, 3, 2) for n in (10, 100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.02

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            delta_schedule(0, 1.0, 3, 2)
        with pytest.raises(ConfigError):
            delta_schedule(10, -1.0, 3, 2)

    def test_orbit_larger_than_space_rejected(self):
        # 2 beta + d - d_max is 0 here, and negative (a scale growing with n) below
        with pytest.raises(ConfigError, match="d_max"):
            delta_schedule(10, 1.0, 1, 3)
        with pytest.raises(ConfigError, match="d_max"):
            delta_schedule(10, 1.0, 1, 5)
        assert delta_schedule(10, 1.0, 3, 3) == pytest.approx(np.sqrt(0.05), abs=1e-12)


class TestQuadrature:
    def test_fibonacci_sphere_is_unit_norm_and_spread(self):
        pts = fibonacci_sphere(128)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.05)

    def test_circle_quadrature_matches_dense_average(self):
        group = circle3([0.0, 0.0, 1.0])
        x = np.array([[0.6, 0.0, 0.3]])
        coords, counts = orbit_quadrature_coords(group, x, 0.1)
        assert counts[0] == 63  # ceil(2 pi / 0.1): at most h apart on the unit circle
        fn = lambda p: np.cos(3.0 * p[:, 0]) + p[:, 2]
        dense_angles = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        dense = np.stack([0.6 * np.cos(dense_angles), 0.6 * np.sin(dense_angles),
                          np.full_like(dense_angles, 0.3)], axis=1)
        assert fn(coords).mean() == pytest.approx(fn(dense).mean(), abs=1e-3)

    @pytest.mark.parametrize("case", ["trivial", "circles", "full_so3", "torus_lines",
                                      "full_torus", "sub_tori"])
    def test_a_runs_quadrature_is_its_subgroups_one_by_one(self, case):
        # one family's run of one node lattice against each subgroup's own
        # call, bit for bit
        rng = substream(22, "run", case)
        groups = {
            "trivial": [trivial_subgroup(PARENT_SO3)] * 3,
            "circles": [circle3(random_axis(rng)) for _ in range(5)] + [circle3([0.0, -1.0, 0.0])],
            "full_so3": [full_so3()] * 3,
            "torus_lines": [torus_line(1, 0), torus_line(1, -1), torus_line(2, 3)],
            "full_torus": [full_torus(2)] * 2,
            "sub_tori": [axis_translations(4, [0, 1]), axis_translations(4, [2, 3]),
                         axis_translations(4, [1, 3])],
        }[case]
        parent = parent_group(groups[0].parent)
        space = torus(parent.dim) if parent.dim != 3 else unit_ball3()
        xs = sample_points(space, PointDistribution.UNIFORM_SPACE, 9, rng)
        entry = FAMILY_TABLE[groups[0].family]
        side, size = subgroups._node_lattice(groups[0], 0.25)

        def quadrature(run):  # the family writes into an array of its points' shape
            out = np.full((len(run), len(xs), size, xs.shape[1]), np.nan)
            entry.quadrature(run, xs, side, out)
            return out

        run = quadrature(groups)
        assert not np.isnan(run).any()
        for block, g in zip(run, groups):
            assert block.tobytes() == quadrature([g])[0].tobytes()
        if case == "circles":  # the stacked axes against one axis at a time
            theta = np.arange(size) * (2.0 * np.pi / size)
            for nodes, g in zip(entry.nodes(groups, side), groups):
                assert nodes.tobytes() == quat_from_axis_angle(g.axis_array(), theta).tobytes()
        elif case != "full_so3":
            for nodes, g in zip(entry.nodes(groups, side), groups):
                assert nodes.tobytes() == entry.nodes([g], side)[0].tobytes()

    @pytest.mark.parametrize("h", [0.25, 0.04])
    @pytest.mark.parametrize("parent", ["so3", "torus2", "torus3", "torus4"])
    def test_quadrature_count_is_the_number_of_nodes(self, parent, h):
        # every family: 1 node on the trivial group; at h = 0.25, 24 on
        # circles, 64 on spheres and 2- and 3-tori, 81 on 4-tori; at
        # h = 0.04 the gap rule (h on circles and lines, 2h otherwise)
        if parent == "so3":
            space = unit_ball3()
            groups = [trivial_subgroup(PARENT_SO3), circle3([0.6, 0.0, 0.8]), full_so3()]
        else:
            d = parent_group(parent).dim
            space = torus(d)
            groups = [trivial_subgroup(parent)] + [axis_translations(d, mask) for mask in _masks(d)]
            if d == 2:
                groups += [torus_line(1, 1), torus_line(2, -3), torus_line(1, -23)]
        xs = sample_points(space, PointDistribution.UNIFORM_SPACE, 3, substream(26, "count", parent))
        _, counts = orbit_quadrature_coords(groups, xs, h)
        assert counts.tolist() == [subgroups.quadrature_count(g, h) for g in groups for _ in xs]
        pinned = {  # (h = 0.25, h = 0.04), groups in order after the trivial one
            "so3": ([26, 64], [158, 45 ** 2]),
            "torus2": ([24, 24, 64, 24, 24, 93], [25, 25, 13 ** 2, 36, 91, 576]),
            "torus3": ([24] * 3 + [64] * 4, [25] * 3 + [13 ** 2] * 3 + [13 ** 3]),
            "torus4": ([24] * 4 + [64] * 10 + [81], [25] * 4 + [13 ** 2] * 6 + [13 ** 3] * 4
                       + [13 ** 4]),
        }[parent][h == 0.04]
        assert [subgroups.quadrature_count(g, h) for g in groups] == [1] + pinned

    @pytest.mark.parametrize("h", [0.3, 0.2, 0.15, 0.1, 0.05])
    @pytest.mark.parametrize("family", ["circle", "sphere", "line", "torus2"])
    def test_neighbouring_nodes_on_the_longest_orbit_are_within_the_gap(self, family, h):
        # h on circles and lines, 2h on the sphere and the 2-torus: the
        # nodes' h-balls overlap along the whole orbit, so the node average
        # pools the orbit's h-tube at every bandwidth (64 fixed nodes on the
        # unit sphere leave up to 0.428 between neighbours, over 2h below
        # h = 0.214; 24 on the unit circle 0.261)
        if family in ("circle", "sphere"):
            group = circle3([0.6, 0.0, 0.8]) if family == "circle" else full_so3()
            x = np.array([[0.8, 0.0, -0.6]])  # radius 1, a great circle of the circle's axis
        else:
            group = torus_line(2, -3) if family == "line" else full_torus(2)
            x = np.array([[0.1, 0.3]])
        nodes, _ = orbit_quadrature_coords(group, x, h)
        space = unit_ball3() if family in ("circle", "sphere") else torus(2)
        gaps = pairwise_distance(space, nodes, nodes)
        np.fill_diagonal(gaps, np.inf)
        gap = h if family in ("circle", "line") else 2.0 * h
        assert gaps.min(axis=1).max() <= gap

    @pytest.mark.parametrize("h", [0.0, -0.1, float("nan"), float("inf")])
    def test_quadrature_bandwidth_must_be_finite_and_positive(self, h):
        with pytest.raises(ConfigError, match="bandwidth"):
            orbit_quadrature_coords(circle3([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.3]), h)

    @pytest.mark.parametrize("group", [circle3([0.0, 0.0, 1.0]), trivial_subgroup(PARENT_SO3)],
                             ids=["circle", "trivial"])
    @pytest.mark.parametrize("h", [-1.0, float("inf"), 0.0, float("nan")])
    def test_quadrature_count_bandwidth_must_be_finite_and_positive(self, group, h):
        # a negative or infinite h once gave the floor of 24 nodes, 0 a
        # ZeroDivisionError and NaN a raw ValueError
        with pytest.raises(ConfigError, match="^bandwidth must be finite and positive"):
            subgroups.quadrature_count(group, h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("group", [circle3([0.0, 0.0, 1.0]), full_so3(), full_torus(3)],
                             ids=["circle", "so3", "torus3"])
    @pytest.mark.parametrize("h", [1e-12, 1e-300, 5e-324])
    def test_a_bandwidth_too_fine_for_one_row_raises(self, group, h):
        # a circle took 6e12 nodes a row at h = 1e-12; past the float range
        # the ceiling of the node count raised a raw OverflowError
        with pytest.raises(ConfigError, match=f"h = {h!r} would put more than 2,000,000"):
            subgroups.quadrature_count(group, h)
        assert subgroups.quadrature_count(trivial_subgroup(PARENT_SO3), h) == 1

    def test_the_row_bound_admits_its_own_count(self):
        # 2 pi / h nodes on a circle: two million fit, one more does not
        circle = circle3([0.0, 0.0, 1.0])
        assert subgroups.quadrature_count(circle, 2.0 * np.pi / subgroups.CHUNK_ROWS) == 2_000_000
        with pytest.raises(ConfigError):
            subgroups.quadrature_count(circle, 2.0 * np.pi / (subgroups.CHUNK_ROWS + 0.5))

    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.041])
    def test_line_nodes_average_low_frequencies_exactly(self, delta):
        # at the n = 300 line-class bandwidth, every frequency with
        # |k|_1 <= 2 averages to its exact orbit mean: cos 2 pi k.x on the
        # line where k.(p, q) = 0, else 0 (24 nodes gave (1, -23) the
        # (1, 1) line's node set: 0.309017 at k = (1, -1), x = (0.1, 0.3))
        h = 300.0 ** (-1.0 / 3.0)
        xs = np.vstack([[0.1, 0.3], substream(26, "alias", delta).random((5, 2))])
        lines = [g for g in delta_cover(parent_torus(2), torus(2), delta)
                 if g.family is SubgroupFamily.TORUS_LINE]
        coords, counts = orbit_quadrature_coords(lines, xs, h)
        freqs = np.array([k for k in itertools.product(range(-2, 3), repeat=2)
                          if abs(k[0]) + abs(k[1]) <= 2])
        starts = np.cumsum(counts) - counts
        for i, g in enumerate(lines):
            nodes = coords[starts[i * len(xs)] : starts[i * len(xs)] + counts[i * len(xs)] * len(xs)]
            nodes = nodes.reshape(len(xs), -1, 2)
            average = np.cos(2.0 * np.pi * nodes @ freqs.T).mean(axis=1)
            on_line = freqs @ g.direction_array() == 0
            exact = np.where(on_line, np.cos(2.0 * np.pi * xs @ freqs.T), 0.0)
            assert np.abs(average - exact).max() <= 1e-12, g.describe()

    def test_trivial_quadrature_is_the_point(self):
        coords, counts = orbit_quadrature_coords(trivial_subgroup(PARENT_SO3),
                                                 np.array([[0.1, 0.2, 0.3]]), 0.1)
        assert counts.tolist() == [1]
        assert np.allclose(coords, [[0.1, 0.2, 0.3]])

    @staticmethod
    def _one_by_one(groups, xs, h):
        """Each subgroup's nodes on their own, stacked: the node elements
        applied to every row through the parent's action (the Fibonacci
        lattice scaled to each row's radius for the full rotation group)."""
        coords, counts = [], []
        for g in groups:
            if g.family is SubgroupFamily.FULL_SO3:
                lattice = fibonacci_sphere(subgroups._node_lattice(g, h)[1])
                pts = np.linalg.norm(xs, axis=1)[:, None, None] * lattice[None]
            else:
                nodes = FAMILY_TABLE[g.family].nodes([g], subgroups._node_lattice(g, h)[0])[0]
                pts = parent_group(g.parent).act_rows(nodes[None, :, :], xs[:, None, :])
            coords.append(pts.reshape(-1, xs.shape[1]))
            counts.append(np.full(len(xs), pts.shape[1]))
        return np.vstack(coords), np.concatenate(counts)

    @pytest.mark.parametrize("chunk", [1, 7, 24 * 13 - 1, 24 * 13, 24 * 13 + 1, 3 * 24 * 13 + 5,
                                       65_536])
    @pytest.mark.parametrize("case", ["circles", "torus_lines", "sub_tori", "mixed"])
    @pytest.mark.parametrize("h", [0.25, 0.02])
    def test_stepped_nodes_match_subgroups_one_by_one(self, case, h, chunk, monkeypatch):
        # 13 rows: a line class steps every 24 x 13 = 312 points, so the
        # patched steps end inside, at and after a subgroup's nodes; a
        # circle's products take 3 x 24 entries a row, so below 941 they
        # split its 13 rows (4, 4, 4 and 1 at 311 and 312) and at 941 take
        # all 13, and below 24 a step builds one circle's matrices;
        # the sub-tori mix 64- and 24-node runs, the mixed cover the trivial
        # group and the full rotation group's own generator between circles;
        # at h = 0.02 the lines get 50 to 159 nodes, the circles 315, the
        # sphere 45 ** 2 and the sub-tori 50 on one axis, else 25 per axis
        rng = substream(21, "stepped", case)
        if case == "torus_lines":
            space = torus(2)
            groups = [torus_line(p, q) for p, q in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)]]
        elif case == "sub_tori":  # T^4: 2- and 3-dimensional lattices of 64 nodes
            space = torus(4)
            groups = [axis_translations(4, mask)
                      for mask in ([0, 1], [0, 2, 3], [1, 2], [0], [1], [2], [0, 2])]
        else:
            space = unit_ball3()
            groups = [circle3(random_axis(rng)) for _ in range(8)]
            if case == "mixed":
                groups = [trivial_subgroup(PARENT_SO3), *groups[:3], full_so3(), *groups[3:]]
        xs = sample_points(space, PointDistribution.UNIFORM_SPACE, 13, rng)
        monkeypatch.setattr(subgroups, "CHUNK_ELEMENTS", chunk)
        coords, counts = orbit_quadrature_coords(groups, xs, h)
        # the batch has the bits of each subgroup's own call (a sequence of one)
        singles = np.vstack([orbit_quadrature_coords(g, xs, h)[0] for g in groups])
        assert coords.tobytes() == singles.tobytes()
        expected, expected_counts = self._one_by_one(groups, xs, h)
        assert counts.dtype == np.int64 and counts.tolist() == expected_counts.tolist()
        # the parent's action gives every point: bit for bit, except that
        # circles apply their nodes' rotation matrices by matrix products,
        # whose points sit up to 9.99e-16 from quat_rotate's here (8.1e-16
        # of it quat_rotate's own distance from the exact rotation: it
        # assumes unit quaternions)
        circle = np.repeat([g.family is SubgroupFamily.CIRCLE3 for g in groups],
                           counts.reshape(len(groups), -1).sum(axis=1))
        assert coords[~circle].tobytes() == expected[~circle].tobytes()
        assert np.abs(coords[circle] - expected[circle]).max(initial=0.0) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.floats(0.01, 1.0))
    def test_circle_nodes_keep_height_and_radius(self, seed, h):
        # a rotation about u keeps x.u and the distance from the axis
        rng = np.random.default_rng(seed)
        group = circle3(random_axis(rng))
        xs = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, 7, rng)
        coords, counts = orbit_quadrature_coords(group, xs, h)
        u = group.axis_array()
        base = np.repeat(xs, counts, axis=0)

        def radius(rows):
            return np.linalg.norm(rows - (rows @ u)[:, None] * u, axis=1)

        assert np.abs(coords @ u - base @ u).max() <= 1e-15
        assert np.abs(radius(coords) - radius(base)).max() <= 1e-15


class TestSubTorusDistances:
    def test_nested_axis_translations(self):
        line = axis_translations(2, [0])
        plane = axis_translations(2, [0, 1])
        eps = 0.05
        d = hausdorff_U_distance(line, plane, net_resolution=eps)
        # the first-axis circle lies inside the 2-torus; the farthest torus
        # element from it is the half shift (., 1/2), half a period away
        assert d == pytest.approx(0.5, abs=2 * eps)
        assert hausdorff_U_distance(plane, full_torus(2), net_resolution=eps) <= 2 * eps


# torus lines (one with a negative direction entry), full tori and masked
# sub-tori of T^3
_TORUS_GROUPS = [torus_line(1, 0), torus_line(1, 1), torus_line(1, -1), torus_line(2, -3),
                 full_torus(2), full_torus(3), axis_translations(3, [0]),
                 axis_translations(3, [1, 2])]


class TestTorusOrbitsStayInTheSpace:
    """Every torus orbit point lies in its space (``contains_rows``), also
    from rows on the seam and elements a hair below the identity."""

    @settings(max_examples=80, deadline=None)
    @given(group=st.sampled_from(_TORUS_GROUPS), h=st.floats(0.01, 0.5),
           seed=st.integers(0, 2**32 - 1))
    def test_orbit_points_lie_in_the_space(self, group, h, seed):
        parent = parent_group(group.parent)
        space = torus(parent.dim)
        rng = np.random.default_rng(seed)
        seam = [0.0, 2.0**-60, 0.5, 1.0 - 2.0**-53]
        xs = np.vstack([rng.random((12, parent.dim)), rng.choice(seam, (12, parent.dim))])
        # element rows of the subgroup, some with parameter -2^-60: on a
        # coordinate at 0 the shift lands a hair below 0, which np.mod
        # rounds up to 1.0
        gens = FAMILY_TABLE[group.family].generators(group)
        params = rng.random((len(xs), len(gens)))
        params[rng.random(params.shape) < 0.5] = -(2.0**-60)
        orbits = {
            "act_rows": parent.act_rows(params @ gens, xs),
            "sample_orbit_coords": sample_orbit_coords(group, xs, 8, rng),
            "orbit_coords_batch": orbit_coords_batch(space, group, xs, h)[0],
            "orbit_quadrature_coords": orbit_quadrature_coords(group, xs, h)[0],
        }
        for name, coords in orbits.items():
            rows = coords.reshape(-1, parent.dim)
            outside = rows[~space.contains_rows(rows)]
            assert outside.size == 0, f"{name} leaves {space}: {outside[:3]}"
