import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitreg import (
    OffOrbitError,
    PARENT_SO3,
    PointDistribution,
    SpaceMismatchError,
    axis_translations,
    build_orbit_grid,
    circle3,
    full_so3,
    full_torus,
    hypercube_side,
    orbit_dimension,
    orbit_quadrature_coords,
    recover_group_element,
    sample_points,
    substream,
    torus,
    torus_line,
    trivial_subgroup,
    unit_ball3,
    unit_sphere2,
)
from orbitreg.errors import ConfigError
from orbitreg.groups import quat_rotation_angle
from orbitreg.orbit_grids import orbit_coords_batch, orbit_grid_counts
from orbitreg.spaces import pairwise_distance
from orbitreg.subgroups import sample_orbit_coords

BALL = unit_ball3()


def moved(space, g, x):
    """The element ``g`` applied to the row ``x`` of ``space``."""
    return g.act_on(space, np.asarray(x)[None, :])[0]


def grid_is_well_packed(space, grid, h):
    """Both packing clauses: the count lower bound and the 2h separation."""
    k = orbit_dimension(grid.group, space)
    required = max(1.0, (grid.hypercube_side / (2.0 * h)) ** k)
    if grid.m < required - 1e-9:
        return False
    if grid.m > 1:
        dist = pairwise_distance(space, grid.orbit_coords, grid.orbit_coords)
        np.fill_diagonal(dist, np.inf)
        if dist.min() < 2.0 * h - 1e-9:
            return False
    return True


class TestHypercubeSide:
    def test_trivial_is_zero(self):
        # the trivial orbit is the point itself, so its grid is singular
        trivial = trivial_subgroup(PARENT_SO3)
        assert hypercube_side(BALL, trivial, [0.3, 0.3, 0.1]) == 0.0
        grid = build_orbit_grid(BALL, trivial, [0.3, 0.3, 0.1], 0.1)
        assert grid.singular and grid.m == 1

    def test_sphere_orbit_side(self):
        side = hypercube_side(BALL, full_so3(), [0.5, 0.0, 0.0])
        assert side == pytest.approx(np.sqrt(2) * 0.5, abs=1e-12)

    def test_circle_orbit_side_is_twice_axis_distance(self):
        c = 0.7
        x = np.array([0.6 * np.cos(1.1), 0.6 * np.sin(1.1), 0.8]) * c
        assert hypercube_side(BALL, circle3([0.0, 0.0, 1.0]), x) == pytest.approx(1.2 * c, abs=1e-12)

    def test_torus_sides_stay_within_wrap_injectivity(self):
        x = [0.3, 0.7]
        assert hypercube_side(torus(2), torus_line(1, 1), x) == 0.5
        assert hypercube_side(torus(2), full_torus(2), x) == 0.5

    def test_masked_sub_torus_side_is_half_the_period(self):
        # masked translations act on the unit-period torus: every masked
        # side is 1, so the side is capped at half of it
        x = [0.5, 0.9, 0.1]
        assert hypercube_side(torus(3), axis_translations(3, [1, 2]), x) == 0.5
        assert hypercube_side(torus(3), axis_translations(3, [2]), x) == 0.5


    @pytest.mark.parametrize("group, x", [(circle3([0.0, 0.0, 1.0]), [0.0, 0.0, 0.5]),
                                          (full_so3(), [0.0, 0.0, 0.0])], ids=["circle", "so3"])
    def test_side_is_exactly_zero_within_the_tolerance_of_the_fixed_set(self, group, x):
        # 1e-10 off the fixed set the orbit is its own point: side 0.0, not
        # 2e-10 or 1.4e-10, and a singular grid; at 1e-8 it is an orbit
        near, off = (np.asarray(x) + [d, 0.0, 0.0] for d in (1e-10, 1e-8))
        assert hypercube_side(BALL, group, near) == 0.0
        assert hypercube_side(BALL, group, off) > 0.0
        assert build_orbit_grid(BALL, group, near, 0.1).singular
        assert not build_orbit_grid(BALL, group, off, 0.1).singular


class TestBuildGrid:
    def test_trivial_group_gives_identity_singleton(self):
        x = np.array([0.2, -0.1, 0.4])
        grid = build_orbit_grid(BALL, trivial_subgroup(PARENT_SO3), x, 0.3)
        assert grid.m == 1
        assert np.allclose(moved(BALL, grid.elements[0], x), x)

    def test_equator_circle_count_and_spacing(self):
        sphere = unit_sphere2()
        h = 0.1
        grid = build_orbit_grid(sphere, circle3([0.0, 0.0, 1.0]), [1.0, 0.0, 0.0], h)
        assert grid.m >= 10  # side 2 over spacing 0.2
        chords = np.linalg.norm(grid.orbit_coords[:, None, :] - grid.orbit_coords[None, :, :], axis=2)
        np.fill_diagonal(chords, np.inf)
        assert chords.min() >= 2 * h - 1e-12
        # brute-force angle packing: the emitted angles are 2h-separated in chord
        angles = np.arctan2(grid.orbit_coords[:, 1], grid.orbit_coords[:, 0])
        assert len(np.unique(np.round(angles, 9))) == grid.m

    def test_full_rotation_grid_on_unit_sphere_point(self):
        h = 0.1
        grid = build_orbit_grid(BALL, full_so3(), [0.0, 0.0, 1.0], h)
        assert grid.m >= (np.sqrt(2.0) / 0.2) ** 2
        assert grid_is_well_packed(unit_ball3(), grid, h)
        assert np.allclose(np.linalg.norm(grid.orbit_coords, axis=1), 1.0, atol=1e-12)

    def test_elements_reproduce_orbit_points(self):
        rng = substream(0, "elems")
        x = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 1, rng)[0]
        for group in (circle3([0.0, 1.0, 0.0]), full_so3()):
            grid = build_orbit_grid(BALL, group, x, 0.15)
            for g, target in zip(grid.elements, grid.orbit_coords):
                assert np.linalg.norm(moved(BALL, g, x) - target) <= 1e-9

    def test_torus_elements_reproduce_orbit_points(self):
        # compare in the wrap metric: raw coordinates may sit on either side
        # of the seam
        space = torus(2)
        x = [0.15, 0.85]
        for group in (torus_line(1, 2), full_torus(2)):
            grid = build_orbit_grid(space, group, x, 0.05)
            acted = np.array([moved(space, g, x) for g in grid.elements])
            dist = pairwise_distance(space, acted, grid.orbit_coords)
            assert np.diag(dist).max() <= 1e-12

    def test_determinism(self):
        x = [0.4, 0.1, -0.2]
        a = build_orbit_grid(BALL, full_so3(), x, 0.07)
        b = build_orbit_grid(BALL, full_so3(), x, 0.07)
        assert a.m == b.m
        assert np.array_equal(a.orbit_coords, b.orbit_coords)

    def test_halving_bandwidth_never_reduces_count(self):
        rng = substream(0, "mono")
        x = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 1, rng)[0]
        for group in (circle3([0, 0, 1.0]), full_so3()):
            h = 0.4
            prev = build_orbit_grid(BALL, group, x, h).m
            for _ in range(4):
                h /= 2.0
                cur = build_orbit_grid(BALL, group, x, h).m
                assert cur >= prev
                prev = cur

    def test_singular_base_point_degrades_to_identity(self):
        grid = build_orbit_grid(BALL, full_so3(), [0.0, 0.0, 0.0], 0.1)
        assert grid.m == 1 and grid.singular
        grid = build_orbit_grid(BALL, circle3([0.0, 0.0, 1.0]), [0.0, 0.0, 0.5], 0.1)
        assert grid.m == 1 and grid.singular

    def test_large_bandwidth_gives_single_point(self):
        x = [0.5, 0.0, 0.0]
        grid = build_orbit_grid(BALL, full_so3(), x, h=1.0)  # h >= side/2
        assert grid.m == 1 and not grid.singular
        assert np.allclose(grid.orbit_coords[0], x, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_packing_bounds_random_configs(self, seed):
        rng = substream(seed, "packmini")
        spaces = [unit_ball3(), unit_sphere2(), torus(2), torus(3)]
        for _ in range(50):
            space = spaces[int(rng.integers(len(spaces)))]
            if space in (unit_ball3(), unit_sphere2()):
                groups = [trivial_subgroup(PARENT_SO3), circle3(_axis(rng)), full_so3()]
            elif space == torus(2):
                groups = [trivial_subgroup("torus2"), torus_line(1, int(rng.integers(-3, 4))), full_torus(2)]
            else:  # a coordinate sub-torus of T^3
                groups = [axis_translations(3, sorted(rng.choice(3, size=2, replace=False).tolist()))]
            group = groups[int(rng.integers(len(groups)))]
            x = sample_points(space, PointDistribution.UNIFORM_SPACE, 1, rng)[0]
            h = float(np.exp(rng.uniform(np.log(0.03), np.log(0.7))))
            grid = build_orbit_grid(space, group, x, h)
            assert grid_is_well_packed(space, grid, h)


def _axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestRecoverElement:
    def test_identity_for_same_point(self):
        x = [0.3, 0.2, 0.1]
        g = recover_group_element(BALL, full_so3(), x, x)
        assert quat_rotation_angle(g.quaternion) <= 1e-12

    def test_quarter_turn_recovery(self):
        x, target = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
        g = recover_group_element(BALL, full_so3(), x, target)
        assert np.allclose(moved(BALL, g, x), target, atol=1e-12)
        assert quat_rotation_angle(g.quaternion) == pytest.approx(np.pi / 2, abs=1e-12)
        # axis is +z
        assert np.allclose(g.quaternion[1:], [0.0, 0.0, np.sin(np.pi / 4)], atol=1e-12)

    def test_torus_recovery_is_mod_one_difference(self):
        g = recover_group_element(torus(2), full_torus(2), [0.2, 0.2], [0.9, 0.5])
        assert np.allclose(g.shift, [0.7, 0.3], atol=1e-12)

    def test_circle_recovery(self):
        x, target = [0.5, 0.0, 0.3], [0.0, 0.5, 0.3]
        g = recover_group_element(BALL, circle3([0.0, 0.0, 1.0]), x, target)
        assert np.allclose(moved(BALL, g, x), target, atol=1e-12)

    def test_off_orbit_reports_deviation(self):
        with pytest.raises(OffOrbitError) as excinfo:
            recover_group_element(BALL, full_so3(), [0.5, 0.0, 0.0], [0.8, 0.0, 0.0])
        assert excinfo.value.deviation == pytest.approx(0.3, abs=1e-12)

    def test_line_recovery_and_rejection(self):
        x = [0.1, 0.1]
        g = recover_group_element(torus(2), torus_line(1, 1), x, [0.4, 0.4])
        assert np.allclose(g.shift, [0.3, 0.3], atol=1e-12)
        with pytest.raises(OffOrbitError):
            recover_group_element(torus(2), torus_line(1, 1), x, [0.4, 0.6])

    def test_antipodal_recovery_still_maps(self):
        x, target = [0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]
        g = recover_group_element(BALL, full_so3(), x, target)
        assert np.allclose(moved(BALL, g, x), target, atol=1e-12)

    @pytest.mark.parametrize("r", [1e-300, 5e-10, 1e-9])
    @pytest.mark.parametrize("group", [circle3([0.0, 0.0, 1.0]), full_so3()])
    def test_tiny_orbits_recover_every_quadrature_node(self, group, r):
        """An orbit of radius r <= 1e-9 is still up to 2r across, so the
        recovered element must turn x onto the node, not stay the identity."""
        x = np.array([0.0, r, 0.0])
        nodes, _ = orbit_quadrature_coords(group, x, 0.1)
        for c in nodes:
            g = recover_group_element(BALL, group, x, c)
            assert pairwise_distance(BALL, moved(BALL, g, x), c)[0, 0] <= 1e-12

    @pytest.mark.parametrize("space, parent, x, seam, off", [
        (torus(2), "torus2", [0.0, 0.5], [1.0 - 1e-12, 0.5], [0.5, 0.5]),
        (torus(3), "torus3", [0.3, 0.0, 0.9], [0.3, 1.0 - 1e-12, 0.9], [0.3, 0.0, 0.4]),
    ])
    def test_trivial_recovery_measures_the_wrap_metric(self, space, parent, x, seam, off):
        # x and seam are 1e-12 apart across the wrap seam; off is 0.5 away
        g = recover_group_element(space, trivial_subgroup(parent), x, seam)
        assert np.all(g.shift == 0.0)
        with pytest.raises(OffOrbitError) as excinfo:
            recover_group_element(space, trivial_subgroup(parent), x, off)
        assert excinfo.value.deviation == pytest.approx(0.5, abs=1e-12)

    def test_sub_torus_recovery_measures_off_mask_coordinates_in_the_wrap_metric(self):
        x = [0.2, 0.0, 0.7]
        group = axis_translations(3, [0, 2])
        g = recover_group_element(torus(3), group, x, [0.9, 1.0 - 1e-12, 0.1])
        assert np.allclose(g.shift, [0.7, 0.0, 0.4], atol=1e-12)
        with pytest.raises(OffOrbitError) as excinfo:
            recover_group_element(torus(3), group, x, [0.2, 0.9, 0.7])
        assert excinfo.value.deviation == pytest.approx(0.1, abs=1e-12)


# (space, group, a row of the space, rows that are not: the wrong width, a
# NaN entry, an infinite entry, outside the space)
ROW_CASES = {
    "ball": (BALL, full_so3(), [0.5, 0.0, 0.0],
             [[0.5, 0.0], [np.nan, 0.0, 0.0], [0.5, np.inf, 0.0], [5.0, 0.0, 0.0]]),
    "torus": (torus(2), full_torus(2), [0.2, 0.3],
              [[0.2, 0.3, 0.4], [0.2, np.nan], [-np.inf, 0.3], [1.0, 0.3]]),
}
BAD_ROWS = ["width", "nan", "inf", "outside"]


class TestEntriesCheckTheirRows:
    @pytest.mark.parametrize("bad", range(4), ids=BAD_ROWS)
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_build_orbit_grid_rejects_the_row(self, case, bad):
        space, group, _, rows = ROW_CASES[case]
        with pytest.raises(SpaceMismatchError, match=f"does not lie in {space}"):
            build_orbit_grid(space, group, rows[bad], 0.1)

    @pytest.mark.parametrize("bad", range(4), ids=BAD_ROWS)
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_hypercube_side_rejects_the_row(self, case, bad):
        space, group, _, rows = ROW_CASES[case]
        with pytest.raises(SpaceMismatchError, match=f"does not lie in {space}"):
            hypercube_side(space, group, rows[bad])

    @pytest.mark.parametrize("bad", range(4), ids=BAD_ROWS)
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_recover_group_element_rejects_the_base_and_the_target(self, case, bad):
        space, group, good, rows = ROW_CASES[case]
        for x, target in ((rows[bad], good), (good, rows[bad])):
            with pytest.raises(SpaceMismatchError, match=f"does not lie in {space}"):
                recover_group_element(space, group, x, target)

    def test_a_base_outside_the_ball_builds_no_grid(self):
        # |x| = 5 once gave a 17-point grid on a circle outside the ball
        with pytest.raises(SpaceMismatchError):
            build_orbit_grid(BALL, circle3([0.0, 0.0, 1.0]), [5.0, 0.0, 0.0], 0.3)

    def test_rows_of_two_tori_are_a_library_error(self):
        # a torus(2) base and a torus(3) target once met in numpy broadcasting
        with pytest.raises(SpaceMismatchError):
            recover_group_element(torus(2), full_torus(2), [0.1, 0.2], [0.1, 0.2, 0.3])

    def test_an_entry_takes_one_row(self):
        with pytest.raises(SpaceMismatchError):
            build_orbit_grid(BALL, full_so3(), [[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]], 0.1)

    def test_the_grid_keeps_a_copy_of_its_base_row(self):
        x = np.array([0.4, 0.1, -0.2])
        grid = build_orbit_grid(BALL, full_so3(), x, 0.3)
        x[0] = 0.0
        assert grid.space == BALL and grid.base.tolist() == [0.4, 0.1, -0.2]


class TestBatchedGrids:
    @pytest.mark.parametrize("family", ["trivial", "circle", "so3", "line", "torus"])
    def test_batch_matches_per_point_construction(self, family):
        rng = substream(0, "batch", family)
        if family in ("trivial", "circle", "so3"):
            space = unit_ball3()
            group = {"trivial": trivial_subgroup(PARENT_SO3),
                     "circle": circle3([0.0, 0.0, 1.0]),
                     "so3": full_so3()}[family]
        else:
            space = torus(2)
            group = torus_line(1, 1) if family == "line" else full_torus(2)
        xs = sample_points(space, PointDistribution.UNIFORM_SPACE, 7, rng)
        h = 0.11
        coords, counts = orbit_coords_batch(space, group, xs, h)
        offset = 0
        for i in range(7):
            grid = build_orbit_grid(space, group, xs[i], h)
            assert counts[i] == grid.m
            block = coords[offset : offset + grid.m]
            offset += grid.m
            assert np.allclose(block, grid.orbit_coords, atol=1e-12)

    @pytest.mark.parametrize("h", [0.0, -0.1, float("nan"), float("inf")])
    def test_non_positive_bandwidth_rejected(self, h):
        xs = np.array([[0.5, 0.1, 0.2]])
        for group in (circle3([0.0, 0.0, 1.0]), full_so3()):
            with pytest.raises(ConfigError):
                orbit_coords_batch(unit_ball3(), group, xs, h)
            with pytest.raises(ConfigError):
                build_orbit_grid(BALL, group, xs[0], h)


_AXIS = np.array([0.6, 0.0, 0.8])
_BALL_ROWS = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.06, 0.0, 0.08],
                       [0.5, -0.2, 0.1], [-0.1, 0.7, 0.3], [0.0, 0.0, 0.9]])
_SPHERE_ROWS = np.vstack([_AXIS, -_AXIS, _BALL_ROWS[3:] / np.linalg.norm(_BALL_ROWS[3:], axis=1)[:, None]])
_TORUS_ROWS = np.array([[0.0, 0.0], [0.3, 0.7], [0.95, 0.05], [0.5, 0.999]])
_TORUS3_ROWS = np.array([[0.0, 0.0, 0.0], [0.45, 0.7, 0.05], [0.125, 0.375, 0.2]])


def _axis_distance(xs):
    return np.linalg.norm(xs - (xs @ _AXIS)[:, None] * _AXIS, axis=1)


# (space, group, rows, per-row side R and singular flag from the geometry,
# orbit dimension k) -- one line per family and configuration
PACKING_TABLE = {
    "trivial": (unit_ball3(), trivial_subgroup(PARENT_SO3), _BALL_ROWS,
                lambda xs: (np.zeros(len(xs)), np.ones(len(xs), bool)), 0),
    "circle_ball": (unit_ball3(), circle3(_AXIS), _BALL_ROWS,
                    lambda xs: (2.0 * _axis_distance(xs), _axis_distance(xs) <= 1e-9), 1),
    "circle_sphere": (unit_sphere2(), circle3(_AXIS), _SPHERE_ROWS,
                      lambda xs: (2.0 * _axis_distance(xs), _axis_distance(xs) <= 1e-9), 1),
    "so3_ball": (unit_ball3(), full_so3(), _BALL_ROWS,
                 lambda xs: (np.sqrt(2.0) * np.linalg.norm(xs, axis=1),
                             np.linalg.norm(xs, axis=1) <= 1e-9), 2),
    "so3_sphere": (unit_sphere2(), full_so3(), _SPHERE_ROWS,
                   lambda xs: (np.sqrt(2.0) * np.linalg.norm(xs, axis=1), np.zeros(len(xs), bool)), 2),
    "line": (torus(2), torus_line(2, -1), _TORUS_ROWS,
             lambda xs: (np.full(len(xs), 0.5), np.zeros(len(xs), bool)), 1),
    "torus2": (torus(2), full_torus(2), _TORUS_ROWS,
               lambda xs: (np.full(len(xs), 0.5), np.zeros(len(xs), bool)), 2),
    "torus3": (torus(3), full_torus(3), _TORUS3_ROWS,
               lambda xs: (np.full(len(xs), 0.5), np.zeros(len(xs), bool)), 3),
    # coordinate sub-tori of T^3 share the torus side 1/2
    "torus3_mask0": (torus(3), axis_translations(3, [0]), _TORUS3_ROWS,
                     lambda xs: (np.full(len(xs), 0.5), np.zeros(len(xs), bool)), 1),
    "torus3_mask12": (torus(3), axis_translations(3, [1, 2]), _TORUS3_ROWS,
                      lambda xs: (np.full(len(xs), 0.5), np.zeros(len(xs), bool)), 2),
    "torus3_mask012": (torus(3), axis_translations(3, [0, 1, 2]), _TORUS3_ROWS,
                       lambda xs: (np.full(len(xs), 0.5), np.zeros(len(xs), bool)), 3),
}


class TestPackingRule:
    @pytest.mark.parametrize("h", [0.013, 0.05, 0.2, 0.9])
    @pytest.mark.parametrize("case", sorted(PACKING_TABLE))
    def test_counts_follow_the_rung_rule(self, case, h):
        """counts = 1 on singular rows, else (floor(R / 2h) + 1) ** k, and
        singular rows keep the base point itself."""
        space, group, xs, geometry, k = PACKING_TABLE[case]
        side, singular = geometry(xs)
        assert orbit_dimension(group, space) == k
        coords, counts = orbit_coords_batch(space, group, xs, h)
        expected = np.where(singular, 1, (np.floor(side / (2.0 * h)).astype(np.int64) + 1) ** k)
        assert counts.tolist() == expected.tolist()
        assert coords.shape == (int(counts.sum()), space.ambient_dim)
        starts = np.cumsum(counts) - counts
        for i in np.flatnonzero(singular):
            assert np.array_equal(coords[starts[i]], xs[i])
        for i, x in enumerate(xs):
            assert hypercube_side(space, group, x) == pytest.approx(side[i], abs=1e-12)


class TestRowBound:
    def test_a_rung_count_past_int64_raises(self):
        # 2**32 rungs a side: their square wrapped int64 to an empty grid
        with pytest.raises(ConfigError, match="would put more than 2,000,000 orbit points"):
            build_orbit_grid(BALL, full_so3(), [2.0**-0.5, 0.0, 0.0], 1.0 / (2.0 * (2**32 - 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [1e-300, 5e-324])
    def test_a_bandwidth_past_the_float_range_raises_without_a_warning(self, h):
        # at 1e-300 a circle's count read -9.2e18, after a cast warning
        rows = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]])
        with pytest.raises(ConfigError, match=f"bandwidth h = {h!r}"):
            orbit_grid_counts(BALL, circle3([0.0, 0.0, 1.0]), rows, h)
        with pytest.raises(ConfigError, match=f"bandwidth h = {h!r}"):
            orbit_coords_batch(torus(2), full_torus(2), [[0.3, 0.7]], h)
        trivial = trivial_subgroup(PARENT_SO3)
        assert orbit_grid_counts(BALL, trivial, rows, h).tolist() == [1, 1]
        assert np.array_equal(orbit_coords_batch(BALL, trivial, rows, h)[0], rows)

    def test_the_bound_admits_its_own_count(self):
        # radius 1/2: side 1 and floor(1 / 2h) + 1 rungs on the circle
        row = np.array([[0.5, 0.0, 0.0]])
        circle = circle3([0.0, 0.0, 1.0])
        assert orbit_grid_counts(BALL, circle, row, 1.0 / (2 * 1_999_999)).tolist() == [2_000_000]
        with pytest.raises(ConfigError):
            orbit_grid_counts(BALL, circle, row, 1.0 / (2 * 2_000_000))


unit_vectors = (st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                .map(np.array)
                .filter(lambda v: np.linalg.norm(v) > 0.1)
                .map(lambda v: v / np.linalg.norm(v)))


@st.composite
def orbit_cases(draw):
    """(space, group, base point, h) over all six families, with the fixed
    points of the rotation actions (origin, circle axis) drawn on purpose."""
    family = draw(st.sampled_from(["trivial", "circle", "so3", "line", "torus", "mask"]))
    h = draw(st.floats(0.03, 0.7))
    if family in ("line", "torus", "mask"):
        d = 2 if family == "line" else draw(st.integers(1, 3))
        x = [draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(d)]
        if family == "line":
            p, q = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: v != (0, 0)))
            group = torus_line(p, q)
        elif family == "mask":
            group = axis_translations(d, draw(st.lists(st.integers(0, d - 1), min_size=1, unique=True)))
        else:
            group = full_torus(d)
        return torus(d), group, np.array(x), h
    space = draw(st.sampled_from([unit_ball3(), unit_sphere2()]))
    axis = draw(unit_vectors)
    group = {"trivial": trivial_subgroup(PARENT_SO3), "circle": circle3(axis), "so3": full_so3()}[family]
    where = draw(st.sampled_from(["generic", "on_axis", "origin"]))
    if where == "origin" and space == unit_ball3():
        return space, group, np.zeros(3), h
    radius = 1.0 if space == unit_sphere2() else draw(st.floats(0.0, 1.0))
    direction = axis if where != "generic" else draw(unit_vectors)
    return space, group, radius * direction, h


def assert_on_orbit(space, group, x, coords):
    """Every row of ``coords`` is reached from the row ``x`` of ``space``
    by a recovered element."""
    for c in coords:
        g = recover_group_element(space, group, x, c)
        assert pairwise_distance(space, moved(space, g, x), c)[0, 0] <= 1e-9


class TestGridProperties:
    @settings(max_examples=200, deadline=None)
    @given(orbit_cases())
    def test_grid_points_lie_on_the_orbit_and_are_packed(self, case):
        space, group, x, h = case
        grid = build_orbit_grid(space, group, x, h)
        assert grid.space == space and np.array_equal(grid.base, x)
        assert_on_orbit(space, group, x, grid.orbit_coords)
        acted = np.array([moved(space, g, x) for g in grid.elements])
        assert np.diag(pairwise_distance(space, acted, grid.orbit_coords)).max() <= 1e-9
        assert grid_is_well_packed(space, grid, h)
        if grid.singular:
            assert grid.m == 1 and np.array_equal(grid.orbit_coords[0], x)

    @settings(max_examples=100, deadline=None)
    @given(orbit_cases(), st.integers(0, 2**32 - 1))
    def test_quadrature_and_monte_carlo_points_lie_on_the_orbit(self, case, seed):
        space, group, x, h = case
        nodes, counts = orbit_quadrature_coords(group, x, h)
        assert counts.tolist() == [len(nodes)]
        assert_on_orbit(space, group, x, nodes)
        draws = sample_orbit_coords(group, x, 16, np.random.default_rng(seed))
        assert draws.shape == (1, 16, space.ambient_dim)
        assert_on_orbit(space, group, x, draws[0])
