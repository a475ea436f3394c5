import numpy as np
import pytest

from orbitreg import (
    InvalidElementError,
    Point,
    PointDistribution,
    Rotation3,
    TorusShift,
    VariantMismatchError,
    act,
    rotation_about,
    rotation_identity,
    sample_points,
    space_distance,
    substream,
    torus,
    unit_ball3,
)
from orbitreg.errors import IncompatibleActionError
from orbitreg.groups import (
    cross,
    parent_group,
    quat_canonical,
    quat_multiply,
    quat_conjugate,
    quat_rotation_angle,
)
from orbitreg.randomness import polar_gaussian


def random_rotations(rng, n):
    q = polar_gaussian(rng, 4 * n).reshape(n, 4)
    return q / np.linalg.norm(q, axis=1, keepdims=True)


class TestAction:
    def test_identity_fixes_everything(self):
        rng = substream(1, "id")
        for coords in sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, 5, rng):
            x = Point.of(unit_ball3(), coords)
            assert np.allclose(act(rotation_identity(), x).coords, x.coords, atol=0)

    def test_half_turn_about_z_flips_x_axis(self):
        g = rotation_about([0.0, 0.0, 1.0], np.pi)
        x = Point.of(unit_ball3(), [1.0, 0.0, 0.0])
        assert np.allclose(act(g, x).coords, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_torus_shift_wraps_mod_one(self):
        g = TorusShift(np.array([0.6, 0.9]))
        x = Point.of(torus(2), [0.7, 0.2])
        assert np.allclose(act(g, x).coords, [0.3, 0.1], atol=1e-12)

    def test_incompatible_variant_raises(self):
        with pytest.raises(IncompatibleActionError):
            act(rotation_identity(), Point.of(torus(2), [0.1, 0.1]))
        with pytest.raises(IncompatibleActionError):
            act(TorusShift(np.array([0.1, 0.2, 0.3])), Point.of(torus(2), [0.1, 0.1]))

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(InvalidElementError):
            Rotation3(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_action_compatibility_axiom(self):
        rng = substream(2, "axiom")
        pts = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, 50, rng)
        for g_quat, h_quat, coords in zip(random_rotations(rng, 50), random_rotations(rng, 50), pts):
            g, h = Rotation3(g_quat), Rotation3(h_quat)
            x = Point.of(unit_ball3(), coords)
            via_two = act(g, act(h, x))
            via_product = act(g.compose(h), x)
            assert np.linalg.norm(via_two.coords - via_product.coords) <= 1e-10

    def test_torus_action_compatibility(self):
        rng = substream(2, "taxiom")
        for _ in range(50):
            g, h = TorusShift(rng.random(2)), TorusShift(rng.random(2))
            x = Point.of(torus(2), rng.random(2))
            assert np.linalg.norm(act(g, act(h, x)).coords - act(g.compose(h), x).coords) <= 1e-10


class TestCross:
    @pytest.mark.parametrize("shapes", [((1000, 3), (1000, 3)), ((1, 24, 3), (40, 1, 3)),
                                        ((3,), (50, 3)), ((3,), (3,))])
    def test_equals_numpy_cross_bit_for_bit(self, shapes):
        rng = substream(3, "cross")
        a, b = (polar_gaussian(rng, int(np.prod(s))).reshape(s) for s in shapes)
        expected = np.cross(a, b)
        got = cross(a, b)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


class TestComposeInverse:
    def test_compose_with_identity(self):
        g = rotation_about([0.0, 1.0, 0.0], 0.7)
        assert g.compose(rotation_identity()) == g
        assert rotation_identity().compose(g) == g

    def test_torus_inverse_is_mod_one_negation(self):
        assert np.allclose(TorusShift(np.array([0.3])).inverse().shift, [0.7], atol=1e-12)

    def test_same_axis_rotations_add_angles(self):
        u = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        g = rotation_about(u, 0.4).compose(rotation_about(u, 0.5))
        assert g.distance(rotation_about(u, 0.9)) <= 1e-12

    def test_inverse_cancels(self):
        rng = substream(3, "inv")
        for q in random_rotations(rng, 20):
            g = Rotation3(q)
            assert g.compose(g.inverse()).distance(rotation_identity()) <= 1e-12
        for _ in range(20):
            g = TorusShift(rng.random(3))
            assert np.allclose(g.compose(g.inverse()).shift, 0.0, atol=1e-12)

    def test_variant_mismatch(self):
        with pytest.raises(VariantMismatchError):
            rotation_identity().compose(TorusShift(np.array([0.1])))
        with pytest.raises(VariantMismatchError):
            TorusShift(np.array([0.1])).distance(TorusShift(np.array([0.1, 0.2])))


class TestGroupDistance:
    def test_quarter_turn_distance(self):
        assert rotation_identity().distance(
            rotation_about([0, 0, 1], np.pi / 2)) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_self_distance_zero(self):
        g = rotation_about([0, 1, 0], 1.1)
        assert g.distance(g) == 0.0

    def test_torus_distance_wraps(self):
        a = TorusShift(np.array([0.9, 0.0]))
        b = TorusShift(np.array([0.1, 0.0]))
        assert a.distance(b) == pytest.approx(0.2, abs=1e-12)

    def test_metric_axioms_on_random_rotation_triples(self):
        rng = substream(4, "triples")
        n = 10_000
        qa, qb, qc = (random_rotations(rng, n) for _ in range(3))
        dab = quat_rotation_angle(quat_multiply(quat_conjugate(qa), qb))
        dba = quat_rotation_angle(quat_multiply(quat_conjugate(qb), qa))
        dac = quat_rotation_angle(quat_multiply(quat_conjugate(qa), qc))
        dcb = quat_rotation_angle(quat_multiply(quat_conjugate(qc), qb))
        assert np.max(np.abs(dab - dba)) <= 1e-10
        assert np.max(dab - (dac + dcb)) <= 1e-10

    def test_metric_axioms_on_random_torus_triples(self):
        rng = substream(4, "ttriples")
        a, b, c = (rng.random((10_000, 2)) for _ in range(3))

        def dist(u, v):
            diff = np.abs(u - v)
            diff = np.minimum(diff, 1.0 - diff)
            return np.sqrt(np.sum(diff * diff, axis=1))

        assert np.max(np.abs(dist(a, b) - dist(b, a))) <= 1e-12
        assert np.max(dist(a, b) - (dist(a, c) + dist(c, b))) <= 1e-10


class TestCanonicalisation:
    def test_negated_quaternion_is_the_same_rotation(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        assert Rotation3(q) == Rotation3(-q)

    def test_first_nonzero_component_positive(self):
        q = quat_canonical(np.array([0.0, -1.0, 0.0, 0.0]))
        assert q[1] == 1.0

    def test_negated_identity_shift_hashes_as_the_identity(self):
        # -0.0 is already in [0, 1), so the reduction alone would keep it
        e = parent_group("torus3").identity()
        assert e.inverse() == e and hash(e.inverse()) == hash(e)
        assert len({e, e.inverse(), TorusShift(np.array([-0.0, 0.0, -0.0]))}) == 1


class TestIsometryAndLipschitz:
    def test_rotations_are_isometries(self):
        rng = substream(5, "iso")
        pts = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, 40, rng)
        for q in random_rotations(rng, 20):
            g = Rotation3(q)
            for i in range(0, 40, 2):
                x = Point.of(unit_ball3(), pts[i])
                y = Point.of(unit_ball3(), pts[i + 1])
                before = space_distance(x, y)
                after = space_distance(act(g, x), act(g, y))
                assert abs(before - after) <= 1e-10

    def test_torus_shifts_are_isometries(self):
        rng = substream(5, "tiso")
        for _ in range(50):
            g = TorusShift(rng.random(2))
            x = Point.of(torus(2), rng.random(2))
            y = Point.of(torus(2), rng.random(2))
            assert abs(space_distance(act(g, x), act(g, y)) - space_distance(x, y)) <= 1e-10

    def test_rotation_action_is_one_lipschitz_on_the_ball(self):
        rng = substream(5, "lip")
        n = 10_000
        qa, qb = random_rotations(rng, n), random_rotations(rng, n)
        X = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, n, rng)
        from orbitreg.groups import quat_rotate

        moved = np.linalg.norm(quat_rotate(qa, X) - quat_rotate(qb, X), axis=1)
        dg = quat_rotation_angle(quat_multiply(quat_conjugate(qa), qb))
        keep = dg > 1e-12
        assert np.max(moved[keep] / dg[keep]) <= 1.0 + 1e-9

    def test_torus_action_is_one_lipschitz(self):
        rng = substream(5, "tlip")
        n = 10_000
        ga, gb, X = rng.random((n, 2)), rng.random((n, 2)), rng.random((n, 2))
        dpos = np.abs(np.mod(X + ga, 1.0) - np.mod(X + gb, 1.0))
        dpos = np.minimum(dpos, 1.0 - dpos)
        moved = np.sqrt(np.sum(dpos * dpos, axis=1))
        diff = np.abs(ga - gb)
        diff = np.minimum(diff, 1.0 - diff)
        dg = np.sqrt(np.sum(diff * diff, axis=1))
        keep = dg > 1e-12
        assert np.max(moved[keep] / dg[keep]) <= 1.0 + 1e-9

    def test_identity_like_matches_variant(self):
        assert TorusShift(np.array([0.2, 0.3])).parent_group.identity() == TorusShift(np.zeros(2))
        assert parent_group("torus2").identity() == TorusShift(np.zeros(2))
        assert rotation_about([0, 0, 1], 0.3).parent_group.identity() == rotation_identity()


class TestElementInputs:
    @pytest.mark.parametrize("make", [
        lambda: Rotation3([np.nan, 0.0, 0.0, 0.0]),
        lambda: Rotation3([1.0, 0.0, 0.0]),
        lambda: rotation_about([0.0, 0.0, 1.0], np.nan),
        lambda: rotation_about([np.inf, 0.0, 0.0], 1.0),
        lambda: TorusShift([np.nan, 0.2]),
        lambda: TorusShift([np.inf, 0.2]),
        lambda: TorusShift(np.zeros((2, 2))),
        lambda: TorusShift([]),
    ], ids=["rotation_nan", "rotation_three_components", "rotation_about_nan_angle",
            "rotation_about_inf_axis", "shift_nan", "shift_inf", "shift_matrix", "shift_empty"])
    def test_bad_element_rejected(self, make):
        with pytest.raises(InvalidElementError):
            make()

    def test_parent_rejects_row_of_another_width(self):
        with pytest.raises(InvalidElementError):
            parent_group("torus2").canonical([0.1, 0.2, 0.3])


class TestElementOperationsBitIdentical:
    """compose, inverse and distance against the per-variant formulas,
    written out here, compared with ``==``."""

    PAIRS = 1000

    @staticmethod
    def _rotation_row(q):
        q = np.array(q, dtype=np.float64)
        return quat_canonical(q / np.linalg.norm(q))

    @staticmethod
    def _shift_row(s):
        s = np.mod(np.array(s, dtype=np.float64), 1.0)
        s[s == 1.0] = 0.0
        return s

    def test_rotations(self):
        rng = substream(6, "bits-so3")
        qs = random_rotations(rng, 2 * self.PAIRS)
        qs[::7, 0] = 0.0  # rows whose sign is fixed by a later component
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        for qa, qb in zip(qs[: self.PAIRS], qs[self.PAIRS :]):
            g, h = Rotation3(qa), Rotation3(qb)
            a, b = self._rotation_row(qa), self._rotation_row(qb)
            assert np.array_equal(g.quaternion, a) and np.array_equal(h.quaternion, b)
            assert np.array_equal(g.compose(h).quaternion, self._rotation_row(quat_multiply(a, b)))
            assert np.array_equal(g.inverse().quaternion, self._rotation_row(quat_conjugate(a)))
            assert g.distance(h) == float(quat_rotation_angle(quat_multiply(quat_conjugate(a), b)))

    def test_torus_shifts(self):
        rng = substream(6, "bits-torus")
        rows = rng.uniform(-2.0, 2.0, (2 * self.PAIRS, 3))
        rows[::9, 1] = -1e-18  # np.mod rounds these up to 1.0, which maps to 0
        for sa, sb in zip(rows[: self.PAIRS], rows[self.PAIRS :]):
            g, h = TorusShift(sa), TorusShift(sb)
            a, b = self._shift_row(sa), self._shift_row(sb)
            assert np.array_equal(g.shift, a) and np.array_equal(h.shift, b)
            assert np.array_equal(g.compose(h).shift, self._shift_row(a + b))
            assert np.array_equal(g.inverse().shift, self._shift_row(-a))
            diff = np.abs(a - b)
            assert g.distance(h) == float(np.linalg.norm(np.minimum(diff, 1.0 - diff)))
