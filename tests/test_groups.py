import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitreg import (
    InvalidElementError,
    PointDistribution,
    Rotation3,
    TorusShift,
    VariantMismatchError,
    rotation_about,
    rotation_identity,
    sample_points,
    substream,
    torus,
    unit_ball3,
)
from orbitreg.errors import IncompatibleActionError
from orbitreg.groups import (
    PARENT_SO3,
    parent_group,
    quat_canonical,
    quat_multiply,
    quat_conjugate,
    quat_from_axis_angle,
    quat_matrix,
    quat_rotation_angle,
)
from orbitreg.randomness import polar_gaussian
from orbitreg.spaces import flat_distance_matrix, pairwise_distance

BALL = unit_ball3()
T2 = torus(2)


def random_rotations(rng, n):
    q = polar_gaussian(rng, 4 * n).reshape(n, 4)
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def hamilton_rotate(q, v):
    """The rotation of the rows ``v`` by the quaternions ``q`` as the vector
    part of the Hamilton product q (0, v) conj(q): an independent
    reference for the rotation matrices."""
    pure = np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)
    return quat_multiply(quat_multiply(q, pure), quat_conjugate(q))[..., 1:]


class TestAction:
    def test_identity_fixes_everything(self):
        rng = substream(1, "id")
        X = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 5, rng)
        assert np.allclose(rotation_identity().act_on(BALL, X), X, atol=0)

    def test_half_turn_about_z_flips_x_axis(self):
        g = rotation_about([0.0, 0.0, 1.0], np.pi)
        assert np.allclose(g.act_on(BALL, [[1.0, 0.0, 0.0]]), [[-1.0, 0.0, 0.0]], atol=1e-12)

    def test_torus_shift_wraps_mod_one(self):
        g = TorusShift(np.array([0.6, 0.9]))
        assert np.allclose(g.act_on(T2, [[0.7, 0.2]]), [[0.3, 0.1]], atol=1e-12)

    def test_incompatible_variant_raises(self):
        with pytest.raises(IncompatibleActionError):
            rotation_identity().act_on(T2, [[0.1, 0.1]])
        with pytest.raises(IncompatibleActionError):
            TorusShift(np.array([0.1, 0.2, 0.3])).act_on(T2, [[0.1, 0.1]])

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(InvalidElementError):
            Rotation3(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_action_compatibility_axiom(self):
        rng = substream(2, "axiom")
        pts = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 50, rng)
        for g_quat, h_quat, x in zip(random_rotations(rng, 50), random_rotations(rng, 50), pts):
            g, h = Rotation3(g_quat), Rotation3(h_quat)
            via_two = g.act_on(BALL, h.act_on(BALL, x[None, :]))
            via_product = g.compose(h).act_on(BALL, x[None, :])
            assert np.abs(via_two - via_product).max() <= 1e-15

    def test_torus_action_compatibility(self):
        rng = substream(2, "taxiom")
        for _ in range(50):
            g, h = TorusShift(rng.random(2)), TorusShift(rng.random(2))
            x = rng.random((1, 2))
            assert np.linalg.norm(g.act_on(T2, h.act_on(T2, x)) - g.compose(h).act_on(T2, x)) <= 1e-10

    def test_rotation_rows_keep_norms(self):
        # SO(3)'s act_rows is the product of the rotation matrices: it keeps
        # each ball row's norm, and broadcasts element rows against points
        rng = substream(2, "matrix-action")
        X = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 4000, rng)
        q = random_rotations(rng, 4000)
        act = parent_group(PARENT_SO3).act_rows
        assert np.abs(np.linalg.norm(act(q, X), axis=1) - np.linalg.norm(X, axis=1)).max() <= 1e-15
        assert act(q[:5, None], X[None, :7]).shape == (5, 7, 3)
        assert act(q[0], X[0]).shape == (3,)

    def test_torus_distance_is_the_nets_wrap_metric(self):
        rng = substream(2, "tdist")
        edges = [0.0, 0.5, 1.0 - 2.0**-53, 1e-17, 0.25]
        for d in (1, 2, 3):
            rows = np.vstack([rng.random((200, d)), np.array(edges)[:, None].repeat(d, axis=1)])
            for a, b in zip(rows, np.roll(rows, 1, axis=0)):
                g, h = TorusShift(a), TorusShift(b)
                expected = flat_distance_matrix(g.shift[None], h.shift[None], wrap=True)[0, 0]
                assert g.distance(h) == expected


class TestQuatMatrix:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matrix_product_is_the_quaternion_rotation(self, seed):
        rng = np.random.default_rng(seed)
        q = random_rotations(rng, 40)
        v = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 40, rng)
        matrices = quat_matrix(q)
        assert matrices.shape == (40, 3, 3)
        assert np.abs((matrices @ v[:, :, None])[:, :, 0] - hamilton_rotate(q, v)).max() <= 2e-15
        assert np.abs(matrices @ matrices.swapaxes(1, 2) - np.eye(3)).max() <= 2e-15
        assert np.allclose(np.linalg.det(matrices), 1.0, rtol=0, atol=1e-14)

    def test_axis_angle_rows_give_orthogonal_matrices(self):
        # quat_from_axis_angle's rows are a few ulps off unit norm; the
        # 2 / |q|^2 scale keeps their matrices orthogonal to rounding
        rng = substream(3, "matrix-axis")
        axes = polar_gaussian(rng, 3 * 500).reshape(500, 3)
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        q = quat_from_axis_angle(axes, rng.random(500) * 2.0 * np.pi)
        matrices = quat_matrix(q).astype(np.longdouble)
        assert np.abs(matrices @ matrices.swapaxes(1, 2) - np.eye(3)).max() <= 1.5e-15
        assert quat_matrix(q[0]).shape == (3, 3)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 4).flatmap(lambda width: st.lists(
        st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0), min_size=width,
                 max_size=width), min_size=1, max_size=8)))
    def test_sign_rule_on_rows_of_any_width(self, rows):
        # axes (width 3) and quaternions (width 4), with zeros and -0.0
        rows = np.array(rows)
        out = quat_canonical(rows)
        for row, canonical in zip(rows, out):
            assert canonical.tobytes() in (row.tobytes(), (-row).tobytes())
            nonzero = canonical[canonical != 0.0]
            assert nonzero.size == 0 or nonzero[0] > 0.0
        assert quat_canonical(out).tobytes() == out.tobytes()

    def test_negated_identity_rotation_hashes_as_the_identity(self):
        # the inverse negates the vector part of [1, 0, 0, 0] into -0.0
        e = rotation_identity()
        assert e.inverse() == e and hash(e.inverse()) == hash(e)
        assert len({e, e.inverse(), Rotation3(np.array([1.0, -0.0, 0.0, -0.0]))}) == 1
        assert not np.signbit(e.inverse().quaternion).any()

    @pytest.mark.parametrize("element", [rotation_about([0.0, 0.0, 1.0], 0.7),
                                         rotation_about([1.0, -2.0, 0.5], 2.9),
                                         TorusShift(np.array([0.25, 0.0, 0.5]))],
                             ids=["rotation_z", "rotation", "shift"])
    def test_equal_elements_hash_alike(self, element):
        # every zero component, negated in turn, names the same element
        row = element._row
        twins = [type(element)(np.where(np.arange(row.size) == i, -row, row))
                 for i in np.flatnonzero(row == 0.0)]
        twins.append(element.inverse().inverse())
        for twin in twins:
            assert twin == element and hash(twin) == hash(element)

    def test_negated_identity_shift_hashes_as_the_identity(self):
        # -0.0 is already in [0, 1), so the reduction alone would keep it
        e = parent_group("torus3").identity()
        assert e.inverse() == e and hash(e.inverse()) == hash(e)
        assert len({e, e.inverse(), TorusShift(np.array([-0.0, 0.0, -0.0]))}) == 1


class TestIsometryAndLipschitz:
    def test_rotations_are_isometries(self):
        rng = substream(5, "iso")
        pts = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 40, rng)
        before = pairwise_distance(BALL, pts[0::2], pts[1::2]).diagonal()
        for q in random_rotations(rng, 20):
            moved = Rotation3(q).act_on(BALL, pts)
            after = pairwise_distance(BALL, moved[0::2], moved[1::2]).diagonal()
            assert np.abs(before - after).max() <= 1e-10

    def test_torus_shifts_are_isometries(self):
        rng = substream(5, "tiso")
        for _ in range(50):
            g = TorusShift(rng.random(2))
            xy = rng.random((2, 2))
            moved = g.act_on(T2, xy)
            before = pairwise_distance(T2, xy[:1], xy[1:])[0, 0]
            assert abs(pairwise_distance(T2, moved[:1], moved[1:])[0, 0] - before) <= 1e-10

    def test_rotation_action_is_one_lipschitz_on_the_ball(self):
        rng = substream(5, "lip")
        n = 10_000
        qa, qb = random_rotations(rng, n), random_rotations(rng, n)
        X = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, n, rng)
        act = parent_group(PARENT_SO3).act_rows
        moved = np.linalg.norm(act(qa, X) - act(qb, X), axis=1)
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
            # the wrap metric of the torus nets: min(|a - b|, 1 - |a - b|) per
            # coordinate, its squares summed as einsum sums them
            diff = np.abs(a - b)
            wrapped = np.minimum(diff, 1.0 - diff)
            assert g.distance(h) == float(np.sqrt(np.einsum("k,k->", wrapped, wrapped)))
