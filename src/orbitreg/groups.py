"""Group elements, parent groups, their actions on spaces, and the group metric.

Two element variants cover the transformation catalog:

* ``Rotation3`` -- a 3D rotation stored as a unit quaternion (w, x, y, z)
  whose first nonzero component is positive (q and -q describe the same
  rotation);
* ``TorusShift`` -- a translation of the flat d-torus, reduced into [0, 1).

Everything that depends on the parent group is one :class:`ParentGroup`
entry, parsed once from the names ``"so3"`` and ``"torus{d}"`` by
:func:`parent_group`: the canonical form, product, inverse and metric of
element rows, and the batched action.  The element methods (``compose``,
``inverse``, ``distance``, ``act_on``) are written once, through those
rules; a row of the wrong shape or with a NaN or infinite entry is
rejected when the element is made.

The group metric is the minimal rotation angle for rotations (the length of
the shortest geodesic under the bi-invariant metric) and wrap-around
Euclidean distance for torus shifts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import ConfigError, IncompatibleActionError, InvalidElementError, VariantMismatchError
from .spaces import CovariateSpace, SpaceKind, flat_distance_matrix, wrap_rows

PARENT_SO3 = "so3"


def parent_torus(d: int) -> str:
    return f"torus{d}"


# ---------------------------------------------------------------------------
# quaternion helpers (array level, used by the batched fast paths as well)

def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity of rows of any width (quaternions, or circle
    axes): negate each row whose first nonzero component is negative."""
    q = np.asarray(q, dtype=np.float64)
    out = q.reshape(-1, q.shape[-1]).copy()
    for i in range(q.shape[-1]):
        undecided = np.all(out[:, :i] == 0.0, axis=1) if i else np.ones(len(out), bool)
        out[undecided & (out[:, i] < 0.0)] *= -1.0
    return out.reshape(q.shape)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _components(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return a[..., 0], a[..., 1], a[..., 2]


def _cross_components(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of 3-vector rows (broadcasting), bit for bit ``np.cross``:
    the same products and differences, without its per-call axis set-up."""
    return np.stack(_cross_components(_components(a), _components(b)), axis=-1)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate row vectors ``v`` by quaternion(s) ``q`` (broadcasting rows).

    v' = v + 2 w (u x v) + 2 u x (u x v), one component at a time: the
    same products and sums as on whole rows, bit for bit, but no
    broadcast loop runs over an axis of 3.  The 24 quadrature nodes of 54
    circles on 50 rows took 3.5 against 4.1 ms, and 300 Haar draws on
    each of 300 rows 6.3 against 7.1 ms (best of 40 interleaved runs,
    2-core x86-64 host)."""
    q = np.asarray(q, dtype=np.float64)
    v = _components(np.asarray(v, dtype=np.float64))
    w2 = 2.0 * q[..., 0]
    u = q[..., 1], q[..., 2], q[..., 3]
    uv = _cross_components(u, v)
    uuv = _cross_components(u, uv)
    return np.stack([v[i] + w2 * uv[i] + 2.0 * uuv[i] for i in range(3)], axis=-1)


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """The 3 x 3 rotation matrices of quaternion rows ``q``, shaped
    ``q.shape[:-1] + (3, 3)``: ``quat_matrix(q) @ v`` is ``quat_rotate(q, v)``
    to rounding.  Each row is scaled by ``2 / |q|^2``, so a row a few ulps
    off unit norm (as ``quat_from_axis_angle`` makes them) still gives a
    matrix orthogonal to rounding."""
    q = np.asarray(q, dtype=np.float64)
    # one copy makes each component contiguous, which halves the time
    w, x, y, z = np.ascontiguousarray(np.moveaxis(q, -1, 0))
    s = 2.0 / (w * w + x * x + y * y + z * z)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.stack([
        1.0 - s * (yy + zz), s * (xy - wz), s * (xz + wy),
        s * (xy + wz), 1.0 - s * (xx + zz), s * (yz - wx),
        s * (xz - wy), s * (yz + wx), 1.0 - s * (xx + yy),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))


def quat_from_axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    """Quaternion rows of the rotations by ``angle`` about the unit ``axis``
    rows, broadcasting ``angle`` against the leading axes of ``axis``; the
    sine and cosine are taken once per angle."""
    axis = np.asarray(axis, dtype=np.float64)
    half = np.asarray(angle, dtype=np.float64) / 2.0
    vector = np.sin(half)[..., None] * axis
    scalar = np.broadcast_to(np.cos(half)[..., None], vector.shape[:-1] + (1,))
    return np.concatenate([scalar, vector], axis=-1)


def quat_rotation_angle(q: np.ndarray) -> np.ndarray:
    """Minimal rotation angle in [0, pi] of quaternion(s) ``q``.

    Uses atan2 of the vector and scalar parts, which stays well conditioned
    for angles near 0 and near pi (arccos of the scalar part does not).
    """
    q = np.asarray(q, dtype=np.float64)
    w = np.abs(q[..., 0])
    v = np.linalg.norm(q[..., 1:], axis=-1)
    return 2.0 * np.arctan2(v, w)


# ---------------------------------------------------------------------------
# element variants

class _Element:
    """A group element stored as one row (a quaternion or a shift) in its
    parent's canonical form.  Products, inverses, the group metric and the
    action are the parent's row rules, so a variant only names its field
    and its parent."""

    _field: str

    @property
    def _row(self) -> np.ndarray:
        return getattr(self, self._field)

    def __post_init__(self):
        row = np.array(self._row, dtype=np.float64)
        # a shift's length names its torus, so the parent is found only
        # once the row is known to be one nonempty row
        if row.ndim != 1 or row.size == 0:
            raise InvalidElementError(f"an element is one nonempty row, got shape {row.shape}")
        object.__setattr__(self, self._field, row)
        object.__setattr__(self, self._field, self.parent_group.canonical(row))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._row, other._row)

    def __hash__(self):
        return hash((type(self).__name__, self._row.tobytes()))

    def _shared_parent(self, other: GroupElement) -> ParentGroup:
        mine, theirs = self.parent_group, other.parent_group
        if mine.name != theirs.name:
            raise VariantMismatchError(f"elements of different parents: {mine.name} vs {theirs.name}")
        return mine

    def compose(self, other: GroupElement) -> GroupElement:
        """Group product ``self * other`` (first apply ``other``, then ``self``)."""
        parent = self._shared_parent(other)
        return parent.element(parent.product(self._row, other._row))

    def inverse(self) -> GroupElement:
        parent = self.parent_group
        return parent.element(parent.invert(self._row))

    def distance(self, other: GroupElement) -> float:
        """Geodesic distance to ``other`` in the group metric."""
        return self._shared_parent(other).distance(self._row, other._row)

    def act_on(self, space: CovariateSpace, coords: np.ndarray) -> np.ndarray:
        """Apply the element to row-stacked coordinates of ``space``."""
        parent = self.parent_group
        parent.check_acts_on(space)
        return parent.act_rows(self._row, coords)


@dataclass(frozen=True, eq=False)
class Rotation3(_Element):
    """A rotation of R^3 as a unit quaternion (w, x, y, z)."""

    quaternion: np.ndarray
    _field = "quaternion"

    @property
    def parent_group(self) -> ParentGroup:
        return parent_group(PARENT_SO3)


@dataclass(frozen=True, eq=False)
class TorusShift(_Element):
    """Translation of the flat d-torus by ``shift``, reduced into [0, 1)."""

    shift: np.ndarray
    _field = "shift"

    @property
    def parent_group(self) -> ParentGroup:
        return parent_group(parent_torus(self.shift.size))


GroupElement = Rotation3 | TorusShift


# ---------------------------------------------------------------------------
# parent groups

def _rotation_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The nets' all-pairs metric keeps the cheap form 2 arccos|a.b| instead
    # of the parent's element `distance`.  On a 2-core x86 machine 65,536
    # pairs took 0.65 ms here, against 5.4 ms through quat_rotation_angle
    # (atan2) and 6.7 ms in the exact chord form, and with the chord form
    # `validate --quick` took 10 s instead of 1.7 s.  The element metric
    # stays exact: this form puts a rotation up to 6e-8 from itself.
    dots = np.abs(np.asarray(a) @ np.asarray(b).T)
    return 2.0 * np.arccos(np.clip(dots, -1.0, 1.0))


def _unit_quaternion(q: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(q)
    if abs(norm - 1.0) > 1e-9:
        raise InvalidElementError(f"quaternion must be unit norm, got |q| = {norm!r}")
    # + 0.0 turns -0.0 (as in the identity's inverse) into 0.0, so equal
    # rotations hash alike
    return quat_canonical(q / norm) + 0.0


def _rotation_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(quat_rotation_angle(quat_multiply(quat_conjugate(a), b)))


def _shift_rows(shifts: np.ndarray, coords: np.ndarray) -> np.ndarray:
    return wrap_rows(np.add(coords, shifts))


def _canonical_shift(s: np.ndarray) -> np.ndarray:
    # + 0.0 gives a new row and turns -0.0 (the negated identity) into 0.0,
    # so equal shifts hash alike
    return wrap_rows(s) + 0.0


def _shift_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.abs(a - b)
    return float(np.linalg.norm(np.minimum(diff, 1.0 - diff)))


@dataclass(frozen=True)
class ParentGroup:
    """Everything that depends on the parent group: its ``name`` (the key of
    ``ClosedSubgroup.parent``), element variant, the dimension and ``kinds``
    of the spaces it acts on, the principal orbit dimension of the whole
    group, the identity row and the batched metric of its nets, its one
    batched action ``act_rows(elements, coords)`` (element rows --
    quaternions or shifts -- applied to coordinate rows, broadcasting the
    leading axes of both), and the rules of single element rows:
    ``reduce`` (the canonical form of a checked row: a unit quaternion
    with its first nonzero component positive, or a shift reduced into
    [0, 1)), ``product``, ``invert`` and the group metric ``distance``.
    Shift rows -- translated points and canonical shifts -- are reduced by
    :func:`orbitreg.spaces.wrap_rows`, so they never come out as 1.0.
    Every orbit point set -- an element's action, Haar orbit samples,
    quadrature nodes -- goes through ``act_rows``, except the quadrature
    points of circles (one product of :func:`quat_matrix` rotation
    matrices) and of the full rotation group (a Fibonacci lattice)."""

    name: str
    element: type
    dim: int
    max_orbit_dim: int
    kinds: tuple[SpaceKind, ...]
    identity_row: tuple[float, ...]
    net_distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    act_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reduce: Callable[[np.ndarray], np.ndarray]
    product: Callable[[np.ndarray, np.ndarray], np.ndarray]
    invert: Callable[[np.ndarray], np.ndarray]
    distance: Callable[[np.ndarray, np.ndarray], float]

    def check_acts_on(self, space: CovariateSpace) -> None:
        """The one rule for the spaces a parent acts on."""
        if space.kind not in self.kinds or space.ambient_dim != self.dim:
            raise IncompatibleActionError(f"{self.name} does not act on {space}")

    def canonical(self, row) -> np.ndarray:
        """The canonical form of an element row, read-only; a row of the
        wrong shape or with a NaN or infinite entry raises
        :class:`InvalidElementError`."""
        row = np.asarray(row, dtype=np.float64)
        width = len(self.identity_row)
        if row.shape != (width,) or not np.isfinite(row).all():
            raise InvalidElementError(f"{self.name} elements are rows of {width} finite numbers, "
                                      f"got {row!r}")
        row = self.reduce(row)
        row.flags.writeable = False
        return row

    def identity(self) -> GroupElement:
        return self.element(np.array(self.identity_row))


@lru_cache(maxsize=None)
def parent_group(name: str) -> ParentGroup:
    """The entry of a parent name: ``"so3"`` or ``"torus{d}"``."""
    if name == PARENT_SO3:
        return ParentGroup(name, Rotation3, 3, 2, (SpaceKind.UNIT_BALL3, SpaceKind.UNIT_SPHERE2),
                           (1.0, 0.0, 0.0, 0.0), _rotation_angles, quat_rotate,
                           _unit_quaternion, quat_multiply, quat_conjugate, _rotation_distance)
    match = re.fullmatch(r"torus([1-9][0-9]*)", name)
    if match is None:
        raise ConfigError(f"unknown parent group {name!r}")
    d = int(match[1])
    return ParentGroup(name, TorusShift, d, d, (SpaceKind.TORUS,), (0.0,) * d,
                       partial(flat_distance_matrix, wrap=True), _shift_rows,
                       _canonical_shift, np.add, np.negative, _shift_distance)


# ---------------------------------------------------------------------------
# constructors

def rotation_identity() -> Rotation3:
    return parent_group(PARENT_SO3).identity()


def rotation_about(axis, angle: float) -> Rotation3:
    """The rotation by ``angle`` about ``axis`` (a finite nonzero 3-vector)."""
    axis = np.asarray(axis, dtype=np.float64)
    angle = float(angle)
    norm = np.linalg.norm(axis)
    if axis.shape != (3,) or not 0.0 < norm < np.inf or not np.isfinite(angle):
        raise InvalidElementError("rotation_about needs a finite nonzero 3-vector axis "
                                  "and a finite angle")
    return Rotation3(quat_from_axis_angle(axis / norm, angle))
