"""Group elements, parent groups, their actions on spaces, and the group metric.

Two element variants cover the transformation catalog:

* ``Rotation3`` -- a 3D rotation stored as a unit quaternion (w, x, y, z)
  with the sign convention w >= 0 (q and -q describe the same rotation);
* ``TorusShift`` -- a translation of the flat d-torus, reduced into [0, 1).

Each variant carries its own product, inverse and distance; an element
acts through its parent's batched action.  Everything that depends on the
parent group is one :class:`ParentGroup` entry, parsed once from the names
``"so3"`` and ``"torus{d}"`` by :func:`parent_group`.

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
from .spaces import CovariateSpace, Point, SpaceKind, flat_distance_matrix

PARENT_SO3 = "so3"


def parent_torus(d: int) -> str:
    return f"torus{d}"


# ---------------------------------------------------------------------------
# quaternion helpers (array level, used by the batched fast paths as well)

def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity: make the first nonzero component positive."""
    q = np.asarray(q, dtype=np.float64)
    flat = q.reshape(-1, 4)
    out = flat.copy()
    for i in range(4):
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


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of 3-vector rows (broadcasting), bit for bit ``np.cross``:
    the same products and differences, without its per-call axis set-up."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate row vectors ``v`` by quaternion(s) ``q`` (broadcasting rows)."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = q[..., :1]
    u = q[..., 1:]
    # v' = v + 2 w (u x v) + 2 u x (u x v)
    uv = cross(u, v)
    return v + 2.0 * w * uv + 2.0 * cross(u, uv)


def quat_from_axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    half = angle / 2.0
    s = np.sin(half)
    return np.concatenate(
        [np.cos(half)[..., None], s[..., None] * axis], axis=-1
    )


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
    """Equality, hashing, the same-parent check and the action of a
    one-array element; the action is the parent's batched ``act_rows``."""

    _field: str

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(getattr(self, self._field), getattr(other, self._field))

    def __hash__(self):
        return hash((type(self).__name__, getattr(self, self._field).tobytes()))

    def _check_same_parent(self, other: GroupElement) -> None:
        mine, theirs = self.parent_group.name, other.parent_group.name
        if mine != theirs:
            raise VariantMismatchError(f"elements of different parents: {mine} vs {theirs}")

    def act_on(self, space: CovariateSpace, coords: np.ndarray) -> np.ndarray:
        parent = self.parent_group
        parent.check_acts_on(space)
        return parent.act_rows(getattr(self, self._field), coords)


@dataclass(frozen=True, eq=False)
class Rotation3(_Element):
    quaternion: np.ndarray
    _field = "quaternion"

    def __post_init__(self):
        q = np.array(self.quaternion, dtype=np.float64)
        if q.shape != (4,):
            raise InvalidElementError(f"quaternion must have 4 components, got shape {q.shape}")
        if abs(np.linalg.norm(q) - 1.0) > 1e-9:
            raise InvalidElementError(f"quaternion must be unit norm, got |q| = {np.linalg.norm(q)!r}")
        q = quat_canonical(q / np.linalg.norm(q))
        q.flags.writeable = False
        object.__setattr__(self, "quaternion", q)

    @property
    def parent_group(self) -> ParentGroup:
        return parent_group(PARENT_SO3)

    def compose(self, other: Rotation3) -> Rotation3:
        self._check_same_parent(other)
        return Rotation3(quat_multiply(self.quaternion, other.quaternion))

    def inverse(self) -> Rotation3:
        return Rotation3(quat_conjugate(self.quaternion))

    def distance(self, other: Rotation3) -> float:
        self._check_same_parent(other)
        return float(quat_rotation_angle(quat_multiply(quat_conjugate(self.quaternion),
                                                       other.quaternion)))


@dataclass(frozen=True, eq=False)
class TorusShift(_Element):
    """Translation of the flat d-torus by ``shift``, reduced into [0, 1)."""

    shift: np.ndarray
    _field = "shift"

    def __post_init__(self):
        s = np.mod(np.array(self.shift, dtype=np.float64), 1.0)
        s[s == 1.0] = 0.0
        s.flags.writeable = False
        object.__setattr__(self, "shift", s)

    @property
    def parent_group(self) -> ParentGroup:
        return parent_group(parent_torus(self.shift.size))

    def compose(self, other: TorusShift) -> TorusShift:
        self._check_same_parent(other)
        return TorusShift(self.shift + other.shift)

    def inverse(self) -> TorusShift:
        return TorusShift(-self.shift)

    def distance(self, other: TorusShift) -> float:
        self._check_same_parent(other)
        diff = np.abs(self.shift - other.shift)
        return float(np.linalg.norm(np.minimum(diff, 1.0 - diff)))


GroupElement = Rotation3 | TorusShift


# ---------------------------------------------------------------------------
# parent groups

def _rotation_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dots = np.abs(np.asarray(a) @ np.asarray(b).T)
    return 2.0 * np.arccos(np.clip(dots, -1.0, 1.0))


def _shift_rows(shifts: np.ndarray, coords: np.ndarray) -> np.ndarray:
    return np.mod(coords + shifts, 1.0)


@dataclass(frozen=True)
class ParentGroup:
    """Everything that depends on the parent group: its ``name`` (the key of
    ``ClosedSubgroup.parent``), element variant, the dimension and ``kinds``
    of the spaces it acts on, the principal orbit dimension of the whole
    group, the tag, identity row and batched metric of its nets, and its
    one batched action ``act_rows(elements, coords)``: element rows
    (quaternions or shifts) applied to coordinate rows, broadcasting the
    leading axes of both.  Every orbit point set -- an element's action,
    Haar orbit samples, quadrature nodes -- goes through ``act_rows``."""

    name: str
    element: type
    dim: int
    max_orbit_dim: int
    kinds: tuple[SpaceKind, ...]
    tag: str
    identity_row: tuple[float, ...]
    net_distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    act_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def check_acts_on(self, space: CovariateSpace) -> None:
        """The one rule for the spaces a parent acts on."""
        if space.kind not in self.kinds or space.ambient_dim != self.dim:
            raise IncompatibleActionError(f"{self.name} does not act on {space}")

    def identity(self) -> GroupElement:
        return self.element(np.array(self.identity_row))


@lru_cache(maxsize=None)
def parent_group(name: str) -> ParentGroup:
    """The entry of a parent name: ``"so3"`` or ``"torus{d}"``."""
    if name == PARENT_SO3:
        return ParentGroup(name, Rotation3, 3, 2, (SpaceKind.UNIT_BALL3, SpaceKind.UNIT_SPHERE2),
                           "rotation", (1.0, 0.0, 0.0, 0.0), _rotation_angles, quat_rotate)
    match = re.fullmatch(r"torus([1-9][0-9]*)", name)
    if match is None:
        raise ConfigError(f"unknown parent group {name!r}")
    d = int(match[1])
    return ParentGroup(name, TorusShift, d, d, (SpaceKind.TORUS,), "shift", (0.0,) * d,
                       partial(flat_distance_matrix, period=1.0), _shift_rows)


# ---------------------------------------------------------------------------
# constructors and group operations

def rotation_identity() -> Rotation3:
    return parent_group(PARENT_SO3).identity()


def rotation_about(axis, angle: float) -> Rotation3:
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise InvalidElementError("rotation axis must be nonzero")
    return Rotation3(quat_from_axis_angle(axis / norm, float(angle)))


def torus_identity(d: int) -> TorusShift:
    return parent_group(parent_torus(d)).identity()


def identity_like(g: GroupElement) -> GroupElement:
    return g.parent_group.identity()


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product g * h (first apply h, then g)."""
    return g.compose(h)


def inverse(g: GroupElement) -> GroupElement:
    return g.inverse()


def group_distance(g: GroupElement, h: GroupElement) -> float:
    """Geodesic distance between two elements of the same parent group."""
    return g.distance(h)


def act(g: GroupElement, x: Point) -> Point:
    """Apply a group element to a point of a compatible space."""
    return Point(act_on_coords(g, x.space, x.coords[None, :])[0], x.space)


def act_on_coords(g: GroupElement, space: CovariateSpace, coords: np.ndarray) -> np.ndarray:
    """Apply ``g`` to row-stacked coordinates (batched form of :func:`act`)."""
    return g.act_on(space, np.asarray(coords, dtype=np.float64))
