"""Closed connected subgroups, the Hausdorff(U) metric, and delta-covers.

The searchable symmetry catalog consists of, per ambient group:

* rotations ``SO(3)``: the trivial group, the circles of rotations about a
  fixed axis (``circle3``), and the full rotation group;
* the flat 2-torus acting on itself: the trivial group, the closed lines
  through the origin with primitive integer direction ``(p, q)``, and the
  full torus;
* the flat d-torus: the coordinate sub-tori translating a masked subset of
  coordinates (``axis_translations``), the linear orbits of covariate
  sparsity; the mask of all d coordinates gives ``full_torus(d)``.

Every subgroup in the catalog is compact, so each has a normalised Haar
measure, uniform quadrature on its orbits, and finite nets of the whole
group.  Everything that depends on a subgroup's family -- orbit dimension,
Haar draws, quadrature nodes, nets, and the geometry of the orbit grids
of :mod:`orbitreg.orbit_grids` -- lives in one entry of
:data:`FAMILY_TABLE`.  An entry gives Haar draws and quadrature nodes as
element rows (quaternions or shifts); orbit samples, single draws and
quadrature points are those rows applied through the parent's one batched
action.  The three translation families share one implementation
parameterised by their generator rows.  Everything that depends on the
parent group -- the spaces it acts on, its identity, its dimension, its
batched action ``act_rows`` and the group metric on nets -- is the
parent's entry in :func:`orbitreg.groups.parent_group`, looked up from the
subgroup's ``parent`` name.

Subgroups of the same ambient group are compared with the Hausdorff metric
in the group metric, computed on finite nets of documented resolution.
Covers of the subgroup catalog at scale ``delta`` drive the symmetry
search, with the scale shrunk along a fixed schedule as the sample size
grows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, IncompatibleActionError, OffOrbitError, check_count, is_integer
from .groups import (
    PARENT_SO3,
    GroupElement,
    Rotation3,
    TorusShift,
    cross,
    parent_group,
    parent_torus,
    quat_canonical,
    quat_from_axis_angle,
)
from .randomness import polar_gaussian
from .spaces import CHUNK_ELEMENTS, CovariateSpace, pairwise_distance, wrap_rows


class SubgroupFamily(Enum):
    TRIVIAL = "trivial"
    CIRCLE3 = "circle3"
    FULL_SO3 = "full_so3"
    TORUS_LINE = "torus_line"
    FULL_TORUS = "full_torus"
    AXIS_TRANSLATIONS = "axis_translations"


@dataclass(frozen=True)
class ClosedSubgroup:
    """One member of the subgroup catalog, with its defining parameters."""

    family: SubgroupFamily
    parent: str
    axis: tuple[float, float, float] | None = None      # circle3
    direction: tuple[int, int] | None = None            # torus_line, coprime
    mask: tuple[int, ...] | None = None                 # axis_translations

    def axis_array(self) -> np.ndarray:
        return np.asarray(self.axis, dtype=np.float64)

    def direction_array(self) -> np.ndarray:
        return np.asarray(self.direction, dtype=np.float64)

    def canonical_key(self) -> tuple:
        """Deterministic sort key: family rank first, then parameters (axes
        rounded to 9 digits, so circles whose axes agree to that many name
        one candidate)."""
        if self.axis is not None:
            params = tuple(round(a, 9) for a in self.axis)
        else:
            params = self.direction or self.mask or ()
        return (FAMILY_TABLE[self.family].rank, self.family.value, params)

    def describe(self) -> str:
        return FAMILY_TABLE[self.family].describe(self)


# ---------------------------------------------------------------------------
# constructors

def trivial_subgroup(parent: str) -> ClosedSubgroup:
    return ClosedSubgroup(SubgroupFamily.TRIVIAL, parent)


def circle3(axis) -> ClosedSubgroup:
    u = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(u)
    if u.shape != (3,) or not abs(norm - 1.0) <= 1e-9:  # NaN fails the comparison
        raise ConfigError("circle3 axis must be a unit 3-vector")
    u = quat_canonical(u / norm)  # u and -u generate the same circle
    return ClosedSubgroup(SubgroupFamily.CIRCLE3, PARENT_SO3, axis=tuple(float(c) for c in u))


def full_so3() -> ClosedSubgroup:
    return ClosedSubgroup(SubgroupFamily.FULL_SO3, PARENT_SO3)


def torus_line(p: int, q: int) -> ClosedSubgroup:
    if not (is_integer(p) and is_integer(q)) or p == 0 and q == 0:
        raise ConfigError("torus line direction must be a nonzero pair of integers")
    g = math.gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return ClosedSubgroup(SubgroupFamily.TORUS_LINE, parent_torus(2), direction=(p, q))


def full_torus(d: int) -> ClosedSubgroup:
    check_count(d, 1, "torus dimension must be an integer of at least 1")
    return ClosedSubgroup(SubgroupFamily.FULL_TORUS, parent_torus(d))


def axis_translations(d: int, mask) -> ClosedSubgroup:
    check_count(d, 1, "torus dimension must be an integer of at least 1")
    mask = tuple(mask)
    if not all(is_integer(i) for i in mask):
        raise ConfigError("mask entries must be integer coordinate indices")
    mask = tuple(sorted(set(int(i) for i in mask)))
    if not mask or mask[0] < 0 or mask[-1] >= d:
        raise ConfigError(f"mask must select coordinates in [0, {d})")
    if len(mask) == d:  # the whole torus has one name
        return full_torus(d)
    return ClosedSubgroup(SubgroupFamily.AXIS_TRANSLATIONS, parent_torus(d), mask=mask)


# ---------------------------------------------------------------------------
# orbit dimension

def orbit_dimension(group: ClosedSubgroup, space: CovariateSpace) -> int:
    """Dimension of a principle orbit of the subgroup's action on the space."""
    parent_group(group.parent).check_acts_on(space)
    return FAMILY_TABLE[group.family].orbit_dim(group)


# ---------------------------------------------------------------------------
# uniform sampling and quadrature

def sample_group(group: ClosedSubgroup, rng: np.random.Generator) -> GroupElement:
    """One draw from the normalised Haar measure on the subgroup."""
    return parent_group(group.parent).element(FAMILY_TABLE[group.family].haar(group, rng, ()))


def sample_orbit_coords(group: ClosedSubgroup, x_coords: np.ndarray, m: int,
                        rng: np.random.Generator) -> np.ndarray:
    """``m`` images of each row of ``x_coords`` under i.i.d. uniform elements.

    Returns an array of shape (rows, m, ambient).  Draws are independent
    across rows, matching a Monte-Carlo orbit average evaluated pointwise.
    """
    xs = np.atleast_2d(np.asarray(x_coords, dtype=np.float64))
    elements = FAMILY_TABLE[group.family].haar(group, rng, (xs.shape[0], m))
    return parent_group(group.parent).act_rows(elements, xs[:, None, :])


def orbit_quadrature_coords(groups: ClosedSubgroup | Sequence[ClosedSubgroup],
                            xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic near-uniform quadrature nodes on each row's orbit.

    Approximates the full orbit average (the symmetrised value) without
    Monte-Carlo noise: 24 equally spaced angles on circles and other
    one-dimensional orbits, a 64-point Fibonacci lattice on sphere orbits,
    and a square lattice of about 64 points (8 x 8 on a 2-torus, 4 x 4 x 4
    on a 3-torus) on higher-dimensional torus orbits.
    Returns ``(coords, counts)`` shaped like
    :func:`orbitreg.orbit_grids.orbit_coords_batch`.

    ``groups`` is one subgroup or a sequence of them; a sequence gives the
    nodes of each subgroup in turn (subgroup, then row, then node) in one
    array, and one count per subgroup and row.  Consecutive subgroups of
    one family with one node count form a run, and each step of about
    ``CHUNK_ELEMENTS`` points (one subgroup's nodes at least) of a run is
    one call of the family's ``quadrature``, written in place.  Each point
    has the bits the subgroup's own call gives it.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    groups = [groups] if isinstance(groups, ClosedSubgroup) else list(groups)
    rows, width = xs.shape
    sizes = [quadrature_count(g) for g in groups]
    coords = np.empty((rows * sum(sizes), width))
    start = 0
    for (family, size), run in itertools.groupby(groups, lambda g: (g.family, quadrature_count(g))):
        run = list(run)
        step = max(1, CHUNK_ELEMENTS // max(rows * size, 1))
        for i in range(0, len(run), step):
            block = FAMILY_TABLE[family].quadrature(run[i : i + step], xs)
            stop = start + block.size // width
            coords[start:stop] = block.reshape(-1, width)
            start = stop
    return coords, np.repeat(np.asarray(sizes, dtype=np.int64), rows)


def quadrature_count(group: ClosedSubgroup) -> int:
    """Nodes per row that :func:`orbit_quadrature_coords` gives ``group``."""
    return FAMILY_TABLE[group.family].node_count(group)


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform points on the unit sphere (golden spiral)."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    radius = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    theta = golden * i
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)


# ---------------------------------------------------------------------------
# the family table

_SINGULAR_TOL = 1e-9
_RECOVER_TOL = 1e-9  # largest orbit deviation a recovered element may leave
_QUADRATURE_1D = 24  # quadrature nodes on a one-dimensional orbit
_QUADRATURE_2D = 64  # on a sphere orbit; flat orbits round it to a square lattice
_TORUS_SHADOW_SIDE = 0.5  # stays within the wrap metric's injectivity radius


class FamilyEntry:
    """Everything that depends on a subgroup's family, in one place.

    An entry states the canonical ``rank`` (trivial 0, one-parameter 1,
    full group 2).  Its methods take the subgroup ``g`` first, or a run
    ``groups`` of subgroups of the family; ``xs`` is row-stacked
    coordinates:

    * ``describe``: the catalog line;
    * ``orbit_dim(g)``: principal orbit dimension (``dim`` where it is
      fixed);
    * ``singular``: rows whose orbit is the point itself;
    * ``side``: per-row side of the hypercube in the orbit's tangent shadow;
    * ``place(g, xs, row, offsets)``: projects tangent-shadow
      ``offsets`` (one ``k``-vector per output point, belonging to base row
      ``row``) onto the orbit; the packing rule that lays the offsets out is
      :func:`orbitreg.orbit_grids.orbit_coords_batch`;
    * ``recover(g, space, x, target)``: the element taking the row ``x`` to
      the row ``target`` of ``space`` (within 1e-9);
    * ``haar(g, rng, shape)``: Haar draws as element rows (quaternions or
      shifts) of shape ``shape + (row width,)``;
    * ``nodes(groups)``: the fixed quadrature elements of each subgroup
      as element rows, shaped (subgroups, nodes, row width) and built from
      the stacked parameters (the circle and translation entries take an
      optional node ``count``, which their nets reuse as
      ``nodes([g], count)[0]``);
    * ``node_count(g)``: quadrature nodes per row (by default the number
      of ``nodes``);
    * ``quadrature(groups, xs)``: the quadrature points of each subgroup
      on each row, shaped (subgroups, rows, nodes, row width): by default
      the ``nodes`` applied through the parent's ``act_rows``; the full
      rotation group, whose nodes are a Fibonacci lattice on each row's
      sphere, not fixed elements, overrides it;
    * ``net``: an eps-net of the subgroup as element rows.

    Orbit samples, single Haar draws, quadrature points and translation
    grids apply element rows through the parent's ``act_rows``, so no
    entry writes the parent's action itself.
    """

    rank = 1

    def describe(self, g: ClosedSubgroup) -> str:
        return f"{g.family.value} parent={g.parent}"

    def orbit_dim(self, g: ClosedSubgroup) -> int:
        return self.dim

    def singular(self, g: ClosedSubgroup, xs: np.ndarray) -> np.ndarray:
        return np.zeros(len(xs), dtype=bool)

    def node_count(self, g: ClosedSubgroup) -> int:
        return self.nodes([g]).shape[1]

    def quadrature(self, groups: Sequence[ClosedSubgroup], xs: np.ndarray) -> np.ndarray:
        return parent_group(groups[0].parent).act_rows(self.nodes(groups)[:, None],
                                                       xs[None, :, None, :])


def _lattice(values: np.ndarray, k: int) -> np.ndarray:
    """All k-tuples of ``values`` as rows, first coordinate slowest."""
    mesh = np.meshgrid(*([values] * k), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _tangent_frame(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pairs spanning the planes orthogonal to the
    rows of ``unit``: each row's least aligned coordinate axis, made
    orthogonal to it, and the cross product."""
    k = np.argmin(np.abs(unit), axis=1)
    e1 = np.eye(3)[k] - unit * unit[np.arange(len(unit)), k][:, None]
    e1 /= _row_norms(e1)
    return e1, cross(unit, e1)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``a``, as a column.  The matmul form
    rounds like the one-row norm (``np.linalg.norm`` of a vector);
    ``norm(axis=1)`` and ``einsum`` move the last bit of some rows."""
    return np.sqrt(a[:, None, :] @ a[:, :, None])[:, 0]


def _minimal_rotation(source: np.ndarray, target: np.ndarray) -> Rotation3:
    """Minimal-angle rotation taking ``source`` to ``target`` (equal norms)."""
    normal = cross(source, target)
    norm_cross = float(np.linalg.norm(normal))
    dot = float(source @ target)
    if norm_cross <= 1e-14 * max(float(source @ source), 1e-300):
        if dot >= 0.0:
            return Rotation3(np.array([1.0, 0.0, 0.0, 0.0]))
        # Antipodal pair: any axis orthogonal to the source works; pick the
        # deterministic frame vector.
        unit = source / np.linalg.norm(source)
        axis = _tangent_frame(unit[None, :])[0][0]
        return Rotation3(quat_from_axis_angle(axis, np.pi))
    angle = float(np.arctan2(norm_cross, dot))
    return Rotation3(quat_from_axis_angle(normal / norm_cross, angle))


class _Trivial(FamilyEntry):
    rank = 0
    dim = 0

    def side(self, g, xs):
        return np.ones(len(xs))

    def place(self, g, xs, row, offsets):
        return xs[row]

    def recover(self, g, space, x, target):
        deviation = float(pairwise_distance(space, x, target)[0, 0])
        if deviation > _RECOVER_TOL:
            raise OffOrbitError("target is not the base point of the trivial orbit", deviation)
        return parent_group(g.parent).identity()

    def haar(self, g, rng, shape):
        identity = parent_group(g.parent).identity_row
        return np.broadcast_to(identity, shape + (len(identity),))

    def nodes(self, groups):
        return np.tile(parent_group(groups[0].parent).identity_row, (len(groups), 1, 1))

    def net(self, g, eps):
        return self.nodes([g])[0]


class _Circle(FamilyEntry):
    """Rotations about one axis; orbits are circles around the axis."""

    dim = 1

    def describe(self, g):
        return "circle3 axis=" + ",".join(f"{a:.12g}" for a in g.axis)

    @staticmethod
    def _split(g, xs):
        """Axial coordinate, radial part and distance to the axis of each row."""
        u = g.axis_array()
        axial = xs @ u
        radial = xs - axial[:, None] * u
        return axial, radial, np.linalg.norm(radial, axis=1)

    def singular(self, g, xs):
        return self._split(g, xs)[2] <= _SINGULAR_TOL

    def side(self, g, xs):
        # a circle of radius r casts an interval of length 2r on its tangent line
        return 2.0 * self._split(g, xs)[2]

    def place(self, g, xs, row, offsets):
        # an offset t on the tangent line sits at angle arcsin(t / r)
        u = g.axis_array()
        axial, radial, r = self._split(g, xs)
        safe_r = np.where(r <= _SINGULAR_TOL, 1.0, r)
        angles = np.arcsin(np.clip(offsets[:, 0] / safe_r[row], -1.0, 1.0))
        e1 = radial / safe_r[:, None]
        e2 = cross(u, e1)
        r_rep = r[row]
        return (axial[row, None] * u
                + r_rep[:, None] * np.cos(angles)[:, None] * e1[row]
                + r_rep[:, None] * np.sin(angles)[:, None] * e2[row])

    def recover(self, g, space, x, target):
        u = g.axis_array()
        ax_x, ax_t = float(x @ u), float(target @ u)
        rad_x = x - ax_x * u
        rad_t = target - ax_t * u
        r = float(np.linalg.norm(rad_x))
        deviation = float(np.hypot(ax_t - ax_x, np.linalg.norm(rad_t) - r))
        if deviation > _RECOVER_TOL:
            raise OffOrbitError("target does not lie on the rotation circle", deviation)
        if r == 0.0:  # any r > 0 needs the angle: the orbit is 2r across, maybe > tol
            return parent_group(g.parent).identity()
        e1 = rad_x / r
        e2 = cross(u, e1)
        angle = float(np.arctan2(rad_t @ e2, rad_t @ e1))
        return Rotation3(quat_from_axis_angle(u, angle))

    def haar(self, g, rng, shape):
        return quat_from_axis_angle(g.axis_array(), rng.random(shape) * 2.0 * np.pi)

    def nodes(self, groups, count=_QUADRATURE_1D):
        axes = np.array([g.axis for g in groups])[:, None, :]
        theta = np.arange(count) * (2.0 * np.pi / count)
        return quat_from_axis_angle(axes, np.broadcast_to(theta, (len(groups), count)))

    def node_count(self, g):  # without building the nodes
        return _QUADRATURE_1D

    def net(self, g, eps):
        return self.nodes([g], max(int(np.ceil(2.0 * np.pi / eps)), 1))[0]


class _FullSO3(FamilyEntry):
    """All rotations; orbits are spheres about the origin."""

    rank = 2
    dim = 2

    def singular(self, g, xs):
        return np.linalg.norm(xs, axis=1) <= _SINGULAR_TOL

    def side(self, g, xs):
        # a sphere of radius |x| casts a disc of radius |x| on its tangent
        # plane; the inscribed square has side sqrt(2) |x|
        return np.sqrt(2.0) * np.linalg.norm(xs, axis=1)

    def place(self, g, xs, row, offsets):
        # offsets in the tangent plane at x, moved along the normal onto the
        # sphere of radius |x| (float_power rounds like the scalar square)
        s = np.linalg.norm(xs, axis=1)
        unit = xs / np.where(s <= _SINGULAR_TOL, 1.0, s)[:, None]
        e1, e2 = _tangent_frame(unit)
        a1, a2 = offsets[:, 0], offsets[:, 1]
        normal = np.sqrt(np.maximum(np.float_power(s[row], 2) - a1**2 - a2**2, 0.0))
        return a1[:, None] * e1[row] + a2[:, None] * e2[row] + normal[:, None] * unit[row]

    def recover(self, g, space, x, target):
        deviation = abs(float(np.linalg.norm(target)) - float(np.linalg.norm(x)))
        if deviation > _RECOVER_TOL:
            raise OffOrbitError("target does not lie on the rotation sphere", deviation)
        return _minimal_rotation(x, target)

    def haar(self, g, rng, shape):
        # normalised Gaussian 4-vectors are uniform on the 3-sphere
        q = polar_gaussian(rng, 4 * math.prod(shape)).reshape(shape + (4,))
        norms = np.linalg.norm(q, axis=-1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return q / norms

    def node_count(self, g):
        return _QUADRATURE_2D

    def quadrature(self, groups, xs):
        radii = np.linalg.norm(xs, axis=1)
        points = radii[:, None, None] * fibonacci_sphere(_QUADRATURE_2D)[None, :, :]
        return np.broadcast_to(points, (len(groups),) + points.shape)

    def net(self, g, eps):
        return _so3_net(eps)


class _TorusTranslations(FamilyEntry):
    """Closed translation subgroups of a torus, along the rows of
    ``generators(g)``; orbits are flat.  Every generator row returns to the
    identity at parameter 1, so the subgroup is the image of the parameter
    cube [0, 1)^k.  Grid offsets run along the unit generators and wrap
    into [0, 1); the shadow is capped at side 1/2: offsets of at most 1/4
    per coordinate stay inside the injectivity radius of the wrapped
    metric, so distances remain exactly Euclidean.  Quadrature puts
    ``round(nodes ** (1/k))`` (at least 2) nodes on each parameter axis,
    with 24 nodes on a one-dimensional orbit and 64 otherwise."""

    def orbit_dim(self, g):
        return len(self.generators(g))

    def side(self, g, xs):
        return np.full(len(xs), _TORUS_SHADOW_SIDE)

    def place(self, g, xs, row, offsets):
        gens = self.generators(g)
        unit = gens / np.linalg.norm(gens, axis=1)[:, None]
        return parent_group(g.parent).act_rows(offsets @ unit, xs[row])

    def haar(self, g, rng, shape):
        gens = self.generators(g)
        return rng.random(shape + (len(gens),)) @ gens

    def nodes(self, groups, count=None):
        # sub-tori of different dimensions may share a node count, so each
        # subgroup's generators meet their own lattice
        return np.stack([self._nodes(self.generators(g), count) for g in groups])

    @staticmethod
    def _nodes(gens, count):
        k = len(gens)
        if count is None:
            count = max(int(round((_QUADRATURE_1D if k == 1 else _QUADRATURE_2D) ** (1.0 / k))), 2)
        return _lattice(np.arange(count) / count, k) @ gens

    def net(self, g, eps):
        # a parameter cell of side 1/count maps onto a cell of diameter
        # sqrt(k) |generator| / count <= eps (the rows share one length)
        gens = self.generators(g)
        count = max(int(np.ceil(np.sqrt(len(gens)) * float(np.linalg.norm(gens[0])) / eps)), 1)
        return wrap_rows(self.nodes([g], count)[0])


class _TorusLine(_TorusTranslations):
    """The closed line through the origin with primitive direction (p, q)."""

    def describe(self, g):
        return f"torus_line direction={g.direction[0]},{g.direction[1]}"

    def generators(self, g):
        return g.direction_array()[None, :]

    def recover(self, g, space, x, target):
        shift = TorusShift(target - x)
        p, q = g.direction
        residue = float(q * shift.shift[0] - p * shift.shift[1])
        deviation = abs(residue - round(residue)) / float(np.hypot(p, q))
        if deviation > _RECOVER_TOL:
            raise OffOrbitError("target does not lie on the line orbit", deviation)
        return shift


class _FullTorus(_TorusTranslations):
    rank = 2

    def generators(self, g):
        return np.eye(parent_group(g.parent).dim)

    def recover(self, g, space, x, target):
        return TorusShift(target - x)


class _AxisTranslations(_TorusTranslations):
    """Translations of the masked coordinates: a coordinate sub-torus."""

    def describe(self, g):
        return "axis_translations mask=" + ",".join(str(i) for i in g.mask)

    def generators(self, g):
        return np.eye(parent_group(g.parent).dim)[list(g.mask)]

    def recover(self, g, space, x, target):
        # the off-mask coordinates must already agree, in the wrap metric
        # centred in [-1/2, 1/2); the direct wrap of the difference would
        # move 6 % of recovered shifts by an ulp
        delta = wrap_rows(target - x + 0.5) - 0.5
        deviation = float(np.linalg.norm(np.delete(delta, g.mask)))
        if deviation > _RECOVER_TOL:
            raise OffOrbitError("target moves coordinates outside the translation mask", deviation)
        shift = np.zeros_like(delta)
        shift[list(g.mask)] = delta[list(g.mask)]
        return TorusShift(shift)


FAMILY_TABLE: dict[SubgroupFamily, FamilyEntry] = {
    SubgroupFamily.TRIVIAL: _Trivial(),
    SubgroupFamily.CIRCLE3: _Circle(),
    SubgroupFamily.FULL_SO3: _FullSO3(),
    SubgroupFamily.TORUS_LINE: _TorusLine(),
    SubgroupFamily.FULL_TORUS: _FullTorus(),
    SubgroupFamily.AXIS_TRANSLATIONS: _AxisTranslations(),
}


# ---------------------------------------------------------------------------
# finite nets of subgroups

def subgroup_net(group: ClosedSubgroup, eps: float) -> np.ndarray:
    """Finite net of the subgroup ``G`` as element rows.

    Every element of G lies within ``eps`` of a net point in the group
    metric.  Rotations are returned as (n, 4) unit quaternions,
    translations as (n, d) shift vectors.
    """
    if not 0.0 < eps < math.inf:
        raise ConfigError("net resolution must be finite and positive")
    return FAMILY_TABLE[group.family].net(group, eps)


def _so3_net(eps: float) -> np.ndarray:
    """Net of the full rotation group with radius <= eps in rotation angle.

    Rotations are unit quaternions q = (cos(psi), sin(psi) u) with
    psi in [0, pi/2] (the w >= 0 half of the 3-sphere, one representative
    per rotation).  The rotation-angle metric is twice the 3-sphere geodesic
    metric, so a net of 3-sphere radius eps/2 suffices.  We slice psi into
    rings and net each ring's axis sphere at a resolution proportional to
    1/sin(psi), which keeps the element count near the covering number.
    A point at (psi, u) is reached from the ring centre by a diagonal path
    of length at most sqrt(dpsi^2 + sin(psi_hi)^2 du^2), so splitting the
    radius budget rho = eps/2 evenly between the two terms suffices.
    """
    rho = eps / 2.0
    s_psi = rho * np.sqrt(2.0)
    ring_count = max(int(np.ceil((np.pi / 2.0) / s_psi)), 1)
    quats = [np.array([[1.0, 0.0, 0.0, 0.0]])]
    for k in range(ring_count):
        psi_lo = k * (np.pi / 2.0) / ring_count
        psi_hi = (k + 1) * (np.pi / 2.0) / ring_count
        psi = 0.5 * (psi_lo + psi_hi)
        r_axis = (rho / np.sqrt(2.0)) / max(np.sin(psi_hi), 1e-9)
        axes = sphere_net(min(r_axis, np.pi))
        ring = np.concatenate(
            [np.full((len(axes), 1), np.cos(psi)), np.sin(psi) * axes], axis=1
        )
        quats.append(ring)
    return np.concatenate(quats, axis=0)


def sphere_net(r: float) -> np.ndarray:
    """Deterministic net of the unit 2-sphere with angular radius <= r.

    The sphere is cut into latitude bands of height at most r*sqrt(2).
    Each band gets equally spaced points on its middle parallel, at a
    longitude spacing of at most r*sqrt(2) / S, where S is the largest
    sin(theta) in the band; the two poles are added.  A point of a band is
    at most r/sqrt(2) in latitude and r/sqrt(2) / S in longitude from its
    nearest band point, and the straight path between them in
    (theta, phi) has length at most sqrt((r/sqrt(2))^2 + (S r/sqrt(2) / S)^2)
    = r, so every point lies within angle r of the net.  Band point counts
    follow the area element sin(theta), so the net stays near-uniform
    instead of crowding the poles.
    """
    r = min(max(r, 1e-9), np.pi)
    s_theta = r * np.sqrt(2.0)
    bands = max(int(np.ceil(np.pi / s_theta)), 1)
    points = [np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]])]
    for k in range(bands):
        theta_lo = k * np.pi / bands
        theta_hi = (k + 1) * np.pi / bands
        theta = 0.5 * (theta_lo + theta_hi)
        if theta_lo <= np.pi / 2.0 <= theta_hi:
            sin_band = 1.0
        else:
            sin_band = max(np.sin(theta_lo), np.sin(theta_hi))
        s_phi = (r * np.sqrt(2.0)) / max(sin_band, 1e-9)
        count = max(int(np.ceil(2.0 * np.pi / s_phi)), 1)
        phi = np.arange(count) * (2.0 * np.pi / count)
        points.append(
            np.stack(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                 np.full(count, np.cos(theta))],
                axis=1,
            )
        )
    return np.concatenate(points, axis=0)


def hausdorff_U_distance(g: ClosedSubgroup, h: ClosedSubgroup,
                         net_resolution: float = 0.05) -> float:
    """Hausdorff distance between G and H in the group metric, on eps-nets.

    Every subgroup is compact, so the identity neighbourhood ``U`` of the
    name is the whole parent group.  The returned value is within
    ``2 * net_resolution`` of the exact Hausdorff distance (each point of
    either group is within eps of its net).
    """
    if g.parent != h.parent:
        raise IncompatibleActionError(f"subgroups of different parents: {g.parent} vs {h.parent}")
    metric = parent_group(g.parent).net_distance
    net_a = subgroup_net(g, net_resolution)
    net_b = subgroup_net(h, net_resolution)
    return float(max(_sup_inf(metric, net_a, net_b), _sup_inf(metric, net_b, net_a)))


def _sup_inf(metric, a: np.ndarray, b: np.ndarray) -> float:
    sup = 0.0
    chunk = max(1, CHUNK_ELEMENTS // max(len(b), 1))
    for start in range(0, len(a), chunk):
        sup = max(sup, float(metric(a[start : start + chunk], b).min(axis=1).max()))
    return sup


# ---------------------------------------------------------------------------
# delta-covers of the subgroup catalog

def delta_cover(parent: str, space: CovariateSpace, delta: float) -> list[ClosedSubgroup]:
    """Finite cover of the closed connected subgroups at scale ``delta``.

    Every closed connected subgroup of the parent is within ``delta`` of
    some returned subgroup in the Hausdorff metric.  The cover always
    contains the trivial group and the full parent group, so each orbit
    dimension stratum is represented.  It is returned as
    :func:`canonical_cover` gives it: one subgroup per canonical key, in
    key order, the order :func:`orbitreg.selection.global_ems` reports.

    On ``so3`` the circles are the rotations about the axes of
    ``sphere_net(delta / 2)``.  Circles whose axes are psi apart lie within
    Hausdorff distance 2 psi, and the net has a point within delta / 2 of
    every unit vector, so every circle is within delta of a cover circle.
    The axes u and -u name the same circle, so each net point is put in
    canonical sign, and an antipodal pair of net points (one canonical
    key) is kept once.  On ``torus2`` the lines are those of
    :func:`_torus_line_grid`.  A delta
    whose cover would enumerate more than ``_MAX_COVER_CANDIDATES`` net
    points or direction pairs (counted in closed form from delta) raises
    :class:`ConfigError` before anything is built.
    """
    if not 0.0 < delta < math.inf:
        raise ConfigError("delta must be finite and positive")
    parent_group(parent).check_acts_on(space)
    if parent == PARENT_SO3:
        return canonical_cover([trivial_subgroup(parent), *_circle_axis_cover(delta), full_so3()])
    if parent == parent_torus(2):
        return canonical_cover([trivial_subgroup(parent), *_torus_line_grid(delta), full_torus(2)])
    raise ConfigError(f"no cover construction for parent group {parent!r}")


def canonical_cover(cover: Sequence[ClosedSubgroup]) -> list[ClosedSubgroup]:
    """The first subgroup of each canonical key, in key order."""
    by_key: dict = {}
    for g in cover:
        by_key.setdefault(g.canonical_key(), g)
    return [by_key[key] for key in sorted(by_key)]


# The most candidates a cover may enumerate: the net points of the axis
# cover, the (p, q) pairs of the line grid.  The shrinking-delta schedule's
# largest cover, 6,982 circles at n = 3000, enumerates at most 16,700 net
# points, in 0.2 s on a 2-core x86-64 host; a million keeps every schedule
# and benchmark cover and refuses at once a delta whose cover would take
# minutes, or overflow as at delta = 1e-300.
_MAX_COVER_CANDIDATES = 1_000_000


def _check_cover_size(delta: float, candidates: float) -> None:
    if candidates > _MAX_COVER_CANDIDATES:
        raise ConfigError(f"delta = {delta!r} is too fine to build a cover for")


def _circle_axis_cover(delta: float) -> list[ClosedSubgroup]:
    """The circles about the axes of ``sphere_net(delta / 2)``, one per net
    point, each axis as :func:`circle3` makes it (normalised, in canonical
    sign, normalised again); :func:`delta_cover` keeps one per key."""
    # the net's bands, and points per band, number at most pi / s + 1 and
    # 2 pi / s + 1, where s = delta / sqrt(2) is its band height
    s = delta / math.sqrt(2.0)
    _check_cover_size(delta, (math.pi / s + 1.0) * (2.0 * math.pi / s + 1.0))
    axes = sphere_net(delta / 2.0)
    axes = quat_canonical(axes / _row_norms(axes))
    axes = axes / _row_norms(axes)
    return [ClosedSubgroup(SubgroupFamily.CIRCLE3, PARENT_SO3, axis=tuple(u)) for u in axes.tolist()]


def _torus_line_grid(delta: float) -> list[ClosedSubgroup]:
    """All primitive-direction lines of length at most 1/delta.

    A line with direction (p, q) covers the torus to within
    1 / (2 sqrt(p^2 + q^2)), so longer lines are within delta of the full
    torus and can be dropped; the remaining low-denominator directions are
    kept exactly, each once, in (p, q) order.
    """
    _check_cover_size(delta, (1.0 / delta + 1.0) * (2.0 / delta + 1.0))
    bound_sq = (1.0 / delta) ** 2
    lines = []
    limit = int(np.floor(1.0 / delta))
    for p in range(0, limit + 1):
        for q in range(-limit, limit + 1):
            if p == 0 and q != 1:
                continue
            if p > 0 and math.gcd(p, abs(q)) != 1:
                continue
            if p * p + q * q <= bound_sq and not (p == 0 and q == 0):
                lines.append(torus_line(p, q))
    return lines


def delta_schedule(n: int, beta: float, d: int, d_max: int) -> float:
    """Cover scale for sample size ``n``: shrinks so the cover-approximation
    bias stays below the statistical error of the fastest stratum (for a
    1-Lipschitz regression function and action)."""
    check_count(n, 1, "delta_schedule: n must be an integer of at least 1")
    check_count(d, 1, "delta_schedule: d must be an integer of at least 1")
    check_count(d_max, 0, "delta_schedule: d_max must be an integer of at least 0")
    if d_max > d:
        # a principal orbit is at most as large as the space
        raise ConfigError(f"delta_schedule: d_max ({d_max}) must not exceed d ({d})")
    if not 0.0 < beta < math.inf:
        raise ConfigError("delta_schedule: beta must be finite and positive")
    rate = float(n) ** (-2.0 * beta / (2.0 * beta + (d - d_max)))
    exponent = 1.0 / (2.0 * min(beta, 1.0))
    return (rate / 2.0) ** exponent


def catalog_lines(cover: list[ClosedSubgroup]) -> list[str]:
    """Plain-text catalog, one subgroup per line."""
    return [g.describe() for g in cover]
