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
of :mod:`orbitreg.orbit_grids`, one tangent ``shadow`` per call that gives
each row's side (0 where the orbit is the point itself) and the
projection onto the orbit -- lives in one entry of :data:`FAMILY_TABLE`.
An entry gives Haar draws and quadrature nodes as element rows
(quaternions or shifts); orbit samples, single draws and quadrature points
are those rows applied through the parent's one batched action (a
rotation's matrix from :func:`orbitreg.groups.quat_matrix` times the row,
or a wrapped shift), except where a family builds its quadrature points
itself: circles by one matrix product of their nodes' stacked rotation
matrices (the same matrices), the full rotation group as a Fibonacci
lattice.
Quadrature nodes carry every orbit average of the ``uniform`` search and
its final prediction; Haar draws serve :func:`sample_group` and the tests'
oracles.  The three translation families share one implementation
parameterised by their generator rows.  A subgroup's canonical rank,
catalog line and quadrature node count follow from its orbit dimension
and parameters, so each is one rule for every family.  No row gets more
than ``CHUNK_ROWS`` quadrature nodes or grid points: a finer bandwidth
raises :class:`ConfigError` before anything is built.  Everything that
depends on the parent group -- the spaces it acts on, its identity, its
dimension, its batched action ``act_rows`` and the group metric on nets
-- is the parent's entry in :func:`orbitreg.groups.parent_group`, looked
up from the subgroup's ``parent`` name.

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

from .errors import (ConfigError, IncompatibleActionError, OffOrbitError, check_bandwidth,
                     check_count, is_integer)
from .groups import (
    PARENT_SO3,
    GroupElement,
    Rotation3,
    TorusShift,
    parent_group,
    parent_torus,
    quat_canonical,
    quat_from_axis_angle,
    quat_matrix,
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
        """Deterministic sort key: rank first (0 for the trivial group, 2
        for a subgroup whose orbits are as large as the parent's, 1
        otherwise), then family and parameters (axes rounded to 9 digits,
        so circles whose axes agree to that many name one candidate)."""
        k = FAMILY_TABLE[self.family].orbit_dim(self)
        rank = 0 if k == 0 else 2 if k == parent_group(self.parent).max_orbit_dim else 1
        if self.axis is not None:
            params = tuple(round(a, 9) for a in self.axis)
        else:
            params = self.direction or self.mask or ()
        return (rank, self.family.value, params)

    def describe(self) -> str:
        """The catalog line: the family and whichever parameter is set
        (floats to 12 significant digits, integers in full), else the
        parent."""
        for name in ("axis", "direction", "mask"):
            values = getattr(self, name)
            if values is not None:
                return f"{self.family.value} {name}=" + ",".join(
                    f"{v:.12g}" if isinstance(v, float) else str(v) for v in values)
        return f"{self.family.value} parent={self.parent}"


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
    across rows.  No prediction path uses them: they are an oracle for
    the quadrature nodes of :func:`orbit_quadrature_coords`.
    """
    xs = np.atleast_2d(np.asarray(x_coords, dtype=np.float64))
    elements = FAMILY_TABLE[group.family].haar(group, rng, (xs.shape[0], m))
    return parent_group(group.parent).act_rows(elements, xs[:, None, :])


def orbit_quadrature_coords(groups: ClosedSubgroup | Sequence[ClosedSubgroup],
                            xs: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic near-uniform quadrature nodes on each row's orbit.

    Approximates the full orbit average (the symmetrised value) for the
    ``uniform`` search and final prediction of :mod:`orbitreg.selection`,
    without randomness, with the node counts of :func:`_node_lattice` at
    bandwidth ``h``: equally spaced angles on circles, a Fibonacci lattice
    on sphere orbits, and a square lattice on flat orbits.
    Returns ``(coords, counts)`` shaped like
    :func:`orbitreg.orbit_grids.orbit_coords_batch`.

    ``groups`` is one subgroup or a sequence of them; a sequence gives the
    nodes of each subgroup in turn (subgroup, then row, then node) in one
    array, and one count per subgroup and row.  Consecutive subgroups of
    one family with one node lattice form a run, and each run is one call
    of the family's ``quadrature``, which writes straight into its part of
    the returned array in steps of about ``CHUNK_ELEMENTS`` points or
    entries (see :class:`FamilyEntry`).  A subgroup's points depend on the
    subgroup and the whole of ``xs`` only, not on the other subgroups, so
    each has the bits of the subgroup's own call on the same rows.  A
    circle applies its nodes' rotation matrices to the rows by matrix
    products, whose rounding may depend on how many rows they get: a
    row's points may move in the last bit when it is passed with other
    rows, and lie within 1e-15 of the node quaternions applied through
    ``act_rows`` on the unit ball.  A bandwidth that is not
    finite and positive raises :class:`ConfigError` (from
    :func:`_node_lattice`'s rule).
    """
    groups = [groups] if isinstance(groups, ClosedSubgroup) else list(groups)
    return _quadrature_coords(groups, [_node_lattice(g, h) for g in groups], xs)


def _quadrature_coords(groups: Sequence[ClosedSubgroup], lattices: Sequence[tuple[int, int]],
                       xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of :func:`orbit_quadrature_coords` for a sequence of
    subgroups, given each one's ``(per_axis, count)`` of
    :func:`_node_lattice` at the bandwidth, so a caller that has sized its
    passes by them does not compute them again."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    rows, width = xs.shape
    counts = [count for _, count in lattices]
    coords = np.empty((rows * sum(counts), width))
    start = 0
    for (family, (per_axis, count)), run in itertools.groupby(
            zip(groups, lattices), lambda item: (item[0].family, item[1])):
        run = [g for g, _ in run]
        stop = start + len(run) * rows * count
        FAMILY_TABLE[family].quadrature(run, xs, per_axis,
                                        coords[start:stop].reshape(len(run), rows, count, width))
        start = stop
    return coords, np.repeat(np.asarray(counts, dtype=np.int64), rows)


def _node_lattice(group: ClosedSubgroup, h: float) -> tuple[int, int]:
    """``(per_axis, count)``: the quadrature nodes per parameter axis and
    per row that :func:`orbit_quadrature_coords` gives ``group`` at
    bandwidth ``h``.

    An orbit of dimension k = 0 gets one node.  Otherwise each of the k
    parameter axes gets ``p = max(round(m ** (1/k)), 2, ceil(L / (c h)))``
    nodes, where m is 24 and c is 1 on a one-dimensional orbit, m is 64
    and c is 2 otherwise, and L is the longest orbit's extent along the
    axis: 2 pi on circles (the unit circle), 2 sqrt(pi) on spheres (the
    side of a square of the unit sphere's area), ``|(p, q)|`` on a torus
    line and 1 on each axis of a sub-torus.  A row gets ``p ** k`` nodes:
    at least 24 on circles and lines and 64 on spheres and 2- and 3-tori,
    and enough that neighbouring nodes are at most about c h apart.  So
    the nodes' h-balls overlap along the orbit, and their average pools
    the data of the orbit's whole h-tube, as the exact orbit average does,
    at every bandwidth: its variance stays within a fixed factor of the
    orbit average's, so it keeps that average's rate in n.  With a fixed
    count the gaps would outgrow c h as h shrinks (circles from n = 213,
    full SO(3) from n = 92, at a = beta = 1).  A torus line's node average of
    ``exp(2 pi i k.x)`` is exact for every frequency ``|k| < 1 / h`` (with
    24 nodes, a line whose direction agrees with (1, 1) mod 24 would share
    its nodes).  A bandwidth that is not finite and positive, or so small
    that a row would get more than ``CHUNK_ROWS`` nodes, raises
    :class:`ConfigError`.
    """
    h = check_bandwidth(h)
    entry = FAMILY_TABLE[group.family]
    k = entry.orbit_dim(group)
    if k == 0:
        return 1, 1
    least, gap = (_QUADRATURE_1D, _NODE_GAP_1D) if k == 1 else (_QUADRATURE_2D, _NODE_GAP_2D)
    per_axis = max(round(least ** (1.0 / k)), 2, entry.extent(group) / (gap * h))
    per_axis = math.ceil(min(per_axis, CHUNK_ROWS + 1))  # an infinite count has no ceiling
    if per_axis ** k > CHUNK_ROWS:
        raise _too_many_points(h)
    return per_axis, per_axis ** k


# the most orbit points one row may get, quadrature nodes or grid points,
# and the most one prediction pass of :mod:`orbitreg.selection` holds,
# which imports it (48 MB per copy at three coordinates): a bandwidth that
# would put more on one row is refused before anything is allocated (at
# h = 1e-12 a uniform circle would take 6e12 nodes a row).  It lies above
# the largest bandwidth class of every benchmark workload (about 0.8
# million points, the shrinking-delta cover at n = 50) and above every
# final prediction there (at most 200 x 144 nodes; the grid search and final
# of select_grid build 0.12 million grid points per op in all), so those
# passes are never split and their numbers do not move.
CHUNK_ROWS = 2_000_000


def _too_many_points(h: float) -> ConfigError:
    """The error for a bandwidth ``h`` that would put more than
    ``CHUNK_ROWS`` orbit points on one row: the node rule and the rung
    rule of :mod:`orbitreg.orbit_grids` raise it before any point is built."""
    return ConfigError(f"bandwidth h = {h!r} would put more than {CHUNK_ROWS:,} "
                       "orbit points on one row")


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

_SINGULAR_TOL = 1e-9  # a row this close to the fixed set is its own orbit
_RECOVER_TOL = 1e-9  # largest orbit deviation a recovered element may leave
_QUADRATURE_1D = 24  # quadrature nodes on a one-dimensional orbit
_QUADRATURE_2D = 64  # about this many on a higher-dimensional one
# the widest gap between neighbouring nodes, in bandwidths: with pure noise
# a circle's node average then has 1.15 times the orbit average's variance
# (1.29 with 24 nodes at n = 3000), and a sphere's 1.57 (15 with 64 nodes);
# a gap of h on a sphere would take four times its nodes
_NODE_GAP_1D = 1.0
_NODE_GAP_2D = 2.0
_TORUS_SHADOW_SIDE = 0.5  # stays within the wrap metric's injectivity radius


class FamilyEntry:
    """Everything that depends on a subgroup's family, in one place.

    What follows from the orbit dimension and the parameters alone -- the
    canonical rank, the catalog line and the quadrature node counts -- is
    derived once, in :meth:`ClosedSubgroup.canonical_key`,
    :meth:`ClosedSubgroup.describe` and :func:`_node_lattice`.  An
    entry's methods take the subgroup ``g`` first, or a run ``groups`` of
    subgroups of the family; ``xs`` is row-stacked coordinates:

    * ``orbit_dim(g)``: principal orbit dimension (``dim`` where it is
      fixed);
    * ``extent(g)``: the longest orbit's length along each parameter axis,
      which sets the quadrature node count at small bandwidths and the
      net's point count (0 for the trivial group);
    * ``shadow(g, xs)``: ``(side, place)``, the orbit's tangent shadow at
      each row, from one pass over the rows' geometry: ``side`` is the side
      of the hypercube in it, exactly 0 on a row whose orbit is the point
      itself (within ``_SINGULAR_TOL`` of the fixed set), and
      ``place(row, offsets)`` projects shadow ``offsets`` (one ``k``-vector
      per output point, belonging to base row ``row``) onto the orbit; the
      packing rule that lays the offsets out is
      :func:`orbitreg.orbit_grids.orbit_coords_batch`;
    * ``recover(g, space, x, target)``: the element taking the row ``x`` to
      the row ``target`` of ``space`` (within 1e-9);
    * ``haar(g, rng, shape)``: Haar draws as element rows (quaternions or
      shifts) of shape ``shape + (row width,)``;
    * ``nodes(groups, count)``: the fixed quadrature elements of each
      subgroup as element rows, ``count`` per parameter axis, shaped
      (subgroups, nodes, row width) and built from the stacked parameters
      (the circle and translation nets reuse them as
      ``nodes([g], count)[0]``);
    * ``quadrature(groups, xs, count, out)``: writes the quadrature points
      of each subgroup on each row, ``count`` nodes per parameter axis,
      into ``out``, a C-contiguous array shaped (subgroups, rows, nodes,
      row width): by default the ``nodes`` applied through the parent's
      ``act_rows``, in steps of about ``CHUNK_ELEMENTS`` points that
      bound its temporaries; circles override it with the rotation
      matrices that SO(3)'s ``act_rows`` multiplies by
      (:func:`orbitreg.groups.quat_matrix`), each subgroup's stacked and
      applied to its rows in products of about ``CHUNK_ELEMENTS``
      entries, and
      the full rotation group, whose nodes are a Fibonacci lattice on each
      row's sphere, not fixed elements, overrides it too;
    * ``net_count(g, eps)``: the points per parameter axis of its eps-net,
      ``ceil(sqrt(k) extent / eps)``, so that a parameter cell of side
      ``1 / count`` spans at most eps (held at one past
      ``_MAX_COVER_CANDIDATES``, so a too fine eps counts without overflow);
    * ``net_size(g, eps)``: the number of elements of its eps-net, from
      the counts alone, before any element is built;
    * ``net(g, eps)``: an eps-net of the subgroup as element rows (by
      default the ``nodes`` at ``net_count`` per parameter axis).

    Orbit samples, single Haar draws, the default quadrature points and
    translation grids apply element rows through the parent's
    ``act_rows``, so no entry writes the parent's action itself.
    """

    def orbit_dim(self, g: ClosedSubgroup) -> int:
        return self.dim

    def net_count(self, g: ClosedSubgroup, eps: float) -> int:
        spread = math.sqrt(self.orbit_dim(g)) * self.extent(g) / eps
        return max(math.ceil(min(spread, _MAX_COVER_CANDIDATES + 1)), 1)

    def net_size(self, g: ClosedSubgroup, eps: float) -> int:
        return self.net_count(g, eps) ** self.orbit_dim(g)

    def net(self, g: ClosedSubgroup, eps: float) -> np.ndarray:
        return self.nodes([g], self.net_count(g, eps))[0]

    def quadrature(self, groups: Sequence[ClosedSubgroup], xs: np.ndarray, count: int,
                   out: np.ndarray) -> None:
        # act_rows holds several temporaries per point: a step of about
        # CHUNK_ELEMENTS points (one subgroup's at least) bounds them
        act_rows = parent_group(groups[0].parent).act_rows
        step = max(1, CHUNK_ELEMENTS // max(out.shape[1] * out.shape[2], 1))
        for i in range(0, len(groups), step):
            out[i : i + step] = act_rows(self.nodes(groups[i : i + step], count)[:, None],
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
    return e1, np.cross(unit, e1)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``a``, as a column.  The matmul form
    rounds like the one-row norm (``np.linalg.norm`` of a vector);
    ``norm(axis=1)`` and ``einsum`` move the last bit of some rows."""
    return np.sqrt(a[:, None, :] @ a[:, :, None])[:, 0]


def _minimal_rotation(source: np.ndarray, target: np.ndarray) -> Rotation3:
    """Minimal-angle rotation taking ``source`` to ``target`` (equal norms)."""
    normal = np.cross(source, target)
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
    dim = 0

    def shadow(self, g, xs):
        # every orbit is the point itself
        return np.zeros(len(xs)), lambda row, offsets: xs[row]

    def recover(self, g, space, x, target):
        deviation = float(pairwise_distance(space, x, target)[0, 0])
        if deviation > _RECOVER_TOL:
            raise OffOrbitError("target is not the base point of the trivial orbit", deviation)
        return parent_group(g.parent).identity()

    def haar(self, g, rng, shape):
        identity = parent_group(g.parent).identity_row
        return np.broadcast_to(identity, shape + (len(identity),))

    def extent(self, g):
        return 0.0  # the orbit is a point: its net is the identity alone

    def nodes(self, groups, count):
        return np.tile(parent_group(groups[0].parent).identity_row, (len(groups), 1, 1))


class _Circle(FamilyEntry):
    """Rotations about one axis; orbits are circles around the axis."""

    dim = 1

    def extent(self, g):
        return 2.0 * math.pi  # orbits in the unit ball and sphere

    def shadow(self, g, xs):
        # a circle of radius r casts an interval of length 2r on its tangent line
        u = g.axis_array()
        axial = xs @ u
        radial = xs - axial[:, None] * u
        r = np.linalg.norm(radial, axis=1)
        fixed = r <= _SINGULAR_TOL
        safe_r = np.where(fixed, 1.0, r)

        def place(row, offsets):
            # an offset t on the tangent line sits at angle arcsin(t / r)
            angles = np.arcsin(np.clip(offsets[:, 0] / safe_r[row], -1.0, 1.0))
            e1 = radial / safe_r[:, None]
            e2 = np.cross(u, e1)
            r_rep = r[row]
            return (axial[row, None] * u
                    + r_rep[:, None] * np.cos(angles)[:, None] * e1[row]
                    + r_rep[:, None] * np.sin(angles)[:, None] * e2[row])

        return np.where(fixed, 0.0, 2.0 * r), place

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
        e2 = np.cross(u, e1)
        angle = float(np.arctan2(rad_t @ e2, rad_t @ e1))
        return Rotation3(quat_from_axis_angle(u, angle))

    def haar(self, g, rng, shape):
        return quat_from_axis_angle(g.axis_array(), rng.random(shape) * 2.0 * np.pi)

    def nodes(self, groups, count):
        axes = np.array([g.axis for g in groups])[:, None, :]
        return quat_from_axis_angle(axes, np.arange(count) * (2.0 * np.pi / count))

    def quadrature(self, groups, xs, count, out):
        # a subgroup's nodes as rotation matrices, stacked (3 count, 3) and
        # applied to its rows by one matrix product of at most about
        # CHUNK_ELEMENTS entries (one row's at least), small enough for
        # OpenBLAS to run it on the calling thread (see spaces); a step of
        # about CHUNK_ELEMENTS nodes bounds quat_matrix's temporaries
        rows = len(xs)
        points = out.reshape(len(groups), rows, 3 * count)
        span = max(1, min(rows, CHUNK_ELEMENTS // (3 * count)))  # rows a product
        step = max(1, CHUNK_ELEMENTS // count)  # subgroups a step
        for i in range(0, len(groups), step):
            matrices = quat_matrix(self.nodes(groups[i : i + step], count))
            matrices = matrices.reshape(-1, 3 * count, 3).swapaxes(1, 2)
            for r in range(0, rows, span):
                np.matmul(xs[r : r + span], matrices, out=points[i : i + step, r : r + span])


class _FullSO3(FamilyEntry):
    """All rotations; orbits are spheres about the origin."""

    dim = 2

    def extent(self, g):
        # the side of a square of the unit sphere's area: the Fibonacci
        # lattice then gives each node at most (2h)^2 of the sphere
        return 2.0 * math.sqrt(math.pi)

    def shadow(self, g, xs):
        # a sphere of radius |x| casts a disc of radius |x| on its tangent
        # plane; the inscribed square has side sqrt(2) |x|
        s = np.linalg.norm(xs, axis=1)
        fixed = s <= _SINGULAR_TOL

        def place(row, offsets):
            # offsets in the tangent plane at x, moved along the normal onto
            # the sphere of radius |x| (float_power rounds like the scalar square)
            unit = xs / np.where(fixed, 1.0, s)[:, None]
            e1, e2 = _tangent_frame(unit)
            a1, a2 = offsets[:, 0], offsets[:, 1]
            normal = np.sqrt(np.maximum(np.float_power(s[row], 2) - a1**2 - a2**2, 0.0))
            return a1[:, None] * e1[row] + a2[:, None] * e2[row] + normal[:, None] * unit[row]

        return np.where(fixed, 0.0, np.sqrt(2.0) * s), place

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

    def quadrature(self, groups, xs, count, out):
        # the lattice's count ** 2 nodes, spread as a Fibonacci lattice
        radii = np.linalg.norm(xs, axis=1)
        np.multiply(radii[:, None, None], fibonacci_sphere(count ** self.dim)[None, :, :], out=out)

    def net_size(self, g, eps):
        return _so3_net_size(eps)

    def net(self, g, eps):
        return _so3_net(eps)


class _TorusTranslations(FamilyEntry):
    """Closed translation subgroups of a torus, along the rows of
    ``generators(g)``; orbits are flat.  Every generator row returns to the
    identity at parameter 1, so the subgroup is the image of the parameter
    cube [0, 1)^k.  Grid offsets run along the unit generators and wrap
    into [0, 1); the shadow is capped at side 1/2: offsets of at most 1/4
    per coordinate stay inside the injectivity radius of the wrapped
    metric, so distances remain exactly Euclidean."""

    def orbit_dim(self, g):
        return len(self.generators(g))

    def extent(self, g):
        return math.hypot(*self.generators(g)[0])  # the rows share one length

    def shadow(self, g, xs):
        gens = self.generators(g)
        unit = gens / np.linalg.norm(gens, axis=1)[:, None]
        return (np.full(len(xs), _TORUS_SHADOW_SIDE),
                lambda row, offsets: parent_group(g.parent).act_rows(offsets @ unit, xs[row]))

    def haar(self, g, rng, shape):
        gens = self.generators(g)
        return rng.random(shape + (len(gens),)) @ gens

    def nodes(self, groups, count):
        return np.stack([_lattice(np.arange(count) / count, len(gens)) @ gens
                         for gens in map(self.generators, groups)])

    def net(self, g, eps):
        return wrap_rows(super().net(g, eps))


class _TorusLine(_TorusTranslations):
    """The closed line through the origin with primitive direction (p, q)."""

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
    def generators(self, g):
        return np.eye(parent_group(g.parent).dim)

    def recover(self, g, space, x, target):
        return TorusShift(target - x)


class _AxisTranslations(_TorusTranslations):
    """Translations of the masked coordinates: a coordinate sub-torus."""

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
    translations as (n, d) shift vectors.  A resolution whose net would
    hold more than ``_MAX_COVER_CANDIDATES`` elements (counted before any
    is built) raises :class:`ConfigError`.
    """
    _net_size(group, eps)
    return FAMILY_TABLE[group.family].net(group, eps)


def _net_size(group: ClosedSubgroup, eps: float) -> int:
    """The element count of ``subgroup_net(group, eps)``, counted without
    building the net; a resolution that is not finite and positive, or at
    which the net would hold more than ``_MAX_COVER_CANDIDATES`` elements,
    raises :class:`ConfigError`."""
    if not 0.0 < eps < math.inf:
        raise ConfigError("net resolution must be finite and positive")
    size = FAMILY_TABLE[group.family].net_size(group, eps)
    if size > _MAX_COVER_CANDIDATES:
        raise ConfigError(f"net resolution = {eps!r} is too fine to build a net for")
    return size


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
    quats = [np.array([[1.0, 0.0, 0.0, 0.0]])]
    for psi, r_axis in _so3_rings(eps):
        axes = sphere_net(r_axis)
        quats.append(np.concatenate([np.full((len(axes), 1), np.cos(psi)), np.sin(psi) * axes],
                                    axis=1))
    return np.concatenate(quats, axis=0)


def _so3_rings(eps: float):
    """The middle angle ``psi`` and the axis net radius of each ring of
    :func:`_so3_net`, one at a time."""
    rho = eps / 2.0
    s_psi = rho * math.sqrt(2.0)
    # a ring holds three elements or more, so past _MAX_COVER_CANDIDATES
    # rings the net is refused whatever their number: the count stops
    # there, and an eps whose half underflows counts without overflow
    ring_count = max(math.ceil(min(math.pi / 2.0 / max(s_psi, 1e-300), _MAX_COVER_CANDIDATES)), 1)
    for k in range(ring_count):
        psi_lo = k * (np.pi / 2.0) / ring_count
        psi_hi = (k + 1) * (np.pi / 2.0) / ring_count
        r_axis = (rho / math.sqrt(2.0)) / max(np.sin(psi_hi), 1e-9)
        yield 0.5 * (psi_lo + psi_hi), min(r_axis, np.pi)


def _so3_net_size(eps: float) -> int:
    """The number of elements of ``_so3_net(eps)``, from its rings' band
    counts: the identity, and each ring's two poles and bands.  The count
    stops once it passes ``_MAX_COVER_CANDIDATES``; a band holds a point or
    more, and ring k about k^2, so that takes some ten thousand bands at
    a fine eps, never more than ``_MAX_COVER_CANDIDATES``."""
    size = 1
    for _, r_axis in _so3_rings(eps):
        size += 2
        for _, count in _sphere_bands(r_axis):
            size += count
            if size > _MAX_COVER_CANDIDATES:
                return size
    return size


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
    points = [np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]])]
    for theta, count in _sphere_bands(r):
        phi = np.arange(count) * (2.0 * np.pi / count)
        points.append(np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                                np.full(count, np.cos(theta))], axis=1))
    return np.concatenate(points, axis=0)


def _sphere_bands(r: float):
    """The middle latitude ``theta`` and the point count of each band of
    :func:`sphere_net`, one at a time."""
    r = min(max(r, 1e-9), np.pi)
    s_theta = r * np.sqrt(2.0)
    bands = max(int(np.ceil(np.pi / s_theta)), 1)
    for k in range(bands):
        theta_lo = k * np.pi / bands
        theta_hi = (k + 1) * np.pi / bands
        if theta_lo <= np.pi / 2.0 <= theta_hi:
            sin_band = 1.0
        else:
            sin_band = max(np.sin(theta_lo), np.sin(theta_hi))
        s_phi = (r * np.sqrt(2.0)) / max(sin_band, 1e-9)
        yield 0.5 * (theta_lo + theta_hi), max(int(np.ceil(2.0 * np.pi / s_phi)), 1)


def hausdorff_U_distance(g: ClosedSubgroup, h: ClosedSubgroup,
                         net_resolution: float = 0.05) -> float:
    """Hausdorff distance between G and H in the group metric, on eps-nets.

    Every subgroup is compact, so the identity neighbourhood ``U`` of the
    name is the whole parent group.  The returned value is within
    ``2 * net_resolution`` of the exact Hausdorff distance (each point of
    either group is within eps of its net).  Every element of one net is
    scored against every element of the other, so the time grows with the
    product of the two net sizes.  A resolution at which either net would
    hold more than ``_MAX_COVER_CANDIDATES`` elements (see
    :func:`subgroup_net`), or the two nets more than ``_MAX_NET_PAIRS``
    pairs, raises :class:`ConfigError`; both are counted before either net
    is built.
    """
    if g.parent != h.parent:
        raise IncompatibleActionError(f"subgroups of different parents: {g.parent} vs {h.parent}")
    size_a, size_b = _net_size(g, net_resolution), _net_size(h, net_resolution)
    if size_a * size_b > _MAX_NET_PAIRS:
        raise ConfigError(f"net resolution = {net_resolution!r} is too fine to compare nets of "
                          f"{size_a:,} and {size_b:,} elements (more than {_MAX_NET_PAIRS:,} pairs)")
    metric = parent_group(g.parent).net_distance
    net_a = subgroup_net(g, net_resolution)
    net_b = subgroup_net(h, net_resolution)
    return float(max(_sup_inf(metric, net_a, net_b), _sup_inf(metric, net_b, net_a)))


# the most element pairs one Hausdorff distance scores.  Pairs are scored
# at about 3.3e7 a second on a 2-core x86-64 host (full_torus(2) against
# itself at 0.01, 4.1e8 pairs, took 13.6 s), so the bound takes about 9 s;
# full_so3() against itself at the default 0.05 (2.2e11 pairs, about two
# hours) is refused.  The largest distance the package, its demos and its
# tests take is a circle against full_so3() at 0.05, 126 x 473,649 = 6.0e7
# pairs.
_MAX_NET_PAIRS = 2 ** 28


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


# The most candidates a cover may enumerate (the net points of the axis
# cover, the (p, q) pairs of the line grid), and the most elements one
# subgroup net may hold.  The shrinking-delta schedule's largest cover,
# 6,982 circles at n = 3000, enumerates at most 16,700 net points, in
# 0.2 s on a 2-core x86-64 host; the full rotation group's net at the
# default resolution 0.05 holds 473,649 elements (7.2 million at 0.02).
# A million keeps every schedule and benchmark cover and the default nets,
# and refuses at once a delta or resolution whose cover or net would take
# minutes or gigabytes, or overflow as at delta = 1e-300.
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
