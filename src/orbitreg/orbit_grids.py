"""Finite symmetrising sets spaced around a group orbit.

Given a base point ``x``, a subgroup ``G``, and a bandwidth ``h``, the grid
consists of group elements ``g_i`` whose orbit points ``g_i . x`` are
pairwise at least ``2h`` apart, with at least ``max(1, (R / 2h)**k)`` of
them, where ``R`` is the side length of the hypercube inscribed in the
tangent-space shadow of the whole orbit (every subgroup is compact; on a
torus the side is capped at 1/2, inside the wrap metric's injectivity
radius) and ``k`` the orbit dimension.  The construction is:

1. lay a ladder of spacing exactly ``2h`` along each tangent axis of the
   hypercube ``[-R/2, R/2]**k`` (centred, so slack is split evenly between
   the two ends; a ladder of ``floor(R/2h) + 1`` rungs always fits);
2. project the lattice orthogonally onto the orbit, towards the sheet
   containing ``x`` -- projection moves points only along the normal
   directions, so tangential separations, and hence distances, survive;
3. recover one group element per projected point.

Steps 1 and 2 run batched over many base points in
:func:`orbit_coords_batch`, the one home of the ladder.  The rung count has
one home too, ``floor(R / 2h) + 1``, shared with :func:`orbit_grid_counts`,
which gives each row's point count without building the points; a bandwidth
that would put more than ``CHUNK_ROWS`` points on one row raises
:class:`orbitreg.errors.ConfigError` before any is built.  The family's
entry of :data:`orbitreg.subgroups.FAMILY_TABLE` supplies only the geometry:
the orbit dimension, and one ``shadow`` per call, which gives each row's
side ``R`` (exactly 0 on a row whose orbit is the point itself, which so
gets one rung and keeps its base point) and the projection ``place`` built
on the same per-row geometry.  A single grid is one row of that batch.

Every entry takes ``(space, group, rows...)`` in that order, points as
rows of the named space.  The single-grid entries :func:`build_orbit_grid`,
:func:`recover_group_element` and :func:`hypercube_side` check each row
they are given with :func:`orbitreg.spaces.member_rows`: a row of the
wrong width, with a NaN or infinite entry, or outside the space raises
:class:`orbitreg.errors.SpaceMismatchError`.  :func:`orbit_coords_batch`
takes rows the caller has already checked.  Everything here is
deterministic; identical inputs give identical grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_bandwidth
from .groups import GroupElement, parent_group
from .spaces import CovariateSpace, member_rows
from .subgroups import CHUNK_ROWS, FAMILY_TABLE, ClosedSubgroup, _too_many_points


@dataclass(frozen=True, eq=False)
class OrbitGrid:
    """A symmetrising set: elements, their orbit points, and packing data."""

    space: CovariateSpace
    base: np.ndarray                  # (ambient_dim,), the base point's row
    group: ClosedSubgroup
    bandwidth: float
    elements: tuple[GroupElement, ...]
    orbit_coords: np.ndarray          # (m, ambient_dim), orbit_coords[i] = elements[i] . base
    hypercube_side: float

    @property
    def m(self) -> int:
        return len(self.elements)

    @property
    def singular(self) -> bool:
        """Whether the base point is its own orbit (the one-point grid)."""
        return self.hypercube_side == 0.0


def _point(space: CovariateSpace, x) -> np.ndarray:
    """``x`` as one row, a copy, that must lie in ``space`` (:func:`member_rows`)."""
    return member_rows(space, np.array(x, dtype=np.float64).reshape(1, -1))[0]


def hypercube_side(space: CovariateSpace, group: ClosedSubgroup, x) -> float:
    """Side length of the tangent-space hypercube used to seed the grid at
    the row ``x`` of ``space``: exactly 0.0 where the orbit is the point
    itself (within 1e-9 of the action's fixed set)."""
    parent_group(group.parent).check_acts_on(space)
    return float(FAMILY_TABLE[group.family].shadow(group, _point(space, x)[None, :])[0][0])


def build_orbit_grid(space: CovariateSpace, group: ClosedSubgroup, x, h: float) -> OrbitGrid:
    """Construct the symmetrising set at the row ``x`` of ``space`` for
    bandwidth ``h``.

    The points are one row of :func:`orbit_coords_batch`; the elements are
    recovered from them.  A base point within 1e-9 of the fixed set of the
    action (the origin, or a circle's axis) gives the singular one-point grid.
    """
    x = _point(space, x)
    coords, _ = orbit_coords_batch(space, group, x[None, :], h)
    entry = FAMILY_TABLE[group.family]
    elements = tuple(entry.recover(group, space, x, c) for c in coords)
    return OrbitGrid(space, x, group, h, elements, coords, hypercube_side(space, group, x))


def recover_group_element(space: CovariateSpace, group: ClosedSubgroup, x,
                          target) -> GroupElement:
    """Find ``g`` in the subgroup with ``g . x = target`` (within 1e-9) for
    rows ``x`` and ``target`` of ``space``."""
    parent_group(group.parent).check_acts_on(space)
    return FAMILY_TABLE[group.family].recover(group, space, _point(space, x),
                                              _point(space, target))


def orbit_coords_batch(space: CovariateSpace, group: ClosedSubgroup,
                       xs: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orbit-grid points for every row of ``xs`` at once.

    Each row gets ``floor(R / 2h) + 1`` rungs per tangent axis (one where
    its side ``R`` is 0), so ``counts = rungs**k``; the lattice of centred
    ladders (first axis slowest) is placed on the orbit by the family's
    shadow, and a row of side 0 keeps its base point.  Returns ``(coords,
    counts)`` where ``coords`` stacks the grids of all rows (row i owns
    ``counts[i]`` consecutive entries).  A bandwidth that is not finite
    and positive, or that would put more than ``CHUNK_ROWS`` points on one
    row, raises :class:`orbitreg.errors.ConfigError`.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    k, side, place, rungs, counts = _rungs(space, group, xs, h)
    row = np.repeat(np.arange(len(xs)), counts)
    rank = np.arange(row.size)
    rank -= np.repeat(np.cumsum(counts) - counts, counts)
    per_axis = rungs[row]
    half = (per_axis - 1) / 2.0
    # axis i takes digit i of the point's rank in base per_axis (first axis
    # slowest), written one axis at a time, last first, into its column
    offsets = np.empty((row.size, k))
    for i in range(k - 1, -1, -1):
        column = offsets[:, i]
        np.remainder(rank, per_axis, out=column)
        column -= half
        rank //= per_axis
    offsets *= 2.0 * h
    del rank, per_axis, half  # freed before place builds the points
    coords = place(row, offsets)
    fixed = side[row] == 0.0
    coords[fixed] = xs[row[fixed]]
    return coords, counts


def orbit_grid_counts(space: CovariateSpace, group: ClosedSubgroup,
                      xs: np.ndarray, h: float) -> np.ndarray:
    """The ``counts`` of :func:`orbit_coords_batch` for the rows ``xs``, a
    2-D array, without building their points; it raises as
    :func:`orbit_coords_batch` does."""
    return _rungs(space, group, xs, h)[4]


def _rungs(space: CovariateSpace, group: ClosedSubgroup, xs: np.ndarray, h: float):
    """``(k, side, place, rungs, counts)``: the orbit dimension, the
    family's shadow at the rows ``xs``, and per row its ladder's rungs per
    tangent axis, ``floor(R / 2h) + 1``, and its points, ``rungs**k``.  A
    bandwidth that is not finite and positive, or that would put more than
    ``CHUNK_ROWS`` points on one row, raises
    :class:`orbitreg.errors.ConfigError`; a subgroup whose parent does not
    act on ``space`` raises :class:`orbitreg.errors.IncompatibleActionError`."""
    h = check_bandwidth(h)
    parent_group(group.parent).check_acts_on(space)
    entry = FAMILY_TABLE[group.family]
    side, place = entry.shadow(group, xs)
    k = entry.orbit_dim(group)
    with np.errstate(over="ignore"):  # a subnormal h makes infinite ladders, refused below
        rungs = np.minimum(np.floor(side / (2.0 * h)) + 1, CHUNK_ROWS + 1)  # a finite power
    counts = rungs**k
    if np.any(counts > CHUNK_ROWS):  # before the int64 cast, where a count would wrap
        raise _too_many_points(h)
    return k, side, place, rungs.astype(np.int64), counts.astype(np.int64)
