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
:func:`orbit_coords_batch`, the one home of the rung count and the ladder;
the family's entry of :data:`orbitreg.subgroups.FAMILY_TABLE` supplies only
the geometry (``side``, ``singular``, the orbit dimension, and the
projection ``place``).  A single grid is one row of that batch.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleActionError
from .groups import GroupElement, parent_group
from .spaces import CovariateSpace, member_rows
from .subgroups import FAMILY_TABLE, ClosedSubgroup


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
    singular: bool = False

    @property
    def m(self) -> int:
        return len(self.elements)


def _point(space: CovariateSpace, x) -> np.ndarray:
    """``x`` as one row, a copy, that must lie in ``space`` (:func:`member_rows`)."""
    return member_rows(space, np.array(x, dtype=np.float64).reshape(1, -1))[0]


def hypercube_side(space: CovariateSpace, group: ClosedSubgroup, x) -> float:
    """Side length of the tangent-space hypercube used to seed the grid at
    the row ``x`` of ``space``."""
    parent_group(group.parent).check_acts_on(space)
    return float(FAMILY_TABLE[group.family].side(group, _point(space, x)[None, :])[0])


def build_orbit_grid(space: CovariateSpace, group: ClosedSubgroup, x, h: float) -> OrbitGrid:
    """Construct the symmetrising set at the row ``x`` of ``space`` for
    bandwidth ``h``.

    The points are one row of :func:`orbit_coords_batch`; the elements are
    recovered from them.  A base point on the fixed set of the action (the
    origin, or a point on a circle's axis) gives the singular one-point grid.
    """
    x = _point(space, x)
    row = x[None, :]
    coords, _ = orbit_coords_batch(space, group, row, h)
    entry = FAMILY_TABLE[group.family]
    elements = tuple(entry.recover(group, space, x, c) for c in coords)
    return OrbitGrid(space, x, group, h, elements, coords, float(entry.side(group, row)[0]),
                     singular=bool(entry.singular(group, row)[0]))


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

    Each row gets ``floor(R / 2h) + 1`` rungs per tangent axis (one on a
    singular row), so ``counts = rungs**k``; the lattice of centred ladders
    (first axis slowest) is placed on the orbit by the family, and a
    singular row keeps its base point.  Returns ``(coords, counts)`` where
    ``coords`` stacks the grids of all rows (row i owns ``counts[i]``
    consecutive entries).
    """
    if not 0.0 < h < math.inf:
        raise IncompatibleActionError(f"bandwidth must be finite and positive, got {h}")
    parent_group(group.parent).check_acts_on(space)
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    entry = FAMILY_TABLE[group.family]
    singular = entry.singular(group, xs)
    side = entry.side(group, xs)
    rungs = np.where(singular, 1, np.floor(side / (2.0 * h)).astype(np.int64) + 1)
    k = entry.orbit_dim(group)
    counts = rungs**k
    row = np.repeat(np.arange(len(xs)), counts)
    rank = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    per_axis = rungs[row, None]
    # axis i takes digit i of the point's rank in base per_axis (first axis slowest)
    offsets = (rank[:, None] // per_axis ** np.arange(k - 1, -1, -1) % per_axis
               - (per_axis - 1) / 2.0) * (2.0 * h)
    coords = entry.place(group, xs, row, offsets)
    coords[singular[row]] = xs[row[singular[row]]]
    return coords, counts
