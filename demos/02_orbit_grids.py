"""
Orbit grids: spaced points around an orbit
==========================================

The symmetrising set for a point x, a subgroup G, and a bandwidth h packs
orbit points at pairwise distance at least 2h, with a guaranteed count
driven by the orbit's tangent-space shadow.  These grids are what turn a
local-averaging estimator into a symmetrised one.
"""

import numpy as np

import orbitreg as og

ball = og.unit_ball3()
x = og.Point.of(ball, [0.8, 0.0, 0.3])

# A circle orbit: rotations about the z axis move x along a horizontal
# circle of radius 0.8; its tangent shadow is an interval of length 1.6.
circle = og.circle3([0.0, 0.0, 1.0])
for h in (0.4, 0.2, 0.1, 0.05):
    grid = og.build_orbit_grid(x, circle, h)
    spacing = np.inf
    if grid.m > 1:
        d = np.linalg.norm(grid.orbit_coords[:, None] - grid.orbit_coords[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        spacing = d.min()
    print(f"h={h:5.2f}  side={grid.hypercube_side:.2f}  m={grid.m:3d}  "
          f"count bound={max(1.0, grid.hypercube_side / (2 * h)):6.2f}  "
          f"min spacing={spacing:.3f} (>= {2 * h})")

# The full rotation group gives a two-dimensional grid on a sphere orbit.
grid = og.build_orbit_grid(x, og.full_so3(), 0.15)
print(f"\nsphere orbit grid: m={grid.m}, all points at radius",
      np.round(np.linalg.norm(grid.orbit_coords, axis=1).max(), 6))

# Each grid point comes from an explicit group element: g_i . x recovers it.
g0 = grid.elements[5]
print("element 5 maps x to", np.round(og.act(g0, x).coords, 6))
print("              grid point:", np.round(grid.orbit_coords[5], 6))

# Recovering an element that maps x to a chosen orbit point.
target = og.Point.of(ball, grid.orbit_coords[-1])
g = og.recover_group_element(x, target, og.full_so3())
print("recovered rotation angle:", og.rotation_identity().distance(g))

# Singular base points degrade gracefully: the origin is fixed by every
# rotation, so its grid is the identity alone.
origin_grid = og.build_orbit_grid(og.Point.of(ball, [0, 0, 0]), og.full_so3(), 0.1)
print("grid at the origin:", origin_grid.m, "point(s), singular =", origin_grid.singular)
