"""
Covariate spaces, group actions, and orbits
===========================================

A quick tour of the geometric substrate: points of the unit ball and the
flat torus, the rotations and translations that act on them, and the
orbits those actions trace out.
"""

import numpy as np

import orbitreg as og

# The unit ball in R^3 with the rotation group acting on it.
ball = og.unit_ball3()
x = og.Point.of(ball, [0.6, 0.0, 0.3])

# A quarter turn about the z axis moves x along its horizontal circle.
g = og.rotation_about([0.0, 0.0, 1.0], np.pi / 2)
print("quarter turn:", x.coords, "->", og.act(g, x).coords)

# Group structure: composition, inverses, and the rotation-angle metric.
h = og.rotation_about([0.0, 1.0, 0.0], 0.8)
gh = g.compose(h)
print("angle of g:", og.rotation_identity().distance(g))
print("g composed with its inverse is the identity:",
      g.compose(g.inverse()).distance(og.rotation_identity()))

# Actions are isometries: distances between points are preserved.
y = og.Point.of(ball, [0.1, -0.4, 0.2])
print("distance before/after rotating both points:",
      og.space_distance(x, y), og.space_distance(og.act(gh, x), og.act(gh, y)))

# The torus wraps: shifting past 1 re-enters from 0.
t2 = og.torus(2)
shift = og.TorusShift(np.array([0.6, 0.9]))
p = og.Point.of(t2, [0.7, 0.2])
print("torus shift with wrap:", p.coords, "->", og.act(shift, p).coords)

# Uniform sampling: points from the spaces, elements from compact groups.
rng = og.substream(0, "demo-01")
draws = og.sample_points(ball, og.PointDistribution.UNIFORM_SPACE, 5, rng)
print("uniform ball draws (radius law z**(1/3)):")
print(np.round(draws, 3))

rotation = og.sample_group(og.full_so3(), rng)
print("one uniform rotation (unit quaternion):", np.round(rotation.quaternion, 3))
