"""
Covariate spaces, group actions, and orbits
===========================================

A quick tour of the geometric substrate: points of the unit ball and the
flat torus, the rotations and translations that act on them, and the
orbits those actions trace out.
"""

import numpy as np

import orbitreg as og
from orbitreg.spaces import pairwise_distance

# The unit ball in R^3 with the rotation group acting on it.
ball = og.unit_ball3()
x = np.array([0.6, 0.0, 0.3])

# A quarter turn about the z axis moves x along its horizontal circle.
g = og.rotation_about([0.0, 0.0, 1.0], np.pi / 2)
# Points are rows of a named space; an element acts on row-stacked points.
print("quarter turn:", x, "->", g.act_on(ball, x[None, :])[0])

# Group structure: composition, inverses, and the rotation-angle metric.
h = og.rotation_about([0.0, 1.0, 0.0], 0.8)
gh = g.compose(h)
print("angle of g:", og.rotation_identity().distance(g))
print("g composed with its inverse is the identity:",
      g.compose(g.inverse()).distance(og.rotation_identity()))

# Actions are isometries: distances between points are preserved.
xy = np.array([x, [0.1, -0.4, 0.2]])
moved = gh.act_on(ball, xy)
print("distance before/after rotating both points:",
      pairwise_distance(ball, xy[:1], xy[1:])[0, 0],
      pairwise_distance(ball, moved[:1], moved[1:])[0, 0])

# The torus wraps: shifting past 1 re-enters from 0.
t2 = og.torus(2)
shift = og.TorusShift(np.array([0.6, 0.9]))
p = np.array([[0.7, 0.2]])
print("torus shift with wrap:", p[0], "->", shift.act_on(t2, p)[0])

# Uniform sampling: points from the spaces, elements from compact groups.
rng = og.substream(0, "demo-01")
draws = og.sample_points(ball, og.PointDistribution.UNIFORM_SPACE, 5, rng)
print("uniform ball draws (radius law z**(1/3)):")
print(np.round(draws, 3))

rotation = og.sample_group(og.full_so3(), rng)
print("one uniform rotation (unit quaternion):", np.round(rotation.quaternion, 3))
