"""
Finding the symmetry that generalises best
==========================================

When the symmetry is unknown, it is estimated in two steps: fit the base
estimator on one half of the data, then pick -- from a finite cover of the
subgroup catalog -- the symmetrisation whose predictions minimise holdout
error on the other half.  The subgroup-space machinery (Hausdorff metric,
covers, shrinking scale) makes that search well posed.
"""

import numpy as np

import orbitreg as og

rng = og.substream(0, "demo-04")
t2 = og.torus(2)

# The cover of the torus symmetry catalog at scale 0.5: the trivial group,
# the four shortest closed lines, and the full torus.
cover = og.delta_cover(og.parent_torus(2), t2, 0.5)
print("cover catalog:")
for line in og.catalog_lines(cover):
    print("  ", line)

# How the cover scale shrinks with sample size when driven by the schedule.
for n in (30, 100, 300, 1000):
    print(f"schedule delta at n={n}: {og.delta_schedule(n, 1.0, 2, 2):.4f}")

# Distances between subgroups: nearby lines are close, a line and the full
# torus are close when the line winds enough to fill space.
d_axes = og.hausdorff_U_distance(og.torus_line(1, 0), og.torus_line(0, 1),
                                 net_resolution=0.02)
d_full = og.hausdorff_U_distance(og.torus_line(3, 2), og.full_torus(2),
                                 net_resolution=0.02)
print(f"\nd(horizontal line, vertical line) = {d_axes:.3f}")
print(f"d(line (3,2), full torus)          = {d_full:.3f}")

# A response that ignores the second coordinate: its maximal symmetry is
# translation along the vertical line.
def truth(X):
    return np.sin(2.0 * np.pi * X[:, 0])

n = 300
X = og.sample_points(t2, og.PointDistribution.UNIFORM_SPACE, 2 * n, rng)
Y = truth(X) + 0.4 * og.polar_gaussian(rng, 2 * n)
fit, holdout = og.split_dataset(og.Dataset(t2, X, Y), rng)

selection = og.global_ems(og.SelectionInput(holdout=holdout, cover=cover,
                                            fit_data=fit, symmetriser="uniform"))
print("\n" + selection.to_text())

# Deploy the winner: symmetrise a base fit at the chosen bandwidth over the
# quadrature nodes the search scored it with.
base = og.LocalConstantEstimator(fit, selection.chosen_bandwidth)
best = og.BestSymmetricPredictor(base, selection, method="uniform")
eval_X = og.sample_points(t2, og.PointDistribution.UNIFORM_SPACE, 400, rng)
risk = np.mean((best.predict_coords(eval_X) - truth(eval_X)) ** 2)
plain = og.LocalConstantEstimator(og.Dataset(t2, X, Y),
                                  og.bandwidth(1.0, 2 * n, 1.0, 2, 0))
risk_plain = np.mean((plain.predict_coords(eval_X) - truth(eval_X)) ** 2)
print(f"\nrisk with selected symmetry: {risk:.4f}")
print(f"risk of the plain estimator: {risk_plain:.4f}")
