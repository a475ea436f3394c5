"""Pinned numbers: benchmark risks, chosen symmetries and orbit grids for
fixed inputs.

A refactor that claims to keep the numbers must keep these.  Risks are
compared to 1e-9 relative (room for BLAS summation order, none for a
changed computation); the chosen subgroup's catalog line must match exactly.
"""

import numpy as np
import pytest

from orbitreg.bench import SCENARIOS, ScenarioConfig, cover_for, generate_data, run_experiment
from orbitreg.estimators import LocalConstantEstimator
from orbitreg.randomness import substream
from orbitreg.selection import (
    BestSymmetricPredictor,
    SelectionInput,
    global_ems,
    orbit_coords_batch,
)
from orbitreg.spaces import PointDistribution, sample_points, torus, unit_ball3, unit_sphere2
from orbitreg.subgroups import (
    PARENT_SO3,
    axis_translations,
    circle3,
    full_so3,
    full_torus,
    torus_line,
    trivial_subgroup,
)

# scenario -> risks in row order: trial 0 baseline, trial 0
# best_symmetric, trial 1 baseline, trial 1 best_symmetric.
GOLDEN_RISKS = {
    "so3_f1": (0.09445052132171838, 0.035770769375563304,
               0.049063953238607017, 0.05230849672563605),
    "t2_g3": (0.31906045324773563, 0.19105197931753068,
              0.29064079204108506, 0.19955483409174946),
}

# scenario -> best_symmetric risks of trials 0 and 1 when the same search
# is followed by the orbit-grid final prediction instead of the quadrature
# nodes the search scored.
GOLDEN_GRID_FINAL_RISKS = {
    "so3_f1": (0.106360101777814, 0.10825796917820543),
    "t2_g3": (0.2583089163062379, 0.2531673673137967),
}

GOLDEN_CHOICE = {
    "so3_f1": "circle3 axis=0.809016994375,0,-0.587785252292",
    "t2_g3": "torus_line direction=1,1",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_RISKS))
def test_risks_match_pinned_values(scenario):
    report = run_experiment(ScenarioConfig(scenario=scenario, n_grid=(50,), trials=2, seed=11))
    assert [(r.n, r.trial, r.estimator) for r in report.rows] == [
        (50, 0, "baseline"), (50, 0, "best_symmetric"),
        (50, 1, "baseline"), (50, 1, "best_symmetric")]
    risks = [r.risk for r in report.rows]
    assert risks == pytest.approx(GOLDEN_RISKS[scenario], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_GRID_FINAL_RISKS))
def test_grid_final_risks_match_pinned_values(scenario):
    """The trials of ``test_risks_match_pinned_values``, rebuilt step by
    step with the orbit-grid final prediction."""
    cfg = ScenarioConfig(scenario=scenario, n_grid=(50,), trials=2, seed=11)
    spec = SCENARIOS[scenario]
    risks = []
    for trial in range(2):
        fit, holdout = (generate_data(spec, 50, cfg.noise_sd,
                                      substream(11, scenario, 50, trial, stream))
                        for stream in ("fit", "selection"))
        selection = global_ems(SelectionInput(holdout=holdout, cover=cover_for(cfg, 50),
                                              fit_data=fit, symmetriser="uniform"))
        best = BestSymmetricPredictor(LocalConstantEstimator(fit, selection.chosen_bandwidth),
                                      selection, method="grid")
        eval_X = sample_points(spec.space, PointDistribution.UNIFORM_SPACE, cfg.eval_points,
                               substream(11, scenario, 50, trial, "eval"))
        risks.append(float(np.mean((best.predict_coords(eval_X) - spec.fn(eval_X)) ** 2)))
    assert risks == pytest.approx(GOLDEN_GRID_FINAL_RISKS[scenario], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CHOICE))
def test_chosen_subgroup_matches_pinned_line(scenario):
    cfg = ScenarioConfig(scenario=scenario, n_grid=(50,), trials=2, seed=11)
    spec = SCENARIOS[scenario]
    fit = generate_data(spec, 150, 0.5, substream(11, scenario, "golden", "fit"))
    holdout = generate_data(spec, 150, 0.5, substream(11, scenario, "golden", "holdout"))
    selection = global_ems(SelectionInput(holdout=holdout, cover=cover_for(cfg, 150),
                                          fit_data=fit, symmetriser="uniform"))
    assert selection.chosen.describe() == GOLDEN_CHOICE[scenario]


# name -> (space, group, base rows, h, counts, coords); the second row of
# circle3 and full_so3 is singular and keeps the base point
GOLDEN_GRIDS = {
    "trivial": (unit_ball3(), trivial_subgroup(PARENT_SO3), [(0.2, -0.1, 0.4)], 0.2,
                [1], [(0.2, -0.1, 0.4)]),
    "circle3": (unit_ball3(), circle3([0.6, 0.0, 0.8]), [(0.3, 0.0, 0.0), (0.06, 0.0, 0.08)], 0.1, [3, 1],
                [(0.21413199329137278, -0.2, 0.0644010050314704),
                 (0.3, 0.0, 0.0),
                 (0.21413199329137278, 0.2, 0.0644010050314704),
                 (0.06, 0.0, 0.08)]),
    "full_so3_ball": (unit_ball3(), full_so3(), [(0.5, -0.2, 0.1), (0.0, 0.0, 0.0)], 0.2, [4, 1],
                      [(0.536355729740699, 0.0008643003891005696, -0.1110035321922675),
                       (0.38779945919905745, -0.37052637596500315, -0.1110035321922675),
                       (0.46854937937861796, 0.027986840533932966, 0.2822732999078026),
                       (0.3199931088369764, -0.34340383582017076, 0.2822732999078026),
                       (0.0, 0.0, 0.0)]),
    "full_so3_sphere": (unit_sphere2(), full_so3(), [(0.0, 0.6, 0.8)], 0.3, [9],
                        [(-0.6, -0.1625098426722491, 0.7833202097703346),
                         (-0.6, 0.48, 0.6400000000000001),
                         (-0.6, 0.7974901573277509, 0.06332020977033459),
                         (0.0, 0.0, 1.0),
                         (0.0, 0.6, 0.8),
                         (0.0, 0.96, 0.28000000000000014),
                         (0.6, -0.1625098426722491, 0.7833202097703346),
                         (0.6, 0.48, 0.6400000000000001),
                         (0.6, 0.7974901573277509, 0.06332020977033459)]),
    "torus_line": (torus(2), torus_line(2, -1), [(0.95, 0.05)], 0.1, [3],
                   [(0.7711145618000168, 0.1394427190999916),
                    (0.95, 0.05),
                    (0.1288854381999831, 0.9605572809000085)]),
    "full_torus": (torus(2), full_torus(2), [(0.3, 0.999)], 0.2, [4],
                   [(0.1, 0.799), (0.1, 0.199), (0.5, 0.799), (0.5, 0.199)]),
    "axis_translations_torus3": (torus(3), axis_translations(3, [0, 2]), [(0.9, 0.4, 0.1)], 0.1, [9],
                                 [(0.7, 0.4, 0.9), (0.7, 0.4, 0.1), (0.7, 0.4, 0.30000000000000004),
                                  (0.9, 0.4, 0.9), (0.9, 0.4, 0.1), (0.9, 0.4, 0.30000000000000004),
                                  (0.10000000000000009, 0.4, 0.9), (0.10000000000000009, 0.4, 0.1),
                                  (0.10000000000000009, 0.4, 0.30000000000000004)]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
def test_orbit_grid_matches_pinned_points(name):
    space, group, xs, h, counts, coords = GOLDEN_GRIDS[name]
    got_coords, got_counts = orbit_coords_batch(space, group, np.array(xs), h)
    assert got_counts.tolist() == counts
    np.testing.assert_allclose(got_coords, np.array(coords), rtol=0.0, atol=1e-12)
