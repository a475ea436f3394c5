"""Pinned numbers: benchmark risks and chosen symmetries for fixed seeds.

A refactor that claims to keep the numbers must keep these.  Risks are
compared to 1e-9 relative (room for BLAS summation order, none for a
changed computation); the chosen subgroup's catalog line must match exactly.
"""

import pytest

from orbitreg.bench import SCENARIOS, ScenarioConfig, cover_for, generate_data, run_experiment
from orbitreg.randomness import substream
from orbitreg.selection import SelectionInput, global_ems

# (scenario, final_method) -> risks in row order: trial 0 baseline,
# trial 0 best_symmetric, trial 1 baseline, trial 1 best_symmetric.
GOLDEN_RISKS = {
    ("so3_f1", "monte_carlo"): (0.09445052132171838, 0.05755793296635878,
                                0.049063953238607017, 0.030594189419237514),
    ("so3_f1", "grid"): (0.09445052132171838, 0.1016760785563363,
                         0.049063953238607017, 0.08124014532599488),
    ("t2_g3", "monte_carlo"): (0.31906045324773563, 0.19187094990345677,
                               0.29064079204108506, 0.19855052863345343),
    ("t2_g3", "grid"): (0.31906045324773563, 0.2583089163062379,
                        0.29064079204108506, 0.2531673673137967),
}

GOLDEN_CHOICE = {
    "so3_f1": "circle3 axis=0.955232245783,0.0396708523252,-0.293185231708",
    "t2_g3": "torus_line direction=1,1",
}


@pytest.mark.parametrize("scenario, final_method", sorted(GOLDEN_RISKS))
def test_risks_match_pinned_values(scenario, final_method):
    report = run_experiment(ScenarioConfig(scenario=scenario, n_grid=(50,), trials=2, seed=11,
                                           final_method=final_method))
    assert [(r.n, r.trial, r.estimator) for r in report.rows] == [
        (50, 0, "baseline"), (50, 0, "best_symmetric"),
        (50, 1, "baseline"), (50, 1, "best_symmetric")]
    risks = [r.risk for r in report.rows]
    assert risks == pytest.approx(GOLDEN_RISKS[(scenario, final_method)], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CHOICE))
def test_chosen_subgroup_matches_pinned_line(scenario):
    cfg = ScenarioConfig(scenario=scenario, n_grid=(50,), trials=2, seed=11)
    spec = SCENARIOS[scenario]
    fit = generate_data(spec, 150, 0.5, substream(11, scenario, "golden", "fit"))
    holdout = generate_data(spec, 150, 0.5, substream(11, scenario, "golden", "holdout"))
    selection = global_ems(SelectionInput(holdout=holdout, cover=cover_for(cfg, 150),
                                          fit_data=fit, symmetriser="uniform"))
    assert selection.chosen.describe() == GOLDEN_CHOICE[scenario]
