"""The names ``orbitreg`` exports and the options of its configuration
types, listed so that every addition or removal shows as a change to this
file."""

import dataclasses
import inspect
import types

import orbitreg

EXPORTED = [
    "BASELINE", "BEST_SYMMETRIC", "BestSymmetricPredictor", "ClosedSubgroup", "ConfigError",
    "CovariateSpace", "Dataset", "EmptyHoldoutError", "FunctionPredictor", "GroupElement",
    "IncompatibleActionError", "InvalidElementError", "LocalConstantEstimator", "OffOrbitError",
    "OracleReport", "OrbitGrid", "OrbitregError", "PARENT_SO3", "PointDistribution",
    "RiskReport", "RiskRow", "Rotation3", "SCENARIOS", "Scenario", "ScenarioConfig",
    "SelectionInput", "SpaceKind", "SpaceMismatchError", "SubgroupFamily", "SymmetrySelection",
    "TorusShift", "VariantMismatchError", "aggregates_csv", "axis_translations",
    "bandwidth", "bias_bound_oracle", "build_orbit_grid", "catalog_lines", "circle3",
    "delta_cover", "delta_schedule", "emit_report", "empirical_error",
    "full_so3", "full_torus", "generate_data", "global_ems", "hausdorff_U_distance",
    "hypercube_side", "inverse_moment_oracle", "lipschitz_oracle", "orbit_dimension",
    "orbit_quadrature_coords", "packing_oracle", "parent_torus", "polar_gaussian",
    "recover_group_element", "rotation_about", "rotation_identity", "rows_csv",
    "run_all_oracles", "run_experiment", "sample_group", "sample_points",
    "split_dataset", "substream", "tail_bound_oracle", "torus", "torus_line", "trivial_subgroup",
    "unit_ball3", "unit_sphere2",
]


def test_exported_names():
    exported = sorted(name for name, value in vars(orbitreg).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == sorted(EXPORTED)
    assert len(EXPORTED) == 72


def test_selection_input_fields():
    names = [f.name for f in dataclasses.fields(orbitreg.SelectionInput)]
    assert names == ["holdout", "cover", "fit_data", "a", "beta", "symmetriser"]


def test_scenario_config_fields():
    names = [f.name for f in dataclasses.fields(orbitreg.ScenarioConfig)]
    assert names == ["scenario", "noise_sd", "n_grid", "trials", "eval_points", "beta", "a",
                     "delta", "use_schedule", "seed", "split", "workers"]


def test_best_symmetric_predictor_parameters():
    params = list(inspect.signature(orbitreg.BestSymmetricPredictor.__init__).parameters)
    assert params == ["self", "base", "selection", "method", "mc_draws", "rng"]
