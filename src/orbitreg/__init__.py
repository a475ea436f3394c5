"""Symmetry-adaptive nonparametric regression via orbit averaging.

The library estimates a regression function together with its maximal
symmetry: orbit grids turn a local-averaging estimator into a symmetrised
one for any candidate subgroup, a holdout search picks the subgroup whose
symmetrised estimator generalises best, and the winning symmetry buys a
dimension-reduced convergence rate.  A benchmark harness reproduces the
synthetic risk-decay experiments for rotations of the ball and translations
of the flat torus.
"""

from .bench import (
    BASELINE,
    BEST_SYMMETRIC,
    RiskReport,
    RiskRow,
    SCENARIOS,
    Scenario,
    ScenarioConfig,
    generate_data,
    run_experiment,
)
from .errors import (
    ConfigError,
    EmptyHoldoutError,
    IncompatibleActionError,
    InvalidElementError,
    OffOrbitError,
    OrbitregError,
    SpaceMismatchError,
    VariantMismatchError,
)
from .estimators import (
    Dataset,
    FunctionPredictor,
    LocalConstantEstimator,
    bandwidth,
)
from .groups import (
    GroupElement,
    Rotation3,
    TorusShift,
    rotation_about,
    rotation_identity,
)
from .oracles import (
    OracleReport,
    bias_bound_oracle,
    inverse_moment_oracle,
    lipschitz_oracle,
    packing_oracle,
    run_all_oracles,
    tail_bound_oracle,
)
from .orbit_grids import (
    OrbitGrid,
    build_orbit_grid,
    hypercube_side,
    recover_group_element,
)
from .randomness import polar_gaussian, substream
from .report import emit_report, rows_csv, aggregates_csv
from .selection import (
    BestSymmetricPredictor,
    SelectionInput,
    SymmetrySelection,
    empirical_error,
    global_ems,
    split_dataset,
)
from .spaces import (
    CovariateSpace,
    PointDistribution,
    SpaceKind,
    sample_points,
    torus,
    unit_ball3,
    unit_sphere2,
)
from .subgroups import (
    PARENT_SO3,
    ClosedSubgroup,
    SubgroupFamily,
    axis_translations,
    catalog_lines,
    circle3,
    delta_cover,
    delta_schedule,
    full_so3,
    full_torus,
    hausdorff_U_distance,
    orbit_dimension,
    orbit_quadrature_coords,
    parent_torus,
    sample_group,
    torus_line,
    trivial_subgroup,
)

__version__ = "0.1.0"
