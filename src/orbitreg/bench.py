"""Synthetic risk benchmark: symmetry-selected estimators against a baseline.

For each sample size and trial, two independent copies of the data are
drawn; one fits the base estimator, the other drives the symmetry search.
The baseline local-constant estimator uses the union of both copies at the
dimension-d bandwidth.  The selected-symmetry estimator scores each
candidate subgroup with fixed quadrature nodes over the whole orbit, then
symmetrises a base fit at the chosen group's bandwidth over the same
nodes, so it predicts with the estimator whose holdout error chose it.
Each risk is the :func:`~orbitreg.selection.empirical_error` of an
estimator on a noiseless ``Dataset`` of fresh uniform points, so holdout
errors and risks share one mean squared error rule; risks are summarised
per sample size with Wald intervals and log-log slopes.

Reproducibility: every trial derives its random streams from
``(seed, scenario, n, trial)``, so parallel and serial schedules produce
identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, check_count
from .estimators import Dataset, LocalConstantEstimator, bandwidth
from .groups import parent_group
from .randomness import polar_gaussian, substream
from .selection import BestSymmetricPredictor, SelectionInput, empirical_error, global_ems
from .spaces import (
    CovariateSpace,
    PointDistribution,
    sample_points,
    torus,
    unit_ball3,
)
from .subgroups import PARENT_SO3, ClosedSubgroup, delta_cover, delta_schedule, parent_torus

BASELINE = "baseline"
BEST_SYMMETRIC = "best_symmetric"
ESTIMATORS = (BASELINE, BEST_SYMMETRIC)
WALD_Z = 1.96


@dataclass(frozen=True)
class Scenario:
    id: str
    space: CovariateSpace
    parent: str
    fn: Callable[[np.ndarray], np.ndarray]
    maximal_symmetry: str


def _so3_f1(x: np.ndarray) -> np.ndarray:
    return np.cos(np.linalg.norm(x, axis=1))


def _so3_f2(x: np.ndarray) -> np.ndarray:
    return np.cos(np.sqrt(x[:, 1] ** 2 + x[:, 2] ** 2))


def _so3_f3(x: np.ndarray) -> np.ndarray:
    return x[:, 0] ** 2 + x[:, 1] - 0.6 * x[:, 2]


def _t2_g1(x: np.ndarray) -> np.ndarray:
    return np.ones(x.shape[0])


def _t2_g2(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * x[:, 0])


def _t2_g3(x: np.ndarray) -> np.ndarray:
    return np.cos(2.0 * np.pi * (x[:, 0] - x[:, 1]))


SCENARIOS: dict[str, Scenario] = {
    "so3_f1": Scenario("so3_f1", unit_ball3(), PARENT_SO3, _so3_f1, "full rotation group"),
    "so3_f2": Scenario("so3_f2", unit_ball3(), PARENT_SO3, _so3_f2, "rotations about the first axis"),
    "so3_f3": Scenario("so3_f3", unit_ball3(), PARENT_SO3, _so3_f3, "trivial"),
    "t2_g1": Scenario("t2_g1", torus(2), parent_torus(2), _t2_g1, "full torus"),
    "t2_g2": Scenario("t2_g2", torus(2), parent_torus(2), _t2_g2, "line (0, 1)"),
    "t2_g3": Scenario("t2_g3", torus(2), parent_torus(2), _t2_g3, "line (1, 1)"),
}


def register_scenario(scenario_id: str, space: CovariateSpace, parent: str,
                      fn: Callable[[np.ndarray], np.ndarray],
                      maximal_symmetry: str = "unknown") -> Scenario:
    """Add a custom regression function to the scenario catalog.

    The parent group must be one the benchmark has a cover scale for (the
    rotation group or the 2-torus) and must act on the scenario's space.
    """
    if scenario_id in SCENARIOS:
        raise ConfigError(f"scenario id {scenario_id!r} is already registered")
    if parent not in _BENCH_DELTA:
        raise ConfigError(f"no cover construction for parent group {parent!r}")
    parent_group(parent).check_acts_on(space)
    scenario = Scenario(scenario_id, space, parent, fn, maximal_symmetry)
    SCENARIOS[scenario_id] = scenario
    return scenario


@dataclass(frozen=True)
class ScenarioConfig:
    """One benchmark run: a scenario, its sample sizes, trials and seed,
    the bandwidth and cover settings, and the worker count."""

    scenario: str
    noise_sd: float = 0.5
    n_grid: tuple[int, ...] = (30, 50, 75, 100, 150, 200, 300)
    trials: int = 30
    eval_points: int = 200
    beta: float = 1.0
    a: float = 1.0
    delta: float | None = None
    use_schedule: bool = False
    seed: int = 20260801
    split: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: unknown id {self.scenario!r}; known: {sorted(SCENARIOS)}")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ConfigError("noise_sd: must be finite and nonnegative")
        if not self.n_grid or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid: must be a nonempty strictly ascending list of sample sizes")
        for n in self.n_grid:
            check_count(n, 2, "n_grid: sample sizes must be integers of at least 2")
        check_count(self.trials, 1, "trials: must be an integer of at least 1")
        check_count(self.eval_points, 1, "eval_points: must be an integer of at least 1")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError("beta: must lie in (0, 1] (degree-0 local estimator)")
        if not 0.0 < self.a < math.inf:
            raise ConfigError("a: bandwidth constant must be finite and positive")
        if self.delta is not None and not 0.0 < self.delta < math.inf:
            raise ConfigError("delta: must be finite and positive when given")
        if self.delta is not None and self.use_schedule:
            raise ConfigError("delta: give a fixed value or use_schedule, not both")
        check_count(self.workers, 1, "workers: must be an integer of at least 1")


@dataclass(frozen=True)
class RiskRow:
    scenario: str
    n: int
    trial: int
    estimator: str
    risk: float


@dataclass
class RiskReport:
    """Per-trial risks plus Wald aggregates and log-log slopes, which are
    computed from the rows (so they are not constructor arguments)."""

    rows: list[RiskRow]
    aggregates: dict[tuple[str, int, str], tuple[float, float]] = field(init=False)
    slopes: dict[tuple[str, str], float] = field(init=False)

    def __post_init__(self):
        self.recompute()

    def recompute(self) -> None:
        groups: dict[tuple[str, int, str], list[float]] = {}
        for row in self.rows:
            groups.setdefault((row.scenario, row.n, row.estimator), []).append(row.risk)
        self.aggregates = {
            key: (float(np.mean(v)), wald_halfwidth(v)) for key, v in sorted(groups.items())
        }
        self.slopes = {}
        for scenario in sorted({row.scenario for row in self.rows}):
            for estimator in ESTIMATORS:
                s = self.slope(scenario, estimator)
                if s is not None:
                    self.slopes[(scenario, estimator)] = s

    def mean_risk(self, scenario: str, n: int, estimator: str) -> float:
        return self.aggregates[(scenario, n, estimator)][0]

    def slope(self, scenario: str, estimator: str, n_min: int | None = None) -> float | None:
        """OLS slope of log10 mean risk against log10 n."""
        pts = [(n, mean) for (s, n, est), (mean, _) in self.aggregates.items()
               if s == scenario and est == estimator and (n_min is None or n >= n_min)]
        if len(pts) < 2:
            return None
        logn = np.log10([p[0] for p in pts])
        logr = np.log10([max(p[1], 1e-300) for p in pts])
        slope, _ = np.polyfit(logn, logr, 1)
        return float(slope)


def wald_halfwidth(values) -> float:
    """Half-width of the normal-approximation interval for the mean (z = WALD_Z)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    return float(WALD_Z * values.std(ddof=1) / math.sqrt(values.size))


def generate_data(scenario: Scenario, n: int, noise_sd: float,
                  rng: np.random.Generator) -> Dataset:
    """n i.i.d. pairs: uniform covariates, Gaussian noise on the responses."""
    X = sample_points(scenario.space, PointDistribution.UNIFORM_SPACE, n, rng)
    noise = noise_sd * polar_gaussian(rng, n) if noise_sd > 0 else np.zeros(n)
    return Dataset(scenario.space, X, scenario.fn(X) + noise)


# Cover scales for the reproduction runs.  The rotation catalog tolerates a
# coarse axis cover (axis mismatch enters the risk only quadratically through
# the orbit average), and a coarse cover, 34 axis circles at delta = 1,
# keeps the argmin from overfitting the holdout noise across many
# near-duplicate candidates.  The torus scale must stay at or below
# 1/sqrt(2) so the diagonal lines survive the length cutoff.
_BENCH_DELTA = {PARENT_SO3: 1.0, parent_torus(2): 0.5}


def cover_for(cfg: ScenarioConfig, n: int) -> list[ClosedSubgroup]:
    scenario = SCENARIOS[cfg.scenario]
    if cfg.delta is not None:
        delta = cfg.delta
    elif cfg.use_schedule:
        d_max = parent_group(scenario.parent).max_orbit_dim
        delta = delta_schedule(n, cfg.beta, scenario.space.intrinsic_dim, d_max)
    else:
        delta = _BENCH_DELTA[scenario.parent]
    return delta_cover(scenario.parent, scenario.space, delta)


def run_trial(cfg: ScenarioConfig, scenario: Scenario, cover: list[ClosedSubgroup],
              n: int, trial: int) -> list[RiskRow]:
    """All risk rows of one (sample size, trial) cell; pure given its inputs.

    ``scenario`` is ``cfg``'s catalog entry, passed by value so a worker
    process needs no catalog of its own: under the ``spawn`` start method a
    scenario registered at run time exists only in the parent.
    """
    d = scenario.space.intrinsic_dim
    rng_fit = substream(cfg.seed, cfg.scenario, n, trial, "fit")
    rng_sel = substream(cfg.seed, cfg.scenario, n, trial, "selection")
    rng_eval = substream(cfg.seed, cfg.scenario, n, trial, "eval")

    fit = generate_data(scenario, n, cfg.noise_sd, rng_fit)
    if cfg.split:
        holdout = generate_data(scenario, n, cfg.noise_sd, rng_sel)
        union = Dataset(scenario.space, np.vstack([fit.X, holdout.X]),
                        np.concatenate([fit.Y, holdout.Y]))
    else:
        holdout = fit
        union = fit

    baseline = LocalConstantEstimator(union, bandwidth(cfg.a, len(union), cfg.beta, d, 0))
    selection = global_ems(SelectionInput(holdout=holdout, cover=cover, fit_data=fit,
                                          a=cfg.a, beta=cfg.beta,
                                          symmetriser="uniform"))
    base_best = LocalConstantEstimator(fit, selection.chosen_bandwidth)
    best = BestSymmetricPredictor(base_best, selection, method="uniform")

    eval_X = sample_points(scenario.space, PointDistribution.UNIFORM_SPACE,
                           cfg.eval_points, rng_eval)
    truth = Dataset(scenario.space, eval_X, scenario.fn(eval_X))
    return [
        RiskRow(cfg.scenario, n, trial, BASELINE, empirical_error(baseline, truth)),
        RiskRow(cfg.scenario, n, trial, BEST_SYMMETRIC, empirical_error(best, truth)),
    ]


def _run_trial_star(args) -> list[RiskRow]:
    return run_trial(*args)


def run_experiment(cfg: ScenarioConfig) -> RiskReport:
    """Full sweep over the sample-size grid; deterministic in (config, seed)."""
    scenario = SCENARIOS[cfg.scenario]
    tasks = []
    for n in cfg.n_grid:
        cover = cover_for(cfg, n)
        for trial in range(cfg.trials):
            tasks.append((cfg, scenario, cover, n, trial))
    if cfg.workers > 1:
        # imported here, so importing the package does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        # the largest trials first, so the last one to start is a short one;
        # the rows are sorted below, so the report does not depend on it
        tasks.sort(key=lambda task: task[3], reverse=True)
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_trial_star, tasks, chunksize=1))
    else:
        results = [run_trial(*task) for task in tasks]
    rows = [row for batch in results for row in batch]
    rows.sort(key=lambda r: (r.scenario, r.n, r.trial, r.estimator))
    return RiskReport(rows)
