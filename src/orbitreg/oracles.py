"""Independent cross-checks of the geometric and probabilistic claims.

Each oracle recomputes a quantity the library relies on -- inverse orbit
moments, action Lipschitz constants, grid packing bounds, the symmetrised
bias bound, and empty-ball tail bounds -- by brute force or closed form,
touching only the public operation under test.  Statistical tolerances are
three standard errors derived from the sample counts; exact geometric
assertions use a 1e-9 float slack and report their worst violation excess
(0 when every case holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import FunctionPredictor
from .groups import quat_multiply, quat_conjugate, quat_rotate, quat_rotation_angle
from .orbit_grids import build_orbit_grid
from .randomness import polar_gaussian, substream
from .spaces import (
    PointDistribution,
    pairwise_distance,
    sample_points,
    torus,
    unit_ball3,
    unit_sphere2,
)
from .subgroups import (
    PARENT_SO3,
    axis_translations,
    circle3,
    delta_cover,
    full_so3,
    full_torus,
    hausdorff_U_distance,
    orbit_dimension,
    parent_torus,
    torus_line,
    trivial_subgroup,
)

_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class OracleReport:
    name: str
    observed: float
    expected: float
    tolerance: float
    passed: bool

    @staticmethod
    def check(name: str, observed: float, expected: float, tolerance: float) -> "OracleReport":
        return OracleReport(name, float(observed), float(expected), float(tolerance),
                            abs(observed - expected) <= tolerance)


def _mc_report(name: str, values: np.ndarray, expected: float) -> OracleReport:
    observed = float(values.mean())
    tol = 3.0 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return OracleReport.check(name, observed, expected, tol)


# ---------------------------------------------------------------------------
# inverse moments of the orbit scale

def inverse_moment_oracle(scenario: str, samples: int, rng: np.random.Generator) -> OracleReport:
    """Monte-Carlo inverse moments of the orbit hypercube scale.

    ``gaussian_so3``: E[(sqrt(2)|X|)^-2] = 1/2 for Gaussian X (chi-square
    reciprocal moment).  ``uniform_ball``: E[|X|^-2] = 3 (radius law
    z**(1/3)).  ``sphere_circle``: E[(1 - <X, u>)^-1/2] = sqrt(2) for
    uniform X on the sphere (triangular scale law for circle orbits).
    """
    if samples < 10_000:
        raise ValueError("inverse moment oracles need at least 1e4 samples")
    if scenario == "gaussian_so3":
        X = sample_points(unit_ball3(), PointDistribution.GAUSSIAN3, samples, rng)
        values = 1.0 / (2.0 * np.sum(X * X, axis=1))
        return _mc_report("inverse_moment_gaussian_so3", values, 0.5)
    if scenario == "uniform_ball":
        X = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, samples, rng)
        values = 1.0 / np.sum(X * X, axis=1)
        return _mc_report("inverse_moment_uniform_ball", values, 3.0)
    if scenario == "sphere_circle":
        X = sample_points(unit_sphere2(), PointDistribution.UNIFORM_SPACE, samples, rng)
        values = 1.0 / np.sqrt(np.maximum(1.0 - X[:, 2], 1e-300))
        return _mc_report("inverse_moment_sphere_circle", values, math.sqrt(2.0))
    raise ValueError(f"unknown inverse moment scenario {scenario!r}")


# ---------------------------------------------------------------------------
# Lipschitz constant of the catalog actions

def lipschitz_oracle(action: str, samples: int, rng: np.random.Generator) -> OracleReport:
    """Worst ratio of point displacement to group distance; excess over 1.

    Degenerate pairs with group distance below 1e-12 are skipped; the count
    of skipped pairs is folded into the sample budget, never a division.
    """
    if samples < 10_000:
        raise ValueError("lipschitz oracles need at least 1e4 samples")
    if action == "ball_rotations":
        qa = _normalized(polar_gaussian(rng, 4 * samples).reshape(samples, 4))
        qb = _normalized(polar_gaussian(rng, 4 * samples).reshape(samples, 4))
        x = sample_points(unit_ball3(), PointDistribution.UNIFORM_SPACE, samples, rng)
        dg = quat_rotation_angle(quat_multiply(quat_conjugate(qa), qb))
        dx = np.linalg.norm(quat_rotate(qa, x) - quat_rotate(qb, x), axis=1)
        name = "lipschitz_ball_rotations"
    elif action == "torus_shifts":
        ga = rng.random((samples, 2))
        gb = rng.random((samples, 2))
        x = rng.random((samples, 2))
        diff = np.abs(ga - gb)
        diff = np.minimum(diff, 1.0 - diff)
        dg = np.sqrt(np.sum(diff * diff, axis=1))
        pos = np.abs(np.mod(x + ga, 1.0) - np.mod(x + gb, 1.0))
        pos = np.minimum(pos, 1.0 - pos)
        dx = np.sqrt(np.sum(pos * pos, axis=1))
        name = "lipschitz_torus_shifts"
    else:
        raise ValueError(f"unknown action {action!r}")
    keep = dg > 1e-12
    ratio = dx[keep] / dg[keep]
    excess = max(float(ratio.max()) - 1.0, 0.0) if ratio.size else 0.0
    return OracleReport.check(name, excess, 0.0, _FLOAT_SLACK)


def _normalized(q: np.ndarray) -> np.ndarray:
    return q / np.linalg.norm(q, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# packing bounds of the orbit grids

def _random_config(rng: np.random.Generator, index: int):
    spaces = [unit_ball3(), unit_sphere2(), torus(2), torus(3)]
    space = spaces[int(rng.integers(len(spaces)))]
    if space in (unit_ball3(), unit_sphere2()):
        groups = [trivial_subgroup(PARENT_SO3), circle3(_random_axis(rng)), full_so3()]
    elif space == torus(2):
        p, q = int(rng.integers(0, 4)), int(rng.integers(-3, 4))
        if p == 0 and q == 0:
            p = 1
        groups = [trivial_subgroup(parent_torus(2)), torus_line(p, q), full_torus(2)]
    else:  # a coordinate sub-torus of T^3
        mask = sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False).tolist())
        groups = [axis_translations(3, mask)]
    group = groups[int(rng.integers(len(groups)))]
    coords = sample_points(space, PointDistribution.UNIFORM_SPACE, 1, rng)[0]
    if index % 50 == 0 and space == unit_ball3():
        coords = np.zeros(3)  # singular base point: the grid must degrade, not crash
    h = float(np.exp(rng.uniform(np.log(0.02), np.log(0.8))))
    return space, group, coords, h


def _random_axis(rng: np.random.Generator) -> np.ndarray:
    v = polar_gaussian(rng, 3)
    return v / np.linalg.norm(v)


def packing_oracle(configs: int, rng: np.random.Generator) -> OracleReport:
    """Packing count and spacing of orbit grids over random configurations.

    Checks ``m >= max(1, (R/2h)**k)`` and pairwise orbit spacing >= 2h with
    1e-9 slack; the report carries the worst violation excess.
    """
    if configs < 1:
        raise ValueError("packing oracle needs at least one configuration")
    worst = 0.0
    for index in range(configs):
        space, group, x, h = _random_config(rng, index)
        grid = build_orbit_grid(space, group, x, h)
        k = orbit_dimension(group, space)
        required = max(1.0, (grid.hypercube_side / (2.0 * h)) ** k)
        worst = max(worst, required - grid.m)
        if grid.m > 1:
            dist = pairwise_distance(space, grid.orbit_coords, grid.orbit_coords)
            np.fill_diagonal(dist, np.inf)
            worst = max(worst, 2.0 * h - float(dist.min()))
    return OracleReport.check("packing", max(worst, 0.0), 0.0, _FLOAT_SLACK)


# ---------------------------------------------------------------------------
# symmetrised bias against subgroup distance

def bias_bound_oracle(samples: int, rng: np.random.Generator, delta: float = 0.5,
                      net_resolution: float = 0.05) -> OracleReport:
    """Orbit-average bias of an axis-invariant function against the
    subgroup-distance bound, over random (point, subgroup) pairs.

    The test function cos(sqrt(x2^2 + x3^2)) is 1-Lipschitz and exactly
    invariant under rotations about the first axis; for any other subgroup
    the averaged bias must stay below the Hausdorff distance between the
    two groups (net-computed, so 2 * net_resolution of slack applies).
    """
    if samples < 1:
        raise ValueError("bias bound oracle needs at least one sample")
    space = unit_ball3()
    invariant_axis = circle3(np.array([1.0, 0.0, 0.0]))
    cover = delta_cover(PARENT_SO3, space, delta)
    distances = {
        g: hausdorff_U_distance(g, invariant_axis, net_resolution)
        for g in cover
    }
    fn = FunctionPredictor(space, lambda pts: np.cos(np.sqrt(pts[:, 1] ** 2 + pts[:, 2] ** 2)))
    worst = 0.0
    X = sample_points(space, PointDistribution.UNIFORM_SPACE, samples, rng)
    picks = rng.integers(len(cover), size=samples)
    hs = np.exp(rng.uniform(np.log(0.05), np.log(0.4), size=samples))
    for x, pick, h in zip(X, picks, hs):
        group = cover[int(pick)]
        grid = build_orbit_grid(space, group, x, float(h))
        centre = float(fn.predict_coords(x[None, :])[0])
        gap = abs(float(fn.predict_coords(grid.orbit_coords).mean()) - centre)
        limit = distances[group] + 2.0 * net_resolution
        worst = max(worst, gap - limit)
    return OracleReport.check("bias_bound", max(worst, 0.0), 0.0, _FLOAT_SLACK)


# ---------------------------------------------------------------------------
# empty-ball tail bounds

def binomial_cdf(n: int, p: float, k: int) -> float:
    """Exact Binomial(n, p) CDF at k by direct summation."""
    if k < 0:
        return 0.0
    k = min(k, n)
    total = 0.0
    for i in range(k + 1):
        total += math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
    return min(total, 1.0)


def tail_bound_oracle(n: int, p: float, trials: int, rng: np.random.Generator) -> OracleReport:
    """Empty-count and half-count frequencies against exponential bounds.

    Simulated Binomial(n, p) frequencies of {N = 0} and {N <= np/2} must
    not exceed exp(-np) and exp(-np/8) by more than three standard errors
    of the estimated frequency (computed at the exact event probability).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    draws = rng.binomial(n, p, size=trials)
    half = n * p / 2.0
    freq_empty = float(np.mean(draws == 0))
    freq_half = float(np.mean(draws <= half))
    prob_empty = (1.0 - p) ** n
    prob_half = binomial_cdf(n, p, int(math.floor(half)))
    excess = 0.0
    for freq, bound, prob in ((freq_empty, math.exp(-n * p), prob_empty),
                              (freq_half, math.exp(-n * p / 8.0), prob_half)):
        se = math.sqrt(prob * (1.0 - prob) / trials)
        excess = max(excess, freq - (bound + 3.0 * se))
    return OracleReport.check(f"tail_n{n}_p{p:g}", max(excess, 0.0), 0.0, _FLOAT_SLACK)


# ---------------------------------------------------------------------------
# suite runner

TAIL_GRID = ((20, 0.3), (50, 0.1), (50, 0.2), (100, 0.05), (200, 0.02))


def run_all_oracles(seed: int = 20260801, quick: bool = False) -> list[OracleReport]:
    """Run every oracle on its own named stream; deterministic by name."""
    mc = 100_000 if quick else 1_000_000
    pairs = 20_000 if quick else 100_000
    configs = 200 if quick else 1000
    bias_samples = 100 if quick else 1000
    tail_trials = 20_000 if quick else 100_000

    jobs = {
        "inverse_moment_gaussian_so3": lambda r: inverse_moment_oracle("gaussian_so3", mc, r),
        "inverse_moment_uniform_ball": lambda r: inverse_moment_oracle("uniform_ball", mc, r),
        "inverse_moment_sphere_circle": lambda r: inverse_moment_oracle("sphere_circle", mc, r),
        "lipschitz_ball_rotations": lambda r: lipschitz_oracle("ball_rotations", pairs, r),
        "lipschitz_torus_shifts": lambda r: lipschitz_oracle("torus_shifts", pairs, r),
        "packing": lambda r: packing_oracle(configs, r),
        "bias_bound": lambda r: bias_bound_oracle(bias_samples, r),
    }
    for n, p in TAIL_GRID:
        jobs[f"tail_n{n}_p{p:g}"] = (
            lambda r, n=n, p=p: tail_bound_oracle(n, p, tail_trials, r)
        )

    def run_one(item):
        name, fn = item
        return fn(substream(seed, "oracle", name))

    # imported here, so importing the package does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(run_one, jobs.items()))
    return sorted(reports, key=lambda rep: rep.name)


def reports_csv(reports: list[OracleReport]) -> str:
    lines = ["name,observed,expected,tolerance,pass"]
    for rep in reports:
        lines.append(f"{rep.name},{rep.observed!r},{rep.expected!r},{rep.tolerance!r},"
                     f"{str(rep.passed).lower()}")
    return "\n".join(lines) + "\n"
