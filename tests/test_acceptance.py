"""End-to-end acceptance suite.

One test per release criterion, each printing a pass/fail line with its
measured quantity (run pytest with ``-s`` or ``-rA`` to see every line).
The two benchmark reproductions are the slow parts; they use two worker
processes, which also exercises the parallel-schedule determinism the
reporting layer promises.
"""

import math
import time

import numpy as np
import pytest

from orbitreg import (
    Dataset,
    LocalConstantEstimator,
    PARENT_SO3,
    PointDistribution,
    ScenarioConfig,
    bias_bound_oracle,
    delta_cover,
    inverse_moment_oracle,
    lipschitz_oracle,
    packing_oracle,
    run_experiment,
    sample_points,
    substream,
    tail_bound_oracle,
    unit_ball3,
)
from orbitreg.bench import BASELINE, BEST_SYMMETRIC
from orbitreg.oracles import TAIL_GRID
from orbitreg.report import rows_csv, aggregates_csv
from orbitreg.spaces import pairwise_distance
from orbitreg.subgroups import SubgroupFamily

SEED = 20260801


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def so3_reports():
    start = time.perf_counter()
    reports = {}
    for scenario in ("so3_f1", "so3_f2", "so3_f3"):
        cfg = ScenarioConfig(scenario=scenario, trials=30, noise_sd=0.5, seed=SEED,
                             workers=2)
        reports[scenario] = run_experiment(cfg)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def torus_report():
    reports = {}
    for scenario in ("t2_g1", "t2_g2", "t2_g3"):
        cfg = ScenarioConfig(scenario=scenario, trials=100, noise_sd=0.5, seed=SEED,
                             n_grid=(150, 200, 300), workers=2)
        reports[scenario] = run_experiment(cfg)
    return reports


def test_criterion_01_packing_bounds():
    start = time.perf_counter()
    rep = packing_oracle(1000, substream(SEED, "acc-packing"))
    elapsed = time.perf_counter() - start
    report("criterion 1 (packing bounds)",
           rep.passed and elapsed < 60.0,
           f"worst violation excess {rep.observed:.3e} over 1000 configs in {elapsed:.1f}s")


def test_criterion_02_lipschitz_actions():
    ball = lipschitz_oracle("ball_rotations", 100_000, substream(SEED, "acc-lip-ball"))
    shifts = lipschitz_oracle("torus_shifts", 100_000, substream(SEED, "acc-lip-torus"))
    report("criterion 2 (1-Lipschitz actions)",
           ball.passed and shifts.passed,
           f"max ratio excess ball {ball.observed:.2e}, torus {shifts.observed:.2e}")


def test_criterion_03_inverse_moments():
    start = time.perf_counter()
    tolerances = {"gaussian_so3": 0.02, "uniform_ball": 0.05, "sphere_circle": 0.02}
    details, ok = [], True
    for scenario, tol in tolerances.items():
        rep = inverse_moment_oracle(scenario, 1_000_000, substream(SEED, "acc-mom", scenario))
        ok &= abs(rep.observed - rep.expected) <= tol
        details.append(f"{scenario} {rep.observed:.4f} vs {rep.expected:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report("criterion 3 (inverse moments)", ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_04_delta_cover_of_axis_circles():
    delta = 0.5
    cover = delta_cover(PARENT_SO3, unit_ball3(), delta)
    families = [g.family for g in cover]
    has_ends = (SubgroupFamily.TRIVIAL in families and SubgroupFamily.FULL_SO3 in families)
    axes = np.array([g.axis for g in cover if g.family is SubgroupFamily.CIRCLE3])
    rng = substream(SEED, "acc-cover")
    raw = rng.standard_normal((10_000, 3))
    units = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    best_dot = np.abs(units @ axes.T).max(axis=1)
    bound = 2.0 * np.arccos(np.clip(best_dot, -1.0, 1.0))
    report("criterion 4 (delta cover)",
           has_ends and bool(np.all(bound <= delta + 1e-12)),
           f"worst circle-distance bound {bound.max():.4f} <= {delta} over 10^4 axes; "
           f"{len(axes)} axis circles emitted")


def test_criterion_05_symmetrised_bias_bound():
    start = time.perf_counter()
    rep = bias_bound_oracle(1000, substream(SEED, "acc-bias"), delta=0.5, net_resolution=0.05)
    report("criterion 5 (orbit-average bias bound)", rep.passed,
           f"worst violation excess {rep.observed:.3e} over 1000 pairs "
           f"in {time.perf_counter() - start:.1f}s")


def test_criterion_06_local_estimator_assumptions():
    rng = substream(SEED, "acc-lce")
    ball = unit_ball3()
    X = sample_points(ball, PointDistribution.UNIFORM_SPACE, 600, rng)
    truth = np.linalg.norm(X, axis=1)
    data = Dataset(ball, X, truth)
    h = 0.2
    est = LocalConstantEstimator(data, h)
    # strict locality: points 2h apart use disjoint data
    disjoint = True
    for _ in range(200):
        a = sample_points(ball, PointDistribution.UNIFORM_SPACE, 1, rng)[0]
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        b = a + 2.0 * h * direction
        if np.linalg.norm(b) > 1.0:
            continue
        # shifting the responses in the brute-force h-ball around one end
        # must leave the prediction at the other end bit-for-bit unchanged
        pair = np.array([a, b])
        before = est.predict_coords(pair)
        for i in (0, 1):
            in_ball = pairwise_distance(ball, pair[i : i + 1], X)[0] < h
            after = LocalConstantEstimator(Dataset(ball, X, truth + 1000.0 * in_ball), h)
            disjoint &= bool(after.predict_coords(pair)[1 - i] == before[1 - i])
    # noiseless bias: averaging a 1-Lipschitz function over an h-ball
    queries = sample_points(ball, PointDistribution.UNIFORM_SPACE, 500, rng)
    preds = est.predict_coords(queries)
    from orbitreg.spaces import neighbor_stats

    counts, _ = neighbor_stats(ball, queries, X, h, data.Y)
    nonempty = counts > 0
    worst = float(np.abs(preds[nonempty] - np.linalg.norm(queries[nonempty], axis=1)).max())
    report("criterion 6 (local estimator assumptions)",
           disjoint and worst <= h,
           f"predictions 2h apart share no data; worst noiseless bias {worst:.4f} <= h = {h}")


def test_criterion_07_rotation_benchmark(so3_reports):
    reports, elapsed = so3_reports
    lines, ok = [], True
    for scenario in ("so3_f1", "so3_f2"):
        base = reports[scenario].mean_risk(scenario, 300, BASELINE)
        best = reports[scenario].mean_risk(scenario, 300, BEST_SYMMETRIC)
        ok &= best < base
        lines.append(f"{scenario}@300 {best:.4f} < {base:.4f}")
    base = reports["so3_f3"].mean_risk("so3_f3", 300, BASELINE)
    best = reports["so3_f3"].mean_risk("so3_f3", 300, BEST_SYMMETRIC)
    ok &= best <= 2.0 * base
    lines.append(f"so3_f3@300 {best:.4f} <= 2 x {base:.4f}")
    slope_best = reports["so3_f1"].slope("so3_f1", BEST_SYMMETRIC, n_min=75)
    slope_base = reports["so3_f1"].slope("so3_f1", BASELINE, n_min=75)
    ok &= slope_best < slope_base < 0.0
    lines.append(f"f1 slopes {slope_best:.3f} < {slope_base:.3f} < 0")
    ok &= elapsed <= 600.0
    lines.append(f"runtime {elapsed:.0f}s")
    report("criterion 7 (rotation benchmark)", ok, "; ".join(lines))


def test_criterion_08_torus_benchmark(torus_report):
    lines, ok = [], True
    for scenario, rep in torus_report.items():
        for n in (150, 200, 300):
            base = rep.mean_risk(scenario, n, BASELINE)
            best = rep.mean_risk(scenario, n, BEST_SYMMETRIC)
            ok &= best < base
            lines.append(f"{scenario}@{n} {best:.4f}<{base:.4f}")
    report("criterion 8 (torus benchmark)", ok, "; ".join(lines))


def test_criterion_09_determinism_including_parallel():
    cfg = dict(scenario="t2_g2", n_grid=(30, 50), trials=3, seed=SEED, eval_points=60)
    serial_1 = run_experiment(ScenarioConfig(**cfg))
    serial_2 = run_experiment(ScenarioConfig(**cfg))
    parallel = run_experiment(ScenarioConfig(workers=2, **cfg))
    same = (rows_csv(serial_1) == rows_csv(serial_2) == rows_csv(parallel)
            and aggregates_csv(serial_1) == aggregates_csv(serial_2) == aggregates_csv(parallel))
    report("criterion 9 (byte-identical reruns)", same,
           "serial x2 and 2-worker schedules agree byte for byte")


def test_criterion_10_tail_bounds():
    worst, ok = 0.0, True
    for n, p in TAIL_GRID:
        rep = tail_bound_oracle(n, p, 100_000, substream(SEED, "acc-tail", f"{n}-{p}"))
        ok &= rep.passed
        worst = max(worst, rep.observed)
    report("criterion 10 (tail bounds)", ok,
           f"worst excess over exp(-np), exp(-np/8) + 3se: {worst:.3e} across {len(TAIL_GRID)} settings")
