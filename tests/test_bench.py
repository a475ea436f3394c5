import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitreg import (
    ConfigError,
    IncompatibleActionError,
    RiskReport,
    RiskRow,
    ScenarioConfig,
    estimate_risk,
    generate_data,
    run_experiment,
    substream,
    torus,
    unit_ball3,
)
from orbitreg.bench import SCENARIOS, wald_halfwidth
from orbitreg.estimators import FunctionPredictor
from orbitreg.report import aggregates_csv, emit_report, risk_plot_svg, rows_csv
from orbitreg.spaces import PointDistribution, sample_points
from orbitreg.subgroups import circle3, sample_orbit_coords

TINY = dict(n_grid=(24, 30), trials=2, eval_points=40, seed=5)
ROOT = Path(__file__).resolve().parents[1]

# Registers a module-level scenario function, then prints the risk rows of a
# serial run and of a two-worker run under the start method in argv[1].
CUSTOM_SCENARIO_SCRIPT = """
import multiprocessing
import sys

import numpy as np

from orbitreg import PARENT_SO3, ScenarioConfig, run_experiment, unit_ball3
from orbitreg.bench import register_scenario


def custom_ball(X):
    return np.linalg.norm(X, axis=1) ** 2


def rows(workers):
    cfg = ScenarioConfig(scenario="custom_ball", n_grid=(24, 30), trials=2,
                         eval_points=40, seed=5, workers=workers)
    return " ".join(f"{r.n},{r.trial},{r.estimator},{r.risk.hex()}"
                    for r in run_experiment(cfg).rows)


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    register_scenario("custom_ball", unit_ball3(), PARENT_SO3, custom_ball)
    print(rows(1), rows(2), sep="|", end="")
"""


class TestScenarioFunctions:
    def test_radial_cosine_at_origin(self):
        assert SCENARIOS["so3_f1"].fn(np.zeros((1, 3))).tolist() == [1.0]

    def test_constant_torus_scenario(self):
        assert SCENARIOS["t2_g1"].fn(np.array([[0.4, 0.9]])).tolist() == [1.0]

    def test_axis_symmetry_of_f2(self):
        # invariance under rotations about the first axis, checked in bulk
        scen = SCENARIOS["so3_f2"]
        rng = substream(0, "f2inv")
        X = sample_points(scen.space, PointDistribution.UNIFORM_SPACE, 10_000, rng)
        rotated = sample_orbit_coords(circle3([1.0, 0.0, 0.0]), X, 1, rng)[:, 0, :]
        assert np.max(np.abs(scen.fn(X) - scen.fn(rotated))) <= 1e-12


class TestGenerateData:
    def test_noiseless_responses_equal_the_function(self):
        scen = SCENARIOS["so3_f2"]
        data = generate_data(scen, 50, 0.0, substream(1))
        assert np.array_equal(data.Y, scen.fn(data.X))

    def test_noise_mean_and_variance(self):
        scen = SCENARIOS["t2_g1"]
        sigma = 0.7
        data = generate_data(scen, 1_000_000, sigma, substream(2))
        noise = data.Y - scen.fn(data.X)
        assert abs(noise.mean()) <= 3 * sigma / 1000.0
        assert abs(noise.var() - sigma * sigma) <= 0.01 * sigma * sigma

    def test_covariates_lie_in_the_space(self):
        scen = SCENARIOS["so3_f1"]
        data = generate_data(scen, 200, 0.5, substream(3))
        assert np.all(np.linalg.norm(data.X, axis=1) <= 1.0)


class TestEstimateRisk:
    def test_perfect_predictor_has_zero_risk(self):
        scen = SCENARIOS["so3_f1"]
        pred = FunctionPredictor(scen.space, scen.fn)
        assert estimate_risk(pred, scen.fn, 100, substream(4), scen.space) == 0.0

    def test_constant_offset_gives_offset_squared(self):
        scen = SCENARIOS["so3_f1"]
        pred = FunctionPredictor(scen.space, lambda X: scen.fn(X) + 1.0)
        assert estimate_risk(pred, scen.fn, 57, substream(5), scen.space) == pytest.approx(1.0)

    def test_zero_predictor_matches_radial_quadrature(self):
        # Simpson oracle for E cos^2|X| on the uniform ball:
        # integral of 3 r^2 cos^2(r) dr over [0, 1].
        r = np.linspace(0.0, 1.0, 2001)
        integrand = 3.0 * r * r * np.cos(r) ** 2
        weights = np.ones_like(r)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        oracle = float((weights * integrand).sum() * (r[1] - r[0]) / 3.0)
        scen = SCENARIOS["so3_f1"]
        zero = FunctionPredictor(scen.space, lambda X: np.zeros(X.shape[0]))
        k = 1_000_000
        risk = estimate_risk(zero, scen.fn, k, substream(6), scen.space)
        # three standard errors of the Monte-Carlo risk estimate
        X = sample_points(scen.space, PointDistribution.UNIFORM_SPACE, 200_000, substream(7))
        se = np.std(scen.fn(X) ** 2, ddof=1) / np.sqrt(k)
        assert abs(risk - oracle) <= 3 * se


class TestRunExperiment:
    def test_constant_scenario_symmetrisation_helps(self):
        cfg = ScenarioConfig(scenario="t2_g1", n_grid=(30,), trials=1, noise_sd=0.0,
                             eval_points=50, seed=3)
        rep = run_experiment(cfg)
        assert rep.mean_risk("t2_g1", 30, "best_symmetric") <= rep.mean_risk("t2_g1", 30, "baseline")

    def test_rows_cover_grid_and_estimators(self):
        cfg = ScenarioConfig(scenario="t2_g2", **TINY)
        rep = run_experiment(cfg)
        assert len(rep.rows) == 2 * 2 * 2
        assert {row.estimator for row in rep.rows} == {"baseline", "best_symmetric"}
        assert {row.n for row in rep.rows} == {24, 30}

    def test_identical_config_identical_rows(self):
        cfg = ScenarioConfig(scenario="t2_g2", **TINY)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.rows == b.rows

    def test_parallel_schedule_matches_serial(self):
        cfg = ScenarioConfig(scenario="t2_g3", **TINY)
        serial = run_experiment(cfg)
        parallel = run_experiment(ScenarioConfig(scenario="t2_g3", workers=2, **TINY))
        assert serial.rows == parallel.rows

    def test_pool_gets_largest_trials_first(self, monkeypatch):
        import concurrent.futures

        pool_class = concurrent.futures.ProcessPoolExecutor
        order = []

        class RecordingPool(pool_class):
            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                order.extend((task[3], task[4]) for task in tasks)
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        grid = dict(TINY, n_grid=(30, 50, 75))
        parallel = run_experiment(ScenarioConfig(scenario="t2_g3", workers=2, **grid))
        assert order == [(75, 0), (75, 1), (50, 0), (50, 1), (30, 0), (30, 1)]
        assert parallel.rows == run_experiment(ScenarioConfig(scenario="t2_g3", **grid)).rows

    def test_no_split_reuses_one_sample(self):
        cfg = ScenarioConfig(scenario="t2_g2", split=False, **TINY)
        rep = run_experiment(cfg)
        assert len(rep.rows) == 8

    def test_config_validation_names_the_field(self):
        with pytest.raises(ConfigError, match="n_grid"):
            ScenarioConfig(scenario="so3_f1", n_grid=(100, 50))
        with pytest.raises(ConfigError, match="trials"):
            ScenarioConfig(scenario="so3_f1", trials=0)
        with pytest.raises(ConfigError, match="noise_sd"):
            ScenarioConfig(scenario="so3_f1", noise_sd=-0.1)
        with pytest.raises(ConfigError, match="scenario"):
            ScenarioConfig(scenario="bogus")

    @pytest.mark.parametrize("field, value", [("trials", 1.5), ("trials", True),
                                              ("eval_points", 20.5), ("workers", 1.5),
                                              ("workers", True), ("n_grid", (30.0, 50))])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field}:"):
            ScenarioConfig(scenario="so3_f1", **{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = ScenarioConfig(scenario="t2_g2", n_grid=(np.int64(24), np.int32(30)),
                             trials=np.int64(2), eval_points=np.int64(40), seed=5,
                             workers=np.int64(1))
        assert run_experiment(cfg).rows == run_experiment(ScenarioConfig(scenario="t2_g2", **TINY)).rows

    @pytest.mark.parametrize("field", ["a", "delta", "noise_sd"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scales_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field}:"):
            ScenarioConfig(scenario="so3_f1", **{field: value})

    def test_duplicate_sample_sizes_rejected(self):
        with pytest.raises(ConfigError, match="n_grid"):
            ScenarioConfig(scenario="so3_f1", n_grid=(30, 30))
        with pytest.raises(ConfigError, match="n_grid"):
            ScenarioConfig(scenario="so3_f1", n_grid=(24, 30, 30, 50))


class TestAggregates:
    def test_aggregates_match_independent_recount(self):
        cfg = ScenarioConfig(scenario="t2_g2", **TINY)
        rep = run_experiment(cfg)
        for (scen, n, est), (mean, half) in rep.aggregates.items():
            risks = [r.risk for r in rep.rows if (r.scenario, r.n, r.estimator) == (scen, n, est)]
            assert mean == pytest.approx(sum(risks) / len(risks), abs=1e-15)
            sd = np.std(risks, ddof=1)
            assert half == pytest.approx(1.96 * sd / np.sqrt(len(risks)), abs=1e-15)

    def test_single_trial_halfwidth_is_zero(self):
        assert wald_halfwidth([0.5]) == 0.0

    def test_slope_recovers_synthetic_decay(self):
        rows = []
        for n in (10, 100, 1000):
            rows.append(RiskRow("s", n, 0, "baseline", 2.0 * n ** (-0.4)))
            rows.append(RiskRow("s", n, 0, "best_symmetric", 1.0 * n ** (-0.66)))
        rep = RiskReport(rows)
        assert rep.slopes[("s", "baseline")] == pytest.approx(-0.4, abs=1e-9)
        assert rep.slopes[("s", "best_symmetric")] == pytest.approx(-0.66, abs=1e-9)
        assert rep.slope("s", "baseline", n_min=100) == pytest.approx(-0.4, abs=1e-9)


class TestReportFiles:
    def test_empty_report_writes_headers_only(self, tmp_path):
        rep = RiskReport([])
        written = emit_report(rep, str(tmp_path))
        rows = (tmp_path / "rows.csv").read_text()
        aggs = (tmp_path / "aggregates.csv").read_text()
        assert rows == "scenario,n,trial,estimator,risk\n"
        assert aggs == "scenario,n,estimator,mean_risk,ci_halfwidth\n"
        assert not list(tmp_path.glob("*.svg"))
        assert len(written) == 2

    def test_single_row_aggregate_equals_row(self, tmp_path):
        rep = RiskReport([RiskRow("t2_g1", 30, 0, "baseline", 0.125)])
        emit_report(rep, str(tmp_path))
        aggs = (tmp_path / "aggregates.csv").read_text().splitlines()
        assert aggs[1] == "t2_g1,30,baseline,0.125,0.0"

    def test_rows_csv_round_trips(self):
        rows = [RiskRow("so3_f1", 30, 0, "baseline", 0.1),
                RiskRow("so3_f1", 30, 0, "best_symmetric", 0.05)]
        text = rows_csv(RiskReport(rows))
        lines = text.splitlines()
        assert lines[0] == "scenario,n,trial,estimator,risk"
        parsed = [line.split(",") for line in lines[1:]]
        assert [float(p[4]) for p in parsed] == [0.1, 0.05]

    def test_svg_contains_series_and_slopes(self, tmp_path):
        cfg = ScenarioConfig(scenario="t2_g2", n_grid=(24, 30, 40), trials=2,
                             eval_points=30, seed=9)
        rep = run_experiment(cfg)
        svg = risk_plot_svg(rep, "t2_g2")
        assert svg.startswith("<svg")
        assert "slope" in svg
        assert svg.count("<path") == 2  # one polyline per estimator

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ScenarioConfig(scenario="t2_g1", **TINY)
        emit_report(run_experiment(cfg), str(tmp_path / "a"))
        emit_report(run_experiment(cfg), str(tmp_path / "b"))
        for name in ("rows.csv", "aggregates.csv", "risk_t2_g1.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestBetaRestriction:
    def test_degree_zero_estimator_only(self):
        with pytest.raises(ConfigError, match="beta"):
            ScenarioConfig(scenario="so3_f1", beta=1.5)
        with pytest.raises(ConfigError, match="a:"):
            ScenarioConfig(scenario="so3_f1", a=0.0)


class TestCustomScenario:
    def test_register_and_run(self):
        from orbitreg.bench import SCENARIOS, register_scenario
        from orbitreg import unit_ball3
        from orbitreg.subgroups import PARENT_SO3

        sid = "custom_radial"
        try:
            register_scenario(sid, unit_ball3(), PARENT_SO3,
                              lambda X: np.linalg.norm(X, axis=1) ** 2,
                              "full rotation group")
            cfg = ScenarioConfig(scenario=sid, n_grid=(24,), trials=1,
                                 eval_points=30, seed=1)
            rep = run_experiment(cfg)
            assert len(rep.rows) == 2
        finally:
            SCENARIOS.pop(sid, None)

    @pytest.mark.parametrize("method", ["spawn", "fork"])
    def test_registered_scenario_runs_in_worker_processes(self, method, tmp_path):
        # a spawned worker imports orbitreg afresh, so its catalog lacks a
        # scenario registered in the parent; the rows must not depend on it
        script = tmp_path / "custom.py"
        script.write_text(CUSTOM_SCENARIO_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, str(script), method], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        serial, pooled = result.stdout.split("|")
        assert pooled == serial
        assert len(serial.split()) == 8

    def test_duplicate_and_unsupported_parent_rejected(self):
        from orbitreg.bench import register_scenario
        from orbitreg import unit_ball3

        with pytest.raises(ConfigError):
            register_scenario("so3_f1", unit_ball3(), "so3", lambda X: X[:, 0])
        with pytest.raises(ConfigError):
            register_scenario("weird", unit_ball3(), "box3", lambda X: X[:, 0])

    def test_parent_that_does_not_act_on_the_space_rejected(self):
        from orbitreg.bench import register_scenario
        from orbitreg.subgroups import parent_torus

        with pytest.raises(IncompatibleActionError, match="torus2 does not act on torus3"):
            register_scenario("mismatched", torus(3), parent_torus(2), lambda X: X[:, 0])
        assert "mismatched" not in SCENARIOS
