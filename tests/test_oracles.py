import math

import numpy as np
import pytest

from orbitreg import (
    OracleReport,
    bias_bound_oracle,
    inverse_moment_oracle,
    lipschitz_oracle,
    packing_oracle,
    substream,
    tail_bound_oracle,
)
from orbitreg.oracles import binomial_cdf, reports_csv, run_all_oracles


class TestInverseMoments:
    def test_gaussian_rotation_scale(self):
        rep = inverse_moment_oracle("gaussian_so3", 150_000, substream(0, "g"))
        assert rep.passed
        assert rep.expected == 0.5

    def test_uniform_ball(self):
        rep = inverse_moment_oracle("uniform_ball", 150_000, substream(0, "b"))
        assert rep.passed
        assert rep.expected == 3.0

    def test_sphere_circle(self):
        rep = inverse_moment_oracle("sphere_circle", 150_000, substream(0, "s"))
        assert rep.passed
        assert rep.expected == pytest.approx(math.sqrt(2.0))

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            inverse_moment_oracle("uniform_ball", 100, substream(0))


class TestLipschitz:
    def test_rotations_on_the_ball(self):
        rep = lipschitz_oracle("ball_rotations", 20_000, substream(1, "rot"))
        assert rep.passed and rep.observed == 0.0

    def test_torus_shifts(self):
        rep = lipschitz_oracle("torus_shifts", 20_000, substream(1, "tor"))
        assert rep.passed and rep.observed <= 1e-9


class TestPacking:
    def test_random_configurations_have_no_violations(self):
        rep = packing_oracle(250, substream(2, "pack"))
        assert rep.passed and rep.observed <= 1e-9

    def test_oversized_bandwidth_accepted_by_the_max_clause(self):
        from orbitreg import build_orbit_grid, full_so3, unit_ball3

        grid = build_orbit_grid(unit_ball3(), full_so3(), [0.4, 0, 0], h=2.0)
        assert grid.m == 1
        assert max(1.0, (grid.hypercube_side / 4.0) ** 2) == 1.0


class TestBiasBound:
    def test_no_violations_on_sampled_pairs(self):
        rep = bias_bound_oracle(120, substream(3, "bias"), delta=1.2, net_resolution=0.1)
        assert rep.passed and rep.observed == 0.0


class TestTailBounds:
    def test_moderate_regime(self):
        rep = tail_bound_oracle(50, 0.1, 20_000, substream(4, "t1"))
        assert rep.passed

    def test_certain_success_gives_zero_frequencies(self):
        rep = tail_bound_oracle(10, 1.0, 5_000, substream(4, "t2"))
        assert rep.passed and rep.observed == 0.0

    def test_exact_cdf_against_simulation(self):
        n, p, trials = 20, 0.3, 100_000
        rng = substream(4, "cdf")
        draws = rng.binomial(n, p, size=trials)
        for k in (0, 2, 5, 8):
            exact = binomial_cdf(n, p, k)
            freq = float(np.mean(draws <= k))
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(freq - exact) <= 3 * se + 1e-9

    def test_cdf_edges(self):
        assert binomial_cdf(5, 0.4, -1) == 0.0
        assert binomial_cdf(5, 0.4, 5) == 1.0

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            tail_bound_oracle(10, 0.0, 100, substream(0))


class TestSuite:
    def test_quick_suite_all_pass_and_sorted(self):
        reports = run_all_oracles(seed=11, quick=True)
        assert [rep.name for rep in reports] == sorted(rep.name for rep in reports)
        assert all(rep.passed for rep in reports), [r for r in reports if not r.passed]

    def test_report_invariant(self):
        rep = OracleReport.check("demo", 1.0, 1.005, 0.01)
        assert rep.passed
        rep = OracleReport.check("demo", 1.0, 1.02, 0.01)
        assert not rep.passed

    def test_csv_shape(self):
        reports = [OracleReport.check("a", 1.0, 1.0, 0.1),
                   OracleReport.check("b", 2.0, 0.0, 0.1)]
        text = reports_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "name,observed,expected,tolerance,pass"
        assert lines[1].startswith("a,") and lines[1].endswith(",true")
        assert lines[2].startswith("b,") and lines[2].endswith(",false")
