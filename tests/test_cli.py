import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitreg import cli
from orbitreg.bench import ScenarioConfig
from orbitreg.cli import main
from orbitreg.randomness import substream


def write_line_sample_csv(path, n=120, seed=0):
    """Synthetic torus sample whose response ignores the first coordinate."""
    rng = substream(seed, "csv")
    X = rng.random((n, 2))
    Y = np.sin(2 * np.pi * X[:, 1]) + 0.1 * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x1,x2,y\n")
        for row, y in zip(X, Y):
            fh.write(f"{float(row[0])!r},{float(row[1])!r},{float(y)!r}\n")


class TestSimulate:
    def test_flags_only_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", "t2_g1", "--n-grid", "24,30",
                     "--trials", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert (out / "rows.csv").exists()
        assert (out / "aggregates.csv").exists()
        assert (out / "risk_t2_g1.svg").exists()
        assert "slope" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "scenario = t2_g2\n"
            "n_grid = 24,30   # two tiny sizes\n"
            "trials = 2\n"
            "seed = 5\n"
            "noise_sd = 0.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--trials", "1", "--out", str(out)])
        assert code == 0
        rows = (out / "rows.csv").read_text().splitlines()
        # one trial per n, two estimators
        assert len(rows) == 1 + 2 * 2

    def test_config_file_sets_every_field(self, tmp_path, monkeypatch):
        values = {"scenario": "t2_g3", "noise_sd": 0.25, "n_grid": (20, 40), "trials": 3,
                  "eval_points": 7, "beta": 0.5, "a": 2.0, "delta": 0.75, "use_schedule": False,
                  "seed": 5, "split": False, "workers": 2}
        assert set(values) == {f.name for f in dataclasses.fields(ScenarioConfig)}
        text = {tuple: lambda v: ",".join(map(str, v)), bool: lambda v: "yes" if v else "no"}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {text.get(type(v), str)(v)}\n" for key, v in values.items()),
                       encoding="utf-8")

        class Reached(Exception):
            pass

        def capture(config):
            raise Reached(config)

        monkeypatch.setattr(cli, "run_experiment", capture)
        with pytest.raises(Reached) as reached:
            main(["simulate", "--config", str(cfg)])
        assert reached.value.args[0] == ScenarioConfig(**values)

    @pytest.mark.parametrize("line", ["selector = grid", "final_method = monte_carlo"])
    def test_removed_estimator_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"scenario = t2_g1\n{line}\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "old.cfg:2: unknown key" in err and line.split()[0] in err
        assert not (tmp_path / "x").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["simulate", "--scenario", "t2_g1", "--n-grid", "24",
                "--trials", "2", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("rows.csv", "aggregates.csv", "risk_t2_g1.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_scenario_is_a_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--n-grid", "24", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "scenario" in capsys.readouterr().err

    def test_bad_config_line_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = t2_g1\nwhat\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg)])
        assert code == 2
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_delta_flag_overrides_schedule_from_config(self, tmp_path):
        cfg = tmp_path / "sched.cfg"
        cfg.write_text("scenario = t2_g1\nn_grid = 24\ntrials = 1\nseed = 3\n"
                       "use_schedule = true\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg), "--delta", "0.5",
                     "--out", str(tmp_path / "a")])
        assert code == 0
        main(["simulate", "--scenario", "t2_g1", "--n-grid", "24", "--trials", "1",
              "--seed", "3", "--delta", "0.5", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "rows.csv").read_bytes() == (tmp_path / "b" / "rows.csv").read_bytes()

    def test_schedule_flag_overrides_delta_from_config(self, tmp_path):
        cfg = tmp_path / "fixed.cfg"
        cfg.write_text("scenario = t2_g1\nn_grid = 24\ntrials = 1\ndelta = 0.5\n",
                       encoding="utf-8")
        code = main(["simulate", "--config", str(cfg), "--schedule-delta",
                     "--out", str(tmp_path / "a")])
        assert code == 0

    def test_delta_and_schedule_flags_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "t2_g1", "--delta", "0.5", "--schedule-delta",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["split = flase", "use_schedule = maybe", "split ="])
    def test_boolean_keys_reject_other_words(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scenario = t2_g1\n{line}\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.cfg:2: " in err and line.split()[0] in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("word, split", [("False", False), ("no", False), ("0", False),
                                             ("TRUE", True), ("yes", True), ("1", True)])
    def test_boolean_keys_accept_the_six_words(self, tmp_path, word, split):
        from orbitreg.cli import _parse_config_file

        cfg = tmp_path / "ok.cfg"
        cfg.write_text(f"split = {word}\n", encoding="utf-8")
        assert _parse_config_file(str(cfg)) == {"split": split}

    def test_delta_help_names_the_default_scale(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "omit for the schedule" not in help_text
        assert "default: the benchmark scale of the parent group" in help_text

    def test_invalid_n_grid_value(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "t2_g1", "--n-grid", "24,banana",
                     "--out", str(tmp_path / "y")])
        assert code == 2

    def test_invalid_n_grid_in_config_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = t2_g1\nn_grid = 24,banana\n", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "y")])
        assert code == 2
        assert "bad.cfg:2: bad value for n_grid" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()


class TestSelect:
    def test_selects_a_line_for_sparse_torus_sample(self, tmp_path, capsys):
        csv_path = tmp_path / "sample.csv"
        write_line_sample_csv(csv_path, n=160)
        report_path = tmp_path / "selection.txt"
        code = main(["select", "--input", str(csv_path), "--space", "torus2",
                     "--seed", "1", "--out", str(report_path)])
        assert code == 0
        text = report_path.read_text()
        # response depends only on x2: translations of x1 leave it invariant
        assert text.startswith("chosen: torus_line direction=1,0")
        assert "per-group holdout error:" in capsys.readouterr().out

    def test_show_cover_prints_catalog(self, tmp_path, capsys):
        csv_path = tmp_path / "sample.csv"
        write_line_sample_csv(csv_path, n=60)
        code = main(["select", "--input", str(csv_path), "--space", "torus2",
                     "--show-cover"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trivial parent=torus2" in out
        assert "full_torus parent=torus2" in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--a", "inf", "bandwidth requires a finite a > 0"),
        ("--a", "nan", "bandwidth requires a finite a > 0"),
        ("--delta", "nan", "delta must be finite and positive"),
        ("--delta", "inf", "delta must be finite and positive"),
    ])
    def test_non_finite_scale_is_a_config_error(self, tmp_path, capsys, flag, value, message):
        csv_path = tmp_path / "sample.csv"
        write_line_sample_csv(csv_path, n=60)
        code = main(["select", "--input", str(csv_path), "--space", "torus2", flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "chosen:" not in captured.out

    @pytest.mark.parametrize("space, delta", [("torus2", "1e-300"), ("unit_ball3", "5e-11")])
    def test_delta_too_fine_for_a_cover_is_a_config_error(self, tmp_path, space, delta):
        # in a fresh interpreter, so a traceback would show on stderr;
        # unchecked, the torus line grid's bound overflows at 1e-300 and the
        # ball's axis net at 5e-11 has about 2e9 bands
        csv_path = tmp_path / "sample.csv"
        if space == "torus2":
            write_line_sample_csv(csv_path, n=60)
        else:
            csv_path.write_text("x1,x2,x3,y\n0.1,0.2,0.3,1.0\n0.3,0.2,0.1,2.0\n",
                                encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "orbitreg", "select", "--input",
                               str(csv_path), "--space", space, "--delta", delta],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2
        assert "is too fine" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("a", ["1e-12", "1e-300"])
    def test_bandwidth_too_fine_for_one_row_is_a_config_error(self, tmp_path, a):
        # in a fresh interpreter, so a traceback would show on stderr;
        # unchecked, a circle's grid at a = 1e-12 asked numpy for 24.8 TiB,
        # and at 1e-300 its rung count wrapped to a negative repeat count
        rng = substream(2, "fine-a")
        X = rng.uniform(-1.0, 1.0, size=(600, 3))
        X = X[np.linalg.norm(X, axis=1) <= 1.0][:300]
        csv_path = tmp_path / "ball.csv"
        csv_path.write_text("x1,x2,x3,y\n" + "".join(
            f"{x!r},{y!r},{z!r},{float(np.cos(x))!r}\n" for x, y, z in X.tolist()), encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "orbitreg", "select", "--input",
                               str(csv_path), "--space", "unit_ball3", "--a", a],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2
        assert "bandwidth h = " in done.stderr and "on one row" in done.stderr
        assert "Traceback" not in done.stderr

    def test_wrong_header_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n0.1,0.2,0.3\n", encoding="utf-8")
        code = main(["select", "--input", str(bad), "--space", "torus2"])
        assert code == 2
        assert "expected header" in capsys.readouterr().err

    @pytest.mark.parametrize("space, bad_row, message", [
        ("unit_ball3", "3.0,4.0,0.0,1.0", "does not lie in unit_ball3"),
        ("torus2", "0.5,0.5,inf", "non-finite value"),
        ("torus2", "nan,0.5,1.0", "non-finite value"),
        ("torus2", "0.5,0.5", "expected 3 values"),
    ])
    def test_bad_row_is_a_config_error_naming_its_line(self, tmp_path, capsys,
                                                        space, bad_row, message):
        dim = 3 if space == "unit_ball3" else 2
        header = ",".join(f"x{i + 1}" for i in range(dim)) + ",y"
        good = ",".join(["0.25"] * dim) + ",1.0"
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{good}\n{good}\n{bad_row}\n{good}\n", encoding="utf-8")
        code = main(["select", "--input", str(bad), "--space", space])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv:4: " in err and message in err

    def test_missing_file_is_an_io_error(self, capsys):
        code = main(["select", "--input", "no_such_file.csv", "--space", "torus2"])
        assert code == 2


class TestValidate:
    def test_quick_suite_passes_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "oracles.csv"
        code = main(["validate", "--quick", "--seed", "21", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,observed,expected,tolerance,pass"
        assert all(line.endswith(",true") for line in lines[1:])
        assert "pass packing" in capsys.readouterr().out


class TestValidateFailurePath:
    def test_failing_oracle_yields_exit_code_one(self, tmp_path, monkeypatch):
        from orbitreg import OracleReport
        import orbitreg.cli as cli

        def fake_run_all(seed, quick=False):
            return [OracleReport.check("synthetic", 2.0, 0.0, 0.1)]

        monkeypatch.setattr(cli, "run_all_oracles", fake_run_all)
        out = tmp_path / "o.csv"
        assert main(["validate", "--out", str(out)]) == 1
        assert out.read_text().splitlines()[1].endswith(",false")
