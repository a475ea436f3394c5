import numpy as np
import pytest

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

    def test_invalid_n_grid_value(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "t2_g1", "--n-grid", "24,banana",
                     "--out", str(tmp_path / "y")])
        assert code == 2


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
