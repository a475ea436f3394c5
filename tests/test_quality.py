"""The quality report: its smoke test (one seed at n = 30, this checkout
against itself), its flag rule and its slope."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("quality", ROOT / "scripts" / "quality.py")
quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality)


def test_tiny_report_flags_nothing_against_itself(tmp_path, capsys):
    assert quality.main(["tiny", "--tiny", "--base", str(ROOT), "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "QUALITY_tiny.json").read_text())
    assert record["seeds"] == [201] and record["n_grid"] == [30] and record["flagged"] == []
    change, base = (record["checkouts"][side]["cells"] for side in ("change", "base"))
    assert list(change) == [f"{s} n=30" for s in quality.SCENARIOS]
    for cell, stats in change.items():
        assert set(stats) == set(quality.METRICS)
        for metric, values in stats.items():
            assert values == base[cell][metric]  # one package, one set of numbers
            assert values["q25"] == values["median"] == values["q75"] == values["per_seed"][0]
        assert 0.0 <= stats["symmetry_hit_frac"]["median"] <= 1.0
        assert stats["risk_best"]["median"] > 0.0
    assert "0 of 18 cells flagged" in capsys.readouterr().out


def test_a_median_outside_the_base_quartiles_is_flagged():
    base = quality.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (base["q25"], base["median"], base["q75"]) == (2.0, 3.0, 4.0)
    assert not quality.outside(quality.spread([3.9, 4.0, 4.1]), base)
    assert quality.outside(quality.spread([4.1, 4.2, 4.3]), base)
    assert quality.outside(quality.spread([1.9]), base)


def test_risk_slope_is_the_log_log_rate():
    assert quality.risk_slope((1000, 3000), (0.02, 0.02 * 3.0 ** -0.5)) == pytest.approx(-0.5)
    assert quality.risk_slope((100, 300, 1000), (0.1, 0.1, 0.1)) == pytest.approx(0.0, abs=1e-12)
