"""The paired summary that the benchmark-medians script writes."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_medians",
                                               ROOT / "scripts" / "bench_medians.py")
bench_medians = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_medians)


def run(seed: int, values: dict) -> dict:
    """One result line of ``perfbench/run.py`` with the given metric values."""
    return {"seed": seed, "correct": True, "failed": 0, "attempted": 5, "digest": "d",
            "metrics": {m: {"value": values.get(m, 1.0), "unit": "u"}
                        for m in bench_medians.METRICS}}


def test_directions_come_from_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_medians.BETTER == {m["name"]: m["better"] for m in declared}
    assert bench_medians.BETTER["ops_per_s"] == "higher"
    assert bench_medians.BETTER["call_s_p50"] == "lower"


def test_pairs_are_won_in_the_better_direction_and_ties_count_for_neither():
    change, base = [5.0, 3.0, 4.0, 4.0], [4.0, 4.0, 4.0, 2.0]
    assert bench_medians.pairs_won(change, base, "higher") == {
        "pairs": 4, "change_won": 2, "base_won": 1}
    assert bench_medians.pairs_won(change, base, "lower") == {
        "pairs": 4, "change_won": 1, "base_won": 2}


def test_pairs_need_one_base_run_per_change_run():
    with pytest.raises(ValueError):
        bench_medians.pairs_won([1.0, 2.0], [1.0], "lower")


def test_quartiles_interpolate_between_order_statistics():
    assert bench_medians.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]
    assert bench_medians.quartiles([1.0, 2.0]) == [1.25, 1.5, 1.75]
    assert bench_medians.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_summary_holds_medians_and_quartiles_of_every_metric():
    runs = [run(101 + i, {"ops_per_s": v}) for i, v in enumerate([10.0, 14.0, 12.0, 11.0, 13.0])]
    summary = bench_medians.summarise(runs)
    assert set(summary["quartiles"]) == set(bench_medians.METRICS)
    assert summary["medians"]["ops_per_s"] == 12.0
    assert summary["quartiles"]["ops_per_s"] == [11.0, 12.0, 13.0]
    assert summary["quartiles"]["setup_s"] == [1.0, 1.0, 1.0]
    assert [r["seed"] for r in summary["runs"]] == [101, 102, 103, 104, 105]
