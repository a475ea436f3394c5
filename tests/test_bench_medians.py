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


def test_bounds_come_from_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_medians.BOUND == {m["name"]: m["bound"] for m in declared}


BASE = [10.0, 10.4, 9.6, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]  # median 10, IQR 0.35


def test_a_clear_gain():
    change = [b + 2.0 for b in BASE]
    assert bench_medians.verdict(change, BASE, "higher", 0.25) == {
        "gain": True, "within_bound": True}
    # in the lower direction the same runs are a regression of 20 %
    assert bench_medians.verdict(change, BASE, "lower", 0.25) == {
        "gain": False, "within_bound": True}


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread():
    # eight of ten pairs won, by far
    eight = [b + 2.0 for b in BASE[:8]] + [b - 0.1 for b in BASE[8:]]
    assert bench_medians.verdict(eight, BASE, "higher", 0.25)["gain"] is False
    # ten of ten won, but the medians differ by less than the base's IQR
    close = [b + 0.3 for b in BASE]
    assert bench_medians.verdict(close, BASE, "higher", 0.25)["gain"] is False
    assert bench_medians.verdict([b + 0.5 for b in BASE], BASE, "higher", 0.25)["gain"] is True


def test_a_tie_is_no_gain_and_within_bound():
    assert bench_medians.verdict(list(BASE), BASE, "higher", 0.25) == {
        "gain": False, "within_bound": True}


@pytest.mark.parametrize("better, inside, past", [("higher", 0.76, 0.74), ("lower", 1.24, 1.26)])
def test_regressions_just_inside_and_just_past_the_bound(better, inside, past):
    base = [1.0] * 10
    assert bench_medians.verdict([inside] * 10, base, better, 0.25) == {
        "gain": False, "within_bound": True}
    assert bench_medians.verdict([past] * 10, base, better, 0.25) == {
        "gain": False, "within_bound": False}


def test_fewer_than_ten_pairs_claim_no_gain():
    # four of four won by far, and one of one with no spread at all
    assert bench_medians.verdict([b + 2.0 for b in BASE[:4]], BASE[:4], "higher", 0.25)["gain"] is False
    assert bench_medians.verdict([12.0], [10.0], "higher", 0.25)["gain"] is False


def test_a_spread_wider_than_the_bound_is_unresolved():
    # quartiles 0.7 and 1.3: a spread of 0.6 against a bound of 0.25 x 1.0
    base = [0.6, 0.7, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.3, 1.4]
    assert bench_medians.verdict(list(base), base, "lower", 0.25)["within_bound"] == "unresolved"
    assert bench_medians.verdict([v * 1.5 for v in base], base, "lower", 0.25)[
        "within_bound"] == "unresolved"
    # unless every change run beats every base run
    assert bench_medians.verdict([0.5] * 10, base, "lower", 0.25)["within_bound"] is True
    assert bench_medians.verdict([1.5] * 10, base, "higher", 0.25)["within_bound"] is True
