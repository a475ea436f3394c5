"""The per-call work comparison of two checkouts' traced runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_work.py"
_spec = importlib.util.spec_from_file_location("same_work", SCRIPT)
same_work = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_work)


def record(calls, spans):
    """A traced record with the given call indices and spans, each span
    ``(name, op, counters)``."""
    return {"calls": [(k, 0.1, 0.1) for k in calls],
            "spans": [[name, 0, 1, -1, op, counters] for name, op, counters in spans]}


def test_counters_are_summed_per_call_and_layer():
    work = same_work.work_by_call(record([0, 1], [
        ("call", 0, None),
        ("spaces.neighbor_stats", 0, {"queries": 3, "pairs": 30}),
        ("spaces.neighbor_stats", 0, {"queries": 4, "pairs": 40}),
        ("orbit_grids.orbit_coords_batch", 1, {"points": 9}),
    ]))
    assert work == {0: {("spaces.neighbor_stats", "queries"): 7,
                        ("spaces.neighbor_stats", "pairs"): 70},
                    1: {("orbit_grids.orbit_coords_batch", "points"): 9}}


def test_only_calls_both_sides_ran_are_compared():
    # the change ran one call more; its work is not compared
    base = same_work.work_by_call(record([0, 1], [("a", 0, {"n": 2}), ("a", 1, {"n": 5})]))
    here = same_work.work_by_call(record([0, 1, 2], [("a", 0, {"n": 2}), ("a", 1, {"n": 5}),
                                                     ("a", 2, {"n": 7})]))
    assert same_work.differences(base, here) == (2, [])


def test_every_differing_counter_is_listed():
    base = same_work.work_by_call(record([0, 1], [("a", 0, {"n": 2}), ("a", 1, {"n": 5}),
                                                  ("b", 1, {"m": 1})]))
    here = same_work.work_by_call(record([0, 1], [("a", 0, {"n": 3}), ("a", 1, {"n": 5})]))
    compared, lines = same_work.differences(base, here)
    assert compared == 3
    assert lines == ["call 0  a.n  2 -> 3", "call 1  b.m  1 -> None"]
