"""Benchmark risk quality of two checkouts, written to ``QUALITY_<tag>.json``.

    python3 scripts/quality.py TAG [--base DIR] [--tiny | --large] [--out DIR]

Runs the six benchmark scenarios at n = 100 and 300 on seeds 201-210,
trials 0-9 each (``ScenarioConfig`` defaults otherwise, so the fixed
benchmark covers), serially, with the package of this checkout and, with
``--base DIR``, with the package of the checkout ``DIR``.  For each
scenario, n and seed it takes three numbers over the trials:

* ``risk_best``: the mean risk of the symmetry-selected estimator;
* ``risk_ratio``: that mean over the mean risk of the baseline;
* ``symmetry_hit_frac``: the share of trials whose search chose the cover
  element nearest the scenario's maximal symmetry.

It prints each number's median and interquartile range over the seeds,
and per scenario the same of ``risk_slope``, the least-squares slope of
log10 ``risk_best`` against log10 n over the sizes.  It writes them to
``QUALITY_<tag>.json`` at the root of this checkout (or in ``--out``),
and flags every cell and slope whose median on this checkout falls
outside the base's interquartile range; it exits 1 if any is flagged.
``--tiny`` runs one seed at n = 30, as a smoke test; ``--large`` runs
n = 1000 and 3000 instead, where a rate lost at large n shows in the
slope.

The chosen subgroups are observed by wrapping ``orbitreg.bench.global_ems``
in the process that runs the trials; when that name is gone, the hit
fraction is null.  The maximal symmetries and the nearest-element rule
live here, so both checkouts are judged by one rule.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("so3_f1", "so3_f2", "so3_f3", "t2_g1", "t2_g2", "t2_g3")
SEEDS = tuple(range(201, 211))
N_GRID = (100, 300)
LARGE_N_GRID = (1000, 3000)
TRIALS = 10
METRICS = ("risk_best", "risk_ratio", "symmetry_hit_frac")


# ---------------------------------------------------------------------------
# the worker: runs in a fresh interpreter with one checkout's package

def maximal_symmetry(og, scenario_id: str):
    """The scenario's maximal symmetry as a catalog subgroup."""
    return {
        "so3_f1": og.full_so3(),
        "so3_f2": og.circle3((1.0, 0.0, 0.0)),
        "so3_f3": og.trivial_subgroup(og.PARENT_SO3),
        "t2_g1": og.full_torus(2),
        "t2_g2": og.torus_line(0, 1),
        "t2_g3": og.torus_line(1, 1),
    }[scenario_id]


def closest_in_cover(og, target, cover):
    """The cover element nearest ``target``: the target itself when it is
    in the cover, else (for a circle) the circle whose axis makes the
    smallest angle with the target's."""
    for g in cover:
        if g.canonical_key() == target.canonical_key():
            return g
    circles = [g for g in cover if g.family is og.SubgroupFamily.CIRCLE3]
    return max(circles, key=lambda g: abs(float(g.axis_array() @ target.axis_array())))


def trials(seeds, n_grid) -> dict:
    """Per scenario, n and seed: each trial's risks and whether its search
    hit the maximal symmetry (None when the search cannot be observed)."""
    import orbitreg as og
    import orbitreg.bench as bench

    search = getattr(bench, "global_ems", None)
    seen = []
    if search is not None:
        def observing(inp, *args, **kwargs):
            selection = search(inp, *args, **kwargs)
            seen.append((list(inp.cover), selection))
            return selection
        bench.global_ems = observing
    out = {}
    for scenario in SCENARIOS:
        target = maximal_symmetry(og, scenario)
        for n in n_grid:
            for seed in seeds:
                seen.clear()
                report = og.run_experiment(og.ScenarioConfig(scenario=scenario, n_grid=(n,),
                                                             trials=TRIALS, seed=seed))
                risks = {(row.trial, row.estimator): row.risk for row in report.rows}
                hits = [None] * TRIALS
                if len(seen) == TRIALS:
                    hits = [selection.chosen == closest_in_cover(og, target, cover)
                            for cover, selection in seen]
                out[f"{scenario} n={n} seed={seed}"] = {
                    "best": [risks[t, og.BEST_SYMMETRIC] for t in range(TRIALS)],
                    "baseline": [risks[t, og.BASELINE] for t in range(TRIALS)],
                    "hits": hits,
                }
    return out


# ---------------------------------------------------------------------------
# the report: runs the trials of each checkout and compares them

def measure(checkout: Path, seeds, n_grid) -> tuple[dict, dict, float]:
    """Each cell's per-seed numbers and each scenario's ``risk_slope`` (with
    two sizes or more) from ``checkout``'s package, and the wall seconds
    the trials took."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--seeds", *map(str, seeds), "--n-grid", *map(str, n_grid)]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"the trials failed in {checkout}:\n{proc.stderr[-2000:]}")
    raw = json.loads(proc.stdout)
    cells, slopes = {}, {}
    for scenario in SCENARIOS:
        for n in n_grid:
            per_seed = {m: [] for m in METRICS}
            for seed in seeds:
                run = raw[f"{scenario} n={n} seed={seed}"]
                best = float(np.mean(run["best"]))
                per_seed["risk_best"].append(best)
                per_seed["risk_ratio"].append(best / float(np.mean(run["baseline"])))
                hits = run["hits"]
                per_seed["symmetry_hit_frac"].append(
                    None if None in hits else sum(hits) / len(hits))
            cells[f"{scenario} n={n}"] = {m: spread(v) for m, v in per_seed.items()}
        if len(n_grid) > 1:
            per_seed = zip(*(cells[f"{scenario} n={n}"]["risk_best"]["per_seed"] for n in n_grid))
            slopes[scenario] = spread([risk_slope(n_grid, risks) for risks in per_seed])
    return cells, slopes, seconds


def risk_slope(n_grid, risks) -> float:
    """Least-squares slope of log10 risk against log10 n."""
    return float(np.polyfit(np.log10(n_grid), np.log10(risks), 1)[0])


def spread(values: list) -> dict:
    """Median and quartiles (linear interpolation) of per-seed values."""
    if None in values:
        return {"median": None, "q25": None, "q75": None, "per_seed": values}
    q25, median, q75 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q25": q25, "q75": q75, "per_seed": values}


def outside(change: dict, base: dict) -> bool:
    """Whether the change's median falls outside the base's interquartile range."""
    if change["median"] is None or base["median"] is None:
        return False
    return not base["q25"] <= change["median"] <= base["q75"]


def commit_of(checkout: Path) -> dict:
    def git(*args):
        out = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def show(stats: dict) -> str:
    if stats["median"] is None:
        return f"{'-':>28s}"
    return f"{stats['median']:10.4f} [{stats['q25']:.4f}, {stats['q75']:.4f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag", nargs="?", help="the file written is QUALITY_<tag>.json")
    parser.add_argument("--base", type=Path, help="a second checkout to compare against")
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--tiny", action="store_true", help="one seed at n = 30")
    size.add_argument("--large", action="store_true", help="n = 1000 and 3000")
    parser.add_argument("--out", type=Path, default=ROOT, help="where the file is written")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seeds", type=int, nargs="+", help=argparse.SUPPRESS)
    parser.add_argument("--n-grid", type=int, nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(trials(args.seeds, args.n_grid)))
        return 0
    if args.tag is None:
        parser.error("the tag is required")
    seeds, n_grid = ((SEEDS[0],), (30,)) if args.tiny else (SEEDS, N_GRID)
    if args.large:
        n_grid = LARGE_N_GRID

    sides = {"change": ROOT}
    if args.base is not None:
        sides["base"] = args.base.resolve()
    cells, slopes, seconds = {}, {}, {}
    for side, checkout in sides.items():
        cells[side], slopes[side], seconds[side] = measure(checkout, seeds, n_grid)
        print(f"{side}: {seconds[side]:.1f} s", flush=True)

    flagged = []
    print(f"{'cell':16s} {'metric':18s} {'change median [q25, q75]':>28s}"
          + (f"  {'base median [q25, q75]':>28s}" if "base" in sides else ""))
    for cell, stats in cells["change"].items():
        for metric in METRICS:
            line = f"{cell:16s} {metric:18s} {show(stats[metric])}"
            if "base" in sides:
                base = cells["base"][cell][metric]
                line += f"  {show(base)}"
                if outside(stats[metric], base):
                    flagged.append(f"{cell} {metric}")
                    line += "  FLAGGED"
            print(line)
    for scenario, stats in slopes["change"].items():
        line = f"{scenario:16s} {'risk_slope':18s} {show(stats)}"
        if "base" in sides:
            base = slopes["base"][scenario]
            line += f"  {show(base)}"
            if outside(stats, base):
                flagged.append(f"{scenario} risk_slope")
                line += "  FLAGGED"
        print(line)

    record = {
        "command": f"python3 scripts/quality.py {args.tag}"
                   + (" --base DIR" if args.base is not None else "")
                   + (" --tiny" if args.tiny else "") + (" --large" if args.large else ""),
        "seeds": list(seeds),
        "n_grid": list(n_grid),
        "trials": TRIALS,
        "checkouts": {side: {**commit_of(path), "seconds": round(seconds[side], 2),
                             "cells": cells[side], "slopes": slopes[side]}
                      for side, path in sides.items()},
        "flagged": flagged if "base" in sides else None,
    }
    path = args.out / f"QUALITY_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if "base" in sides:
        total = len(cells["change"]) * len(METRICS) + len(slopes["change"])
        print(f"{len(flagged)} of {total} cells flagged")
    print(f"wrote {path}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
