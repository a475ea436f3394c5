"""Per-workload benchmark medians, written to ``BENCH_<tag>.json``.

Runs ``python3 perfbench/run.py --trace 0`` for each workload and seed and
records the median of each result metric over the seeds, the risk-row
digest of every run and the environment record.  With ``--base DIR`` the
same runs are made in a second checkout (for example the parent commit),
alternating which checkout goes first, and the file also gives the
change/base ratio of each median and, per workload, ``digests_equal``:
whether the two checkouts wrote the same risk rows for every seed.  Each
seed whose digests differ is printed.

    python3 scripts/bench_medians.py cells --base ../parent-checkout

The file is written to the root of this checkout.  Each run takes about
``--seconds`` plus its set-up and check, so the default 4 workloads x 3
seeds x 2 checkouts take about 12 minutes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("so3_sweep", "t2_sweep", "so3_schedule", "select_grid")
METRICS = ("setup_s", "ops_per_s", "call_s_p50", "cpu_s_per_op", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result line, digest and environment record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {checkout} failed:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("risk-row digest "):
            result["digest"] = line.split(" ", 2)[2]
        elif line.startswith("environment "):
            result["environment"] = json.loads(line.split(" ", 1)[1])
    return result


def commit_of(checkout: Path) -> dict:
    def git(*args):
        out = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def summarise(runs: list[dict]) -> dict:
    return {
        "medians": {m: statistics.median(r["metrics"][m]["value"] for r in runs) for m in METRICS},
        "units": {m: runs[0]["metrics"][m]["unit"] for m in METRICS},
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "runs": [{"seed": r["seed"], "digest": r.get("digest"),
                  **{m: r["metrics"][m]["value"] for m in METRICS}} for r in runs],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag", help="the file written is BENCH_<tag>.json")
    parser.add_argument("--base", type=Path, help="a second checkout to run alternately")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()

    sides = {"change": ROOT}
    if args.base is not None:
        sides["base"] = args.base.resolve()
    runs = {side: {w: [] for w in args.workloads} for side in sides}
    environment = None
    pair = 0
    for workload in args.workloads:
        for seed in args.seeds:
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            pair += 1
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds)
                result["seed"] = seed
                environment = environment or result.get("environment")
                runs[side][workload].append(result)
                print(f"{side:6s} {workload:12s} seed {seed}: call_s_p50 "
                      f"{result['metrics']['call_s_p50']['value']:.4f} s, "
                      f"correct {result['correct']}", flush=True)

    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "seeds": args.seeds,
        "order": "sides alternate which runs first, pair by pair" if len(sides) > 1 else None,
        "environment": environment,
        "checkouts": {side: {**commit_of(path),
                             "workloads": {w: summarise(r) for w, r in runs[side].items()}}
                      for side, path in sides.items()},
    }
    if "base" in sides:
        record["change_over_base"] = {
            w: {m: record["checkouts"]["change"]["workloads"][w]["medians"][m]
                / record["checkouts"]["base"]["workloads"][w]["medians"][m] for m in METRICS}
            for w in args.workloads}
        record["digests_equal"] = {}
        for w in args.workloads:
            differ = [change["seed"] for change, base in zip(runs["change"][w], runs["base"][w])
                      if change.get("digest") is None or change.get("digest") != base.get("digest")]
            for seed in differ:
                print(f"risk-row digests differ: {w} seed {seed}")
            record["digests_equal"][w] = not differ
        print("digests equal: " + ", ".join(f"{w} {equal}"
                                            for w, equal in record["digests_equal"].items()))
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
