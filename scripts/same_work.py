"""Per-call work counters of two checkouts, to show they do the same work.

    python3 scripts/same_work.py --base DIR

For each benchmark workload, ``perfbench/run.py --trace 1`` runs with seed
301 for 3 s in this checkout and in the checkout ``DIR``.  A traced span
records the index k of the call that opened it (its ``op``), and call k
gets the same input in both checkouts, so each layer's counters (query
points, candidate pairs, orbit points, candidates) are summed per call and
compared call by call, on the calls both runs completed.  The per-op
averages that the traced run prints are not compared: they depend on how
many calls a run completes, because calls cycle through inputs of
different sizes.  Every (call, layer, counter) that differs is printed,
then one line per workload with the number compared, and the script exits
1 if any differs.  Timings are not compared.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("so3_sweep", "t2_sweep", "so3_schedule", "select_grid")
SEED = 301
SECONDS = 3.0

Work = dict[int, dict[tuple[str, str], float]]


def traced_record(checkout: Path, workload: str) -> dict:
    """The full record of one traced run of ``workload`` in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} in {checkout} failed:\n{out.stderr[-2000:]}")
    path = checkout / "perfbench" / "out" / f"{workload}-seed{SEED}-trace1.json"
    return json.loads(path.read_text(encoding="utf-8"))


def work_by_call(record: dict) -> Work:
    """Call index -> (layer, counter) -> the counter summed over the
    call's spans, for every call the record completed."""
    work: Work = {k: {} for k, *_ in record["calls"]}
    for name, _start, _end, _parent, op, counters in record["spans"]:
        for counter, value in (counters or {}).items():
            work[op][name, counter] = work[op].get((name, counter), 0) + value
    return work


def differences(base: Work, here: Work) -> tuple[int, list[str]]:
    """``(compared, lines)``: the number of (call, layer, counter) compared
    on the calls both sides completed, and one line for each that differs
    (a counter one side lacks reads None)."""
    compared, lines = 0, []
    for k in sorted(base.keys() & here.keys()):
        for layer, counter in sorted(base[k].keys() | here[k].keys()):
            compared += 1
            old, new = base[k].get((layer, counter)), here[k].get((layer, counter))
            if old != new:
                lines.append(f"call {k}  {layer}.{counter}  {old} -> {new}")
    return compared, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the checkout to compare with")
    args = parser.parse_args(argv)
    total = 0
    for workload in WORKLOADS:
        base = work_by_call(traced_record(args.base.resolve(), workload))
        here = work_by_call(traced_record(ROOT, workload))
        compared, lines = differences(base, here)
        for line in lines:
            print(f"{workload}  {line}")
        print(f"{workload}: {len(lines)} of {compared} counters differ "
              f"({len(base.keys() & here.keys())} calls both ran)")
        total += len(lines)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
