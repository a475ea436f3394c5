"""Self-test of the benchmark at tiny sizes, one op per workload.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits all nine
end-to-end metrics with their units and a result line holding exactly the
metrics BENCHMARK.json names, and that a traced run emits every per-layer
metric BENCHMARK.json names over a well-formed span tree: children inside
their parents and no negative self time.  It also checks that a layer whose
entry point is gone is reported as missing, and that the benchmark exits
non-zero without a result line in a directory holding only BENCHMARK.json
and the benchmark's own files.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def check_workload(name: str, e2e: dict, layers: dict) -> list[str]:
    from tracing import Span, tree_errors

    problems = []
    record = run.execute(name, seed=7, seconds=0, trace=False, tiny=True)
    for metric, unit in run.END_TO_END.items():
        value = record["metrics"].get(metric)
        if value is None or not math.isfinite(value):
            problems.append(f"{name}: {metric} ({unit}) not emitted: {value!r}")
    line = run.result_line(record)
    if {k: v["unit"] for k, v in line["metrics"].items()} != e2e:
        problems.append(f"{name}: result line metrics {sorted(line['metrics'])} "
                        f"differ from BENCHMARK.json end_to_end")
    if record["attempted"] != 1 or not record["correct"]:
        problems.append(f"{name}: expected one correct op, got {record['attempted']} "
                        f"attempted, failures {record['failures']}")

    traced = run.execute(name, seed=7, seconds=0, trace=True, tiny=True)
    line = run.result_line(traced)
    if {k: v["unit"] for k, v in line["metrics"].items()} != layers:
        problems.append(f"{name}: traced metrics differ from BENCHMARK.json per_layer")
    spans = [Span(*s) for s in traced["spans"]]
    if not any(s.name == "call" for s in spans) or len(spans) < 3:
        problems.append(f"{name}: traced run recorded {len(spans)} spans")
    problems += [f"{name}: {e}" for e in tree_errors(spans)]
    if traced["missing"] or not traced["correct"]:
        problems.append(f"{name}: traced run missing {traced['missing']}, "
                        f"failures {traced['failures']}")
    return problems


def check_missing_layer() -> list[str]:
    from tracing import LAYERS, Layer, Tracer, per_layer_metrics

    renamed = tuple(Layer(layer.name, (("orbitreg.estimators", "no_such_kernel"),))
                    if layer.name == "spaces.neighbor_stats" else layer for layer in LAYERS)
    tracer = Tracer(layers=renamed)
    tracer.install()
    tracer.uninstall()
    table = per_layer_metrics([], 1, tracer.missing, 0.0)
    if tracer.missing != ["spaces.neighbor_stats"] or table["spaces.neighbor_stats.s"][0] is not None:
        return [f"a gone entry point is not reported as missing: {tracer.missing}"]
    return []


def check_bare_directory() -> list[str]:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "select_grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory run exited {proc.returncode} with output {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in run.WORKLOADS:
        found = check_workload(name, e2e, layers)
        print(f"{'ok  ' if not found else 'FAIL'} {name}")
        problems += found
    for title, check in (("missing layer", check_missing_layer),
                         ("bare directory", check_bare_directory)):
        found = check()
        print(f"{'ok  ' if not found else 'FAIL'} {title}")
        problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
