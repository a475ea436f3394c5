"""Benchmark of the orbitreg pipeline: draw, cover, symmetry search, final
prediction, risk.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload so3_sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the workload runs untraced and the end-to-end metrics
are printed; with ``--trace 1`` every call runs twice, serially, once plain
and once with each layer's entry point wrapped, and the per-layer metrics
are printed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record (environment, call times, spans) is written to ``perfbench/out/``.

The benchmark sets no BLAS or OpenMP thread variable: the program's thread
policy is part of what it measures, and the record states what it found.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import (Tracer, child_shares, differential_check, per_layer_metrics,
                     self_time_by_name, tree_errors)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

# Every end-to-end metric the benchmark prints, with its unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "call_s_p50": "s",
    "cpu_s_per_op": "s/op",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "risk_best": "MSE",
    "risk_ratio": "ratio",
    "symmetry_hit_frac": "ratio",
}
# The subset that goes into the result line.  failed_frac is 0 on a correct
# run and rides in "attempted"/"failed" instead; the three quality metrics
# vary across seeds by more than any bound allows (see README.md), so they
# are printed and digested but not bounded.
RESULT_METRICS = ("setup_s", "ops_per_s", "call_s_p50", "cpu_s_per_op", "peak_rss_mb")


def import_library():
    """Import orbitreg from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    package = src / "orbitreg"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import orbitreg

    if Path(orbitreg.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported orbitreg from {orbitreg.__file__}, not {package}")
    return orbitreg


def environment() -> dict:
    import numpy as np
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas = None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "start_method": multiprocessing.get_context().get_start_method(),
        "platform": platform.platform(),
    }


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class CallRecord:
    k: int
    seconds: float
    labels: list[str]
    result: object = None
    failures: dict[str, str] = field(default_factory=dict)
    plain_seconds: float = 0.0          # traced run: the untraced twin


def attempt(wl, args) -> tuple[object, dict[str, str], float]:
    """One top-level call, timed; an exception fails every op of the call."""
    start = time.perf_counter()
    try:
        result = wl.call(args)
    except Exception as exc:  # the benchmark must report and go on
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        reason = f"raised {type(exc).__name__}: {exc}"
        return None, {label: reason for label in wl.labels(args)}, seconds
    seconds = time.perf_counter() - start
    return result, wl.validate(result), seconds


def closed_loop(wl, seconds: float, one_call) -> tuple[list[CallRecord], float]:
    """Whole cycles of calls, one at a time, until ``seconds`` have passed."""
    calls: list[CallRecord] = []
    start = time.perf_counter()
    k = 0
    while k < wl.cycle or k % wl.cycle or time.perf_counter() - start < seconds:
        calls.append(one_call(k))
        k += 1
    return calls, time.perf_counter() - start


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above 50 with at least ten samples beyond it."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import orbitreg; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def run_untraced(wl, seed: int, seconds: float, out_dir: str) -> dict:
    import_s, prepare_s = [], []
    for _ in range(SETUP_REPEATS):
        import_s.append(import_seconds())
        start = time.perf_counter()
        state = wl.prepare(seed, out_dir)
        prepare_s.append(time.perf_counter() - start)
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)

    def one_call(k):
        args = wl.inputs(state, k)
        result, failures, took = attempt(wl, args)
        return CallRecord(k, took, wl.labels(args), result, failures)

    cpu0 = cpu_seconds()
    calls, elapsed = closed_loop(wl, seconds, one_call)
    cpu = cpu_seconds() - cpu0
    peak = peak_rss_mb()

    quality = wl.check(state, [c.result for c in calls[: wl.cycle] if c.result is not None])
    labels = [label for c in calls for label in c.labels]
    failures = {label: reason for c in calls for label, reason in c.failures.items()}
    failures.update(quality.failures)
    attempted = len(labels)
    failed = len(set(failures) & set(labels))
    completed = attempted - len({label for c in calls for label in c.failures})
    durations = [c.seconds for c in calls]
    q = quality.ops
    best = statistics.fmean(o.risk_best for o in q) if q else None
    base = statistics.fmean(o.risk_baseline for o in q) if q else None
    hits = [o.hit for o in q]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": completed / elapsed,
        "call_s_p50": statistics.median(durations),
        "cpu_s_per_op": cpu / attempted,
        "peak_rss_mb": peak,
        "failed_frac": failed / attempted,
        "risk_best": best,
        "risk_ratio": best / base if best is not None and base else None,
        "symmetry_hit_frac": (sum(hits) / len(hits)) if hits and None not in hits else None,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} imports in a fresh interpreter ("
                   + ", ".join(f"{s:.3f}" for s in import_s) + ") + median of "
                   f"{SETUP_REPEATS} input generations and warm-ups ("
                   + ", ".join(f"{s:.3f}" for s in prepare_s) + ")",
        "ops_per_s": f"{completed} ops in {elapsed:.2f} s",
        "call_s_p50": f"{len(durations)} calls",
        "cpu_s_per_op": f"{cpu:.2f} s CPU including children",
        "failed_frac": f"{failed} of {attempted} ops",
        "risk_best": f"{len(q)} ops of the first cycle",
        "symmetry_hit_frac": f"{sum(1 for h in hits if h)} of {len(hits)} chose the cover "
                             f"element nearest the maximal symmetry",
    }
    tail = tail_percentile(durations)
    if tail is not None:
        metrics[f"call_s_p{tail[0]}"] = tail[1]
    else:
        notes["call_s_p50"] += "; too few for a higher percentile with 10 beyond it"
    return {
        "metrics": metrics, "notes": notes, "attempted": attempted, "failed": failed,
        "failures": failures, "digest": hashlib.sha256(
            "\n".join(quality.digest_lines).encode()).hexdigest(),
        "check_notes": quality.notes, "calls": [(c.k, c.seconds) for c in calls],
        "quality_ops": [vars(o) for o in quality.ops],
        "correct": failed == 0,
    }


def run_traced(og, wl, seed: int, seconds: float, out_dir: str) -> dict:
    state = wl.prepare(seed, out_dir)
    tracer = Tracer(seed=seed)

    def traced_call(args):
        tracer.install()
        try:
            with tracer.region("call"):
                return attempt(wl, args)
        finally:
            tracer.uninstall()

    def one_call(k):
        args = wl.inputs(state, k, serial=True)
        tracer.op = k
        # alternate which twin runs first so warm caches favour neither
        if k % 2 == 0:
            _, plain_failures, plain = attempt(wl, args)
            result, failures, took = traced_call(args)
        else:
            result, failures, took = traced_call(args)
            _, plain_failures, plain = attempt(wl, args)
        return CallRecord(k, took, wl.labels(args), result, {**plain_failures, **failures}, plain)

    calls, _ = closed_loop(wl, seconds, one_call)
    labels = [label for c in calls for label in c.labels]
    failures = {label: reason for c in calls for label, reason in c.failures.items()}
    checked, problems, bad_spans = differential_check(og, tracer.samples)
    first_label = {c.k: c.labels[0] for c in calls}
    for span in bad_spans:
        k = tracer.spans[span].op if span >= 0 else calls[0].k
        failures.setdefault(first_label[k], "neighbor_stats differs from brute force")
    errors = tree_errors(tracer.spans)
    overhead = sum(c.seconds for c in calls) / sum(c.plain_seconds for c in calls) - 1.0
    table = per_layer_metrics(tracer.spans, len(labels), tracer.missing, overhead)
    failed = len(set(failures) & set(labels))
    return {
        "layers": table, "attempted": len(labels), "failed": failed, "failures": failures,
        "missing": tracer.missing, "absent_sites": tracer.absent_sites,
        "uncounted": sorted(tracer.uncounted),
        "differential": {"queries_checked": checked, "problems": problems},
        "tree_errors": errors[:20],
        "run_trial_children": child_shares(tracer.spans, "bench.run_trial"),
        "self_s": self_time_by_name(tracer.spans),
        "calls": [(c.k, c.seconds, c.plain_seconds) for c in calls],
        "spans": [[s.name, s.start, s.end, s.parent, s.op, s.counters] for s in tracer.spans],
        "correct": failed == 0 and not errors,
    }


def fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


WORKLOADS = ("so3_sweep", "t2_sweep", "so3_schedule", "select_grid")


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its full record (also used by the self-test)."""
    og = import_library()
    import workloads

    wl = workloads.build(workload, tiny)
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        if trace:
            record = run_traced(og, wl, seed, seconds, out_dir)
        else:
            record = run_untraced(wl, seed, seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  tiny=tiny, environment=environment())
    return record


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in record["layers"].items()}
    else:
        metrics = {name: {"value": record["metrics"][name], "unit": END_TO_END[name]}
                   for name in RESULT_METRICS}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def describe(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"seconds {record['seconds']:g}  trace {record['trace']}",
             "environment " + json.dumps(record["environment"], sort_keys=True)]
    if record["trace"]:
        for name, (value, unit) in record["layers"].items():
            lines.append(f"  {name:42s} {fmt(value):>12s} {unit}")
        lines.append("self time by span (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in list(record["self_s"].items())[:6]))
        if record["run_trial_children"]:
            lines.append("children of bench.run_trial (s): " + ", ".join(
                f"{k} {v:.3f}" for k, v in sorted(record["run_trial_children"].items(),
                                                  key=lambda kv: -kv[1])))
        diff = record["differential"]
        lines.append(f"differential check: {diff['queries_checked']} queries against "
                     f"brute-force pairwise_distance < h; "
                     + ("; ".join(diff["problems"]) or "all counts equal"))
        if record["missing"]:
            lines.append("missing layers: " + ", ".join(record["missing"]))
        if record["uncounted"]:
            lines.append("counters unavailable (signature changed): "
                         + ", ".join(record["uncounted"]))
        if record["tree_errors"]:
            lines.append("span tree errors: " + "; ".join(record["tree_errors"]))
    else:
        for name, value in record["metrics"].items():
            note = record["notes"].get(name, "")
            unit = END_TO_END.get(name, "s")   # the tail percentile is a call time
            lines.append(f"  {name:18s} {fmt(value):>12s} {unit:6s} {note}")
        lines.append(f"risk-row digest sha256:{record['digest']}")
        lines.extend(record["check_notes"])
    for label, reason in sorted(record["failures"].items()):
        lines.append(f"FAILED {label}: {reason}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)
    for line in describe(record):
        print(line)
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
