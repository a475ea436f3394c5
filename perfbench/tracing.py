"""Span tracing for the orbitreg benchmark, from outside the library.

The traced run rebinds each layer's entry point, in the module that calls
it, to a timing wrapper defined here.  Spans (name, start, end, parent, op
id) and per-span counters are kept in memory; self time is derived from
the span tree.  An entry point that no longer exists is reported as
``missing`` instead of failing the run, so the benchmark survives
refactors that rename or delete internals.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


def _neighbor_counters(args, kwargs, out) -> dict[str, float]:
    queries = np.atleast_2d(args[1])
    data = np.atleast_2d(args[2])
    counts = np.asarray(out[0])
    pairs = queries.shape[0] * data.shape[0]
    return {
        "queries": queries.shape[0],
        "pairs": pairs,
        "hits": int(counts.sum()),
        "empty": int(np.count_nonzero(counts == 0)),
        # the dense kernel materialises one float64 score per pair
        "score_bytes": 8 * pairs,
    }


def _ems_counters(args, kwargs, out) -> dict[str, float]:
    return {
        "candidates": len(out.per_group_error),
        "bandwidth_classes": len(set(out.bandwidth_by_group.values())),
    }


def _coords_points(args, kwargs, out) -> dict[str, float]:
    return {"points": int(np.shape(out[0])[0])}


def _mc_points(args, kwargs, out) -> dict[str, float]:
    return {"points": int(np.prod(np.shape(out)[:-1]))}


def _cover_size(args, kwargs, out) -> dict[str, float]:
    return {"candidates": len(out)}


@dataclass(frozen=True)
class Layer:
    """One traced layer: its span name and every (module, attribute) site
    through which the pipeline reaches it."""

    name: str
    sites: tuple[tuple[str, str], ...]
    counters: Callable[[tuple, dict, Any], dict[str, float]] | None = None


# Sites are the names the callers look up at call time: library modules that
# imported the function by name, and the package namespace the benchmark's
# own calls go through.
LAYERS: tuple[Layer, ...] = (
    Layer("bench.run_experiment", (("orbitreg", "run_experiment"),)),
    Layer("bench.run_trial", (("orbitreg.bench", "run_trial"),)),
    Layer("bench.generate_data", (("orbitreg.bench", "generate_data"),)),
    Layer("subgroups.delta_cover",
          (("orbitreg.bench", "delta_cover"), ("orbitreg", "delta_cover")), _cover_size),
    Layer("selection.global_ems",
          (("orbitreg.bench", "global_ems"), ("orbitreg", "global_ems")), _ems_counters),
    Layer("subgroups.orbit_quadrature_coords",
          (("orbitreg.selection", "orbit_quadrature_coords"),), _coords_points),
    Layer("orbit_grids.orbit_coords_batch",
          (("orbitreg.selection", "orbit_coords_batch"),), _coords_points),
    Layer("subgroups.sample_orbit_coords",
          (("orbitreg.selection", "sample_orbit_coords"),), _mc_points),
    Layer("selection.final_predict",
          (("orbitreg.selection", "BestSymmetricPredictor.predict_coords"),)),
    Layer("estimators.predict_coords",
          (("orbitreg.estimators", "LocalConstantEstimator.predict_coords"),)),
    Layer("spaces.neighbor_stats",
          (("orbitreg.estimators", "neighbor_stats"),), _neighbor_counters),
    Layer("report.emit_report", (("orbitreg", "emit_report"),)),
)


def resolve(module: str, attr: str):
    """Return ``(owner, name, value)`` for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if value is None:
        return None
    return owner, name, value


class Patches:
    """Reversible attribute rebinding (module globals and class methods)."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def bind(self, owner, name: str, value) -> None:
        own = name in vars(owner)
        self._saved.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original, own = self._saved.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int
    counters: dict[str, float] | None = None


@dataclass
class NeighborSample:
    """A slice of one ``neighbor_stats`` call kept for the differential check."""

    span: int
    space: Any
    queries: np.ndarray
    data: np.ndarray
    h: float
    counts: np.ndarray


# Differential-check sample: query rows kept per neighbor_stats call, and calls kept.
SAMPLE_ROWS = 32
MAX_SAMPLES = 256


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS, seed: int = 0):
        self.spans: list[Span] = []
        self.samples: list[NeighborSample] = []
        self.op = -1
        self.missing: list[str] = []
        self.absent_sites: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._patches = Patches()
        self._rng = np.random.default_rng(seed)
        self._resolved: list[tuple[Layer, list[tuple[Any, str, Any]]]] = []
        for layer in layers:
            found = []
            for module, attr in layer.sites:
                hit = resolve(module, attr)
                if hit is None:
                    self.absent_sites.append(f"{module}.{attr}")
                else:
                    found.append(hit)
            if found:
                self._resolved.append((layer, found))
            else:
                self.missing.append(layer.name)

    def install(self) -> None:
        for layer, sites in self._resolved:
            for owner, name, value in sites:
                self._patches.bind(owner, name, self._wrap(layer, value))

    def uninstall(self) -> None:
        self._patches.restore()

    @contextlib.contextmanager
    def region(self, name: str):
        """Record a span around benchmark-side code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0, 0, parent, self.op))
        self._stack.append(index)
        self.spans[index].start = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer: Layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(layer.name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            try:
                if layer.counters is not None:
                    tracer.spans[index].counters = layer.counters(args, kwargs, out)
                if layer.name == "spaces.neighbor_stats":
                    tracer._keep_sample(index, args, out)
            except (AttributeError, IndexError, TypeError, ValueError):
                # the entry point changed its signature or result type
                tracer.uncounted.add(layer.name)
            return out

        traced.__wrapped__ = fn
        return traced

    def _keep_sample(self, index: int, args, out) -> None:
        if len(self.samples) >= MAX_SAMPLES:
            return
        space, queries, data, h = args[0], np.atleast_2d(args[1]), np.atleast_2d(args[2]), args[3]
        q = queries.shape[0]
        take = min(q, SAMPLE_ROWS)
        rows = np.sort(self._rng.choice(q, size=take, replace=False)) if take else np.zeros(0, int)
        self.samples.append(NeighborSample(index, space, queries[rows].copy(), data,
                                           float(h), np.asarray(out[0])[rows].copy()))


# ---------------------------------------------------------------------------
# span-tree analysis

def self_times(spans: list[Span]) -> list[int]:
    """Span duration minus the time its direct children cover, in ns."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def tree_errors(spans: list[Span]) -> list[str]:
    """Children outside their parent's interval, or negative self time."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.parent >= i or s.start < p.start or s.end > p.end:
                errors.append(f"span {i} ({s.name}) lies outside its parent {s.parent} ({p.name})")
    for i, t in enumerate(self_times(spans)):
        if t < 0:
            errors.append(f"span {i} ({spans[i].name}) has negative self time")
    return errors


@dataclass
class LayerTotals:
    ns: int = 0
    self_ns: int = 0
    counters: dict[str, float] = field(default_factory=dict)


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    totals: dict[str, LayerTotals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, LayerTotals())
        t.ns += s.end - s.start
        t.self_ns += own
        for key, value in (s.counters or {}).items():
            t.counters[key] = t.counters.get(key, 0) + value
    return totals


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per span name, largest first."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + own / 1e9
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def child_shares(spans: list[Span], parent_name: str) -> dict[str, float]:
    """Seconds spent in each direct child layer of every ``parent_name`` span."""
    out: dict[str, float] = {}
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name == parent_name:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) / 1e9
    return out


def per_layer_metrics(spans: list[Span], ops: int, missing: list[str],
                      overhead_frac: float) -> dict[str, tuple[float | None, str]]:
    """The per-layer metric table, normalised per completed op."""
    totals = layer_totals(spans)
    per_op = 1.0 / max(ops, 1)

    def layer(name):
        return None if name in missing else totals.get(name, LayerTotals())

    def seconds(name, own=False):
        t = layer(name)
        if t is None:
            return None
        return (t.self_ns if own else t.ns) / 1e9 * per_op

    def count(name, key):
        t = layer(name)
        return None if t is None else t.counters.get(key, 0) * per_op

    def ratio(name, num, den):
        t = layer(name)
        if t is None:
            return None
        d = t.counters.get(den, 0)
        return t.counters.get(num, 0) / d if d else 0.0

    ns = "spaces.neighbor_stats"
    table = {
        f"{ns}.s": (seconds(ns), "s/op"),
        f"{ns}.self_s": (seconds(ns, True), "s/op"),
        f"{ns}.pairs": (count(ns, "pairs"), "count/op"),
        f"{ns}.queries": (count(ns, "queries"), "count/op"),
        f"{ns}.hit_ratio": (ratio(ns, "hits", "pairs"), "ratio"),
        f"{ns}.empty_frac": (ratio(ns, "empty", "queries"), "ratio"),
        f"{ns}.score_bytes": (count(ns, "score_bytes"), "B/op"),
    }
    for name in ("estimators.predict_coords", "selection.global_ems",
                 "selection.final_predict", "bench.run_trial"):
        table[f"{name}.s"] = (seconds(name), "s/op")
        table[f"{name}.self_s"] = (seconds(name, True), "s/op")
    table["selection.global_ems.candidates"] = (count("selection.global_ems", "candidates"), "count/op")
    table["selection.global_ems.bandwidth_classes"] = (
        count("selection.global_ems", "bandwidth_classes"), "count/op")
    for name in ("subgroups.orbit_quadrature_coords", "subgroups.sample_orbit_coords",
                 "orbit_grids.orbit_coords_batch"):
        table[f"{name}.s"] = (seconds(name), "s/op")
        table[f"{name}.points"] = (count(name, "points"), "count/op")
    table["subgroups.delta_cover.s"] = (seconds("subgroups.delta_cover"), "s/op")
    table["subgroups.delta_cover.candidates"] = (
        count("subgroups.delta_cover", "candidates"), "count/op")
    table["bench.generate_data.s"] = (seconds("bench.generate_data"), "s/op")
    table["report.emit_report.s"] = (seconds("report.emit_report"), "s/op")
    table["trace.overhead_frac"] = (overhead_frac, "ratio")
    return table


# ---------------------------------------------------------------------------
# differential check of the neighbour kernel

def _boundary_cases(og):
    """Dyadic inputs whose squared distances are exact in binary floating
    point, so probes at distance exactly h test the strict ``< h``."""
    ball = og.unit_ball3()
    ball_data = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, -0.25]])
    ball_q = np.array([
        [0.25, 0.0, 0.0],        # exactly h from the first point
        [0.75, 0.0, 0.0],        # exactly h on the far side
        [0.0, 0.25, 0.0],        # exactly h from the second point
        [0.0, 0.0, 0.0],         # exactly h from the third point
        [0.2578125, 0.0, 0.0],   # h - 1/128 from the first point
        [0.2421875, 0.0, 0.0],   # h + 1/128 from the first point
    ])
    t2 = og.torus(2)
    t2_data = np.array([[0.25, 0.5], [0.0625, 0.5]])
    t2_q = np.array([
        [0.375, 0.5],            # exactly h
        [0.25, 0.625],           # exactly h along the second axis
        [0.9375, 0.5],           # exactly h across the seam from the second point
        [0.3671875, 0.5],        # h - 1/128
        [0.3828125, 0.5],        # h + 1/128
    ])
    return [(ball, ball_q, ball_data, 0.25), (t2, t2_q, t2_data, 0.125)]


def differential_check(og, samples: list[NeighborSample]) -> tuple[int, list[str], list[int]]:
    """Compare kernel counts with brute-force ``pairwise_distance < h``.

    Returns (queries checked, mismatch messages, span indices that failed).
    The sampled calls come from the traced run; the boundary probes go to
    the kernel the estimator module currently calls.
    """
    oracle = resolve("orbitreg.spaces", "pairwise_distance")
    if oracle is None:
        return 0, ["orbitreg.spaces.pairwise_distance is missing; no check made"], []
    pairwise = oracle[2]
    checked, problems, failed_spans = 0, [], []
    for s in samples:
        if s.queries.shape[0] == 0:
            continue
        brute = (pairwise(s.space, s.queries, s.data) < s.h).sum(axis=1)
        checked += s.queries.shape[0]
        bad = np.flatnonzero(brute != s.counts)
        if bad.size:
            problems.append(f"neighbor_stats span {s.span}: {bad.size} of {s.counts.size} "
                            f"sampled counts differ from brute force")
            failed_spans.append(s.span)
    kernel = resolve("orbitreg.estimators", "neighbor_stats")
    if kernel is None:
        problems.append("orbitreg.estimators.neighbor_stats is missing; boundary probes skipped")
        return checked, problems, failed_spans
    fn = getattr(kernel[2], "__wrapped__", kernel[2])
    for space, q, data, h in _boundary_cases(og):
        dist = pairwise(space, q, data)
        if not np.any(dist == h):
            problems.append(f"boundary probe on {space} has no pair at distance exactly h")
        counts, _ = fn(space, q, data, h, np.ones(data.shape[0]))
        brute = (dist < h).sum(axis=1)
        checked += q.shape[0]
        if not np.array_equal(np.asarray(counts), brute):
            problems.append(f"boundary probe on {space}: kernel counts "
                            f"{np.asarray(counts).tolist()} != brute force {brute.tolist()}")
            failed_spans.append(-1)
    return checked, problems, failed_spans
