"""The orbitreg benchmark workloads, driven through the public package API.

Two kinds of workload: a *sweep* is one ``run_experiment`` plus
``emit_report`` per scenario, as a user of ``orbitreg simulate`` makes it;
a *selection* is one cover, split, search and symmetrised prediction, as
``orbitreg select`` makes it.  Calls run one at a time (a closed loop with
one client).  README.md records why each workload exists.

The timed calls use only names the package exports.  The untimed checks
that need the chosen subgroup of a pooled trial observe
``orbitreg.bench.global_ems``; when that name is gone they report the
symmetry metric as missing instead of failing.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import orbitreg as og
from tracing import Patches, resolve

NOISE_SD = 0.5


def call_seed(seed: int, k: int) -> int:
    """Seed of call ``k``: every call computes new cells."""
    return (seed * 10_007 + k) & 0xFFFFFFFF


def maximal_symmetry(scenario_id: str) -> og.ClosedSubgroup:
    """The scenario's maximal symmetry as a catalog subgroup."""
    return {
        "so3_f1": og.full_so3(),
        "so3_f2": og.circle3((1.0, 0.0, 0.0)),
        "so3_f3": og.trivial_subgroup(og.PARENT_SO3),
        "t2_g1": og.full_torus(2),
        "t2_g2": og.torus_line(0, 1),
        "t2_g3": og.torus_line(1, 1),
    }[scenario_id]


def closest_in_cover(target: og.ClosedSubgroup, cover) -> og.ClosedSubgroup:
    """The cover element nearest ``target``.

    Exact catalog members are their own nearest element.  A circle target
    is nearest the circle whose axis makes the smallest angle with its
    axis: circles with axes at angle psi lie within Hausdorff distance
    2 psi, and every other family is at least an orbit dimension away.
    """
    for g in cover:
        if g.canonical_key() == target.canonical_key():
            return g
    if target.family is not og.SubgroupFamily.CIRCLE3:
        raise ValueError(f"{target.describe()} has no nearest element in the cover")
    circles = [g for g in cover if g.family is og.SubgroupFamily.CIRCLE3]
    return max(circles, key=lambda g: abs(float(g.axis_array() @ target.axis_array())))


def in_cover(group: og.ClosedSubgroup, cover) -> bool:
    return any(g.canonical_key() == group.canonical_key() for g in cover)


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass
class OpQuality:
    """Quality record of one op of the fixed quality set."""

    label: str
    risk_best: float
    risk_baseline: float
    chosen: str | None          # None when the chosen subgroup was not observable
    hit: bool | None


@dataclass
class Quality:
    ops: list[OpQuality] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)   # op label -> reason
    digest_lines: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@contextlib.contextmanager
def observed_selections():
    """Record ``(cover, selection)`` of every search the bench module runs.

    Yields None when ``orbitreg.bench.global_ems`` no longer exists.
    """
    site = resolve("orbitreg.bench", "global_ems")
    if site is None:
        yield None
        return
    owner, name, search = site
    seen: list[tuple[list, og.SymmetrySelection]] = []

    def observing(inp, *args, **kwargs):
        selection = search(inp, *args, **kwargs)
        seen.append((list(inp.cover), selection))
        return selection

    patches = Patches()
    patches.bind(owner, name, observing)
    try:
        yield seen
    finally:
        patches.restore()


# ---------------------------------------------------------------------------
# sweeps: run_experiment + emit_report per scenario

@dataclass(frozen=True)
class Sweep:
    scenarios: tuple[str, ...]
    n_grid: tuple[int, ...]
    trials: int
    workers: int
    delta: float | None = None
    use_schedule: bool = False
    eval_points: int = 200

    @property
    def cycle(self) -> int:
        return len(self.scenarios)

    def config(self, seed: int, k: int, workers: int | None = None) -> og.ScenarioConfig:
        return og.ScenarioConfig(
            scenario=self.scenarios[k % self.cycle], n_grid=self.n_grid,
            trials=self.trials, noise_sd=NOISE_SD, eval_points=self.eval_points,
            delta=self.delta, use_schedule=self.use_schedule,
            seed=call_seed(seed, k), workers=workers or self.workers)

    def prepare(self, seed: int, out_dir: str) -> dict:
        # warm-up: one small serial sweep through the same entry points
        warm_delta = self.delta if self.delta is not None else 1.0
        og.run_experiment(og.ScenarioConfig(
            scenario=self.scenarios[0], n_grid=(20,), trials=1, eval_points=20,
            delta=warm_delta, seed=call_seed(seed, 1 << 20)))
        return {"seed": seed, "out_dir": out_dir}

    def inputs(self, state: dict, k: int, serial: bool = False):
        return k, self.config(state["seed"], k, 1 if serial else None), state["out_dir"]

    @staticmethod
    def call(args):
        cfg, out_dir = args[1], args[2]
        report = og.run_experiment(cfg)
        return args, report, og.emit_report(report, out_dir)

    def labels(self, args) -> list[str]:
        k, cfg = args[0], args[1]
        return [f"call {k} {cfg.scenario} n={n} trial={t}"
                for n in self.n_grid for t in range(self.trials)]

    def validate(self, result) -> dict[str, str]:
        (k, cfg, _), report, written = result
        if len(written) < 3 or not all(os.path.isfile(p) for p in written):
            return {label: "emit_report did not write its files" for label in self.labels(result[0])}
        failures = {}
        for n in self.n_grid:
            for t in range(self.trials):
                rows = [r for r in report.rows if r.n == n and r.trial == t]
                label = f"call {k} {cfg.scenario} n={n} trial={t}"
                if len(rows) != 2:
                    failures[label] = f"{len(rows)} risk rows instead of 2"
                elif not all_finite(r.risk for r in rows):
                    failures[label] = "non-finite risk"
        return failures

    def check(self, state: dict, first: list) -> Quality:
        """Recompute trial 0 of every first-cycle call in-process.

        The rows must equal the timed call's rows bit for bit (for a pooled
        sweep this is the serial/parallel identity).  The observed searches
        give the chosen subgroups for the symmetry metric.
        """
        quality = Quality()
        for (k, cfg, _), report, _ in first:
            quality.digest_lines += [f"{r.scenario},{r.n},{r.trial},{r.estimator},{r.risk.hex()}"
                                     for r in report.rows]
            serial_cfg = replace(cfg, trials=1, workers=1)
            with observed_selections() as seen:
                again = og.run_experiment(serial_cfg)
            if seen is None:
                quality.notes.append("orbitreg.bench.global_ems is missing: "
                                     "chosen subgroups not observed")
            elif len(seen) != len(self.n_grid):
                quality.notes.append(f"observed {len(seen)} searches for "
                                     f"{len(self.n_grid)} cells: chosen subgroups not matched")
                seen = None
            target = maximal_symmetry(cfg.scenario)
            for i, n in enumerate(self.n_grid):
                label = f"call {k} {cfg.scenario} n={n} trial=0"
                timed = {r.estimator: r.risk for r in report.rows if r.n == n and r.trial == 0}
                redo = {r.estimator: r.risk for r in again.rows if r.n == n}
                if {e: v.hex() for e, v in timed.items()} != {e: v.hex() for e, v in redo.items()}:
                    quality.failures[label] = "in-process recompute differs from the timed rows"
                chosen = hit = None
                if seen is not None:
                    cover, selection = seen[i]
                    errors = list(selection.per_group_error.values())
                    if not in_cover(selection.chosen, cover):
                        quality.failures[label] = "chosen subgroup is not in its cover"
                    elif not all_finite(errors):
                        quality.failures[label] = "non-finite holdout error"
                    chosen = selection.chosen.describe()
                    hit = selection.chosen == closest_in_cover(target, cover)
                if {og.BEST_SYMMETRIC, og.BASELINE} <= timed.keys():
                    quality.ops.append(OpQuality(label, timed[og.BEST_SYMMETRIC],
                                                 timed[og.BASELINE], chosen, hit))
        return quality


# ---------------------------------------------------------------------------
# selection: delta_cover + split_dataset + global_ems + final prediction

@dataclass(frozen=True)
class Selection:
    inputs_spec: tuple[tuple[str, float], ...]     # (scenario, cover scale delta)
    n: int
    eval_points: int = 200

    @property
    def cycle(self) -> int:
        return len(self.inputs_spec)

    def _sample(self, seed: int, k: int, n: int, eval_points: int):
        scenario_id, delta = self.inputs_spec[k % self.cycle]
        scenario = og.SCENARIOS[scenario_id]
        rng = og.substream(seed, "select_grid", k)
        data = og.generate_data(scenario, n, NOISE_SD, rng)
        eval_x = og.sample_points(scenario.space, og.PointDistribution.UNIFORM_SPACE,
                                  eval_points, rng)
        return k, scenario_id, delta, data, eval_x, seed

    def prepare(self, seed: int, out_dir: str) -> dict:
        for k in range(self.cycle):
            self.call(self._sample(seed, (1 << 20) + k, 100, 20))
        return {"seed": seed}

    def inputs(self, state: dict, k: int, serial: bool = False):
        return self._sample(state["seed"], k, self.n, self.eval_points)

    def call(self, args):
        k, scenario_id, delta, data, eval_x, seed = args
        scenario = og.SCENARIOS[scenario_id]
        cover = og.delta_cover(scenario.parent, scenario.space, delta)
        fit, holdout = og.split_dataset(data, og.substream(seed, "select-split", k))
        selection = og.global_ems(og.SelectionInput(
            holdout=holdout, cover=cover, fit_data=fit, symmetriser="grid"))
        base = og.LocalConstantEstimator(fit, selection.chosen_bandwidth)
        final = og.BestSymmetricPredictor(base, selection, method="grid")
        return args, cover, selection, final.predict_coords(eval_x)

    def labels(self, args) -> list[str]:
        return [f"call {args[0]} {args[1]}"]

    def validate(self, result) -> dict[str, str]:
        (k, scenario_id, *_), cover, selection, pred = result
        label = f"call {k} {scenario_id}"
        if not in_cover(selection.chosen, cover):
            return {label: "chosen subgroup is not in its cover"}
        if not all_finite(selection.per_group_error.values()):
            return {label: "non-finite holdout error"}
        if not np.all(np.isfinite(pred)):
            return {label: "non-finite prediction"}
        return {}

    def check(self, state: dict, first: list) -> Quality:
        quality = Quality()
        for (k, scenario_id, _, data, eval_x, _), cover, selection, pred in first:
            scenario = og.SCENARIOS[scenario_id]
            truth = scenario.fn(eval_x)
            d = scenario.space.intrinsic_dim
            baseline = og.LocalConstantEstimator(data, og.bandwidth(1.0, len(data), 1.0, d, 0))
            risk_best = float(np.mean((pred - truth) ** 2))
            risk_base = float(np.mean((baseline.predict_coords(eval_x) - truth) ** 2))
            label = f"call {k} {scenario_id}"
            if not (math.isfinite(risk_best) and math.isfinite(risk_base)):
                quality.failures[label] = "non-finite risk"
            hit = selection.chosen == closest_in_cover(maximal_symmetry(scenario_id), cover)
            quality.ops.append(OpQuality(label, risk_best, risk_base,
                                         selection.chosen.describe(), hit))
            quality.digest_lines.append(f"{scenario_id},{k},{selection.chosen.describe()},"
                                        f"{risk_best.hex()},{risk_base.hex()}")
        return quality


# ---------------------------------------------------------------------------
# the catalog

def build(name: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it to one small op for the self-test."""
    if name == "so3_sweep":
        if tiny:
            return Sweep(("so3_f1",), (20,), 1, workers=2, delta=1.0, eval_points=20)
        return Sweep(("so3_f1", "so3_f2", "so3_f3"), (100, 300), 1, workers=2, delta=1.0)
    if name == "t2_sweep":
        if tiny:
            return Sweep(("t2_g3",), (20,), 1, workers=2, delta=0.5, eval_points=20)
        return Sweep(("t2_g1", "t2_g2", "t2_g3"), (150, 200, 300), 1, workers=2, delta=0.5)
    if name == "so3_schedule":
        if tiny:
            return Sweep(("so3_f1",), (6,), 1, workers=1, use_schedule=True, eval_points=20)
        return Sweep(("so3_f1",), (30, 50), 1, workers=1, use_schedule=True)
    if name == "select_grid":
        if tiny:
            return Selection((("so3_f2", 1.0),), 100, eval_points=20)
        return Selection((("so3_f2", 1.0), ("t2_g3", 0.5)), 2000)
    raise KeyError(name)
