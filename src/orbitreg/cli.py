"""Command-line entry points: ``simulate``, ``select``, and ``validate``.

Exit codes: 0 on success, 1 when validation (oracles) fails, 2 on
configuration or I/O errors.  ``simulate`` accepts a flat ``key = value``
config file with command-line flags taking precedence: ``--delta`` and
``--schedule-delta`` each replace both ``delta`` and ``use_schedule``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
import typing

import numpy as np

from .bench import SCENARIOS, ScenarioConfig, run_experiment
from .errors import OrbitregError, ConfigError
from .estimators import Dataset
from .oracles import reports_csv, run_all_oracles
from .randomness import substream
from .report import emit_report
from .selection import SelectionInput, global_ems, split_dataset
from .spaces import torus, unit_ball3
from .subgroups import PARENT_SO3, catalog_lines, delta_cover, parent_torus

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {text!r}")
    return _BOOLEANS[text.lower()]


def _parse_n_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


# a config file sets any field of ScenarioConfig, read by the parser of its
# annotation (an annotation missing here fails at import), plus ``out``
_PARSERS = {str: str, int: int, float: float, float | None: float, bool: _parse_bool,
            tuple[int, ...]: _parse_n_grid}
_HINTS = typing.get_type_hints(ScenarioConfig)
_CONFIG_KEYS = {f.name: _PARSERS[_HINTS[f.name]] for f in dataclasses.fields(ScenarioConfig)}
_CONFIG_KEYS["out"] = str


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="orbitreg",
                                     description="symmetry-adaptive regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a synthetic risk benchmark")
    sim.add_argument("--config", help="flat key = value config file")
    sim.add_argument("--scenario", choices=sorted(SCENARIOS))
    sim.add_argument("--n-grid", help="comma-separated sample sizes, ascending")
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--sigma", type=float, dest="noise_sd")
    scale = sim.add_mutually_exclusive_group()
    scale.add_argument("--delta", type=float,
                       help="fixed cover scale (default: the benchmark scale of the parent group)")
    scale.add_argument("--schedule-delta", action="store_true",
                       help="derive the cover scale from each sample size")
    sim.add_argument("--eval-points", type=int)
    sim.add_argument("--no-split", action="store_true",
                     help="reuse one sample for both fitting and selection")
    sim.add_argument("--workers", type=int)
    sim.add_argument("--out", help="output directory for CSVs and SVG plots")

    sel = sub.add_parser("select", help="one-shot symmetry selection on a CSV sample")
    sel.add_argument("--input", required=True, help="CSV with columns x1..xd,y")
    sel.add_argument("--space", required=True, choices=["unit_ball3", "torus2"])
    sel.add_argument("--delta", type=float, default=0.5)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--a", type=float, default=1.0)
    sel.add_argument("--beta", type=float, default=1.0)
    sel.add_argument("--out", help="write the selection report to this file")
    sel.add_argument("--show-cover", action="store_true", help="print the cover catalog")

    val = sub.add_parser("validate", help="run the oracle suite")
    val.add_argument("--seed", type=int, default=20260801)
    val.add_argument("--out", default="oracle_reports.csv")
    val.add_argument("--quick", action="store_true", help="reduced sample sizes")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "select":
            return _cmd_select(args)
        return _cmd_validate(args)
    except (OrbitregError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _cmd_simulate(args) -> int:
    values: dict = {}
    out = "bench_out"
    if args.config:
        values = _parse_config_file(args.config)
        out = values.pop("out", out)
    for key in ("scenario", "trials", "seed", "noise_sd", "eval_points", "workers"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.delta is not None:
        values["delta"] = args.delta
        values["use_schedule"] = False
    if args.n_grid is not None:
        try:
            values["n_grid"] = _parse_n_grid(args.n_grid)
        except ValueError as exc:
            raise ConfigError(f"--n-grid: {exc}") from exc
    if args.no_split:
        values["split"] = False
    if args.schedule_delta:
        values.pop("delta", None)
        values["use_schedule"] = True
    if args.out:
        out = args.out
    if "scenario" not in values:
        raise ConfigError("scenario: required (flag --scenario or config file)")
    cfg = ScenarioConfig(**values)
    report = run_experiment(cfg)
    written = emit_report(report, out)
    for (scenario, estimator), slope in sorted(report.slopes.items()):
        print(f"{scenario} {estimator}: log-log slope {slope:.3f}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _read_sample_csv(path: str, space) -> Dataset:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty file")
        expected = [f"x{i + 1}" for i in range(space.ambient_dim)] + ["y"]
        if [h.strip() for h in header] != expected:
            raise ConfigError(f"{path}: expected header {','.join(expected)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise ConfigError(f"{path}:{lineno}: expected {len(expected)} values, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: non-numeric value") from exc
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{path}:{lineno}: non-finite value")
            if not space.contains_rows(values[:-1])[0]:
                raise ConfigError(f"{path}:{lineno}: point {values[:-1]} does not lie in {space}")
            rows.append(values)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = np.asarray(rows)
    return Dataset(space, data[:, :-1], data[:, -1])


def _cmd_select(args) -> int:
    if args.space == "unit_ball3":
        space, parent = unit_ball3(), PARENT_SO3
    else:
        space, parent = torus(2), parent_torus(2)
    data = _read_sample_csv(args.input, space)
    cover = delta_cover(parent, space, args.delta)
    if args.show_cover:
        for line in catalog_lines(cover):
            print(line)
    fit, holdout = split_dataset(data, substream(args.seed, "select-split"))
    selection = global_ems(SelectionInput(holdout=holdout, cover=cover, fit_data=fit,
                                          a=args.a, beta=args.beta))
    text = selection.to_text()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_validate(args) -> int:
    reports = run_all_oracles(seed=args.seed, quick=args.quick)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(reports_csv(reports))
    failures = [rep for rep in reports if not rep.passed]
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{status} {rep.name}: observed {rep.observed:.6g} vs expected "
              f"{rep.expected:.6g} (tolerance {rep.tolerance:.3g})")
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
