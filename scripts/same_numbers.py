"""SHA-256 of every artifact of a fixed set of CLI runs, to show two
checkouts give the same numbers.

    python3 scripts/same_numbers.py [--base DIR]

The runs are ``simulate`` on ``so3_f1`` and ``t2_g3`` (``--n-grid 50,150
--trials 2 --seed 11``), ``simulate so3_f2 --schedule-delta --n-grid
30,50``, ``select --show-cover`` on fixed 300-row CSV samples of the ball
and the 2-torus, ``select --delta 0.1 --show-cover`` on the ball sample
(2,210 candidates, so a fine cover's content and order are checked too),
and ``validate --quick``; two ``uniform`` searches (``global_ems`` with
``symmetriser="uniform"``, split as ``select`` splits), on the ball
sample at delta 0.1 and on the torus sample at delta 0.5, each printing
its chosen subgroup and every candidate's holdout error as a float hex
string; then every ``demos/*.py`` of the checkout, each in a fresh
temporary directory: 24 artifacts.  An artifact is a file a CLI run
writes or the standard output of a CLI run, a search or a demo.  Each
line of output is ``<sha256>  <artifact>``.  With
``--base DIR`` the same runs are made with the package and the demos of
the checkout ``DIR``, the artifacts that differ are listed, and the
script exits 1 if any do.  The CSV samples are drawn here, with numpy
only, so both checkouts read the same bytes.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIMULATE = ("--n-grid", "50,150", "--trials", "2", "--seed", "11")
# one uniform search on a CSV sample: argv is the sample, its space and delta
UNIFORM_ERRORS = """
import sys
import numpy as np
from orbitreg import (PARENT_SO3, Dataset, SelectionInput, delta_cover, global_ems,
                      parent_torus, split_dataset, substream, torus, unit_ball3)
path, name, delta = sys.argv[1], sys.argv[2], float(sys.argv[3])
space, parent = (unit_ball3(), PARENT_SO3) if name == "unit_ball3" else (torus(2), parent_torus(2))
data = np.loadtxt(path, delimiter=",", skiprows=1)
fit, holdout = split_dataset(Dataset(space, data[:, :-1], data[:, -1]),
                             substream(0, "select-split"))
sel = global_ems(SelectionInput(holdout=holdout, cover=delta_cover(parent, space, delta),
                                fit_data=fit, symmetriser="uniform"))
print("chosen:", sel.chosen.describe())
for group, error in sel.per_group_error.items():
    print(error.hex(), group.describe())
"""


def write_samples(directory: Path) -> dict[str, Path]:
    """300-row samples: f2 on the unit ball, g3 on the 2-torus, noise sd 0.5."""
    rng = np.random.default_rng(20261019)
    ball = rng.uniform(-1.0, 1.0, size=(2000, 3))
    ball = ball[np.linalg.norm(ball, axis=1) <= 1.0][:300]
    flat = rng.random((300, 2))
    samples = {
        "unit_ball3": (ball, np.cos(np.hypot(ball[:, 1], ball[:, 2]))),
        "torus2": (flat, np.cos(2.0 * np.pi * (flat[:, 0] - flat[:, 1]))),
    }
    paths = {}
    for space, (X, f) in samples.items():
        Y = f + 0.5 * rng.standard_normal(len(X))
        header = ",".join([f"x{i + 1}" for i in range(X.shape[1])] + ["y"])
        lines = [header] + [",".join(repr(float(v)) for v in row) for row in np.column_stack([X, Y])]
        paths[space] = directory / f"{space}.csv"
        paths[space].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def runs(samples: dict[str, Path]) -> list[tuple[str, list[str]]]:
    """(name, Python arguments) of every run: the CLI's, then the uniform
    searches'."""
    out = []
    for scenario in ("so3_f1", "t2_g3"):
        out.append((f"simulate-{scenario}", ["simulate", "--scenario", scenario, *SIMULATE]))
    out.append(("simulate-so3_f2-schedule",
                ["simulate", "--scenario", "so3_f2", "--schedule-delta", "--n-grid", "30,50"]))
    for space, path in samples.items():
        out.append((f"select-{space}",
                    ["select", "--input", str(path), "--space", space, "--show-cover"]))
    out.append(("select-unit_ball3-fine", ["select", "--input", str(samples["unit_ball3"]),
                                           "--space", "unit_ball3", "--delta", "0.1",
                                           "--show-cover"]))
    out.append(("validate-quick", ["validate", "--quick"]))
    out = [(name, ["-m", "orbitreg", *args]) for name, args in out]
    for space, delta in (("unit_ball3", "0.1"), ("torus2", "0.5")):
        out.append((f"uniform-errors-{space}",
                    ["-c", UNIFORM_ERRORS, str(samples[space]), space, delta]))
    return out


def digests(checkout: Path, samples: dict[str, Path]) -> dict[str, str]:
    """Artifact name -> SHA-256 for every run, made with ``checkout``'s
    package and demos."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))

    def run(name: str, command: list[str], work: Path) -> bytes:
        proc = subprocess.run([sys.executable, *command], cwd=work, env=env, capture_output=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} failed in {checkout}:\n{proc.stderr.decode()[-2000:]}")
        return proc.stdout

    found = {}
    for name, args in runs(samples):
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            stdout = run(name, args, work)
            found[f"{name}/stdout"] = hashlib.sha256(stdout).hexdigest()
            for path in sorted(p for p in work.rglob("*") if p.is_file()):
                found[f"{name}/{path.relative_to(work)}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    for demo in sorted((checkout / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as work:
            stdout = run(demo.name, [str(demo)], Path(work))
            found[f"demo-{demo.stem}/stdout"] = hashlib.sha256(stdout).hexdigest()
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="a second checkout to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        samples = write_samples(Path(tmp))
        mine = digests(ROOT, samples)
        for name, digest in mine.items():
            print(f"{digest}  {name}")
        if args.base is None:
            return 0
        base = digests(args.base.resolve(), samples)
    differ = sorted(name for name in mine.keys() | base.keys() if mine.get(name) != base.get(name))
    print(f"{len(differ)} of {len(mine.keys() | base.keys())} artifacts differ from {args.base}")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
