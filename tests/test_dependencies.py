"""numpy is the only runtime dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs one tiny search and one prediction, then reports whether scipy (the
# dependency the neighbour search was once meant to take) got imported.
PIPELINE = """
import sys
import numpy as np
import orbitreg as og

t2 = og.torus(2)
rng = og.substream(0)
X = og.sample_points(t2, og.PointDistribution.UNIFORM_SPACE, 200, rng)
fit, holdout = og.split_dataset(og.Dataset(t2, X, np.sin(2 * np.pi * X[:, 0])), rng)
selection = og.global_ems(og.SelectionInput(
    holdout=holdout, cover=og.delta_cover(og.parent_torus(2), t2, 0.5), fit_data=fit))
base = og.LocalConstantEstimator(fit, selection.chosen_bandwidth)
assert np.all(np.isfinite(base.predict_coords(X)))
print("scipy" in sys.modules)
"""


def test_pipeline_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PIPELINE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
