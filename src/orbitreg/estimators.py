"""Base local-averaging estimator and its orbit-symmetrised variants.

The base estimator is the local constant (Nadaraya-Watson) estimator with a
rectangular kernel: the prediction at ``x`` is the mean response over data
points strictly within distance ``h``, and 0 when that ball is empty.
Predictors are batched: ``predict_coords`` takes row-stacked query
coordinates (one point is one row) and returns one prediction per row.
The symmetrised predictor, which averages base predictions over orbit
grids or over Monte-Carlo draws from a compact subgroup, is
:class:`orbitreg.selection.BestSymmetricPredictor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import ConfigError, SpaceMismatchError, check_count
from .spaces import CovariateSpace, Point, neighbor_stats, query_rows


@dataclass(frozen=True, eq=False)
class Dataset:
    """Regression sample: covariate rows ``X`` in the space, finite responses ``Y``."""

    space: CovariateSpace
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        Y = np.asarray(self.Y, dtype=np.float64).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ConfigError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries")
        bad = np.flatnonzero(~np.isfinite(Y))
        if bad.size:
            raise ConfigError(f"response {bad[0]} is not finite: {Y[bad[0]]}")
        bad = np.flatnonzero(~self.space.contains_rows(X))
        if bad.size:
            raise SpaceMismatchError(f"row {bad[0]} ({X[bad[0]]}) does not lie in {self.space}")
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @staticmethod
    def from_pairs(space: CovariateSpace, pairs) -> "Dataset":
        pairs = list(pairs)
        xs = [x.coords if isinstance(x, Point) else x for x, _ in pairs]
        X = np.array(xs, dtype=np.float64) if xs else np.zeros((0, space.ambient_dim))
        return Dataset(space, X, np.array([y for _, y in pairs], dtype=np.float64))

    def __len__(self) -> int:
        return self.X.shape[0]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.space, self.X[indices], self.Y[indices])


class Predictor(Protocol):
    """A fitted predictor: one finite prediction per query row of its space."""

    space: CovariateSpace

    def predict_coords(self, coords: np.ndarray) -> np.ndarray: ...


class FunctionPredictor:
    """Wraps a vectorised closed-form function as a predictor (test oracle use)."""

    def __init__(self, space: CovariateSpace, fn: Callable[[np.ndarray], np.ndarray]):
        self.space = space
        self._fn = fn

    def predict_coords(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.atleast_2d(coords)), dtype=np.float64).ravel()


def bandwidth(a: float, n: int, beta: float, d: int, d_group: int) -> float:
    """Rate-optimal bandwidth a * n**(-1 / (2 beta + d - d_group))."""
    check_count(n, 1, "bandwidth: n must be an integer of at least 1")
    # a NaN beta fails every comparison, so finiteness is checked apart
    if not 0.0 < a < math.inf or not math.isfinite(beta) or 2.0 * beta + d - d_group <= 0.0:
        raise ConfigError("bandwidth requires a finite a > 0 and beta, 2*beta + d - d_group > 0")
    return a * float(n) ** (-1.0 / (2.0 * beta + d - d_group))


class LocalConstantEstimator:
    """Rectangular-kernel local constant estimator.

    Strictly local: the prediction at ``x`` depends only on responses of
    data points at distance < h, so predictions at points 2h apart use
    disjoint data.  An empty ball predicts 0.  The bandwidth ``h`` must be
    a finite positive float; a query row of the wrong width or with a NaN or
    infinite entry raises :class:`SpaceMismatchError`.
    """

    def __init__(self, data: Dataset, h: float):
        h = float(h)
        if not 0.0 < h < math.inf:
            raise ConfigError(f"bandwidth must be finite and positive, got {h}")
        self.data = data
        self.h = h
        self.space = data.space

    def predict_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = query_rows(self.space, coords)
        out = np.zeros(coords.shape[0])
        counts, sums = neighbor_stats(self.space, coords, self.data.X, self.h, self.data.Y)
        nonzero = counts > 0
        out[nonzero] = sums[nonzero] / counts[nonzero]
        return out
