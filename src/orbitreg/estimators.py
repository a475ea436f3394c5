"""Base local-averaging estimator and its orbit-symmetrised variants.

The base estimator is the local constant (Nadaraya-Watson) estimator with a
rectangular kernel: the prediction at ``x`` is the mean response over data
points strictly within distance ``h``, and 0 when that ball is empty.
:func:`partial_symmetrised_predict` averages base predictions over a built
orbit grid; the batched symmetrised predictor, by orbit grid or by
Monte-Carlo draws from a compact subgroup, is
:class:`orbitreg.selection.BestSymmetricPredictor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import ConfigError, SpaceMismatchError
from .orbit_grids import OrbitGrid
from .spaces import CovariateSpace, Point, neighbor_mask, neighbor_stats


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


@dataclass(frozen=True)
class LceConfig:
    bandwidth: float
    default_value: float = 0.0

    def __post_init__(self):
        if self.bandwidth <= 0.0:
            raise ConfigError("bandwidth must be positive")


class Predictor(Protocol):
    """A fitted point predictor: total on its space, finite everywhere."""

    space: CovariateSpace

    def predict(self, x: Point) -> float: ...

    def predict_coords(self, coords: np.ndarray) -> np.ndarray: ...


class FunctionPredictor:
    """Wraps a vectorised closed-form function as a predictor (test oracle use)."""

    def __init__(self, space: CovariateSpace, fn: Callable[[np.ndarray], np.ndarray]):
        self.space = space
        self._fn = fn

    def predict(self, x: Point) -> float:
        return float(self._fn(x.coords[None, :])[0])

    def predict_coords(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(np.atleast_2d(coords)), dtype=np.float64).ravel()


def bandwidth(a: float, n: int, beta: float, d: int, d_group: int) -> float:
    """Rate-optimal bandwidth a * n**(-1 / (2 beta + d - d_group))."""
    if a <= 0.0 or n < 1 or 2.0 * beta + d - d_group <= 0.0:
        raise ConfigError("bandwidth requires a > 0, n >= 1 and 2*beta + d - d_group > 0")
    return a * float(n) ** (-1.0 / (2.0 * beta + d - d_group))


class LocalConstantEstimator:
    """Rectangular-kernel local constant estimator.

    Strictly local: the prediction at ``x`` depends only on responses of
    data points at distance < h, so predictions at points 2h apart use
    disjoint data.  The empty-ball default is a fixed constant (0 unless
    configured otherwise).
    """

    def __init__(self, data: Dataset, config: LceConfig | float):
        if not isinstance(config, LceConfig):
            config = LceConfig(bandwidth=float(config))
        self.data = data
        self.config = config
        self.space = data.space

    @property
    def h(self) -> float:
        return self.config.bandwidth

    def neighbor_indices(self, x: Point) -> np.ndarray:
        """Indices of the data points inside the open h-ball around x."""
        return np.flatnonzero(neighbor_mask(self.space, x.coords[None, :], self.data.X, self.h)[0])

    def predict(self, x: Point) -> float:
        return float(self.predict_coords(x.coords[None, :])[0])

    def predict_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        out = np.full(coords.shape[0], self.config.default_value, dtype=np.float64)
        counts, sums = neighbor_stats(self.space, coords, self.data.X, self.h, self.data.Y)
        nonzero = counts > 0
        out[nonzero] = sums[nonzero] / counts[nonzero]
        return out


def lce_predict(data: Dataset, config: LceConfig | float, x: Point) -> float:
    """One-shot form of :class:`LocalConstantEstimator` prediction."""
    return LocalConstantEstimator(data, config).predict(x)


def partial_symmetrised_predict(base: Predictor, grid: OrbitGrid, x: Point) -> float:
    """Average the base prediction over the orbit grid built at ``x``."""
    if grid.base.space != x.space:
        raise SpaceMismatchError("orbit grid was built for a different space")
    return float(base.predict_coords(grid.orbit_coords).mean())
