"""Choosing the symmetry that minimises holdout error.

The search evaluates, for every subgroup in a cover of the symmetry
catalog, the holdout mean squared error of the orbit-grid symmetrised
predictor, with the bandwidth ``a n^(-1/(2 beta + d - k))`` re-optimised
per candidate of orbit dimension ``k``.  A larger orbit dimension gives a
narrower ball: ``n^(-1/5)``, ``n^(-1/4)`` and ``n^(-1/3)`` for k = 0, 1
and 2 at d = 3 and beta = 1, because the orbit average pools data along
k directions and its variance grows only like ``1 / (n h^(d - k))``.
The minimiser is the selected symmetry; the final predictor symmetrises
the base estimator with it, either through the deterministic orbit grid or
through Monte-Carlo draws from the subgroup's Haar measure.

Holdout data must be independent of the data inside the base estimator;
the convenience splitter produces such a pair from one sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, EmptyHoldoutError
from .estimators import Dataset, LocalConstantEstimator, Predictor, bandwidth
from .orbit_grids import orbit_coords_batch
from .spaces import query_rows
from .subgroups import (
    ClosedSubgroup,
    SubgroupFamily,
    orbit_dimension,
    orbit_quadrature_coords,
    sample_orbit_coords,
)

_TIE_TOL = 1e-12
_FALLBACK_ERROR = 1.0  # every candidate's error when the region holds no holdout point


@dataclass
class SelectionInput:
    """Everything the symmetry search needs.

    Exactly one of ``fit_data`` and ``base`` must be provided: with
    ``fit_data`` each candidate gets its own local-constant base estimator
    at that candidate's bandwidth; a fixed ``base`` is used verbatim for
    every candidate (the orbit grids still use per-candidate bandwidths).
    The bandwidths use the size of ``fit_data`` (of ``holdout`` with a
    fixed ``base``).  Orbit grids span the whole subgroup, and an empty
    ``region`` reports error 1.0 for every candidate.
    """

    holdout: Dataset
    cover: Sequence[ClosedSubgroup]
    fit_data: Dataset | None = None
    base: Predictor | None = None
    a: float = 1.0
    beta: float = 1.0
    region: Callable[[np.ndarray], np.ndarray] | None = None
    symmetriser: str = "grid"

    def __post_init__(self):
        if (self.fit_data is None) == (self.base is None):
            raise ConfigError("provide exactly one of fit_data and base")
        if not self.cover:
            raise ConfigError("the cover must be nonempty")
        if not any(g.family is SubgroupFamily.TRIVIAL for g in self.cover):
            raise ConfigError("the cover must contain the trivial subgroup")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError("beta must lie in (0, 1] (degree-0 local estimator)")
        if self.symmetriser not in ("grid", "uniform"):
            raise ConfigError("symmetriser must be 'grid' or 'uniform'")

    def effective_n(self) -> int:
        return len(self.fit_data) if self.fit_data is not None else len(self.holdout)


@dataclass
class SymmetrySelection:
    """Search result: the chosen subgroup and the full error table."""

    chosen: ClosedSubgroup
    chosen_bandwidth: float
    per_group_error: dict[ClosedSubgroup, float]
    used_fallback: bool = False
    bandwidth_by_group: dict[ClosedSubgroup, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"chosen: {self.chosen.describe()}"]
        if self.used_fallback:
            lines.append("note: holdout region was empty; fell back to the trivial group")
        lines.append("per-group holdout error:")
        for group, err in self.per_group_error.items():
            lines.append(f"  {err:.6e}  {group.describe()}")
        return "\n".join(lines)


def empirical_error(pred: Predictor, holdout: Dataset) -> float:
    """Mean squared residual of a predictor over a holdout sample."""
    if len(holdout) == 0:
        raise EmptyHoldoutError("cannot estimate error on an empty holdout set")
    residual = pred.predict_coords(holdout.X) - holdout.Y
    return float(np.mean(residual * residual))


def _candidate_bandwidth(inp: SelectionInput, group: ClosedSubgroup) -> float:
    d = inp.holdout.space.intrinsic_dim
    d_group = orbit_dimension(group, inp.holdout.space)
    return bandwidth(inp.a, inp.effective_n(), inp.beta, d, d_group)


def _candidate_base(inp: SelectionInput, h: float) -> Predictor:
    if inp.base is not None:
        return inp.base
    return LocalConstantEstimator(inp.fit_data, h)


def _orbit_points(method: str, space, group: ClosedSubgroup, xs: np.ndarray,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """The points each row of ``xs`` is averaged over, as ``(coords, counts)``:
    quadrature nodes for ``"uniform"``, else the orbit grid at bandwidth ``h``."""
    if method == "uniform":
        return orbit_quadrature_coords(group, xs)
    return orbit_coords_batch(space, group, xs, h)


def _orbit_means(preds: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each row's ``counts[i]`` consecutive predictions."""
    return np.add.reduceat(preds, np.cumsum(counts) - counts) / counts


def _class_holdout_errors(inp: SelectionInput, groups: list[ClosedSubgroup], h: float,
                          X: np.ndarray, Y: np.ndarray) -> dict[ClosedSubgroup, float]:
    """Errors for all candidates sharing one bandwidth, via one prediction pass.

    With the ``grid`` symmetriser each candidate is scored through its orbit
    grid (the deterministic packing construction); with ``uniform`` it is
    scored through fixed quadrature nodes approximating the full orbit
    average, matching a Monte-Carlo final prediction.
    """
    base = _candidate_base(inp, h)
    blocks = [_orbit_points(inp.symmetriser, inp.holdout.space, g, X, h) for g in groups]
    preds = base.predict_coords(np.vstack([coords for coords, _ in blocks]))
    sym = _orbit_means(preds, np.concatenate([counts for _, counts in blocks]))
    residual = sym.reshape(len(groups), -1) - Y
    return dict(zip(groups, np.mean(residual * residual, axis=1).tolist()))


def _argmin_with_ties(errors: dict[ClosedSubgroup, float], space) -> ClosedSubgroup:
    best = min(errors.values())
    tied = [g for g, e in errors.items() if e <= best + _TIE_TOL]
    tied.sort(key=lambda g: (-orbit_dimension(g, space), g.canonical_key()))
    return tied[0]


def global_ems(inp: SelectionInput) -> SymmetrySelection:
    """Error Minimising Symmetry over the whole holdout sample."""
    if inp.region is not None:
        return local_ems(inp)
    if len(inp.holdout) == 0:
        raise EmptyHoldoutError("the symmetry search needs a nonempty holdout sample")
    return _run_search(inp, np.ones(len(inp.holdout), dtype=bool))


def local_ems(inp: SelectionInput) -> SymmetrySelection:
    """Error Minimising Symmetry restricted to a region of the space.

    Points exactly on the region boundary count as inside (membership
    predicates are expected to use closed comparisons).  When no holdout
    point lies in the region the search cannot be run; the trivial group is
    returned with error 1.0 for every candidate.  The predicate must return
    one entry per holdout row.
    """
    if inp.region is None:
        raise ConfigError("local_ems requires a region membership predicate")
    mask = np.asarray(inp.region(inp.holdout.X), dtype=bool) if len(inp.holdout) else np.zeros(0, bool)
    if mask.shape != (len(inp.holdout),):
        raise ConfigError(f"region returned shape {mask.shape} for {len(inp.holdout)} holdout rows")
    if mask.sum() == 0:
        cover = _canonical_cover(inp.cover)
        trivial = next(g for g in cover if g.family is SubgroupFamily.TRIVIAL)
        errors = {g: _FALLBACK_ERROR for g in cover}
        bw = {g: _candidate_bandwidth(inp, g) for g in cover}
        return SymmetrySelection(trivial, bw[trivial], errors, used_fallback=True,
                                 bandwidth_by_group=bw)
    return _run_search(inp, mask)


def _canonical_cover(cover: Sequence[ClosedSubgroup]) -> list[ClosedSubgroup]:
    out, seen = [], set()
    for g in sorted(cover, key=lambda g: g.canonical_key()):
        if g.canonical_key() not in seen:
            seen.add(g.canonical_key())
            out.append(g)
    return out


def _run_search(inp: SelectionInput, mask: np.ndarray) -> SymmetrySelection:
    cover = _canonical_cover(inp.cover)
    X = inp.holdout.X[mask]
    Y = inp.holdout.Y[mask]
    bw = {group: _candidate_bandwidth(inp, group) for group in cover}
    by_bandwidth: dict[float, list[ClosedSubgroup]] = {}
    for group in cover:
        by_bandwidth.setdefault(bw[group], []).append(group)
    errors: dict[ClosedSubgroup, float] = {}
    for h, groups in by_bandwidth.items():
        errors.update(_class_holdout_errors(inp, groups, h, X, Y))
    errors = {group: errors[group] for group in cover}
    chosen = _argmin_with_ties(errors, inp.holdout.space)
    return SymmetrySelection(chosen, bw[chosen], errors, bandwidth_by_group=bw)


class BestSymmetricPredictor:
    """The base estimator symmetrised by the selected subgroup, batched.

    ``method="grid"`` averages over each point's orbit grid of the whole
    subgroup at the chosen bandwidth; ``method="monte_carlo"`` averages
    over ``mc_draws`` uniform draws from the subgroup, by default
    one per training point.  To symmetrise by a fixed subgroup, pass
    ``SymmetrySelection(group, h, {})``; ``h`` only sizes the orbit grids.
    A query row of the wrong width or with a NaN or infinite entry raises
    :class:`SpaceMismatchError`.
    """

    def __init__(self, base: Predictor, selection: SymmetrySelection,
                 method: str = "grid", mc_draws: int | None = None,
                 rng: np.random.Generator | None = None):
        if method not in ("grid", "monte_carlo"):
            raise ConfigError(f"unknown symmetrisation method {method!r}")
        if method == "monte_carlo":
            if rng is None:
                raise ConfigError("monte_carlo symmetrisation needs an explicit rng")
            if mc_draws is None:
                data = getattr(base, "data", None)
                if data is None or len(data) == 0:
                    raise ConfigError("mc_draws must be given when the base has no training set")
                mc_draws = len(data)
            if mc_draws < 1:
                raise ConfigError("the number of Monte-Carlo draws must be at least 1")
        self.base = base
        self.selection = selection
        self.method = method
        self.mc_draws = mc_draws
        self.rng = rng
        self.space = base.space

    def predict_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = query_rows(self.space, coords)
        group = self.selection.chosen
        if self.method == "grid":
            pts, counts = _orbit_points("grid", self.space, group, coords,
                                        self.selection.chosen_bandwidth)
            return _orbit_means(self.base.predict_coords(pts), counts)
        m = self.mc_draws
        out = np.empty(coords.shape[0])
        chunk = max(1, int(200_000 / m))
        for start in range(0, coords.shape[0], chunk):
            block = coords[start : start + chunk]
            pts = sample_orbit_coords(group, block, m, self.rng)
            preds = self.base.predict_coords(pts.reshape(-1, coords.shape[1]))
            out[start : start + chunk] = preds.reshape(len(block), m).mean(axis=1)
        return out


def split_dataset(full: Dataset, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Random disjoint halves of sizes (floor(n/2), ceil(n/2))."""
    n = len(full)
    if n < 2:
        raise ConfigError("splitting requires at least two observations")
    perm = rng.permutation(n)
    first = np.sort(perm[: n // 2])
    second = np.sort(perm[n // 2 :])
    return full.subset(first), full.subset(second)
