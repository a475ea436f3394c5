"""Choosing the symmetry that minimises holdout error.

The search evaluates, for every subgroup in a cover of the symmetry
catalog, the holdout mean squared error of the orbit-grid symmetrised
predictor, with the bandwidth ``a n^(-1/(2 beta + d - k))`` re-optimised
per candidate of orbit dimension ``k``.  Candidates that share a
bandwidth form a class, and the search fits one local-constant estimator
on ``fit_data`` per class, at that bandwidth.  A larger orbit dimension
gives a narrower ball: ``n^(-1/5)``, ``n^(-1/4)`` and ``n^(-1/3)`` for
k = 0, 1 and 2 at d = 3 and beta = 1, because the orbit average pools
data along k directions and its variance grows only like
``1 / (n h^(d - k))``.
The minimiser is the selected symmetry; the final predictor symmetrises
the base estimator with it, either through the deterministic orbit grid or
through Monte-Carlo draws from the subgroup's Haar measure.  The search
scores the whole holdout sample: to search over part of it, filter the
holdout ``Dataset`` first.  The search's holdout errors and
:func:`empirical_error`, which also scores the benchmark's risks, share
one mean squared error rule.

Holdout data must be independent of ``fit_data``; the convenience
splitter produces such a pair from one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, EmptyHoldoutError, SpaceMismatchError, check_count
from .estimators import Dataset, LocalConstantEstimator, Predictor, bandwidth
from .groups import parent_group
from .orbit_grids import orbit_coords_batch
from .spaces import query_rows
from .subgroups import (
    ClosedSubgroup,
    SubgroupFamily,
    canonical_cover,
    orbit_dimension,
    orbit_quadrature_coords,
    quadrature_count,
    sample_orbit_coords,
)

_TIE_TOL = 1e-12
# orbit points per prediction pass (48 MB per copy at three coordinates).
# It lies above the largest bandwidth class of every benchmark workload
# (about 0.8 million points, the shrinking-delta cover at n = 50) and above
# every Monte-Carlo final prediction there (at most 200 x 300 points), so
# those passes are never split and their numbers do not move.
CHUNK_ROWS = 2_000_000


@dataclass(frozen=True)
class SelectionInput:
    """Everything the symmetry search needs.

    The search fits one local-constant estimator on ``fit_data`` per
    bandwidth class, at that class's bandwidth, and scores each
    candidate's orbit average of it on ``holdout``.  The bandwidths use
    the size of ``fit_data``, and orbit grids span the whole subgroup.
    Inputs are checked here: a ``holdout`` that is not a :class:`Dataset`,
    a ``fit_data`` that is not a nonempty :class:`Dataset`, a bandwidth
    constant ``a`` that is not finite and positive, or a cover entry that
    is not a :class:`ClosedSubgroup`, raises :class:`ConfigError`; an
    empty ``holdout`` raises :class:`EmptyHoldoutError`; a ``fit_data`` in
    another space than ``holdout`` raises :class:`SpaceMismatchError`; a
    cover subgroup whose parent does not act on ``holdout``'s space raises
    :class:`IncompatibleActionError`.  The input is frozen, so these
    checks cannot be undone by assigning a field afterwards (that raises
    :class:`dataclasses.FrozenInstanceError`).
    """

    holdout: Dataset
    cover: Sequence[ClosedSubgroup]
    fit_data: Dataset
    a: float = 1.0
    beta: float = 1.0
    symmetriser: str = "grid"

    def __post_init__(self):
        if not isinstance(self.holdout, Dataset):
            raise ConfigError(f"holdout must be a Dataset, got {type(self.holdout).__name__}")
        if len(self.holdout) == 0:
            raise EmptyHoldoutError("the symmetry search needs a nonempty holdout sample")
        if not isinstance(self.fit_data, Dataset):
            raise ConfigError(f"fit_data must be a Dataset, got {type(self.fit_data).__name__}")
        if self.fit_data.space != self.holdout.space:
            raise SpaceMismatchError(f"fit_data lies in {self.fit_data.space}, "
                                     f"but holdout lies in {self.holdout.space}")
        if len(self.fit_data) == 0:
            raise ConfigError("fit_data must hold at least one observation")
        if not self.cover:
            raise ConfigError("the cover must be nonempty")
        stray = next((g for g in self.cover if not isinstance(g, ClosedSubgroup)), None)
        if stray is not None:
            raise ConfigError(f"cover entry {stray!r} is not a ClosedSubgroup")
        for parent in {g.parent for g in self.cover}:
            parent_group(parent).check_acts_on(self.holdout.space)
        if not any(g.family is SubgroupFamily.TRIVIAL for g in self.cover):
            raise ConfigError("the cover must contain the trivial subgroup")
        if not 0.0 < self.a < math.inf:
            raise ConfigError(f"bandwidth requires a finite a > 0, got a = {self.a!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError("beta must lie in (0, 1] (degree-0 local estimator)")
        if self.symmetriser not in ("grid", "uniform"):
            raise ConfigError("symmetriser must be 'grid' or 'uniform'")


@dataclass
class SymmetrySelection:
    """Search result: the chosen subgroup and the full error table."""

    chosen: ClosedSubgroup
    chosen_bandwidth: float
    per_group_error: dict[ClosedSubgroup, float]
    bandwidth_by_group: dict[ClosedSubgroup, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"chosen: {self.chosen.describe()}", "per-group holdout error:"]
        for group, err in self.per_group_error.items():
            lines.append(f"  {err:.6e}  {group.describe()}")
        return "\n".join(lines)


def empirical_error(pred: Predictor, holdout: Dataset) -> float:
    """Mean squared residual of a predictor over a holdout sample."""
    if len(holdout) == 0:
        raise EmptyHoldoutError("cannot estimate error on an empty holdout set")
    return _mean_squared_error(pred.predict_coords(holdout.X), holdout.Y)


def _mean_squared_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    residual = predicted - truth
    return float(np.mean(residual * residual))


def _candidate_bandwidth(inp: SelectionInput, group: ClosedSubgroup) -> float:
    d = inp.holdout.space.intrinsic_dim
    d_group = orbit_dimension(group, inp.holdout.space)
    return bandwidth(inp.a, len(inp.fit_data), inp.beta, d, d_group)


_Block = tuple[np.ndarray, np.ndarray]  # (coords, counts), as orbit_coords_batch returns


def _passes(blocks: Iterable, points: Callable[[object], int]) -> Iterator[list]:
    """Consecutive ``blocks`` grouped into prediction passes: a pass takes
    blocks while their orbit points (``points(block)``) stay within
    ``CHUNK_ROWS``; a block with more points runs alone.  Blocks are drawn
    lazily: a generator of blocks holds one pass's blocks and the next
    block at most."""
    pending: list = []
    total = 0
    for block in blocks:
        size = points(block)
        if pending and total + size > CHUNK_ROWS:
            yield pending
            pending, total = [], 0
        pending.append(block)
        total += size
    if pending:
        yield pending


def _predict_pass(base: Predictor, coords: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """One prediction pass: the mean of the base predictions over each base
    row's ``counts[i]`` consecutive rows of ``coords``."""
    preds = base.predict_coords(coords)
    return np.add.reduceat(preds, np.cumsum(counts) - counts) / counts


def _orbit_averages(base: Predictor, blocks: Iterable[_Block]) -> Iterator[np.ndarray]:
    """The orbit average of the base predictor for each ``(coords, counts)``
    block, in order: one mean per base row of the block, passes packed by
    :func:`_passes`."""
    for chunk in _passes(blocks, lambda block: len(block[0])):
        counts = [counts for _, counts in chunk]
        means = _predict_pass(base, np.vstack([coords for coords, _ in chunk]),
                              np.concatenate(counts))
        yield from np.split(means, np.cumsum([len(c) for c in counts])[:-1])


def _quadrature_averages(base: Predictor, groups: list[ClosedSubgroup],
                         xs: np.ndarray) -> Iterator[np.ndarray]:
    """The quadrature-node average of the base predictor over each row of
    ``xs``, one array per subgroup, in order.  Each pass's nodes come from
    one :func:`orbit_quadrature_coords` call, written into the one array
    the pass predicts on; passes are packed by :func:`_passes`."""
    rows = xs.shape[0]
    for chunk in _passes(groups, lambda group: rows * quadrature_count(group)):
        yield from _predict_pass(base, *orbit_quadrature_coords(chunk, xs)).reshape(len(chunk), rows)


def _class_holdout_errors(inp: SelectionInput, groups: list[ClosedSubgroup],
                          h: float) -> dict[ClosedSubgroup, float]:
    """Errors for all candidates sharing one bandwidth.

    With the ``grid`` symmetriser each candidate is scored through its orbit
    grid (the deterministic packing construction); with ``uniform`` it is
    scored through fixed quadrature nodes approximating the full orbit
    average, matching a Monte-Carlo final prediction.
    """
    holdout = inp.holdout
    base = LocalConstantEstimator(inp.fit_data, h)
    if inp.symmetriser == "uniform":
        averages = _quadrature_averages(base, groups, holdout.X)
    else:
        averages = _orbit_averages(base, (orbit_coords_batch(holdout.space, group, holdout.X, h)
                                          for group in groups))
    return {group: _mean_squared_error(sym, holdout.Y) for group, sym in zip(groups, averages)}


def _argmin_with_ties(errors: dict[ClosedSubgroup, float], space) -> ClosedSubgroup:
    best = min(errors.values())
    tied = [g for g, e in errors.items() if e <= best + _TIE_TOL]
    tied.sort(key=lambda g: (-orbit_dimension(g, space), g.canonical_key()))
    return tied[0]


def global_ems(inp: SelectionInput) -> SymmetrySelection:
    """Error Minimising Symmetry over the holdout sample.

    The cover is searched as :func:`orbitreg.subgroups.canonical_cover`
    gives it, so the error table lists a
    :func:`orbitreg.subgroups.delta_cover` in its order.
    """
    cover = canonical_cover(inp.cover)
    bw = {group: _candidate_bandwidth(inp, group) for group in cover}
    by_bandwidth: dict[float, list[ClosedSubgroup]] = {}
    for group in cover:
        by_bandwidth.setdefault(bw[group], []).append(group)
    errors: dict[ClosedSubgroup, float] = {}
    for h, groups in by_bandwidth.items():
        errors.update(_class_holdout_errors(inp, groups, h))
    errors = {group: errors[group] for group in cover}
    chosen = _argmin_with_ties(errors, inp.holdout.space)
    return SymmetrySelection(chosen, bw[chosen], errors, bandwidth_by_group=bw)


class BestSymmetricPredictor:
    """The base estimator symmetrised by the selected subgroup, batched.

    ``method="grid"`` averages over each point's orbit grid of the whole
    subgroup at the chosen bandwidth; ``method="monte_carlo"`` averages
    over ``mc_draws`` uniform draws from the subgroup, by default
    one per training point (one for the trivial subgroup, whose
    orbit is the point itself).  To symmetrise by a fixed subgroup, pass
    ``SymmetrySelection(group, h, {})``; ``h`` only sizes the orbit grids.
    A subgroup whose parent does not act on the base's space raises
    :class:`IncompatibleActionError`; a query row of the wrong width or
    with a NaN or infinite entry raises :class:`SpaceMismatchError`.
    """

    def __init__(self, base: Predictor, selection: SymmetrySelection,
                 method: str = "grid", mc_draws: int | None = None,
                 rng: np.random.Generator | None = None):
        if method not in ("grid", "monte_carlo"):
            raise ConfigError(f"unknown symmetrisation method {method!r}")
        parent_group(selection.chosen.parent).check_acts_on(base.space)
        if method == "monte_carlo":
            if rng is None:
                raise ConfigError("monte_carlo symmetrisation needs an explicit rng")
            if mc_draws is None:
                data = getattr(base, "data", None)
                if data is None or len(data) == 0:
                    raise ConfigError("mc_draws must be given when the base has no training set")
                mc_draws = len(data)
            check_count(mc_draws, 1, "the number of Monte-Carlo draws must be an integer of at least 1")
        self.base = base
        self.selection = selection
        self.method = method
        self.mc_draws = mc_draws
        self.rng = rng
        self.space = base.space

    def predict_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = query_rows(self.space, coords)
        if self.method == "grid":
            pts, counts = orbit_coords_batch(self.space, self.selection.chosen, coords,
                                             self.selection.chosen_bandwidth)
            # one block per query row, so passes split the queries between rows
            blocks = zip(np.split(pts, np.cumsum(counts)[:-1]), counts[:, None])
        else:
            # the trivial orbit is the point itself: one draw is the average
            # (its draws are identity rows and consume no randomness)
            draws = 1 if self.selection.chosen.family is SubgroupFamily.TRIVIAL else self.mc_draws
            step = max(1, CHUNK_ROWS // draws)
            blocks = (self._draws(coords[start : start + step], draws)
                      for start in range(0, coords.shape[0], step))
        means = list(_orbit_averages(self.base, blocks))
        return np.concatenate(means) if means else np.zeros(0)  # no query rows, no blocks

    def _draws(self, rows: np.ndarray, draws: int) -> _Block:
        pts = sample_orbit_coords(self.selection.chosen, rows, draws, self.rng)
        return pts.reshape(-1, rows.shape[1]), np.full(len(rows), draws)


def split_dataset(full: Dataset, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Random disjoint halves of sizes (floor(n/2), ceil(n/2))."""
    n = len(full)
    if n < 2:
        raise ConfigError("splitting requires at least two observations")
    perm = rng.permutation(n)
    first = np.sort(perm[: n // 2])
    second = np.sort(perm[n // 2 :])
    return full.subset(first), full.subset(second)
