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
the base estimator with it, through the deterministic orbit grid or through
the quadrature nodes the ``uniform`` search scored it with, so the
``uniform`` final is the estimator whose holdout error chose it.  Every
orbit average, of the search and of both finals, goes through one pass
builder, which sizes each subgroup by its orbit points per row and so
holds at most ``CHUNK_ROWS`` orbit points (or one row's) at a time by one
rule, whichever the symmetriser.  The search scores the whole holdout
sample: to search over part of it, filter the holdout ``Dataset`` first.
The search's holdout errors and :func:`empirical_error`, which also scores
the benchmark's risks, share one mean squared error rule.

Holdout data must be independent of ``fit_data``; the convenience
splitter produces such a pair from one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, EmptyHoldoutError, SpaceMismatchError, check_bandwidth
from .estimators import Dataset, LocalConstantEstimator, Predictor, bandwidth
from .groups import parent_group
from .orbit_grids import orbit_coords_batch, orbit_grid_counts
from .spaces import query_rows
from .subgroups import (
    CHUNK_ROWS,
    FAMILY_TABLE,
    ClosedSubgroup,
    SubgroupFamily,
    canonical_cover,
    _node_lattice,
    # the quadrature nodes of given node lattices; bound at this name, at
    # which perfbench traces its ``subgroups.orbit_quadrature_coords`` layer
    _quadrature_coords as orbit_quadrature_coords,
    orbit_dimension,
    # perfbench traces its ``subgroups.sample_orbit_coords`` layer at this
    # name and counts a layer it cannot resolve as missing; nothing here
    # calls it, so that layer reads 0
    sample_orbit_coords,
)

_TIE_TOL = 1e-12


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
    :class:`dataclasses.FrozenInstanceError`), and ``cover`` is kept as a
    tuple of the subgroups given, which may be any iterable.
    """

    holdout: Dataset
    cover: Iterable[ClosedSubgroup]
    fit_data: Dataset
    a: float = 1.0
    beta: float = 1.0
    symmetriser: str = "grid"

    def __post_init__(self):
        # a tuple of its own: a generator is not used up by the checks, and
        # the caller's list can change afterwards without reaching the search
        object.__setattr__(self, "cover", tuple(self.cover))
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
    """Mean squared residual of a predictor over a holdout sample.  A
    predictor of another space than the holdout's raises
    :class:`SpaceMismatchError`."""
    if pred.space != holdout.space:
        raise SpaceMismatchError(f"the predictor works on {pred.space}, "
                                 f"but the holdout lies in {holdout.space}")
    if len(holdout) == 0:
        raise EmptyHoldoutError("cannot estimate error on an empty holdout set")
    return _mean_squared_error(pred.predict_coords(holdout.X), holdout.Y)


def _mean_squared_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    residual = predicted - truth
    return float(np.mean(residual * residual))


def _passes(blocks: Iterable, points: Callable[[object], int]) -> Iterator[list]:
    """Consecutive ``blocks`` grouped into prediction passes: a pass takes
    blocks while their orbit points (``points(block)``) stay within
    ``CHUNK_ROWS``; a block with more points runs alone.  Blocks are drawn
    lazily: a generator of blocks holds one pass's blocks and the next
    block at most."""
    pending, total = [], 0
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


def _orbit_averages(base: Predictor, groups: Sequence[ClosedSubgroup], xs: np.ndarray,
                    h: float, symmetriser: str) -> Iterator[np.ndarray]:
    """The orbit average of the base predictor over each row of ``xs``, at
    bandwidth ``h``, one (subgroups, rows) array per pass, the subgroups in
    order: over each row's orbit grid (``symmetriser="grid"``) or its
    quadrature nodes (``"uniform"``).

    Each subgroup is sized by its points per row: its node count (its
    node lattice, computed once per subgroup and handed to the node
    builder), or its largest grid count over the rows
    (:func:`orbit_grid_counts`, computed once per subgroup).  Subgroups
    share a pass by :func:`_passes`, and a pass takes ``max(1, CHUNK_ROWS
    // s)`` rows at a time, ``s`` the sum of its subgroups' points per row,
    so every pass holds at most ``CHUNK_ROWS`` points or one row's.  Each
    pass's points are built just before it runs: the nodes of all its
    subgroups by one call of the builder of
    :func:`~orbitreg.subgroups.orbit_quadrature_coords`, or each
    subgroup's grids by :func:`orbit_coords_batch`.
    """
    rows = xs.shape[0]
    uniform = symmetriser == "uniform"
    # (group, (nodes per axis, points per row)); a grid has no lattice
    blocks = ((group, _node_lattice(group, h) if uniform
               else (None, int(orbit_grid_counts(base.space, group, xs, h).max(initial=1))))
              for group in groups)
    for chunk in _passes(blocks, lambda block: rows * block[1][1]):
        step = max(1, CHUNK_ROWS // sum(per_row for _, (_, per_row) in chunk))
        chunk, lattices = [group for group, _ in chunk], [lattice for _, lattice in chunk]
        means = []
        for lo in range(0, max(rows, 1), step):  # no rows make one empty pass
            part = xs[lo:lo + step]
            if uniform:
                coords, counts = orbit_quadrature_coords(chunk, lattices, part)
            else:
                grids = [orbit_coords_batch(base.space, group, part, h) for group in chunk]
                coords, counts = grids[0] if len(grids) == 1 else map(np.concatenate, zip(*grids))
            means.append(_predict_pass(base, coords, counts).reshape(len(chunk), -1))
        yield np.hstack(means)


def _class_holdout_errors(inp: SelectionInput, groups: list[ClosedSubgroup],
                          h: float) -> dict[ClosedSubgroup, float]:
    """Errors for all candidates sharing one bandwidth.

    With the ``grid`` symmetriser each candidate is scored through its orbit
    grid (the deterministic packing construction); with ``uniform`` it is
    scored through fixed quadrature nodes approximating the full orbit
    average, the nodes of a ``method="uniform"`` final prediction.  Each
    pass's errors are one row-wise mean over its stacked orbit averages,
    with the bits :func:`_mean_squared_error` gives each row.
    """
    base = LocalConstantEstimator(inp.fit_data, h)
    errors = []
    for sym in _orbit_averages(base, groups, inp.holdout.X, h, inp.symmetriser):
        residual = sym - inp.holdout.Y
        errors.append(np.mean(residual * residual, axis=1))
    return dict(zip(groups, np.concatenate(errors).tolist()))


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
    # one bandwidth per orbit dimension; SelectionInput checked every parent
    dims = [FAMILY_TABLE[group.family].orbit_dim(group) for group in cover]
    by_dim = {k: bandwidth(inp.a, len(inp.fit_data), inp.beta, inp.holdout.space.intrinsic_dim, k)
              for k in set(dims)}
    bw = {group: by_dim[k] for group, k in zip(cover, dims)}
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
    subgroup at the chosen bandwidth; ``method="uniform"`` averages over
    the subgroup's :func:`~orbitreg.subgroups._node_lattice` quadrature
    nodes at the chosen bandwidth, the nodes the ``uniform`` search scores
    it with.  Both are deterministic.  To symmetrise by a fixed subgroup,
    pass ``SymmetrySelection(group, h, {})``; ``h`` only sizes the orbit
    grids and node counts.  The subgroup and bandwidth are read from
    ``selection`` once, here.  A bandwidth that is not finite and positive
    raises :class:`ConfigError`; a subgroup whose parent does not act on
    the base's space raises :class:`IncompatibleActionError`; a query row
    of the wrong width or with a NaN or infinite entry raises
    :class:`SpaceMismatchError`.
    """

    def __init__(self, base: Predictor, selection: SymmetrySelection, method: str = "grid"):
        if method not in ("grid", "uniform"):
            raise ConfigError(f"unknown symmetrisation method {method!r}")
        # the checked subgroup and bandwidth, read once: a later assignment
        # to the (mutable) selection does not reach the predictions
        self._group, self._h = selection.chosen, check_bandwidth(selection.chosen_bandwidth)
        parent_group(self._group.parent).check_acts_on(base.space)
        self.base = base
        self.selection = selection
        self.method = method
        self.space = base.space

    def predict_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = query_rows(self.space, coords)
        return next(_orbit_averages(self.base, [self._group], coords, self._h, self.method))[0]


def split_dataset(full: Dataset, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Random disjoint halves of sizes (floor(n/2), ceil(n/2))."""
    n = len(full)
    if n < 2:
        raise ConfigError("splitting requires at least two observations")
    perm = rng.permutation(n)
    first = np.sort(perm[: n // 2])
    second = np.sort(perm[n // 2 :])
    return full.subset(first), full.subset(second)
