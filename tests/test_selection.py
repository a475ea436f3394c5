import dataclasses
import tracemalloc

import numpy as np
import pytest

from orbitreg import (
    BestSymmetricPredictor,
    ConfigError,
    Dataset,
    EmptyHoldoutError,
    FunctionPredictor,
    IncompatibleActionError,
    LocalConstantEstimator,
    PARENT_SO3,
    PointDistribution,
    SelectionInput,
    SpaceMismatchError,
    SymmetrySelection,
    axis_translations,
    circle3,
    empirical_error,
    full_so3,
    full_torus,
    global_ems,
    hausdorff_U_distance,
    sample_points,
    split_dataset,
    substream,
    torus,
    trivial_subgroup,
    unit_ball3,
    unit_sphere2,
)
from orbitreg import selection, subgroups
from orbitreg.bench import SCENARIOS, generate_data
from orbitreg.estimators import bandwidth
from orbitreg.subgroups import (FAMILY_TABLE, SubgroupFamily, delta_cover, fibonacci_sphere,
                                orbit_dimension)

BALL = unit_ball3()
SMALL_COVER = [trivial_subgroup(PARENT_SO3), circle3([1.0, 0.0, 0.0]),
               circle3([0.0, 1.0, 0.0]), circle3([0.0, 0.0, 1.0]), full_so3()]


def f1(X):
    return np.cos(np.linalg.norm(X, axis=1))


def f2(X):
    return np.cos(np.sqrt(X[:, 1] ** 2 + X[:, 2] ** 2))


def noiseless_holdout(fn, n, seed):
    X = sample_points(BALL, PointDistribution.UNIFORM_SPACE, n, substream(seed, "hold"))
    return Dataset(BALL, X, fn(X))


class TestEmpiricalError:
    def test_exact_predictor_zero_error(self):
        holdout = noiseless_holdout(f1, 50, 0)
        assert empirical_error(FunctionPredictor(BALL, f1), holdout) == 0.0

    def test_zero_predictor_on_unit_responses(self):
        holdout = Dataset(BALL, np.zeros((2, 3)), np.array([1.0, -1.0]))
        zero = FunctionPredictor(BALL, lambda X: np.zeros(X.shape[0]))
        assert empirical_error(zero, holdout) == 1.0

    def test_matches_independent_resummation(self):
        rng = substream(0, "resum")
        X = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 5, rng)
        Y = rng.random(5)
        holdout = Dataset(BALL, X, Y)
        pred = FunctionPredictor(BALL, lambda pts: pts[:, 0] + 0.3)
        total = 0.0
        for i in range(5):
            total += (X[i, 0] + 0.3 - Y[i]) ** 2
        assert empirical_error(pred, holdout) == pytest.approx(total / 5, abs=1e-15)

    def test_empty_holdout_raises(self):
        empty = Dataset(BALL, np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(EmptyHoldoutError):
            empirical_error(FunctionPredictor(BALL, f1), empty)

    def test_predictor_of_another_space_raises(self):
        # a ball estimator scored on a 3-torus sample read 0.110, unchecked
        ball = LocalConstantEstimator(noiseless_holdout(f1, 50, 1), 0.3)
        X = substream(1, "torus-holdout").random((40, 3))
        with pytest.raises(SpaceMismatchError, match="torus"):
            empirical_error(ball, Dataset(torus(3), X, f1(X)))


class TestGlobalSearch:
    def test_single_candidate_cover(self):
        holdout = noiseless_holdout(f1, 30, 1)
        sel = global_ems(SelectionInput(holdout=holdout, cover=[trivial_subgroup(PARENT_SO3)],
                                        fit_data=noiseless_holdout(f1, 30, 101)))
        assert sel.chosen.family is SubgroupFamily.TRIVIAL

    @pytest.mark.parametrize("symmetriser", ["grid", "uniform"])
    def test_exact_invariant_ties_break_to_largest_orbit(self, symmetriser):
        # at a = 100 every ball holds all of the noiseless invariant fit
        # data, so all three candidates predict its mean and tie; the tie
        # rule prefers the largest orbit dimension
        holdout = noiseless_holdout(f1, 40, 2)
        cover = [trivial_subgroup(PARENT_SO3), circle3([0.0, 0.0, 1.0]), full_so3()]
        sel = global_ems(SelectionInput(holdout=holdout, cover=cover,
                                        fit_data=noiseless_holdout(f1, 40, 102), a=100.0,
                                        symmetriser=symmetriser))
        errors = list(sel.per_group_error.values())
        assert max(errors) - min(errors) <= 1e-12
        assert sel.chosen.family is SubgroupFamily.FULL_SO3

    def test_cover_holding_both_names_of_the_full_torus_gives_one_entry(self):
        t2 = torus(2)
        fit_X, X = (substream(3, "two-names", part).random((40, 2)) for part in ("f", "h"))
        holdout, fit = (Dataset(t2, Z, np.sin(2 * np.pi * Z[:, 0])) for Z in (X, fit_X))
        cover = [trivial_subgroup("torus2"), axis_translations(2, [0, 1]), full_torus(2)]
        sel = global_ems(SelectionInput(holdout=holdout, cover=cover, fit_data=fit))
        assert list(sel.per_group_error) == [trivial_subgroup("torus2"), full_torus(2)]

    def test_no_symmetry_recovers_trivial_in_majority_of_seeds(self):
        scen = SCENARIOS["so3_f3"]
        wins = 0
        seeds = 30
        for seed in range(seeds):
            fit = generate_data(scen, 300, 0.5, substream(77, "maj", seed, "f"))
            holdout = generate_data(scen, 300, 0.5, substream(77, "maj", seed, "h"))
            sel = global_ems(SelectionInput(holdout=holdout, cover=SMALL_COVER,
                                            fit_data=fit, symmetriser="uniform"))
            wins += sel.chosen.family is SubgroupFamily.TRIVIAL
        assert wins > seeds / 2

    def test_cover_must_contain_trivial(self):
        holdout = noiseless_holdout(f1, 10, 3)
        with pytest.raises(ConfigError):
            SelectionInput(holdout=holdout, cover=[full_so3()],
                           fit_data=noiseless_holdout(f1, 10, 103))

    def test_fit_data_must_share_the_holdout_space(self):
        sphere = unit_sphere2()
        X = sample_points(sphere, PointDistribution.UNIFORM_SPACE, 40, substream(6, "sphere"))
        holdout = Dataset(sphere, X, X[:, 0])
        with pytest.raises(SpaceMismatchError,
                           match="^fit_data lies in unit_ball3, but holdout lies in unit_sphere2$"):
            SelectionInput(holdout=holdout, cover=SMALL_COVER, fit_data=noiseless_holdout(f1, 40, 6))

    @pytest.mark.parametrize("fit_data, message", [
        (Dataset(BALL, np.zeros((0, 3)), np.zeros(0)), "fit_data must hold at least one observation"),
        (None, "fit_data must be a Dataset, got NoneType"),
    ], ids=["empty", "none"])
    def test_fit_data_must_be_a_nonempty_dataset(self, fit_data, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SelectionInput(holdout=noiseless_holdout(f1, 10, 3), cover=SMALL_COVER, fit_data=fit_data)

    @pytest.mark.parametrize("holdout, message", [
        (None, "holdout must be a Dataset, got NoneType"),
        (np.zeros((10, 3)), "holdout must be a Dataset, got ndarray"),
    ], ids=["none", "array"])
    def test_holdout_must_be_a_dataset(self, holdout, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SelectionInput(holdout=holdout, cover=SMALL_COVER, fit_data=noiseless_holdout(f1, 10, 3))

    def test_empty_holdout_raises_where_the_input_is_built(self):
        empty = Dataset(BALL, np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(EmptyHoldoutError):
            SelectionInput(holdout=empty, cover=SMALL_COVER, fit_data=noiseless_holdout(f1, 10, 103))

    @pytest.mark.parametrize("a", [np.inf, 0.0, -1.0, np.nan])
    def test_bandwidth_constant_must_be_finite_and_positive(self, a):
        holdout = noiseless_holdout(f1, 10, 3)
        with pytest.raises(ConfigError, match=f"^bandwidth requires a finite a > 0, got a = {a!r}$"):
            SelectionInput(holdout=holdout, cover=SMALL_COVER,
                           fit_data=noiseless_holdout(f1, 10, 103), a=a)

    def test_cover_entries_must_be_subgroups(self):
        holdout = noiseless_holdout(f1, 10, 3)
        with pytest.raises(ConfigError, match="^cover entry 'circle3' is not a ClosedSubgroup$"):
            SelectionInput(holdout=holdout, cover=[trivial_subgroup(PARENT_SO3), "circle3"],
                           fit_data=noiseless_holdout(f1, 10, 103))

    def test_cover_parents_must_act_on_the_holdout_space(self):
        t2 = torus(2)
        X = substream(3, "flat").random((10, 2))
        holdout = Dataset(t2, X, X[:, 0])
        with pytest.raises(IncompatibleActionError):
            SelectionInput(holdout=holdout, cover=[trivial_subgroup("torus2"), full_so3()],
                           fit_data=holdout)

    @pytest.mark.parametrize("field, value", [("cover", ["x"]), ("a", float("inf"))])
    def test_checked_fields_cannot_be_reassigned(self, field, value):
        inp = SelectionInput(holdout=noiseless_holdout(f1, 10, 3), cover=SMALL_COVER,
                             fit_data=noiseless_holdout(f1, 10, 103))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inp, field, value)
        assert inp.cover == tuple(SMALL_COVER) and inp.a == 1.0

    def test_a_generator_cover_is_kept_whole(self):
        # the checks once used a generator up, and then refused it as
        # lacking the trivial subgroup
        holdout, fit = noiseless_holdout(f1, 10, 3), noiseless_holdout(f1, 10, 103)
        inp = SelectionInput(holdout=holdout, cover=(g for g in SMALL_COVER), fit_data=fit)
        assert inp.cover == tuple(SMALL_COVER)
        listed = global_ems(SelectionInput(holdout=holdout, cover=SMALL_COVER, fit_data=fit))
        assert global_ems(inp).per_group_error == listed.per_group_error

    def test_a_cover_list_changed_afterwards_does_not_reach_the_search(self):
        # an entry appended after the checks once reached the search as a
        # raw AttributeError
        cover = list(SMALL_COVER)
        inp = SelectionInput(holdout=noiseless_holdout(f1, 10, 3), cover=cover,
                             fit_data=noiseless_holdout(f1, 10, 103))
        cover.append("circle3")
        assert inp.cover == tuple(SMALL_COVER)
        assert set(global_ems(inp).per_group_error) == set(SMALL_COVER)

    def test_empty_holdout_raises(self):
        empty = Dataset(BALL, np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(EmptyHoldoutError):
            global_ems(SelectionInput(holdout=empty, cover=SMALL_COVER,
                                      fit_data=noiseless_holdout(f1, 10, 103)))

    def test_argmin_value_invariant_under_cover_permutation(self):
        rng = substream(4, "perm")
        scen = SCENARIOS["so3_f2"]
        fit = generate_data(scen, 120, 0.5, substream(4, "permf"))
        holdout = generate_data(scen, 120, 0.5, substream(4, "permh"))
        forward = global_ems(SelectionInput(holdout=holdout, cover=SMALL_COVER, fit_data=fit))
        shuffled = list(SMALL_COVER)
        rng.shuffle(shuffled)
        backward = global_ems(SelectionInput(holdout=holdout, cover=shuffled, fit_data=fit))
        assert forward.chosen == backward.chosen
        assert forward.per_group_error[forward.chosen] == backward.per_group_error[backward.chosen]

    def test_selection_is_deterministic(self):
        scen = SCENARIOS["so3_f2"]
        fit = generate_data(scen, 100, 0.5, substream(5, "detf"))
        holdout = generate_data(scen, 100, 0.5, substream(5, "deth"))
        a = global_ems(SelectionInput(holdout=holdout, cover=SMALL_COVER, fit_data=fit))
        b = global_ems(SelectionInput(holdout=holdout, cover=SMALL_COVER, fit_data=fit))
        assert a.chosen == b.chosen and a.per_group_error == b.per_group_error

    @pytest.mark.parametrize("symmetriser", ["grid", "uniform"])
    @pytest.mark.parametrize("budget", [None, 500])
    @pytest.mark.parametrize("scenario", ["so3_f2", "t2_g3"])
    def test_class_errors_have_each_candidates_mean_squared_error_bits(
            self, scenario, symmetriser, budget, monkeypatch):
        # one row-wise mean per pass over the stacked orbit averages gives
        # every candidate the bits of its own _mean_squared_error call, also
        # where a small budget splits the class into passes
        spec = SCENARIOS[scenario]
        fit, holdout = (generate_data(spec, 80, 0.5, substream(23, scenario, part))
                        for part in ("f", "h"))
        cover = delta_cover(spec.parent, spec.space, 0.5)
        inp = SelectionInput(holdout=holdout, cover=cover, fit_data=fit, symmetriser=symmetriser)
        if budget is not None:
            monkeypatch.setattr(selection, "CHUNK_ROWS", budget)
        classes = {}
        for group, h in global_ems(inp).bandwidth_by_group.items():
            classes.setdefault(h, []).append(group)
        for h, groups in classes.items():
            errors = selection._class_holdout_errors(inp, groups, h)
            base = LocalConstantEstimator(fit, h)
            averages = np.vstack(list(selection._orbit_averages(base, groups, holdout.X, h,
                                                                symmetriser)))
            assert list(errors) == groups
            for group, average in zip(groups, averages):
                expected = selection._mean_squared_error(average, holdout.Y)
                assert errors[group].hex() == expected.hex(), group.describe()

    @pytest.mark.parametrize("scenario", ["so3_f2", "t2_g3"])
    def test_bandwidths_are_the_rate_rule_bit_for_bit(self, scenario):
        # one bandwidth per orbit dimension, the rule's own bits
        spec = SCENARIOS[scenario]
        fit, holdout = (generate_data(spec, 70, 0.5, substream(24, scenario, part))
                        for part in ("f", "h"))
        cover = delta_cover(spec.parent, spec.space, 0.5)
        sel = global_ems(SelectionInput(holdout=holdout, cover=cover, fit_data=fit, a=0.7,
                                        beta=0.8))
        assert list(sel.bandwidth_by_group) == cover
        d = spec.space.intrinsic_dim
        for group, h in sel.bandwidth_by_group.items():
            k = orbit_dimension(group, spec.space)
            assert h.hex() == bandwidth(0.7, len(fit), 0.8, d, k).hex()
        assert len(set(sel.bandwidth_by_group.values())) == 3


class TestGridGeometry:
    def test_a_grid_candidate_takes_at_most_two_shadows(self, monkeypatch):
        # one shadow sizes the candidate's passes and one builds its grids;
        # the family methods it replaced split every row five times
        calls = {}
        for entry in FAMILY_TABLE.values():
            def counted(g, xs, shadow=entry.shadow):
                calls[g] = calls.get(g, 0) + 1
                return shadow(g, xs)
            monkeypatch.setattr(entry, "shadow", counted)
        scen = SCENARIOS["so3_f2"]
        fit, holdout = (generate_data(scen, 60, 0.5, substream(22, "shadow", part))
                        for part in ("f", "h"))
        global_ems(SelectionInput(holdout=holdout, cover=SMALL_COVER, fit_data=fit))
        assert set(calls) == set(SMALL_COVER)
        assert max(calls.values()) <= 2


class TestNodeLattices:
    """The node lattice that sizes a candidate's passes also builds its
    nodes: one ``_node_lattice`` call per candidate, however many passes
    and row steps the candidate's nodes are built in."""

    @staticmethod
    def _count_lattices(monkeypatch):
        calls = []
        lattice = subgroups._node_lattice

        def counted(group, h):
            calls.append(group)
            return lattice(group, h)
        for module in (selection, subgroups):
            monkeypatch.setattr(module, "_node_lattice", counted)
        return calls

    def test_uniform_search_computes_each_lattice_once(self, monkeypatch):
        scen = SCENARIOS["so3_f2"]
        fit, holdout = (generate_data(scen, 60, 0.5, substream(23, "lattice", part))
                        for part in ("f", "h"))
        cover = delta_cover(PARENT_SO3, BALL, 0.5)
        calls = self._count_lattices(monkeypatch)
        monkeypatch.setattr(selection, "CHUNK_ROWS", 2_000)  # several row steps a pass
        sel = global_ems(SelectionInput(holdout=holdout, cover=cover, fit_data=fit,
                                        symmetriser="uniform"))
        assert sorted(calls, key=lambda g: g.canonical_key()) == sorted(
            sel.per_group_error, key=lambda g: g.canonical_key())

    def test_uniform_final_computes_its_lattice_once(self, monkeypatch):
        fit = generate_data(SCENARIOS["so3_f1"], 80, 0.5, substream(23, "final"))
        base = LocalConstantEstimator(fit, 0.3)
        queries = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 50, substream(23, "q"))
        calls = self._count_lattices(monkeypatch)
        monkeypatch.setattr(selection, "CHUNK_ROWS", 500)
        chosen = SymmetrySelection(circle3([0.0, 0.0, 1.0]), 0.3, {})
        BestSymmetricPredictor(base, chosen, method="uniform").predict_coords(queries)
        assert calls == [circle3([0.0, 0.0, 1.0])]


class TestChunkedSearch:
    @pytest.mark.parametrize("symmetriser", ["grid", "uniform"])
    @pytest.mark.parametrize("budget", [1, 500, 3_000])
    def test_small_chunks_give_identical_errors(self, symmetriser, budget, monkeypatch):
        # n = 50 keeps the neighbour search on its dense path.  Responses on
        # the 1/8 lattice make every neighbour sum exact, so the BLAS
        # product may add them in any order at any batch size; what is
        # left to differ is the chunking itself
        scen = SCENARIOS["so3_f2"]
        fit, holdout = (generate_data(scen, 50, 0.5, substream(6, "chunk", part))
                        for part in ("f", "h"))
        fit, holdout = (Dataset(BALL, d.X, np.round(8.0 * d.Y) / 8.0) for d in (fit, holdout))
        inp = SelectionInput(holdout=holdout, cover=delta_cover(PARENT_SO3, BALL, 0.5),
                             fit_data=fit, symmetriser=symmetriser)
        whole = global_ems(inp)
        passes = []
        predict_pass = selection._predict_pass
        monkeypatch.setattr(selection, "CHUNK_ROWS", budget)
        # a pass predicts on one array of points, counts[i] of them per base row
        monkeypatch.setattr(selection, "_predict_pass", lambda base, coords, counts: passes.append(
            (len(counts), len(coords))) or predict_pass(base, coords, counts))
        chunked = global_ems(inp)
        assert len(passes) > len(set(whole.bandwidth_by_group.values()))  # a class was split
        assert sum(rows for rows, _ in passes) == len(whole.per_group_error) * len(holdout)
        # every pass holds at most the budget's points, or one row's
        assert all(points <= budget or rows == 1 for rows, points in passes)
        assert list(chunked.per_group_error.items()) == list(whole.per_group_error.items())
        assert chunked.chosen == whole.chosen


class TestSearchMemory:
    def test_uniform_search_peak_stays_near_one_pass_array(self):
        # 665 circles x 50 holdout rows x 24 nodes make one pass array of
        # 18.3 MiB.  Beside it the search holds the kernel's counts and
        # sums and the predictions, 24 bytes a point (the array's size
        # again): the traced peak reads 2.06 times the array (37.7 MiB).
        # Nodes built per circle and stacked read 3.65 (66.6 MiB); any
        # second copy of the pass array breaks the bound
        axes = fibonacci_sphere(1330)
        cover = [trivial_subgroup(PARENT_SO3)] + [circle3(a) for a in axes[axes[:, 2] > 0]]
        assert len(cover) == 666
        scen = SCENARIOS["so3_f1"]
        fit, holdout = (generate_data(scen, 50, 0.5, substream(19, "memory", part))
                        for part in ("f", "h"))
        inp = SelectionInput(holdout=holdout, cover=cover, fit_data=fit, symmetriser="uniform")
        pass_bytes = 665 * 50 * 24 * 3 * 8
        tracemalloc.start()
        try:
            global_ems(inp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * pass_bytes

    def test_grid_final_peak_stays_near_one_pass_array(self, monkeypatch):
        # 100 queries under full SO(3) at h = 0.02 hold 78,513 grid points
        # (16 to 1,296 a row); a budget of 10,000 points makes a pass array
        # of 0.23 MiB.  Beside a pass's points, building them holds each
        # point's row and offsets and the terms of the sum the shadow
        # places them by: the traced peak reads 4.07 times the array.
        # Offsets built as (N, k) integer arrays read 4.56; building every
        # query's grids before splitting them between passes reads 39.6
        monkeypatch.setattr(selection, "CHUNK_ROWS", 10_000)
        base = FunctionPredictor(BALL, f1)
        queries = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 100, substream(3, "gridmem"))
        predictor = BestSymmetricPredictor(base, SymmetrySelection(full_so3(), 0.02, {}), "grid")
        pass_bytes = 10_000 * 3 * 8
        tracemalloc.start()
        try:
            predictor.predict_coords(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * pass_bytes


class TestChunkedPrediction:
    @pytest.mark.parametrize("method", ["grid", "uniform"])
    @pytest.mark.parametrize("budget", [1, 500, 3_000])
    def test_small_chunks_give_identical_predictions(self, method, budget, monkeypatch):
        # responses on the 1/8 lattice at n = 55 make every neighbour sum
        # exact whatever the batch (see above)
        scen = SCENARIOS["so3_f2"]
        fit = generate_data(scen, 55, 0.5, substream(6, "chunk-final"))
        fit = Dataset(BALL, fit.X, np.round(8.0 * fit.Y) / 8.0)
        base = LocalConstantEstimator(fit, 0.3)
        fixed = SymmetrySelection(circle3([0.6, 0.0, 0.8]), 0.05, {})
        queries = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 400, substream(6, "q"))

        def predict():
            return BestSymmetricPredictor(base, fixed, method).predict_coords(queries)

        whole = predict()
        passes = []
        predict_pass = selection._predict_pass
        monkeypatch.setattr(selection, "CHUNK_ROWS", budget)
        monkeypatch.setattr(selection, "_predict_pass", lambda base, coords, counts: passes.append(
            (len(counts), len(coords))) or predict_pass(base, coords, counts))
        chunked = predict()
        assert len(passes) > 1  # the queries were split between passes
        assert sum(rows for rows, _ in passes) == len(queries)
        assert all(points <= budget or rows == 1 for rows, points in passes)
        assert np.array_equal(chunked, whole)


class TestSymmetrisedBiasBound:
    def test_orbit_average_bias_below_subgroup_distance(self):
        # 1-Lipschitz, axis-invariant test function; any candidate's grid
        # average must sit within the (net-computed) subgroup distance of
        # the target symmetry, up to twice the net resolution.
        eps = 0.05
        invariant = circle3([1.0, 0.0, 0.0])
        cover = delta_cover(PARENT_SO3, BALL, 1.2)
        distances = {g: hausdorff_U_distance(g, invariant, eps) for g in cover}
        pred = FunctionPredictor(BALL, f2)
        rng = substream(10, "prop")
        X = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 100, rng)
        picks = rng.integers(len(cover), size=100)
        for coords, pick in zip(X, picks):
            group = cover[int(pick)]
            row = coords[None, :]
            sym = BestSymmetricPredictor(pred, SymmetrySelection(group, 0.2, {}), "grid")
            gap = abs(sym.predict_coords(row)[0] - pred.predict_coords(row)[0])
            assert gap <= distances[group] + 2 * eps + 1e-9


class TestBestSymmetricPredictor:
    def test_trivial_selection_returns_base(self):
        rng = substream(11, "bsp")
        scen = SCENARIOS["so3_f1"]
        fit = generate_data(scen, 80, 0.5, rng)
        holdout = generate_data(scen, 80, 0.5, rng)
        sel = global_ems(SelectionInput(holdout=holdout,
                                        cover=[trivial_subgroup(PARENT_SO3)], fit_data=fit))
        base = LocalConstantEstimator(fit, sel.chosen_bandwidth)
        x = np.array([[0.2, 0.1, 0.3]])
        assert BestSymmetricPredictor(base, sel).predict_coords(x)[0] == base.predict_coords(x)[0]

    def test_full_rotation_selection_on_exact_invariant(self):
        # at a = 100 both candidates predict the fit data's mean and tie
        holdout = noiseless_holdout(f1, 40, 12)
        sel = global_ems(SelectionInput(holdout=holdout,
                                        cover=[trivial_subgroup(PARENT_SO3), full_so3()],
                                        fit_data=noiseless_holdout(f1, 40, 112), a=100.0))
        assert sel.chosen.family is SubgroupFamily.FULL_SO3
        base = FunctionPredictor(BALL, f1)
        x = np.array([[0.5, -0.2, 0.1]])
        fixed = SymmetrySelection(full_so3(), sel.chosen_bandwidth, {})
        uniform = BestSymmetricPredictor(base, fixed, method="uniform").predict_coords(x)[0]
        assert uniform == pytest.approx(f1(x)[0], abs=1e-12)

    def test_batched_predictor_matches_pointwise(self):
        scen = SCENARIOS["so3_f2"]
        fit = generate_data(scen, 120, 0.5, substream(13, "bf"))
        holdout = generate_data(scen, 120, 0.5, substream(13, "bh"))
        sel = global_ems(SelectionInput(holdout=holdout, cover=SMALL_COVER, fit_data=fit))
        base = LocalConstantEstimator(fit, sel.chosen_bandwidth)
        predictor = BestSymmetricPredictor(base, sel, method="grid")
        queries = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 20, substream(13, "q"))
        batch = predictor.predict_coords(queries)
        for i in range(20):
            single = predictor.predict_coords(queries[i][None, :])[0]
            assert batch[i] == pytest.approx(single, abs=1e-12)

    @pytest.mark.parametrize("scenario", ["so3_f3", "t2_g3"])
    def test_uniform_trivial_choice_is_the_base_prediction(self, scenario, monkeypatch):
        # the trivial orbit is the query itself: one node per row, one pass,
        # and the base's own numbers bit for bit
        spec = SCENARIOS[scenario]
        fit = generate_data(spec, 300, 0.5, substream(18, scenario, "fit"))
        base = LocalConstantEstimator(fit, 0.3)
        queries = sample_points(fit.space, PointDistribution.UNIFORM_SPACE, 200,
                                substream(18, scenario, "q"))
        trivial = SymmetrySelection(trivial_subgroup(spec.parent), 0.3, {})
        points = []
        predict_pass = selection._predict_pass
        monkeypatch.setattr(selection, "_predict_pass", lambda base, coords, counts: points.append(
            len(coords)) or predict_pass(base, coords, counts))
        preds = BestSymmetricPredictor(base, trivial, "uniform").predict_coords(queries)
        assert np.array_equal(preds, base.predict_coords(queries))
        assert points == [len(queries)]

    @pytest.mark.parametrize("scenario", ["so3_f1", "t2_g3"])
    def test_uniform_final_scores_the_chosen_holdout_error(self, scenario):
        # the uniform final is the estimator the uniform search scored
        spec = SCENARIOS[scenario]
        fit, holdout = (generate_data(spec, 100, 0.5, substream(20, scenario, part))
                        for part in ("fit", "holdout"))
        cover = delta_cover(spec.parent, spec.space, 1.0 if spec.parent == PARENT_SO3 else 0.5)
        sel = global_ems(SelectionInput(holdout=holdout, cover=cover, fit_data=fit,
                                        symmetriser="uniform"))
        assert sel.chosen.family is not SubgroupFamily.TRIVIAL
        final = BestSymmetricPredictor(LocalConstantEstimator(fit, sel.chosen_bandwidth), sel,
                                       method="uniform")
        assert empirical_error(final, holdout) == pytest.approx(sel.per_group_error[sel.chosen],
                                                                rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("method", ["grid", "uniform"])
    def test_no_query_rows_give_an_empty_array(self, method):
        base = LocalConstantEstimator(noiseless_holdout(f1, 50, 14), 0.3)
        predictor = BestSymmetricPredictor(base, SymmetrySelection(full_so3(), 0.3, {}), method)
        preds = predictor.predict_coords(np.zeros((0, 3)))
        assert preds.shape == (0,)

    @pytest.mark.parametrize("method", ["grid", "uniform"])
    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_bandwidth_must_be_finite_and_positive(self, method, h):
        base = FunctionPredictor(BALL, f1)
        with pytest.raises(ConfigError, match="bandwidth"):
            BestSymmetricPredictor(base, SymmetrySelection(full_so3(), h, {}), method)

    @pytest.mark.parametrize("method", ["grid", "uniform"])
    def test_the_selection_is_read_where_the_predictor_is_built(self, method):
        # SymmetrySelection is mutable: a NaN bandwidth or a torus subgroup
        # assigned afterwards once reached the orbit averages unchecked
        sel = SymmetrySelection(circle3([0.0, 0.0, 1.0]), 0.3, {})
        predictor = BestSymmetricPredictor(FunctionPredictor(BALL, f2), sel, method)
        queries = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 30, substream(21, "q"))
        before = predictor.predict_coords(queries)
        sel.chosen, sel.chosen_bandwidth = full_torus(2), float("nan")
        assert np.array_equal(predictor.predict_coords(queries), before)

    @pytest.mark.parametrize("method", ["grid", "uniform"])
    def test_a_bandwidth_too_fine_for_one_row_raises(self, method):
        # at h = 1e-12 a circle takes 6e12 nodes or 1e12 grid points a row:
        # unchecked, the uniform final asked numpy for 137 TiB
        predictor = BestSymmetricPredictor(FunctionPredictor(BALL, f1),
                                           SymmetrySelection(circle3([0.0, 0.0, 1.0]), 1e-12, {}),
                                           method)
        with pytest.raises(ConfigError, match="h = 1e-12"):
            predictor.predict_coords(np.array([[0.5, 0.0, 0.0]]))

    def test_unknown_method_rejected(self):
        base = FunctionPredictor(BALL, f1)
        with pytest.raises(ConfigError, match="monte_carlo"):
            BestSymmetricPredictor(base, SymmetrySelection(full_so3(), 0.3, {}), "monte_carlo")

    @pytest.mark.parametrize("method", ["grid", "uniform"])
    @pytest.mark.parametrize("row", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.1, 0.2, -np.inf]])
    def test_non_finite_query_row_raises(self, method, row):
        base = LocalConstantEstimator(noiseless_holdout(f1, 50, 15), 0.3)
        sel = SymmetrySelection(full_so3(), 0.3, {})
        predictor = BestSymmetricPredictor(base, sel, method)
        with pytest.raises(SpaceMismatchError, match="query row 1 "):
            predictor.predict_coords(np.array([[0.1, 0.2, 0.3], row]))

    @pytest.mark.parametrize("method", ["grid", "uniform"])
    def test_off_sphere_query_row_raises(self, method):
        sphere = unit_sphere2()
        base = LocalConstantEstimator(Dataset(sphere, [[0.0, 0.0, 1.0]], [1.0]), 0.3)
        predictor = BestSymmetricPredictor(base, SymmetrySelection(full_so3(), 0.3, {}), method)
        with pytest.raises(SpaceMismatchError, match="query row 1 "):
            predictor.predict_coords(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5]]))

    @pytest.mark.parametrize("method", ["grid", "uniform"])
    def test_subgroup_must_act_on_the_base_space(self, method):
        base = LocalConstantEstimator(noiseless_holdout(f1, 50, 19), 0.3)
        sel = SymmetrySelection(full_torus(3), 0.5, {})
        with pytest.raises(IncompatibleActionError):
            BestSymmetricPredictor(base, sel, method)

    @pytest.mark.parametrize("method", ["grid", "uniform"])
    def test_query_of_the_wrong_width_raises(self, method):
        base = LocalConstantEstimator(noiseless_holdout(f1, 50, 16), 0.3)
        sel = SymmetrySelection(circle3([1.0, 0.0, 0.0]), 0.3, {})
        predictor = BestSymmetricPredictor(base, sel, method)
        with pytest.raises(SpaceMismatchError, match="width"):
            predictor.predict_coords(np.zeros((2, 2)))


class TestSplitDataset:
    def test_four_points_split_evenly_and_disjointly(self):
        X = np.array([[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0], [0.4, 0, 0]])
        data = Dataset(BALL, X, np.arange(4.0))
        a, b = split_dataset(data, substream(15))
        assert len(a) == 2 and len(b) == 2
        assert set(a.Y.tolist()).isdisjoint(b.Y.tolist())

    def test_union_recovers_the_multiset(self):
        rng = substream(16, "union")
        X = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 9, rng)
        data = Dataset(BALL, X, rng.random(9))
        a, b = split_dataset(data, rng)
        merged = sorted(np.concatenate([a.Y, b.Y]).tolist())
        assert merged == sorted(data.Y.tolist())

    def test_split_frequencies_are_balanced(self):
        n = 10
        hits = np.zeros(n)
        trials = 10_000
        X = np.zeros((n, 3))
        data = Dataset(BALL, X, np.arange(float(n)))
        for seed in range(trials):
            a, _ = split_dataset(data, substream(17, seed))
            hits[a.Y.astype(int)] += 1
        freq = hits / trials
        assert np.all(np.abs(freq - 0.5) <= 0.02)

    def test_too_small_to_split(self):
        data = Dataset(BALL, np.zeros((1, 3)), np.zeros(1))
        with pytest.raises(ConfigError):
            split_dataset(data, substream(18))


class TestReportText:
    def test_selection_serialises_to_text(self):
        # at a = 100 all five candidates tie and the full rotation group wins
        holdout = noiseless_holdout(f1, 30, 19)
        sel = global_ems(SelectionInput(holdout=holdout, cover=SMALL_COVER,
                                        fit_data=noiseless_holdout(f1, 30, 119), a=100.0))
        text = sel.to_text()
        assert text.startswith("chosen: full_so3")
        assert "per-group holdout error:" in text
        assert text.count("circle3") == 3
