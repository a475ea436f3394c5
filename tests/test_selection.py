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
from orbitreg import selection
from orbitreg.bench import SCENARIOS, generate_data
from orbitreg.subgroups import SubgroupFamily, delta_cover, fibonacci_sphere

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
        assert inp.cover == SMALL_COVER and inp.a == 1.0

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
            len(counts)) or predict_pass(base, coords, counts))
        chunked = global_ems(inp)
        assert len(passes) > len(set(whole.bandwidth_by_group.values()))  # a class was split
        assert sum(passes) == len(whole.per_group_error) * len(holdout)
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


class TestChunkedPrediction:
    @pytest.mark.parametrize("method", ["grid", "monte_carlo"])
    @pytest.mark.parametrize("budget", [1, 500, 3_000])
    def test_small_chunks_give_identical_predictions(self, method, budget, monkeypatch):
        # circle3 draws its angles with rng.random, so slicing the queries
        # does not move the draws; responses on the 1/8 lattice at n = 55
        # make every neighbour sum exact whatever the batch (see above)
        scen = SCENARIOS["so3_f2"]
        fit = generate_data(scen, 55, 0.5, substream(6, "chunk-final"))
        fit = Dataset(BALL, fit.X, np.round(8.0 * fit.Y) / 8.0)
        base = LocalConstantEstimator(fit, 0.3)
        fixed = SymmetrySelection(circle3([0.6, 0.0, 0.8]), 0.05, {})
        queries = sample_points(BALL, PointDistribution.UNIFORM_SPACE, 400, substream(6, "q"))

        def predict():
            return BestSymmetricPredictor(base, fixed, method,
                                          rng=substream(6, "mc")).predict_coords(queries)

        whole = predict()
        passes = []
        predict_pass = selection._predict_pass
        monkeypatch.setattr(selection, "CHUNK_ROWS", budget)
        monkeypatch.setattr(selection, "_predict_pass", lambda base, coords, counts: passes.append(
            len(counts)) or predict_pass(base, coords, counts))
        chunked = predict()
        assert len(passes) > 1  # the queries were split between passes
        assert sum(passes) == len(queries)
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
        mc = BestSymmetricPredictor(base, SymmetrySelection(full_so3(), sel.chosen_bandwidth, {}),
                                    method="monte_carlo", mc_draws=100,
                                    rng=substream(12)).predict_coords(x)[0]
        assert mc == pytest.approx(f1(x)[0], abs=1e-12)

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
    def test_monte_carlo_trivial_choice_is_the_base_prediction(self, scenario, monkeypatch):
        # the trivial orbit is the query itself: one draw per row, no
        # randomness consumed, and the base's own numbers bit for bit
        spec = SCENARIOS[scenario]
        fit = generate_data(spec, 300, 0.5, substream(18, scenario, "fit"))
        base = LocalConstantEstimator(fit, 0.3)
        queries = sample_points(fit.space, PointDistribution.UNIFORM_SPACE, 200,
                                substream(18, scenario, "q"))
        trivial = SymmetrySelection(trivial_subgroup(spec.parent), 0.3, {})
        rng = substream(18, "mc")
        points = []
        predict_pass = selection._predict_pass
        monkeypatch.setattr(selection, "_predict_pass", lambda base, coords, counts: points.append(
            len(coords)) or predict_pass(base, coords, counts))
        preds = BestSymmetricPredictor(base, trivial, "monte_carlo", rng=rng).predict_coords(queries)
        assert np.array_equal(preds, base.predict_coords(queries))
        assert points == [len(queries)]
        assert rng.random() == substream(18, "mc").random()

    def test_monte_carlo_needs_rng(self):
        base = FunctionPredictor(BALL, f1)
        sel = SymmetrySelection(trivial_subgroup(PARENT_SO3), 0.3, {})
        with pytest.raises(ConfigError):
            BestSymmetricPredictor(base, sel, method="monte_carlo", mc_draws=10)

    def test_monte_carlo_needs_at_least_one_draw(self):
        base = FunctionPredictor(BALL, f1)
        sel = SymmetrySelection(full_so3(), 0.3, {})
        with pytest.raises(ConfigError):
            BestSymmetricPredictor(base, sel, method="monte_carlo", mc_draws=0, rng=substream(0))

    @pytest.mark.parametrize("draws", [2.5, True, 3.0])
    def test_monte_carlo_draws_must_be_an_integer(self, draws):
        base = FunctionPredictor(BALL, f1)
        sel = SymmetrySelection(full_so3(), 0.3, {})
        with pytest.raises(ConfigError, match="integer"):
            BestSymmetricPredictor(base, sel, "monte_carlo", draws, substream(0))

    def test_monte_carlo_draws_may_be_a_numpy_integer(self):
        base = FunctionPredictor(BALL, f1)
        sel = SymmetrySelection(full_so3(), 0.3, {})
        x = np.array([[0.5, -0.2, 0.1]])
        preds = [BestSymmetricPredictor(base, sel, "monte_carlo", m, substream(0)).predict_coords(x)
                 for m in (7, np.int64(7))]
        assert preds[0] == preds[1]

    @pytest.mark.parametrize("method", ["grid", "monte_carlo"])
    @pytest.mark.parametrize("row", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.1, 0.2, -np.inf]])
    def test_non_finite_query_row_raises(self, method, row):
        base = LocalConstantEstimator(noiseless_holdout(f1, 50, 15), 0.3)
        sel = SymmetrySelection(full_so3(), 0.3, {})
        predictor = BestSymmetricPredictor(base, sel, method, 10, substream(15))
        with pytest.raises(SpaceMismatchError, match="query row 1 "):
            predictor.predict_coords(np.array([[0.1, 0.2, 0.3], row]))

    @pytest.mark.parametrize("method", ["grid", "monte_carlo"])
    def test_off_sphere_query_row_raises(self, method):
        sphere = unit_sphere2()
        base = LocalConstantEstimator(Dataset(sphere, [[0.0, 0.0, 1.0]], [1.0]), 0.3)
        predictor = BestSymmetricPredictor(base, SymmetrySelection(full_so3(), 0.3, {}),
                                           method, 10, substream(17))
        with pytest.raises(SpaceMismatchError, match="query row 1 "):
            predictor.predict_coords(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5]]))

    @pytest.mark.parametrize("method", ["grid", "monte_carlo"])
    def test_subgroup_must_act_on_the_base_space(self, method):
        base = LocalConstantEstimator(noiseless_holdout(f1, 50, 19), 0.3)
        sel = SymmetrySelection(full_torus(3), 0.5, {})
        with pytest.raises(IncompatibleActionError):
            BestSymmetricPredictor(base, sel, method, 10, substream(19))

    @pytest.mark.parametrize("method", ["grid", "monte_carlo"])
    def test_query_of_the_wrong_width_raises(self, method):
        base = LocalConstantEstimator(noiseless_holdout(f1, 50, 16), 0.3)
        sel = SymmetrySelection(circle3([1.0, 0.0, 0.0]), 0.3, {})
        predictor = BestSymmetricPredictor(base, sel, method, 10, substream(16))
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
