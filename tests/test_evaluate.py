import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirtybench import cluster
from dirtybench.classify import DecisionTreeClassifier, KNNClassifier
from dirtybench.cluster import Clustering
from dirtybench.corrupt import CorruptionSpec, derive_seed
from dirtybench.data import CATEGORICAL, Column, NUMERIC, dataset_from_rows
from dirtybench.errors import ConfigurationError, EmptyInputError, ParameterError
from dirtybench.evaluate import (
    Algorithm,
    EvalResult,
    NOISE_LABEL,
    PreparedPoint,
    cross_validate,
    evaluate_algorithm,
    evaluate_clustering,
    f_measure,
    fold_partition,
    macro_precision_recall_f,
    match_clusters,
    regression_measures,
    with_run_defaults,
)
from dirtybench.synth import make_blobs, make_linear
from oracles import match_clusters_by_scan


class TestMacroPRF:
    def test_perfect_predictions(self):
        assert macro_precision_recall_f(["a", "b", "a"], ["a", "b", "a"]) == (1.0, 1.0, 1.0)

    def test_hand_computed_mixed_case(self):
        P, R, F = macro_precision_recall_f(["A", "B", "B"], ["A", "A", "B"])
        assert P == pytest.approx(0.75)
        assert R == pytest.approx(0.75)
        assert F == pytest.approx(0.75)

    def test_single_class_predictions_balanced_truth(self):
        P, R, F = macro_precision_recall_f(["A"] * 4, ["A", "A", "B", "B"])
        assert P == pytest.approx(0.25)
        assert R == pytest.approx(0.5)
        assert F == pytest.approx(f_measure(0.25, 0.5))

    def test_empty_inputs(self):
        with pytest.raises(EmptyInputError):
            macro_precision_recall_f([], [])

    def test_f_zero_when_both_zero(self):
        assert f_measure(0.0, 0.0) == 0.0


class TestMatchClusters:
    def test_permuted_clusters_reach_full_accuracy(self):
        truth = ["a", "a", "b", "b", "c", "c"]
        for perm in itertools.permutations(range(3)):
            assign = np.array([perm[0], perm[0], perm[1], perm[1], perm[2], perm[2]])
            pred = match_clusters(Clustering(assign, 3), truth)
            assert pred == truth

    def test_single_cluster_balanced_truth(self):
        truth = ["a", "b", "a", "b"]
        pred = match_clusters(Clustering(np.zeros(4, dtype=int), 1), truth)
        P, R, F = macro_precision_recall_f(pred, truth)
        assert R == pytest.approx(0.5)

    @given(st.data())
    def test_matches_bruteforce_permutation_score(self, data):
        # small counts make equal-scoring matchings common, so the tie-break
        # is checked too; a class no cluster holds comes as a noise row
        n_c = data.draw(st.integers(1, 8))
        k = n_c if data.draw(st.booleans()) else data.draw(st.integers(0, 9))
        table = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=n_c, max_size=n_c),
                                   min_size=k, max_size=k))
        rows = [(r, c) for r in range(k) for c in range(n_c) for _ in range(table[r][c])]
        held = {c for _, c in rows}
        rows += [(cluster.NOISE, c) for c in range(n_c) if c not in held]
        rows += [(cluster.NOISE, c) for c in data.draw(st.lists(st.integers(0, n_c - 1),
                                                                max_size=3))]
        assign, truth = zip(*data.draw(st.permutations(rows)))
        truth = [f"c{c}" for c in truth]
        pred = match_clusters(Clustering(np.array(assign), k), truth)
        assert pred == match_clusters_by_scan(assign, k, truth)

    def test_permuted_ten_classes_reach_full_accuracy(self):
        # a unique best matching maps every cluster back, whatever the class count
        truth = [f"c{c}" for c in range(10) for _ in range(3)]
        perm = np.random.default_rng(5).permutation(10)
        assign = np.array([perm[c] for c in range(10) for _ in range(3)])
        pred = match_clusters(Clustering(assign, 10), truth)
        assert pred == truth

    def test_noise_rows_never_match(self):
        truth = ["a", "a", "b"]
        pred = match_clusters(Clustering(np.array([0, -1, 1]), 2), truth)
        assert pred[1] is NOISE_LABEL
        assert pred[1] not in truth


class TestRegressionMeasures:
    def test_perfect_predictions(self):
        m = regression_measures([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (m.rmsd, m.nrmsd, m.cv_rmsd) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        m = regression_measures([4.0, 5.0, 6.0], [1.0, 2.0, 3.0])
        assert m.rmsd == pytest.approx(3.0)

    def test_hand_computed_example(self):
        m = regression_measures([1.0, 3.0], [1.0, 1.0])
        root2 = np.sqrt(2.0)
        assert m.rmsd == pytest.approx(root2, abs=1e-12)
        assert m.nrmsd == pytest.approx(root2 / 2, abs=1e-12)
        assert m.cv_rmsd == pytest.approx(root2 / 2, abs=1e-12)

    def test_undefined_denominators_flagged(self):
        flat = regression_measures([2.0, 2.0], [1.0, 3.0])
        assert flat.nrmsd is None and "nrmsd-undefined" in flat.flags
        zero_mean = regression_measures([-1.0, 1.0], [0.0, 0.0])
        assert zero_mean.cv_rmsd is None and "cv-undefined" in zero_mean.flags

    def test_rmsd_shift_invariant_cv_not(self):
        pred = np.array([1.0, 2.0, 4.0])
        truth = np.array([1.5, 2.5, 3.0])
        base = regression_measures(pred, truth)
        shifted = regression_measures(pred + 5.0, truth + 5.0)
        assert shifted.rmsd == pytest.approx(base.rmsd, abs=1e-12)
        assert shifted.cv_rmsd != pytest.approx(base.cv_rmsd)

    def test_nrmsd_normalizes_by_predicted_range(self):
        pred = [0.0, 10.0]
        truth = [0.0, 2.0]  # truth range 2, predicted range 10
        m = regression_measures(pred, truth)
        assert m.nrmsd == pytest.approx(m.rmsd / 10.0)


class TestFoldPartition:
    def test_disjoint_cover(self):
        rng = np.random.default_rng(0)
        parts = fold_partition(25, 10, rng)
        seen = np.concatenate(parts)
        assert sorted(seen) == list(range(25))
        sizes = sorted(len(p) for p in parts)
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            fold_partition(10, 1, rng)
        with pytest.raises(ParameterError):
            fold_partition(3, 5, rng)


class TestCrossValidate:
    def test_rate_zero_equals_manual_folds(self):
        d = make_blobs(24, n_classes=2, seed=1)
        algo = Algorithm("knn", {"k": 1})
        result = cross_validate(PreparedPoint(d), algo, folds=2, seed=5, timing_repeats=1)
        parts = fold_partition(24, 2, np.random.default_rng(derive_seed(5, "folds")))
        t = d.schema.target_index
        vals = {"precision": [], "recall": []}
        for f, test in enumerate(parts):
            train = np.concatenate([p for g, p in enumerate(parts) if g != f])
            model = KNNClassifier(k=1).fit(d, train)
            pred = model.predict_rows(d, test)
            truth = [d.clean_shadow[i][t] for i in test]
            P, R, F = macro_precision_recall_f(pred, truth)
            vals["precision"].append(P)
            vals["recall"].append(R)
        assert result.measures["precision"] == pytest.approx(np.mean(vals["precision"]))
        assert result.measures["recall"] == pytest.approx(np.mean(vals["recall"]))

    def test_determinism(self):
        d = make_blobs(30, n_classes=2, seed=2)
        spec = CorruptionSpec(error_type="missing", rate=0.2, seed=9)
        algo = Algorithm("decision_tree")
        a = cross_validate(PreparedPoint(d, spec), algo, folds=3, seed=4, timing_repeats=1)
        b = cross_validate(PreparedPoint(d, spec), algo, folds=3, seed=4, timing_repeats=1)
        assert a.measures == b.measures
        assert a.fold_values == b.fold_values

    def test_two_fold_partition_sizes_on_four_rows(self):
        cols = [Column("x", NUMERIC), Column("label", CATEGORICAL, "target")]
        d = dataset_from_rows(cols, [[0.0, "a"], [1.0, "a"], [10.0, "b"], [11.0, "b"]])
        result = cross_validate(PreparedPoint(d), Algorithm("knn", {"k": 1}), folds=2,
                                seed=0, timing_repeats=1)
        assert all(len(v) == 2 for v in result.fold_values.values())

    def test_f_is_harmonic_mean_of_aggregates(self):
        d = make_blobs(40, n_classes=3, seed=3)
        spec = CorruptionSpec(error_type="missing", rate=0.3, seed=1)
        result = cross_validate(PreparedPoint(d, spec), Algorithm("naive_bayes"), folds=4,
                                seed=2, timing_repeats=1)
        P, R, F = (result.measures[m] for m in ("precision", "recall", "f_measure"))
        assert F == pytest.approx(f_measure(P, R), abs=1e-12)

    def test_regression_path(self):
        d = make_linear(40, seed=4)
        result = cross_validate(PreparedPoint(d), Algorithm("least_squares"), folds=4, seed=1,
                                timing_repeats=1)
        assert result.measures["rmsd"] is not None
        assert result.measures["rmsd"] < 1.0
        assert result.task == "regression"

    def test_one_pass_per_point_unless_more_repeats(self, monkeypatch):
        fit = DecisionTreeClassifier.fit
        calls = []

        def counted_fit(model, *args):
            calls.append(1)
            return fit(model, *args)

        monkeypatch.setattr(DecisionTreeClassifier, "fit", counted_fit)
        d = make_blobs(30, n_classes=2, seed=2)
        spec = CorruptionSpec(error_type="missing", rate=0.2, seed=9)
        algo = Algorithm("decision_tree")
        once = cross_validate(PreparedPoint(d, spec), algo, folds=3, seed=4)
        assert len(calls) == 3
        thrice = cross_validate(PreparedPoint(d, spec), algo, folds=3, seed=4,
                                timing_repeats=3)
        assert len(calls) == 3 + 3 * 3
        assert thrice.measures == once.measures
        assert thrice.fold_values == once.fold_values and thrice.flags == once.flags

    def test_result_is_labelled_by_the_point_it_measured(self):
        """Name, error type and rate come from the point whose table was
        measured, and a spec at rate 0 is the clean point."""
        d = make_blobs(60, seed=0)
        spec = CorruptionSpec(error_type="missing", rate=0.5, seed=3)
        knn = Algorithm("knn")
        dirty = cross_validate(PreparedPoint(d, spec, "blobs"), knn, folds=5)
        assert (dirty.dataset, dirty.error_type, dirty.rate) == ("blobs", "missing", 0.5)
        zero = PreparedPoint(d, replace(spec, rate=0.0))
        assert zero.spec is None
        clean = cross_validate(zero, knn, folds=5)
        assert (clean.dataset, clean.error_type, clean.rate) == (d.source, None, 0.0)
        assert clean.measures == cross_validate(PreparedPoint(d), knn, folds=5).measures
        assert clean.measures != dirty.measures

    def test_clustering_rejected(self):
        d = make_blobs(20, seed=0)
        with pytest.raises(ConfigurationError):
            cross_validate(PreparedPoint(d), Algorithm("kmeans"))

    def test_ledger_row_shape(self):
        d = make_blobs(20, n_classes=2, seed=1)
        result = evaluate_algorithm(PreparedPoint(d), Algorithm("knn", {"k": 3}), folds=2,
                                    seed=0, timing_repeats=1)
        row = result.ledger_row()
        assert row["dataset"] == d.source
        assert row["algorithm"] == "knn"
        assert row["rmsd"] == ""


class TestEvaluateClustering:
    def test_clean_blobs_score_high(self):
        d = make_blobs(60, n_classes=3, seed=6, spread=0.3)
        result = evaluate_clustering(PreparedPoint(d), Algorithm("kmeans"), seed=1,
                                     timing_repeats=1)
        assert result.measures["precision"] > 0.9
        assert result.task == "clustering"

    def test_dbscan_eps_frozen_from_clean_data(self):
        d = make_blobs(50, n_classes=2, seed=7, spread=0.3)
        spec = CorruptionSpec(error_type="missing", rate=0.3, seed=3)
        result = evaluate_clustering(PreparedPoint(d, spec), Algorithm("dbscan"), seed=0,
                                     timing_repeats=1)
        assert set(result.measures) == {"precision", "recall", "f_measure"}

    def test_dbscan_radius_reads_the_run_min_pts(self, iris):
        """The k-dist heuristic takes the min_pts-th neighbour (Ester et al.,
        KDD 1996): 12 neighbours on iris give a wider radius than the 4 of
        the default."""
        eps = with_run_defaults(Algorithm("dbscan", {"min_pts": 12}), iris, 0).params["eps"]
        assert eps == cluster.dbscan_default_eps(iris, min_pts=12)
        assert eps == pytest.approx(0.2731, abs=1e-4)
        default = with_run_defaults(Algorithm("dbscan"), iris, 0).params["eps"]
        assert default == pytest.approx(0.1816, abs=1e-4)

    def test_one_pass_per_point_unless_more_repeats(self, monkeypatch):
        kmeans = cluster.kmeans
        calls = []

        def counted_kmeans(*args, **kwargs):
            calls.append(1)
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(cluster, "kmeans", counted_kmeans)
        d = make_blobs(40, n_classes=2, seed=8)
        once = evaluate_clustering(PreparedPoint(d), Algorithm("kmeans"), seed=3)
        assert len(calls) == 1
        thrice = evaluate_clustering(PreparedPoint(d), Algorithm("kmeans"), seed=3,
                                     timing_repeats=3)
        assert len(calls) == 1 + 3
        assert thrice.measures == once.measures and thrice.fold_values == once.fold_values

    def test_determinism(self):
        d = make_blobs(40, n_classes=2, seed=8)
        a = evaluate_clustering(PreparedPoint(d), Algorithm("cure"), seed=3, timing_repeats=1)
        b = evaluate_clustering(PreparedPoint(d), Algorithm("cure"), seed=3, timing_repeats=1)
        assert a.measures == b.measures
