import functools
import inspect
import json
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dirtybench import cluster, evaluate, robustness
from dirtybench.cluster import dbscan_default_eps
from dirtybench.config import DatasetConfig, RunConfig
from dirtybench.corrupt import ERROR_TYPES, derive_seed, inject
from dirtybench.data import (
    CATEGORICAL,
    KEY,
    NUMERIC,
    TARGET,
    Column,
    FDRule,
    dataset_from_rows,
    detect_error_rates,
    load_dataset,
)
from dirtybench.evaluate import (
    Algorithm,
    CLASSIFIER_TYPES,
    LEARNERS,
    PRF_MEASURES,
    PreparedPoint,
    REGRESSION_MEASURES,
    REGRESSOR_FITTERS,
    TASKS,
    evaluate_algorithm,
    learner_of,
    task_of,
    with_run_defaults,
)
from dirtybench.errors import ConfigurationError, ParameterError
from dirtybench.robustness import (
    Guideline,
    MetricSeries,
    RateGrid,
    RobustnessReport,
    SweepDataset,
    keeping_point,
    recommend,
    run_sweep,
    sensibility,
)
from dirtybench.synth import make_blobs, make_linear

PCT_RATES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)

# precision-by-missing-rate traces for five benchmark runs of one tree model
TRACES = {
    "iris": (78.37, 84.16, 78.08, 74.36, 64.99, 58.71),
    "ecoli": (63.47, 62.93, 53.97, 50.93, 48.07, 34.5),
    "car": (81.33, 60.93, 43.7, 42.87, 40.47, 35.47),
    "chess": (82.17, 78.17, 76.53, 75.77, 75.9, 75.57),
    "adult": (80.5, 75.27, 71.3, 72.93, 71.53, 67.23),
}
EXPECTED_SENSIBILITY = {
    "iris": 31.24, "ecoli": 28.97, "car": 45.86, "chess": 6.86, "adult": 16.53,
}
EXPECTED_KEEPING_POINT = {
    "iris": 30.0, "ecoli": 20.0, "car": 0.0, "chess": 50.0, "adult": 40.0,
}


def pct_series(values):
    return MetricSeries(PCT_RATES, tuple(values), direction="higher")


@st.composite
def curves(draw, values=st.floats(-100.0, 100.0)):
    """A measure curve along a random rate grid, in either direction."""
    count = draw(st.integers(1, 10))
    rates = RateGrid(step=draw(st.sampled_from((0.02, 0.05, 0.1))), count=count).rates()
    return MetricSeries(rates, tuple(draw(st.lists(values, min_size=count + 1,
                                                   max_size=count + 1))),
                        direction=draw(st.sampled_from(("higher", "lower"))))


class TestSensibility:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_golden_traces(self, name):
        assert sensibility(pct_series(TRACES[name])) == pytest.approx(
            EXPECTED_SENSIBILITY[name], abs=0.005
        )

    def test_five_run_average(self):
        mean = np.mean([sensibility(pct_series(t)) for t in TRACES.values()])
        assert mean == pytest.approx(25.89, abs=0.005)

    def test_constant_series_is_zero(self):
        assert sensibility(pct_series([50.0] * 6)) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ParameterError):
            sensibility(MetricSeries((0.0,), (1.0,)))

    @given(curves(), st.floats(-100.0, 100.0))
    def test_non_negative_and_zero_on_a_constant_curve(self, series, level):
        assert sensibility(series) >= 0.0
        flat = MetricSeries(series.rates, (level,) * len(series.rates), series.direction)
        assert sensibility(flat) == 0.0

    def test_lower_bounded_by_endpoint_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = tuple(rng.uniform(0, 100, size=6))
            s = pct_series(values)
            assert sensibility(s) >= abs(values[0] - values[-1]) - 1e-12
        monotone = pct_series(sorted(rng.uniform(0, 100, size=6), reverse=True))
        assert sensibility(monotone) == pytest.approx(
            abs(monotone.values[0] - monotone.values[-1])
        )

    def test_invariant_under_reversal_and_shift(self):
        rng = np.random.default_rng(1)
        values = tuple(rng.uniform(0, 100, size=6))
        s = sensibility(pct_series(values))
        assert sensibility(pct_series(values[::-1])) == pytest.approx(s)
        assert sensibility(pct_series(tuple(v + 13.5 for v in values))) == pytest.approx(s)


class TestKeepingPoint:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_golden_traces_at_k10(self, name):
        assert keeping_point(pct_series(TRACES[name]), k=10.0) == pytest.approx(
            EXPECTED_KEEPING_POINT[name]
        )

    def test_five_run_average(self):
        mean = np.mean([keeping_point(pct_series(t), 10.0) for t in TRACES.values()])
        assert mean == pytest.approx(28.0)

    def test_monotone_in_k(self):
        series = pct_series(TRACES["iris"])
        points = [keeping_point(series, k) for k in (1.0, 5.0, 10.0, 20.0, 100.0)]
        assert points == sorted(points)

    def test_always_on_grid_and_max_at_huge_k(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            series = pct_series(rng.uniform(0, 100, size=6))
            kp = keeping_point(series, k=float(rng.uniform(0.5, 40)))
            assert kp in PCT_RATES
        assert keeping_point(series, k=1e9) == 50.0

    @given(curves(), st.floats(1e-6, 100.0), st.floats(0.0, 100.0))
    def test_a_grid_rate_that_does_not_fall_as_k_grows(self, series, k, more):
        kp = keeping_point(series, k)
        assert kp in series.rates
        assert keeping_point(series, k + more) >= kp

    @given(curves(values=st.floats(0.0, 100.0)), st.floats(1e-6, 100.0))
    def test_last_rate_when_the_curve_never_degrades(self, series, k):
        """Every value at least as good as the baseline: the curve never
        moves away from it in the degrading direction."""
        sign = 1.0 if series.direction == "higher" else -1.0
        values = (0.0,) + tuple(sign * v for v in series.values[1:])
        steady = MetricSeries(series.rates, values, series.direction)
        assert keeping_point(steady, k) == series.rates[-1]

    def test_lower_better_direction(self):
        series = MetricSeries(PCT_RATES, (1.0, 1.05, 1.08, 1.3, 1.5, 2.0), direction="lower")
        assert keeping_point(series, k=0.1) == 20.0

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            keeping_point(pct_series(TRACES["iris"]), k=0.0)


class TestMetricSeries:
    def test_requires_uniform_ascending(self):
        with pytest.raises(ParameterError):
            MetricSeries((0.0, 0.1, 0.3), (1.0, 2.0, 3.0))
        with pytest.raises(ParameterError):
            MetricSeries((0.0, 0.2, 0.1), (1.0, 2.0, 3.0))

    def test_rate_grid_rates(self):
        grid = RateGrid(start=0.0, step=0.1, count=5)
        assert grid.rates() == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        assert RateGrid(count=0).rates() == (0.0,)

    def test_rate_grid_validation(self):
        with pytest.raises(ParameterError):
            RateGrid(start=0.0, step=0.2, count=10)  # exceeds 1.0
        with pytest.raises(ParameterError):
            RateGrid(count=-1)


def trace_values(traces_by_measure):
    """Preset evaluator entry: each measure's trace on the fraction grid."""
    return {
        measure: {rate / 100.0: v for rate, v in zip(PCT_RATES, trace)}
        for measure, trace in traces_by_measure.items()
    }


class TestRunSweep:
    def fraction_grid(self):
        return RateGrid(start=0.0, step=0.10, count=5)

    def test_scripted_sweep_reproduces_golden_numbers(self, monkeypatch, scripted_evaluator):
        # sweep each benchmark trace through a scripted evaluator, one per dataset
        entries = []
        for name in sorted(TRACES):
            trace = {m: TRACES[name] for m in ("precision", "recall", "f_measure")}
            monkeypatch.setattr(robustness, "evaluate_algorithm",
                                scripted_evaluator({"decision_tree": trace_values(trace)}))
            ds = SweepDataset(name, make_blobs(20, seed=5), "classification")
            report = run_sweep([ds], [Algorithm("decision_tree")], ("missing",),
                               self.fraction_grid(), seed=3, k_classification=10.0,
                               timing_repeats=1)
            entries.append(report.entry(name, "decision_tree", "missing", "precision"))
        sens = [e.sensibility for e in entries]
        kps = [e.keeping_point for e in entries]
        assert np.mean(sens) == pytest.approx(25.89, abs=0.005)
        # keeping points on the fraction grid: 0.30/0.20/0.0/0.50/0.40
        assert np.mean(kps) == pytest.approx(0.28, abs=1e-9)

    def test_single_dataset_summary_values(self, monkeypatch, scripted_evaluator):
        trace = {m: TRACES["iris"] for m in ("precision", "recall", "f_measure")}
        monkeypatch.setattr(robustness, "evaluate_algorithm",
                            scripted_evaluator({"decision_tree": trace_values(trace)}))
        report = run_sweep(
            [SweepDataset("iris", make_blobs(20, seed=5), "classification")],
            [Algorithm("decision_tree")],
            ("missing",), self.fraction_grid(), seed=1,
            k_classification=10.0, timing_repeats=1,
        )
        s = report.summary("decision_tree", "missing", "precision")
        assert s.mean_sensibility == pytest.approx(31.24, abs=0.005)
        assert s.mean_keeping_point == pytest.approx(0.30)

    def test_duplicate_names_rejected(self):
        # same-named runs would share one series and one set of ledger keys
        ds = SweepDataset("blobs", make_blobs(20, n_classes=2, seed=1), "classification")
        grid = RateGrid(start=0.0, step=0.3, count=1)
        with pytest.raises(ConfigurationError, match="algorithm names"):
            run_sweep([ds], [Algorithm("knn", {"k": 1}), Algorithm("knn", {"k": 9})],
                      ("missing",), grid, folds=2, timing_repeats=1)
        with pytest.raises(ConfigurationError, match="dataset names"):
            run_sweep([ds, ds], [Algorithm("knn", {"k": 1})], ("missing",), grid,
                      folds=2, timing_repeats=1)

    def test_degenerate_grid_flags(self):
        ds = SweepDataset("blobs", make_blobs(20, n_classes=2, seed=1), "classification")
        report = run_sweep([ds], [Algorithm("knn", {"k": 1})], ("missing",),
                           RateGrid(count=0), seed=0, folds=2, timing_repeats=1)
        entry = report.entry("blobs", "knn", "missing", "precision")
        assert entry.sensibility is None
        assert "degenerate-grid" in entry.flags

    def test_determinism_and_real_degradation(self):
        ds = SweepDataset("blobs", make_blobs(40, n_classes=2, seed=2), "classification")
        grid = RateGrid(start=0.0, step=0.25, count=2)
        kwargs = dict(error_types=("missing",), grid=grid, seed=7, folds=4,
                      timing_repeats=1)
        r1 = run_sweep([ds], [Algorithm("decision_tree")], **kwargs)
        r2 = run_sweep([ds], [Algorithm("decision_tree")], **kwargs)
        e1 = r1.entry("blobs", "decision_tree", "missing", "f_measure")
        e2 = r2.entry("blobs", "decision_tree", "missing", "f_measure")
        assert e1.values == e2.values

    def test_failed_combination_recorded_not_fatal(self, monkeypatch, scripted_evaluator):
        # point by point: knn then the tree at rate 0 (calls 0, 1), then at
        # 0.5 (calls 2, 3); knn fails at both rates
        tree = {"precision": {0.0: 0.9, 0.5: 0.6}}
        monkeypatch.setattr(robustness, "evaluate_algorithm",
                            scripted_evaluator({"decision_tree": tree}, fail_calls={0, 2}))
        ds = SweepDataset("blobs3", make_blobs(30, n_classes=3, seed=3), "classification")
        report = run_sweep(
            [ds],
            [Algorithm("knn"), Algorithm("decision_tree")],
            ("missing",), RateGrid(start=0.0, step=0.5, count=1),
            seed=0, folds=3, timing_repeats=1,
        )
        assert len(report.errors) == 2
        entry = report.entry("blobs3", "knn", "missing", "precision")
        assert entry.sensibility is None and "incomplete-series" in entry.flags
        assert report.entry("blobs3", "decision_tree", "missing",
                            "precision").sensibility is not None

    def test_dbscan_eps_frozen_once_per_dataset(self, monkeypatch):
        calls = []

        def counting_eps(d):
            calls.append(d)
            return dbscan_default_eps(d)

        monkeypatch.setattr(cluster, "dbscan_default_eps", counting_eps)
        ds = SweepDataset("blobs", make_blobs(40, n_classes=2, seed=2), "clustering")
        grid = RateGrid(start=0.0, step=0.25, count=2)
        report = run_sweep([ds], [Algorithm("dbscan")], ("missing",), grid,
                           seed=4, timing_repeats=1)
        assert calls == [ds.dataset]
        # each point evaluated alone recomputes the same radius
        for rate, result in zip(grid.rates(), report.results):
            spec = robustness.corruption_spec(ds, "missing", rate, 4) if rate else None
            alone = evaluate_algorithm(PreparedPoint(ds.dataset, spec), Algorithm("dbscan"),
                                       seed=derive_seed(4, "blobs"), timing_repeats=1)
            assert alone.measures == result.measures
        assert len(calls) == 1 + len(grid.rates())

    @pytest.mark.parametrize("name", ["kmeans", "clarans", "cure", "lvq", "birch",
                                      "random_forest"])
    def test_derived_params_match_each_point_alone(self, monkeypatch, name):
        """The k and seed a sweep derives once per (dataset, algorithm) pair
        reach the learner as they do when each point is evaluated alone."""
        seen = []
        if name in CLASSIFIER_TYPES:
            class Recorded(CLASSIFIER_TYPES[name]):
                def fit(self, *args):
                    seen.append({"seed": self.seed})
                    return super().fit(*args)

            monkeypatch.setitem(CLASSIFIER_TYPES, name, Recorded)
            task, params = "classification", {"n_trees": 3}
        else:
            learner = getattr(cluster, name)

            @functools.wraps(learner)  # the run reads its defaults from the signature
            def recorded(*args, **kwargs):
                seen.append(kwargs)
                return learner(*args, **kwargs)

            monkeypatch.setattr(cluster, name, recorded)
            task, params = "clustering", {}
        ds = SweepDataset("blobs", make_blobs(40, n_classes=3, seed=2), task)
        grid = RateGrid(start=0.0, step=0.25, count=2)
        report = run_sweep([ds], [Algorithm(name, params)], ("missing",), grid,
                           seed=4, folds=3)
        in_sweep = list(seen)
        seen.clear()
        assert len(report.results) == len(grid.rates())
        for rate, result in zip(grid.rates(), report.results):
            spec = robustness.corruption_spec(ds, "missing", rate, 4) if rate else None
            alone = evaluate_algorithm(PreparedPoint(ds.dataset, spec), Algorithm(name, params),
                                       folds=3, seed=derive_seed(4, "blobs"))
            assert alone.measures == result.measures
        assert in_sweep == seen
        derived_seed = derive_seed(derive_seed(4, "blobs"), "algo", name)
        if name != "birch":
            assert {kwargs["seed"] for kwargs in seen} == {derived_seed}
        if name not in ("lvq", "random_forest"):
            assert {kwargs["k"] for kwargs in seen} == {3}

    def test_points_run_the_pairs_the_preflight_resolved(self, monkeypatch,
                                                           scripted_evaluator):
        """Every point evaluates a pair's algorithm exactly as ``check_sweep``
        returned it, and each DBSCAN pair's radius is frozen once a sweep."""
        frozen = []

        def counting_eps(d, **kwargs):
            frozen.append(d)
            return dbscan_default_eps(d, **kwargs)

        monkeypatch.setattr(cluster, "dbscan_default_eps", counting_eps)
        evaluator = scripted_evaluator({})
        monkeypatch.setattr(robustness, "evaluate_algorithm", evaluator)
        datasets = [SweepDataset(name, make_blobs(30, n_classes=3, seed=s), "clustering")
                    for s, name in enumerate(("a", "b"))]
        algorithms = [Algorithm("kmeans"), Algorithm("dbscan", {"min_pts": 3}),
                      Algorithm("cure", {"sample_frac": 0.5}), Algorithm("lvq")]
        grid = RateGrid(start=0.0, step=0.25, count=2)
        pairs = robustness.check_sweep(datasets, algorithms, ("missing",), grid,
                                       0.1, 0.1, folds=10, seed=7)
        assert frozen == [ds.dataset for ds in datasets]
        assert all(a.params["eps"] > 0 for _, a in pairs if a.name == "dbscan")
        frozen.clear()
        run_sweep(datasets, algorithms, ("missing",), grid, seed=7)
        assert frozen == [ds.dataset for ds in datasets]
        assert evaluator.algorithms == [a for ds in datasets for _ in grid.rates()
                                        for d, a in pairs if d is ds]

    def test_learner_table(self):
        """Each learner's task is the home ``learner_of`` reads it from, each
        rule names only parameters of its learner (``check_sweep`` passes it
        their bound values), and the run derives a seed, a class-count ``k``
        and DBSCAN's radius for exactly these learners."""
        for task, home in (("classification", CLASSIFIER_TYPES),
                           ("regression", REGRESSOR_FITTERS)):
            assert {n for n, (t, *_) in LEARNERS.items() if t == task} == set(home)
        for name, (task, *rules) in LEARNERS.items():
            assert task in TASKS
            learner = learner_of(name)
            assert learner is (CLASSIFIER_TYPES.get(name) or REGRESSOR_FITTERS.get(name)
                               or getattr(cluster, name))
            parameters = inspect.signature(learner).parameters
            for rule in rules:
                assert set(inspect.signature(rule).parameters) <= set(parameters), name
        clean = make_blobs(30, n_classes=3, seed=0)
        derived = {name: set(with_run_defaults(Algorithm(name), clean, 0).params)
                   for name in LEARNERS}
        assert {n for n, ps in derived.items() if "seed" in ps} == {
            "random_forest", "kmeans", "lvq", "clarans", "cure"}
        assert {n for n, ps in derived.items() if "k" in ps} == {
            "kmeans", "clarans", "birch", "cure"}
        assert {n for n, ps in derived.items() if "eps" in ps} == {"dbscan"}
        assert set().union(*derived.values()) == {"seed", "k", "eps"}

    def test_missing_sweep_of_values_summing_past_the_largest_double(self):
        """The column's mean is imputed without overflowing to inf, which
        failed every corrupted point of these learners."""
        cols = [Column("x", NUMERIC), Column("y", NUMERIC), Column("label", CATEGORICAL, TARGET)]
        table = dataset_from_rows(
            cols, [[1.2e308 - i * 1e300, float(i % 7), "ab"[i % 2]] for i in range(60)])
        datasets = [SweepDataset("big", table, "classification"),
                    SweepDataset("big_groups", table, "clustering")]
        algorithms = [Algorithm(name) for name in ("knn", "naive_bayes", "dbscan", "kmeans")]
        report = run_sweep(datasets, algorithms, ("missing",),
                           RateGrid(start=0.0, step=0.25, count=1), folds=3, jobs=1)
        assert not report.errors
        assert len(report.results) == 2 * 4

    def test_grid_must_start_at_zero(self):
        ds = SweepDataset("blobs", make_blobs(20, seed=0), "classification")
        with pytest.raises(ConfigurationError):
            run_sweep([ds], [Algorithm("knn")], ("missing",),
                      RateGrid(start=0.1, step=0.1, count=2))

    def test_zero_k_rejected_before_any_point(self, monkeypatch, scripted_evaluator):
        evaluator = scripted_evaluator({})
        monkeypatch.setattr(robustness, "evaluate_algorithm", evaluator)
        ds = SweepDataset("blobs", make_blobs(20, seed=0), "classification")
        with pytest.raises(ConfigurationError, match="must be positive"):
            run_sweep([ds], [Algorithm("knn")], ("missing",),
                      RateGrid(start=0.0, step=0.1, count=2), k_classification=0, jobs=1)
        assert evaluator.calls == 0

    @pytest.mark.parametrize("task, name, most", [
        ("classification", "knn", 18),  # 23 rows in 5 folds: the largest test fold has 5
        ("clustering", "kmeans", 23), ("clustering", "clarans", 23),
        ("clustering", "birch", 23),
        ("clustering", "cure", 6),  # its sample: round(0.25 * 23) rows
    ])
    def test_k_above_the_rows_read_rejected(self, task, name, most):
        """knn reads a training fold, cure a sample of the clean table, any
        other clusterer the whole clean table, and corruption never removes
        rows: one k more fails every point."""
        ds = SweepDataset("blobs", make_blobs(23, seed=0), task)

        def check(k):
            robustness.check_sweep([ds], [Algorithm(name, {"k": k})], ("missing",),
                                   RateGrid(), 0.1, 0.1, folds=5)

        check(most)
        with pytest.raises(ConfigurationError, match=f"algorithm '{name}' has k={most + 1}, "
                                                     f"dataset 'blobs' has {most} rows"):
            check(most + 1)

    def test_empty_error_types_rejected(self):
        ds = SweepDataset("blobs", make_blobs(20, seed=0), "classification")
        with pytest.raises(ConfigurationError, match="no error types"):
            run_sweep([ds], [Algorithm("knn")], (), RateGrid(start=0.0, step=0.1, count=2))

    def test_regression_sweep_produces_lower_better_series(self):
        ds = SweepDataset("lin", make_linear(60, seed=4), "regression")
        report = run_sweep([ds], [Algorithm("least_squares")], ("missing",),
                           RateGrid(start=0.0, step=0.25, count=2), seed=2,
                           folds=3, timing_repeats=1)
        entry = report.entry("lin", "least_squares", "missing", "rmsd")
        assert entry.direction == "lower"

    def test_report_json_round_trip(self):
        ds = SweepDataset("blobs", make_blobs(24, n_classes=2, seed=6), "classification")
        report = run_sweep([ds], [Algorithm("knn", {"k": 1})], ("missing",),
                           RateGrid(start=0.0, step=0.25, count=2), seed=1,
                           folds=3, timing_repeats=1)
        back = RobustnessReport.from_json_dict(report.to_json_dict())
        e0 = report.entry("blobs", "knn", "missing", "precision")
        e1 = back.entry("blobs", "knn", "missing", "precision")
        assert e0.values == e1.values
        assert e0.sensibility == e1.sensibility

    def test_report_json_round_trip_keeps_the_ledger(self, monkeypatch, scripted_evaluator):
        trace = trace_values({"precision": TRACES["iris"], "recall": TRACES["car"]})
        monkeypatch.setattr(robustness, "evaluate_algorithm",
                            scripted_evaluator({"decision_tree": trace}, fail_calls={2}))
        ds = SweepDataset("iris", make_blobs(20, seed=5), "classification")
        report = run_sweep([ds], [Algorithm("decision_tree")], ("missing",),
                           self.fraction_grid(), seed=3, timing_repeats=1)
        data = report.to_json_dict()
        data["results"][1]["flags"] = "fold0:a;fold1:b"
        assert report.errors and len(data["results"]) == 5
        assert data["results"][0]["f_measure"] == ""  # absent from the preset table
        back = RobustnessReport.from_json_dict(data)
        assert len(back.results) == 5
        assert back.results[0].error_type is None and back.results[0].measures["f_measure"] is None
        assert back.results[1].flags == ("fold0:a", "fold1:b")
        assert back.to_json_dict() == data

    def test_parallel_jobs_match_serial(self):
        """The whole report, but for the timings, is the same at 1 and 2
        workers, on a sweep of all three tasks and two error types."""
        datasets = [
            SweepDataset("blobs", keyed(make_blobs(24, n_classes=2, seed=6)), "classification"),
            SweepDataset("blobs_c", keyed(make_blobs(24, n_classes=2, seed=6)), "clustering"),
            SweepDataset("linear", keyed(make_linear(24, seed=6)), "regression"),
        ]
        algorithms = [Algorithm("knn", {"k": 1}), Algorithm("decision_tree"),
                      Algorithm("kmeans"), Algorithm("dbscan"), Algorithm("least_squares")]
        args = (datasets, algorithms, ("missing", "conflicting"),
                RateGrid(start=0.0, step=0.25, count=2))
        kwargs = dict(seed=1, folds=3, timing_repeats=1)
        serial = run_sweep(*args, **kwargs, jobs=1)
        parallel = run_sweep(*args, **kwargs, jobs=2)
        assert len(serial.results) == 5 * 2 * 3 and not serial.errors
        assert untimed(serial.to_json_dict()) == untimed(parallel.to_json_dict())

    def test_pool_tasks_carry_keys_not_tables(self, monkeypatch):
        """Counted as the benchmark counts them, every pool task of a
        2000-row sweep pickles to under 1 KB: the datasets reach each worker
        once, when it starts."""
        sizes = []

        class CountingPool(robustness.ProcessPoolExecutor):
            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                sizes.extend(len(pickle.dumps((fn, t))) for t in tasks)
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(robustness, "ProcessPoolExecutor", CountingPool)
        ds = SweepDataset("blobs", make_blobs(2000, n_classes=2, seed=1), "classification")
        report = run_sweep([ds], [Algorithm("naive_bayes"), Algorithm("knn")], ("missing",),
                           RateGrid(start=0.0, step=0.5, count=1), seed=2, folds=2, jobs=2)
        assert len(report.results) == 4 and not report.errors
        assert len(sizes) == 2 and max(sizes) < 1024

    def test_failed_injection_fails_every_algorithm_at_its_point(self, monkeypatch):
        """A point is prepared once for all its algorithms; when its
        injection raises, each of them records that error, and the other
        points still run."""
        calls = []

        def failing_inject(dataset, spec):
            calls.append(spec.rate)
            if spec.rate == 0.5:
                raise ParameterError("injection failed at 0.5")
            return inject(dataset, spec)

        monkeypatch.setattr(evaluate, "inject", failing_inject)
        ds = SweepDataset("blobs", make_blobs(30, n_classes=2, seed=3), "classification")
        algorithms = [Algorithm("knn"), Algorithm("naive_bayes"), Algorithm("decision_tree")]
        report = run_sweep([ds], algorithms, ("missing",),
                           RateGrid(start=0.0, step=0.25, count=2), seed=0, folds=3)
        assert calls == [0.25, 0.5]
        assert [(e["algorithm"], e["rate"], e["message"]) for e in report.errors] == [
            (a.name, 0.5, "ParameterError: injection failed at 0.5") for a in algorithms]
        assert [(r.algorithm, r.rate) for r in report.results] == [
            (a.name, rate) for a in algorithms for rate in (0.0, 0.25)]


def keyed(data):
    """``data`` with a unique ``id`` key column in front, so that it can
    take conflicting duplicates."""
    columns = (Column("id", CATEGORICAL, KEY),) + data.schema.columns
    return dataset_from_rows(columns, [[f"r{i}", *row] for i, row in enumerate(data.rows)])


def untimed(report_json: dict) -> dict:
    """A report's JSON with every result's time masked."""
    return {**report_json, "results": [{**row, "time_log10_ms": None}
                                       for row in report_json["results"]]}


@pytest.fixture(scope="module")
def three_type_sweep(iris_path):
    """Real classifiers and clusterers swept over all three error types on
    iris with a generated unique ``id`` key and the FD ``id -> petal_width``,
    which holds on the clean table; with every evaluator call recorded as
    (dataset, algorithm, rate)."""
    iris = keyed(load_dataset(iris_path, target="species"))
    rules = (FDRule(("id",), "petal_width"),)
    datasets = [SweepDataset(name, iris, task, rules=rules, entity_key=("id",))
                for name, task in (("iris", "classification"), ("iris_c", "clustering"))]
    algorithms = [Algorithm(name) for name in
                  ("knn", "naive_bayes", "decision_tree", "kmeans", "cure")]
    grid = RateGrid(start=0.0, step=0.1, count=5)
    calls = []

    def recorded(point, algorithm, **kwargs):
        calls.append((point.name, algorithm.name, point.spec.rate if point.spec else 0.0))
        return evaluate_algorithm(point, algorithm, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(robustness, "evaluate_algorithm", recorded)
        report = run_sweep(datasets, algorithms, ERROR_TYPES, grid, seed=0, folds=5, jobs=1)
    return datasets, algorithms, grid, report, calls


class TestAllErrorTypes:
    def test_every_point_runs_and_lands_on_its_rate(self, three_type_sweep):
        datasets, algorithms, grid, report, _ = three_type_sweep
        pairs = robustness.sweep_pairs(datasets, algorithms)
        assert not report.errors
        assert [(r.dataset, r.algorithm, r.error_type, r.rate) for r in report.results] == [
            (ds.name, a.name, et if rate else None, rate)
            for ds, a in pairs for et in ERROR_TYPES for rate in grid.rates()]
        assert len(report.results) == 90
        assert len(report.entries) == len(pairs) * len(ERROR_TYPES) * len(PRF_MEASURES)
        assert all(e.values is not None and not e.flags for e in report.entries)
        # each point's corruption lands within one cell or one row of its target
        for ds in datasets:
            for et in ERROR_TYPES:
                for rate in grid.rates()[1:]:
                    out = inject(ds.dataset, robustness.corruption_spec(ds, et, rate, 0))
                    achieved = getattr(detect_error_rates(out, ds.rules, ds.entity_key), et)
                    units = out.n_rows * (len(out.schema.feature_indices) if et == "missing"
                                          else 1)
                    assert abs(achieved * units - round(rate * units)) <= 1 + 1e-9, (et, rate)

    def test_clean_point_runs_once_per_pair(self, three_type_sweep):
        """Every error type's series starts at one evaluation of the clean
        point, so their rate-0 ledger rows are one row, time included."""
        datasets, algorithms, grid, report, calls = three_type_sweep
        pairs = [(ds.name, a.name) for ds, a in robustness.sweep_pairs(datasets, algorithms)]
        assert [(d, a) for d, a, rate in calls if rate == 0.0] == pairs
        assert len(calls) == len(pairs) * (1 + len(ERROR_TYPES) * (len(grid.rates()) - 1))
        for name, algorithm in pairs:
            rows = [r.ledger_row() for r in report.results
                    if (r.dataset, r.algorithm, r.rate) == (name, algorithm, 0.0)]
            assert len(rows) == len(ERROR_TYPES)
            assert all(row == rows[0] for row in rows)


# never fitted: the sweep plan is tested through the scripted evaluator; a
# regression dataset gets a numeric target, as the pre-flight requires
PLAN_DATA = make_blobs(12, n_classes=2, seed=0)
PLAN_NUMERIC = make_linear(12, seed=0)
PLAN_RULES = (FDRule(("x0",), "x1"),)


def draw_sweep(data):
    """A random sweep over PLAN_DATA: its datasets, algorithms, error types
    and grid, which may have a single rate, its (dataset, algorithm) pairs,
    its planned points in order, the evaluator calls that fail, and the
    evaluator call of each planned point.  The sweep evaluates one (dataset,
    error type, rate) point at a time, its algorithms in plan order, and a
    dataset's clean point once, first, for every error type; so the calls
    run point by point while the plan runs pair by pair, and the planned
    clean points of one pair share a call."""
    dataset_tasks = data.draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=3))
    datasets = [SweepDataset(f"d{i}", PLAN_NUMERIC if task == "regression" else PLAN_DATA,
                             task, rules=PLAN_RULES, entity_key=("x0",))
                for i, task in enumerate(dataset_tasks)]
    algorithms = [Algorithm(name) for name in data.draw(
        st.lists(st.sampled_from(tuple(LEARNERS)), min_size=1, max_size=5, unique=True))]
    error_types = data.draw(st.lists(st.sampled_from(ERROR_TYPES), min_size=1, unique=True))
    grid = RateGrid(start=0.0, step=0.1, count=data.draw(st.integers(0, 3)))
    pairs = [(ds.name, a.name) for ds in datasets for a in algorithms
             if task_of(a) == ds.task]
    plan = [(d, a, et, rate) for d, a in pairs for et in error_types for rate in grid.rates()]
    names, algorithm_names = [ds.name for ds in datasets], [a.name for a in algorithms]

    def call_order(d, a, et, rate):
        return (names.index(d), error_types.index(et) if rate else -1, rate,
                algorithm_names.index(a))

    order = sorted({call_order(*point) for point in plan})
    calls = [order.index(call_order(*point)) for point in plan]
    failing = data.draw(st.sets(st.integers(0, len(order) - 1))) if plan else set()
    return datasets, algorithms, error_types, grid, pairs, plan, failing, calls


def scripted_sweep(evaluator, datasets, algorithms, error_types, grid, failing_calls,
                   undefined=()):
    """The sweep with every measure at 1 - rate, except the ``undefined``
    ones, which stay None, and with the ``failing_calls`` of the evaluator
    raising."""
    values = {a.name: {m: {r: 1.0 - r for r in grid.rates()}
                       for m in PRF_MEASURES + REGRESSION_MEASURES if m not in undefined}
              for a in algorithms}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(robustness, "evaluate_algorithm", evaluator(values, failing_calls))
        return run_sweep(datasets, algorithms, error_types, grid, jobs=1)


class TestSweepPlan:
    @given(data=st.data())
    def test_every_point_lands_once_in_plan_order(self, scripted_evaluator, data):
        datasets, algorithms, error_types, grid, pairs, plan, failing, calls = draw_sweep(data)

        config = RunConfig(
            datasets=[DatasetConfig(ds.name, f"{ds.name}.csv", ds.task) for ds in datasets],
            algorithms=algorithms, error_types=tuple(error_types), rate_grid=grid, jobs=1,
        )
        combinations = next(line for line in config.plan_lines()
                            if line.startswith("combinations:"))
        assert combinations.split()[1] == str(len(pairs))

        sweep = (scripted_evaluator, datasets, algorithms, error_types, grid, failing)
        if not plan:
            with pytest.raises(ConfigurationError):
                scripted_sweep(*sweep)
            return
        report = scripted_sweep(*sweep)

        # the evaluator's message names its call, so each error pins one point
        assert [(e["dataset"], e["algorithm"], e["error_type"], e["rate"], e["message"])
                for e in report.errors] == [
            (*point, f"ParameterError: scripted failure at call {calls[i]}")
            for i, point in enumerate(plan) if calls[i] in failing
        ]
        assert [(r.dataset, r.algorithm, r.error_type, r.rate) for r in report.results] == [
            (d, a, et if rate else None, rate)
            for i, (d, a, et, rate) in enumerate(plan) if calls[i] not in failing
        ]
        failed_series = {point[:3] for i, point in enumerate(plan) if calls[i] in failing}
        assert {(e.dataset, e.algorithm, e.error_type) for e in report.entries} == {
            point[:3] for point in plan
        }
        for e in report.entries:
            assert ("incomplete-series" in e.flags) == (
                (e.dataset, e.algorithm, e.error_type) in failed_series
            )

    @given(data=st.data())
    def test_random_report_round_trips_through_json(self, scripted_evaluator, data):
        """A report read back from its JSON text equals it field by field,
        results by ledger row, and writes the same text again."""
        datasets, algorithms, error_types, grid, _, plan, failing, _ = draw_sweep(data)
        assume(plan)
        undefined = data.draw(st.sets(st.sampled_from(PRF_MEASURES + REGRESSION_MEASURES),
                                      max_size=2))
        report = scripted_sweep(scripted_evaluator, datasets, algorithms, error_types,
                                grid, failing, undefined)
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        back = RobustnessReport.from_json_dict(json.loads(text))
        for f in fields(RobustnessReport):
            if f.name == "results":
                assert [r.ledger_row() for r in back.results] == [
                    r.ledger_row() for r in report.results]
            else:
                assert getattr(back, f.name) == getattr(report, f.name), f.name
        assert json.dumps(back.to_json_dict(), sort_keys=True) == text


@pytest.fixture()
def scripted_report(monkeypatch, scripted_evaluator):
    """Build a minimal report by sweeping preset classifier traces."""

    def build(sens_by_algo, clean_by_algo, keeping_by_algo=None):
        grid = RateGrid(start=0.0, step=0.10, count=5)
        values = {}
        for algo, clean in clean_by_algo.items():
            total = sens_by_algo[algo]
            # fabricate a monotone trace with the requested total variation
            drop = total / 5.0
            trace = [clean - i * drop for i in range(6)]
            if keeping_by_algo and algo in keeping_by_algo:
                for i, rate in enumerate(grid.rates()):
                    if rate > keeping_by_algo[algo]:
                        trace[i] = clean - 2.0 * 0.10 - i * drop
            values[algo] = trace_values({m: trace for m in PRF_MEASURES})
        monkeypatch.setattr(robustness, "evaluate_algorithm", scripted_evaluator(values))
        ds = SweepDataset("synthetic", make_blobs(20, seed=9), "classification",
                          rules=PLAN_RULES, entity_key=("x0",))
        return run_sweep([ds], [Algorithm(a) for a in clean_by_algo],
                         ("missing", "inconsistent", "conflicting"),
                         grid, seed=0, timing_repeats=1)

    return build


class TestRecommend:
    def test_argmin_sensibility_rule(self, scripted_report):
        report = scripted_report(
            sens_by_algo={"decision_tree": 0.05, "knn": 0.30},
            clean_by_algo={"decision_tree": 0.85, "knn": 0.92},
        )
        guide = recommend(report, "classification", {"missing": 0.4}, data_size=5000)
        assert guide.chosen == "decision_tree"
        assert guide.dominant_error == "missing"

    def test_empty_candidates_reports_misses(self, scripted_report):
        report = scripted_report(
            sens_by_algo={"decision_tree": 0.05, "knn": 0.30},
            clean_by_algo={"decision_tree": 0.55, "knn": 0.60},
        )
        guide = recommend(report, "classification", {"missing": 0.2}, data_size=5000)
        assert guide.no_acceptable
        assert guide.nearest_misses[0][0] == "knn"
        assert "No acceptable algorithm" in guide.narrative()

    def test_cleaning_targets_rule(self, scripted_report):
        report = scripted_report(
            sens_by_algo={"decision_tree": 0.02},
            clean_by_algo={"decision_tree": 0.9},
            keeping_by_algo={"decision_tree": 0.30},
        )
        guide = recommend(
            report, "classification",
            {"missing": 0.4, "inconsistent": 0.1, "conflicting": 0.6},
            data_size=5000,
        )
        targets = guide.cleaning_targets
        kp = targets["missing"]["keeping_point"]
        assert targets["missing"]["target"] == pytest.approx(kp)
        assert targets["inconsistent"]["target"] is None

    def test_dominant_error_tie_break(self, scripted_report):
        report = scripted_report(
            sens_by_algo={"decision_tree": 0.05},
            clean_by_algo={"decision_tree": 0.9},
        )
        guide = recommend(report, "classification",
                          {"missing": 0.3, "inconsistent": 0.3}, data_size=100)
        assert guide.dominant_error == "missing"

    def test_scaling_invariance_of_choice(self, scripted_report):
        base = scripted_report(
            sens_by_algo={"decision_tree": 0.04, "knn": 0.12, "naive_bayes": 0.4},
            clean_by_algo={"decision_tree": 0.8, "knn": 0.9, "naive_bayes": 0.85},
        )
        scaled = scripted_report(
            sens_by_algo={"decision_tree": 0.08, "knn": 0.24, "naive_bayes": 0.8},
            clean_by_algo={"decision_tree": 0.8, "knn": 0.9, "naive_bayes": 0.85},
        )
        g1 = recommend(base, "classification", {"missing": 0.2}, data_size=5000)
        g2 = recommend(scaled, "classification", {"missing": 0.2}, data_size=5000)
        assert g1.chosen == g2.chosen
