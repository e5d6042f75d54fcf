import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from dirtybench import cli, robustness
from dirtybench.classify import DecisionTreeClassifier
from dirtybench.data import dataset_to_text, load_dataset
from dirtybench.errors import ParameterError
from dirtybench.evaluate import CLASSIFIER_TYPES, LEDGER_COLUMNS
from dirtybench.robustness import Guideline

PCT_RATES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
IRIS_TRACE = (78.37, 84.16, 78.08, 74.36, 64.99, 58.71)


def grid_csv(path: Path, n_rows=10, n_cols=4):
    header = ",".join(f"x{j}" for j in range(n_cols))
    lines = [header]
    for i in range(n_rows):
        lines.append(",".join(str(float(i * n_cols + j)) for j in range(n_cols)))
    path.write_text("\n".join(lines) + "\n")
    return path


TREE_VALUES = {
    measure: {rate / 100.0: v for rate, v in zip(PCT_RATES, IRIS_TRACE)}
    for measure in ("precision", "recall", "f_measure")
}


def tree_config(tmp_path, data_path, grid=None, k=10.0):
    config = {
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
        "rate_grid": grid or {"start": 0.0, "step": 0.10, "count": 5},
        "error_types": ["missing"],
        "folds": 2,
        "timing_repeats": 1,
        "k_classification": k,
        "jobs": 1,
        "datasets": [{
            "name": "flowers",
            "path": str(data_path),
            "task": "classification",
            "target": "species",
        }],
        "algorithms": ["decision_tree"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture()
def iris_trace(monkeypatch, scripted_evaluator):
    """decision_tree reports IRIS_TRACE as its P/R/F at every grid rate."""
    monkeypatch.setattr(robustness, "evaluate_algorithm", scripted_evaluator(
        {"decision_tree": TREE_VALUES}))


@pytest.fixture()
def iris_copy(tmp_path, iris_path):
    dest = tmp_path / "iris.csv"
    shutil.copy(iris_path, dest)
    return dest


# iris.csv next to the config, as the dataset of the other two tasks
FLOWERS_AS = {
    "clustering": [{"name": "flowers", "path": "iris.csv", "task": "clustering",
                    "target": "species"}],
    "regression": [{"name": "flowers", "path": "iris.csv", "task": "regression",
                    "target": "petal_width"}],
}


# Each config is rejected by validation, a dry run and a sweep alike; the
# flags are command-line overrides and the message is part of the error.
REJECTED = [
    pytest.param({"rate_grid": {"start": 0.1, "step": 0.1, "count": 2}}, [],
                 "clean baseline 0", id="grid-off-zero"),
    pytest.param({"error_types": []}, [], "no error types", id="no-error-types"),
    pytest.param({"algorithms": ["kmeans"]}, [], "no (dataset, algorithm) pair",
                 id="no-matching-pair"),
    pytest.param({"k_classification": 0}, [], "must be positive", id="zero-k"),
    pytest.param({}, ["--jobs", "-3"], "jobs must be", id="negative-jobs"),
    pytest.param({"datasets": [{"name": "flowers", "task": "classification"}]}, [],
                 "dataset needs ['path']", id="dataset-without-path"),
    pytest.param({"algorithms": [{"params": {"k": 3}}]}, [], "algorithm needs ['name']",
                 id="algorithm-without-name"),
    pytest.param({"folds": "10"}, [], "'folds' must be int", id="folds-as-text"),
    pytest.param({"algorithms": [{"name": "knn", "params": {"kk": 3}}]}, [],
                 "'knn': got an unexpected keyword argument 'kk'", id="misspelled-param"),
    pytest.param({"algorithms": [{"name": "naive_bayes", "params": {"n_bins": 0}}]}, [],
                 "'naive_bayes': n_bins must be at least 1", id="zero-bins"),
    pytest.param({"algorithms": [{"name": "random_forest", "params": {"n_trees": 0}}]}, [],
                 "'random_forest': n_trees must be at least 1", id="zero-trees"),
    pytest.param({"algorithms": [{"name": "knn", "params": {"k": 0}}]}, [],
                 "'knn': k must be at least 1", id="zero-neighbours"),
    pytest.param({"algorithms": [{"name": "knn", "params": {"k": "3"}}]}, [],
                 "'knn': '<' not supported", id="neighbours-as-text"),
    pytest.param({"algorithms": [{"name": "random_forest", "params": {"criterion": "bogus"}}]},
                 [], "'random_forest': unknown split criterion 'bogus'", id="forest-criterion"),
    pytest.param({"algorithms": [{"name": "random_forest", "params": {"feat_frac": -1.0}}]},
                 [], "'random_forest': feat_frac must be in (0, 1]", id="negative-feat-frac"),
    pytest.param({"algorithms": [{"name": "random_forest", "params": {"feat_frac": 0.0}}]},
                 [], "'random_forest': feat_frac must be in (0, 1]", id="zero-feat-frac"),
    pytest.param({"algorithms": [{"name": "random_forest", "params": {"feat_frac": 1.5}}]},
                 [], "'random_forest': feat_frac must be in (0, 1]", id="feat-frac-over-one"),
    pytest.param({"algorithms": [{"name": "decision_tree", "params": {"max_depth": -1}}]},
                 [], "'decision_tree': max_depth must be >= 0", id="tree-negative-depth"),
    pytest.param({"algorithms": [{"name": "random_forest", "params": {"max_depth": -1}}]},
                 [], "'random_forest': max_depth must be >= 0", id="forest-negative-depth"),
    pytest.param({"algorithms": [{"name": "decision_tree",
                                  "params": {"features_per_split": 2}}]}, [],
                 "'decision_tree': got an unexpected keyword argument 'features_per_split'",
                 id="tree-features-per-split"),
    pytest.param({"algorithms": ["logistic_regression"]}, [],
                 "'logistic_regression' needs a binary target, dataset 'flowers' has 3 classes",
                 id="binary-learner-on-three-classes"),
    pytest.param({"folds": 151}, [], "151 folds need at least 151 rows, dataset 'flowers' has 150",
                 id="more-folds-than-rows"),
    pytest.param({"folds": 10, "algorithms": [{"name": "knn", "params": {"k": 140}}]}, [],
                 "algorithm 'knn' has k=140, dataset 'flowers' has 135 rows in its smallest "
                 "training fold", id="knn-k-above-training-fold"),
    pytest.param({"datasets": [{"name": "flowers", "path": "iris.csv", "task": "clustering",
                                "target": "species"}],
                  "algorithms": [{"name": "cure", "params": {"k": 140}}]}, [],
                 "algorithm 'cure' has k=140, dataset 'flowers' has 38 rows in its cure sample",
                 id="cure-k-above-sample"),
    pytest.param({"timing_repeats": 0}, [], "timing_repeats must be at least 1",
                 id="zero-timing-repeats"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "cure", "params": {"sample_frac": 0.01}}]}, [],
                 "algorithm 'cure' has k=3, dataset 'flowers' has 2 rows in its cure sample",
                 id="cure-class-count-above-sample"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "cure", "params": {"shrink": 0.0}}]}, [],
                 "'cure': shrink must be in (0, 1]", id="cure-zero-shrink"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "birch", "params": {"threshold": -1}}]}, [],
                 "'birch': threshold must be positive", id="birch-negative-threshold"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "birch", "params": {"branching": 1}}]}, [],
                 "'birch': branching must be at least 2", id="birch-one-branch"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "dbscan", "params": {"eps": -1}}]}, [],
                 "'dbscan': eps must be positive", id="dbscan-negative-eps"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "dbscan", "params": {"min_pts": 0}}]}, [],
                 "'dbscan': min_pts must be at least 1", id="dbscan-zero-min-pts"),
    # the radius heuristic reads the min_pts-th neighbour, so the rule runs first
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "dbscan", "params": {"min_pts": -1000}}]}, [],
                 "'dbscan': min_pts must be at least 1", id="dbscan-min-pts-far-below-zero"),
    *(pytest.param({"datasets": FLOWERS_AS["clustering"],
                    "algorithms": [{"name": name, "params": {"k": 0}}]}, [],
                   f"'{name}': k must be at least 1", id=f"{name}-zero-k")
      for name in ("kmeans", "clarans", "birch", "cure")),
    pytest.param({"datasets": FLOWERS_AS["regression"],
                  "algorithms": [{"name": "polynomial", "params": {"degree": 0}}]}, [],
                 "'polynomial': degree must be at least 1", id="polynomial-degree-zero"),
    pytest.param({"datasets": FLOWERS_AS["regression"],
                  "algorithms": [{"name": "stepwise",
                                  "params": {"alpha_in": 0.2, "alpha_out": 0.1}}]}, [],
                 "'stepwise': need 0 < alpha_in <= alpha_out < 1", id="stepwise-alpha-in-above-out"),
    pytest.param({"datasets": FLOWERS_AS["regression"],
                  "algorithms": [{"name": "stepwise", "params": {"alpha_out": 1.0}}]}, [],
                 "'stepwise': need 0 < alpha_in <= alpha_out < 1", id="stepwise-alpha-out-one"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "kmeans", "params": {"max_iters": 0}}]}, [],
                 "'kmeans': max_iters must be at least 1", id="kmeans-zero-iterations"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "clarans", "params": {"num_local": 0}}]}, [],
                 "'clarans': num_local must be at least 1", id="clarans-no-restarts"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "cure", "params": {"sample_frac": 2.0}}]}, [],
                 "'cure': sample_frac must be in (0, 1]", id="cure-sample-above-rows"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "lvq", "params": {"q": 2}}]}, [],
                 "'lvq': q=2 is below the label count 3 (dataset 'flowers')",
                 id="lvq-q-below-labels"),
    pytest.param({"datasets": FLOWERS_AS["clustering"],
                  "algorithms": [{"name": "lvq", "params": {"q": 200}}]}, [],
                 "'lvq': q=200 exceeds row count 150 (dataset 'flowers')",
                 id="lvq-q-above-rows"),
    pytest.param({"datasets": [{"name": "flat", "path": "flat.csv", "task": "clustering",
                                "target": "label"}],
                  "algorithms": ["kmeans", "dbscan"]}, [],
                 "'dbscan': eps must be positive (dataset 'flat')",
                 id="dbscan-frozen-radius-zero"),
    *(pytest.param({"algorithms": [{"name": "bayesian_network",
                                    "params": {"smoothing": smoothing}}]}, [],
                   "'bayesian_network': smoothing must be positive",
                   id=f"bayesian-network-smoothing-{smoothing}")
      for smoothing in (0, -1)),
    pytest.param({"datasets": [{"name": "flowers", "path": "iris.csv", "task": "clustering"}],
                  "algorithms": ["kmeans"]}, [],
                 "clustering dataset 'flowers' has no target column",
                 id="clustering-without-target"),
    pytest.param({"datasets": [{"name": "flowers", "path": "iris.csv", "task": "regression",
                                "target": "species"}],
                  "algorithms": ["least_squares"]}, [],
                 "regression dataset 'flowers' has a categorical target 'species'",
                 id="regression-on-categorical-target"),
    # max - min overflows, so min-max scaling gives NaN: knn and naive Bayes
    # failed every point with numpy errors, DBSCAN scored F = 0
    *(pytest.param({"datasets": [{"name": "wide", "path": "wide.csv", "task": task,
                                  "target": "label"}],
                    "algorithms": [algorithm]}, [],
                   "numeric column 'x' of dataset 'wide' spans -1.5e+308 to 1.5e+308",
                   id=f"{task}-span-overflows")
      for task, algorithm in (("classification", "knn"), ("clustering", "dbscan"))),
    pytest.param({"error_types": ["missing", "inconsistent"]}, [],
                 "error type 'inconsistent' needs FD rules, dataset 'flowers' has none",
                 id="inconsistent-without-rules"),
    pytest.param({"error_types": ["missing", "conflicting"]}, [],
                 "error type 'conflicting' needs an entity key, dataset 'flowers' has none",
                 id="conflicting-without-key"),
    # the injector refused these at every nonzero rate, so each such point failed
    pytest.param({"datasets": [{"name": "flowers", "path": "iris.csv", "task": "classification",
                                "target": "species",
                                "fd_rules_inline": ["sepal_length -> species"]}],
                  "error_types": ["missing", "inconsistent"]}, [],
                 "no usable FD rule after applying column restrictions (dataset 'flowers')",
                 id="inconsistent-rule-on-target"),
    pytest.param({"datasets": [{"name": "flat", "path": "flat.csv", "task": "classification",
                                "target": "label", "fd_rules_inline": ["x -> y"]}],
                  "error_types": ["inconsistent"]}, [],
                 "rule x -> y: rhs column has a single value (dataset 'flat')",
                 id="inconsistent-rule-single-valued-rhs"),
]


class TestValidateConfig:
    @pytest.mark.parametrize("changes, flags, message", REJECTED)
    def test_rejected_before_any_point(self, tmp_path, iris_copy, monkeypatch, capsys,
                                       scripted_evaluator, changes, flags, message):
        config = tree_config(tmp_path, iris_copy)
        config.write_text(json.dumps({**json.loads(config.read_text()), **changes}))
        # identical rows, so DBSCAN's frozen radius (every neighbour distance) is 0
        (tmp_path / "flat.csv").write_text("x,y,label\n" + "1.0,2.0,a\n1.0,2.0,b\n" * 6)
        (tmp_path / "wide.csv").write_text("x,y,label\n" + "-1.5e308,1.0,a\n1.5e308,2.0,b\n" * 6)
        evaluator = scripted_evaluator({})
        monkeypatch.setattr(robustness, "evaluate_algorithm", evaluator)
        for argv in (["validate-config"], ["sweep", "--dry-run"], ["sweep"]):
            assert cli.main([argv[0], str(config), *argv[1:], *flags]) == cli.EXIT_CONFIG
            out, err = capsys.readouterr()
            assert "config OK" not in out and message in err
        assert evaluator.calls == 0 and not (tmp_path / "out").exists()

    def test_valid_config_prints_plan(self, tmp_path, iris_copy, capsys):
        config = tree_config(tmp_path, iris_copy)
        assert cli.main(["validate-config", str(config)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "flowers" in out

    def test_unknown_key_rejected(self, tmp_path, iris_copy, capsys):
        config = tree_config(tmp_path, iris_copy)
        for key in ("surprise", "size_small"):
            data = json.loads(config.read_text())
            data[key] = 1
            config.write_text(json.dumps(data))
            assert cli.main(["validate-config", str(config)]) == cli.EXIT_CONFIG
            assert key in capsys.readouterr().err

    def test_duplicate_algorithm_names_rejected(self, tmp_path, iris_copy, capsys):
        config = tree_config(tmp_path, iris_copy)
        data = json.loads(config.read_text())
        data["algorithms"] = [{"name": "knn", "params": {"k": 1}},
                              {"name": "knn", "params": {"k": 9}}]
        config.write_text(json.dumps(data))
        assert cli.main(["validate-config", str(config)]) == cli.EXIT_CONFIG
        assert "algorithm names must be unique" in capsys.readouterr().err

    def test_empty_algorithms_rejected_before_compute(self, tmp_path, iris_copy):
        config = tree_config(tmp_path, iris_copy)
        data = json.loads(config.read_text())
        data["algorithms"] = []
        config.write_text(json.dumps(data))
        assert cli.main(["sweep", str(config)]) == cli.EXIT_CONFIG

    def test_missing_file_is_io_error(self, tmp_path):
        assert cli.main(["validate-config", str(tmp_path / "nope.json")]) == cli.EXIT_IO

    @pytest.mark.parametrize("argv", [["validate-config"], ["sweep", "--dry-run"],
                                      ["inject", "--dry-run"]])
    def test_missing_dataset_file_fails_validation(self, tmp_path, capsys, argv):
        config = tree_config(tmp_path, tmp_path / "nope.csv")
        assert cli.main([argv[0], str(config), *argv[1:]]) == cli.EXIT_IO
        out, err = capsys.readouterr()
        assert "config OK" not in out and "nope.csv" in err


class TestInject:
    def test_rate_zero_output_equals_canonical_input(self, tmp_path):
        data = grid_csv(tmp_path / "grid.csv")
        config = {
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
            "rate_grid": {"start": 0.0, "step": 0.1, "count": 0},
            "error_types": ["missing"],
            "datasets": [{"name": "grid", "path": str(data), "task": "clustering"}],
            "algorithms": ["kmeans"],
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["inject", str(cfg)]) == cli.EXIT_OK
        emitted = tmp_path / "out" / "injected" / "grid__missing__000.csv"
        canonical = dataset_to_text(load_dataset(data))
        assert emitted.read_text() == canonical

    def test_missing_quarter_on_10x4_reports_10_cells(self, tmp_path):
        data = grid_csv(tmp_path / "grid.csv", 10, 4)
        config = {
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
            "rate_grid": {"start": 0.25, "step": 0.1, "count": 0},
            "error_types": ["missing"],
            "datasets": [{"name": "grid", "path": str(data), "task": "clustering"}],
            "algorithms": ["kmeans"],
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["inject", str(cfg)]) == cli.EXIT_OK
        summary = (tmp_path / "out" / "injection_summary.csv").read_text().splitlines()
        assert summary[0].startswith("# config_hash=")
        row = summary[2].split(",")
        assert row[0] == "grid" and row[4] == "10" and row[5] == "cells"

    def test_rerun_byte_identical(self, tmp_path):
        data = grid_csv(tmp_path / "grid.csv")
        config = {
            "seed": 7,
            "output_dir": str(tmp_path / "out"),
            "rate_grid": {"start": 0.0, "step": 0.25, "count": 2},
            "error_types": ["missing"],
            "datasets": [{"name": "grid", "path": str(data), "task": "clustering"}],
            "algorithms": ["kmeans"],
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["inject", str(cfg)]) == cli.EXIT_OK
        first = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out" / "injected").iterdir()
        }
        assert cli.main(["inject", str(cfg)]) == cli.EXIT_OK
        second = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out" / "injected").iterdir()
        }
        assert first == second

    def test_column_mask_restricts_injection(self, tmp_path):
        data = grid_csv(tmp_path / "grid.csv", 10, 4)
        config = {
            "output_dir": str(tmp_path / "out"),
            "rate_grid": {"start": 0.5, "step": 0.1, "count": 0},
            "error_types": ["missing"],
            "datasets": [{"name": "grid", "path": str(data), "task": "clustering",
                          "column_mask": ["x0", "x1"]}],
            "algorithms": ["kmeans"],
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["inject", str(cfg)]) == cli.EXIT_OK
        emitted = tmp_path / "out" / "injected" / "grid__missing__050.csv"
        d = load_dataset(emitted)
        for row in d.rows:
            assert row[2] is not None and row[3] is not None
        holes = sum(1 for row in d.rows for c in row[:2] if c is None)
        assert holes == 10  # half of the 20 masked cells
        # the summary counts over the masked cells too
        row = (tmp_path / "out" / "injection_summary.csv").read_text().splitlines()[2].split(",")
        assert (float(row[3]), row[4], row[5]) == (0.5, "10", "cells")

    def test_target_in_train_counts_in_missing_summary(self, tmp_path, iris_copy):
        config = {
            "output_dir": str(tmp_path / "out"),
            "rate_grid": {"start": 0.3, "step": 0.1, "count": 0},
            "error_types": ["missing"],
            "datasets": [{"name": "iris", "path": str(iris_copy), "task": "classification",
                          "target": "species", "corrupt_target_in_train": True}],
            "algorithms": ["decision_tree"],
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["inject", str(cfg)]) == cli.EXIT_OK
        row = (tmp_path / "out" / "injection_summary.csv").read_text().splitlines()[2].split(",")
        # 225 of the 750 feature and target cells
        assert (float(row[3]), row[4]) == (0.3, "225")

    def test_fine_rate_step_writes_one_file_per_rate(self, tmp_path):
        data = grid_csv(tmp_path / "grid.csv", 20, 4)
        config = {
            "output_dir": str(tmp_path / "out"),
            "rate_grid": {"start": 0.0, "step": 0.005, "count": 4},
            "error_types": ["missing"],
            "datasets": [{"name": "grid", "path": str(data), "task": "clustering"}],
            "algorithms": ["kmeans"],
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["inject", str(cfg)]) == cli.EXIT_OK
        lines = (tmp_path / "out" / "injection_summary.csv").read_text().splitlines()
        files = [line.split(",")[-1] for line in lines[2:]]
        written = {p.name for p in (tmp_path / "out" / "injected").iterdir()}
        assert len(files) == 5 and set(files) == written and len(written) == 5
        # whole-percent rates keep their three-digit names
        assert {"grid__missing__000.csv", "grid__missing__001.csv",
                "grid__missing__002.csv"} <= written

    def test_input_files_never_mutated(self, tmp_path):
        data = grid_csv(tmp_path / "grid.csv")
        before = data.read_bytes()
        config = {
            "output_dir": str(tmp_path / "out"),
            "rate_grid": {"start": 0.5, "step": 0.1, "count": 0},
            "error_types": ["missing"],
            "datasets": [{"name": "grid", "path": str(data), "task": "clustering"}],
            "algorithms": ["kmeans"],
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        cli.main(["inject", str(cfg)])
        assert data.read_bytes() == before


class TestSweep:
    def test_scripted_sweep_reproduces_golden_numbers(self, tmp_path, iris_copy, iris_trace):
        config = tree_config(tmp_path, iris_copy)
        assert cli.main(["sweep", str(config)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        entry = next(
            e for e in report["entries"]
            if e["algorithm"] == "decision_tree" and e["measure"] == "precision"
        )
        assert entry["sensibility"] == pytest.approx(31.24, abs=0.005)
        assert entry["keeping_point"] == pytest.approx(0.30)
        assert report["config_hash"]
        assert (tmp_path / "out" / "sensibility_classification.csv").exists()
        assert (tmp_path / "out" / "keeping_point_classification.csv").exists()
        plot = tmp_path / "out" / "plots" / "flowers__decision_tree__missing__precision.csv"
        assert plot.exists()

    def test_same_seed_identical_ledgers(self, tmp_path, iris_copy, iris_trace):
        config = tree_config(tmp_path, iris_copy)
        assert cli.main(["sweep", str(config)]) == cli.EXIT_OK
        first = (tmp_path / "out" / "results.csv").read_bytes()
        assert cli.main(["sweep", str(config)]) == cli.EXIT_OK
        assert (tmp_path / "out" / "results.csv").read_bytes() == first

    def test_resolved_config_reproduces_run(self, tmp_path, iris_copy, iris_trace):
        config = tree_config(tmp_path, iris_copy)
        assert cli.main(["sweep", str(config)]) == cli.EXIT_OK
        first = (tmp_path / "out" / "results.csv").read_bytes()
        resolved = tmp_path / "out" / "resolved_config.json"
        data = json.loads(resolved.read_text())
        data["output_dir"] = str(tmp_path / "out2")
        rerun = tmp_path / "rerun.json"
        rerun.write_text(json.dumps(data))
        assert cli.main(["sweep", str(rerun)]) == cli.EXIT_OK
        second = (tmp_path / "out2" / "results.csv").read_bytes()
        # stamp differs only by config hash (output_dir changed); compare bodies
        assert first.split(b"\n", 1)[1] == second.split(b"\n", 1)[1]

    def test_partial_failure_exit_code(self, tmp_path, iris_copy, capsys, monkeypatch):
        class FailingTree(DecisionTreeClassifier):
            def fit(self, *args, **kwargs):
                raise ParameterError("fit fails at every point")

        monkeypatch.setitem(CLASSIFIER_TYPES, "decision_tree", FailingTree)
        config = tree_config(tmp_path, iris_copy, grid={"start": 0.0, "step": 0.5, "count": 1})
        assert cli.main(["sweep", str(config)]) == cli.EXIT_PARTIAL
        assert "failed combinations" in capsys.readouterr().err

    def test_dry_run_produces_no_output(self, tmp_path, iris_copy, capsys):
        config = tree_config(tmp_path, iris_copy)
        assert cli.main(["sweep", str(config), "--dry-run"]) == cli.EXIT_OK
        assert not (tmp_path / "out").exists()
        assert "combinations" in capsys.readouterr().out


def _drop(key):
    return lambda obj: obj.pop(key)


def _set(key, value):
    return lambda obj: obj.update({key: value})


# (the object a change applies to, the change, what the error must name);
# each object is the first of its kind in a real sweep's report.json
MALFORMED_REPORTS = [
    pytest.param("report", _drop("seed"), "report needs ['seed']", id="report-missing"),
    pytest.param("report", _set("sweep", {}), "unknown report keys: ['sweep']",
                 id="report-unknown"),
    pytest.param("report", _set("seed", "11"), "report key 'seed' must be int",
                 id="report-ill-typed"),
    pytest.param("entries", _drop("measure"), "entry needs ['measure']", id="entry-missing"),
    pytest.param("entries", _set("series", None), "unknown entry keys: ['series']",
                 id="entry-unknown"),
    pytest.param("entries", _set("values", "0.9"), "entry key 'values' must be",
                 id="entry-ill-typed"),
    pytest.param("summaries", _drop("n_datasets"), "summary needs ['n_datasets']",
                 id="summary-missing"),
    pytest.param("summaries", _set("median", 0.5), "unknown summary keys: ['median']",
                 id="summary-unknown"),
    pytest.param("summaries", _set("n_datasets", 1.5), "summary key 'n_datasets' must be int",
                 id="summary-ill-typed"),
    pytest.param("grid", _drop("step"), "grid needs ['step']", id="grid-missing"),
    pytest.param("grid", _set("stop", 0.5), "unknown grid keys: ['stop']", id="grid-unknown"),
    pytest.param("grid", _set("count", True), "grid key 'count' must be int",
                 id="grid-ill-typed"),
    pytest.param("results", _drop(LEDGER_COLUMNS[-1]),
                 f"ledger row needs ['{LEDGER_COLUMNS[-1]}']", id="ledger-missing"),
    pytest.param("results", _set("fold_values", {}), "unknown ledger row keys: ['fold_values']",
                 id="ledger-unknown"),
    pytest.param("results", _set("flags", 5), "ledger row key 'flags' must be str, got 5",
                 id="ledger-ill-typed"),
    pytest.param("results", _set("precision", "high"),
                 "ledger row key 'precision' must be float, got 'high'",
                 id="ledger-measure-ill-typed"),
]


class TestRecommend:
    @pytest.fixture()
    def swept(self, tmp_path, iris_copy, iris_trace):
        """The report.json that the sweep command writes for a scripted sweep."""
        assert cli.main(["sweep", str(tree_config(tmp_path, iris_copy))]) == cli.EXIT_OK
        return tmp_path / "out" / "report.json"

    def recommend(self, report, output):
        return cli.main(["recommend", "--report", str(report), "--task", "classification",
                         "--data-size", "5000", "--output", str(output)])

    @pytest.mark.parametrize("where, change, message", MALFORMED_REPORTS)
    def test_malformed_report_names_the_key(self, tmp_path, swept, capsys,
                                            where, change, message):
        data = json.loads(swept.read_text())
        target = data if where == "report" else data[where]
        change(target[0] if isinstance(target, list) else target)
        swept.write_text(json.dumps(data))
        output = tmp_path / "guide.json"
        assert self.recommend(swept, output) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "{report}: invalid JSON"),
        ("[]", "report must be a JSON object, got []"),
    ], ids=["not-json", "not-an-object"])
    def test_unreadable_report(self, tmp_path, capsys, text, message):
        report = tmp_path / "report.json"
        report.write_text(text)
        output = tmp_path / "guide.json"
        assert self.recommend(report, output) == cli.EXIT_CONFIG
        assert message.format(report=report) in capsys.readouterr().err
        assert not output.exists()

    def test_guideline_from_report(self, tmp_path, iris_copy, iris_trace, capsys):
        config = tree_config(tmp_path, iris_copy)
        assert cli.main(["sweep", str(config)]) == cli.EXIT_OK
        out_json = tmp_path / "guide.json"
        code = cli.main([
            "recommend",
            "--report", str(tmp_path / "out" / "report.json"),
            "--task", "classification",
            "--data-size", "5000",
            "--missing-rate", "0.4",
            "--output", str(out_json),
        ])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "Selected algorithm: decision_tree" in text
        payload = json.loads(out_json.read_text())
        assert set(payload) == {f.name for f in fields(Guideline)} | {
            "config_hash", "root_seed", "narrative"}
        assert payload["narrative"] in text
        assert payload["chosen"] == "decision_tree"
        assert payload["dominant_error"] == "missing"


def test_import_loads_no_unused_scipy_module():
    # numpy is the only runtime dependency: neither the CLI nor a cluster
    # matching of any class count loads scipy
    src = Path(__file__).parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np, dirtybench, dirtybench.cli, dirtybench.evaluate as ev\n"
         "for n in (8, 12):\n"
         "    truth = [f'c{i % n}' for i in range(4 * n)]\n"
         "    ev.match_clusters(ev.Clustering(np.arange(4 * n) % n, n), truth)\n"
         "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_sweep_with_a_frozen_dbscan_radius_loads_no_masked_arrays(tmp_path, iris_copy):
    # np.percentile's np.unique call imports numpy.ma (12-14 ms); the radius
    # heuristic computes its percentile without it
    config = tree_config(tmp_path, iris_copy, grid={"start": 0.0, "step": 0.5, "count": 1})
    config.write_text(json.dumps({**json.loads(config.read_text()),
                                  "datasets": FLOWERS_AS["clustering"],
                                  "algorithms": ["dbscan"]}))
    src = Path(__file__).parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from dirtybench.cli import main; "
         f"code = main(['sweep', {str(config)!r}]); print(code, 'numpy.ma' in sys.modules)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == [str(cli.EXIT_OK), "False"]
