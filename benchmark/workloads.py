"""The benchmark's workloads: seeded input generation and the grid each one
must produce.

A workload is a CLI command (``sweep`` or ``inject``) run on generated CSV
files and one JSON config.  ``write_inputs`` is the only place that imports
the program; everything else here is plain data, so the orchestrator can
plan and check a run without importing numpy.
"""
from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

CLASSIFIERS = ("decision_tree", "knn", "naive_bayes", "bayesian_network",
               "logistic_regression", "random_forest")
CLUSTERERS = ("kmeans", "lvq", "clarans", "dbscan", "birch", "cure")
REGRESSORS = ("least_squares", "maximum_likelihood", "polynomial", "stepwise")
TASK_OF = {
    **{a: "classification" for a in CLASSIFIERS},
    **{a: "clustering" for a in CLUSTERERS},
    **{a: "regression" for a in REGRESSORS},
}
ERROR_TYPES = ("missing", "inconsistent", "conflicting")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # "sweep" or "inject"
    jobs: int                # worker processes in the timed runs
    rows: int                # rows of each generated table
    rate_count: int          # grid has rate_count + 1 rates, step 0.1
    folds: int
    timing_repeats: int | None   # None leaves the config default
    error_types: tuple[str, ...]
    algorithms: tuple[str, ...]
    datasets: tuple[dict, ...]
    forest_trees: int | None = None

    def rates(self) -> list[float]:
        return [round(0.1 * i, 12) for i in range(self.rate_count + 1)]

    def config(self, seed: int) -> dict:
        algorithms = []
        for name in self.algorithms:
            if name == "random_forest" and self.forest_trees is not None:
                algorithms.append({"name": name, "params": {"n_trees": self.forest_trees}})
            else:
                algorithms.append(name)
        cfg = {
            "seed": seed,
            "output_dir": "out",
            "rate_grid": {"start": 0.0, "step": 0.1, "count": self.rate_count},
            "error_types": list(self.error_types),
            "folds": self.folds,
            "jobs": self.jobs,
            "datasets": list(self.datasets),
            "algorithms": algorithms,
        }
        if self.timing_repeats is not None:
            cfg["timing_repeats"] = self.timing_repeats
        return cfg

    def expected_points(self) -> list[tuple[str, str, str, float]]:
        """Every (dataset, algorithm, error type, rate) the command must emit.

        For ``inject`` the algorithm slot is empty and a point is one file.
        A sweep's clean baseline (rate 0) carries no error type in the
        ledger, once per error type."""
        points = []
        for ds in self.datasets:
            algos = [""] if self.command == "inject" else [
                a for a in self.algorithms if TASK_OF[a] == ds["task"]
            ]
            for algo in algos:
                for et in self.error_types:
                    for rate in self.rates():
                        clean = rate == 0 and self.command == "sweep"
                        points.append((ds["name"], algo, "" if clean else et, rate))
        return points


_SWEEP_ALGOS = CLASSIFIERS + CLUSTERERS + REGRESSORS


def _sweep_sets(table: str, target: str) -> tuple[dict, ...]:
    """One labelled table swept as classification and as clustering, plus
    the regression table."""
    name = table.split(".")[0]
    return (
        {"name": name, "path": table, "task": "classification", "target": target},
        {"name": f"{name}_c", "path": table, "task": "clustering", "target": target},
        {"name": "linear", "path": "linear.csv", "task": "regression", "target": "y"},
    )


WORKLOADS = {
    # iris as classification and clustering plus a 200-row regression set;
    # logistic_regression is left out because it refuses 3-class iris
    "desk": Workload(
        name="desk", command="sweep", jobs=1, rows=200, rate_count=5, folds=10,
        timing_repeats=None, error_types=("missing",),
        algorithms=tuple(a for a in _SWEEP_ALGOS if a != "logistic_regression"),
        datasets=_sweep_sets("iris.csv", "species"), forest_trees=10,
    ),
    "scale2k": Workload(
        name="scale2k", command="sweep", jobs=2, rows=2000, rate_count=4, folds=5,
        timing_repeats=1, error_types=("missing",),
        algorithms=tuple(a for a in _SWEEP_ALGOS if a != "random_forest"),
        datasets=_sweep_sets("blobs.csv", "label"),
    ),
    "inject10k": Workload(
        name="inject10k", command="inject", jobs=1, rows=10000, rate_count=5, folds=10,
        timing_repeats=None, error_types=ERROR_TYPES, algorithms=("kmeans",),
        datasets=({"name": "keyed", "path": "keyed.csv", "task": "clustering",
                   "keys": ["entity"], "fd_rules_inline": ["code -> dept"],
                   "entity_key": ["entity"]},),
    ),
}


def tiny(workload: Workload) -> Workload:
    """A seconds-scale variant with the same shape, for smoke tests."""
    rows = {"desk": 40, "scale2k": 60}.get(workload.name, 200)
    return replace(workload, jobs=1, rows=rows, rate_count=1, folds=2, timing_repeats=1)


def write_inputs(workload: Workload, seed: int, dest: Path, repo_root: Path) -> Path:
    """Generate the workload's CSV files and config under ``dest`` from
    ``seed``; return the config path."""
    from dirtybench.data import dataset_to_text
    from dirtybench.synth import make_blobs, make_keyed_records, make_linear

    dest.mkdir(parents=True, exist_ok=True)
    if workload.name == "desk":
        shutil.copyfile(repo_root / "data" / "iris.csv", dest / "iris.csv")
        tables = {"linear.csv": make_linear(workload.rows, seed=seed)}
    elif workload.name == "scale2k":
        tables = {
            "blobs.csv": make_blobs(workload.rows, n_features=8, n_classes=2, seed=seed),
            "linear.csv": make_linear(workload.rows, n_features=8, seed=seed),
        }
    else:
        tables = {"keyed.csv": make_keyed_records(workload.rows, seed=seed)}
    for name, table in tables.items():
        (dest / name).write_text(dataset_to_text(table), encoding="utf-8")
    config_path = dest / "config.json"
    config_path.write_text(json.dumps(workload.config(seed), indent=2), encoding="utf-8")
    return config_path
