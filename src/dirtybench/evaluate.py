"""Accuracy measures, the cross-validation protocol, and timing.

Classification and clustering are scored with macro precision / recall /
F-measure; regression with RMSD, NRMSD (normalized by the *predicted* value
range), and CV(RMSD) (divided by the *predicted* mean).  Undefined
denominators are flagged and recorded as absent rather than zero.

Ground truth always comes from the dataset's clean shadow; corrupted rows
feed only the training and the test-time features.

A :class:`PreparedPoint` (dataset, corruption) is the one input of every
protocol, and its results carry its name, error type and rate.  It is
corrupted, imputed and encoded once, into one
:class:`~dirtybench.features.EncodedTable` that every algorithm evaluated
there slices: pass the same point to each call.
"""
from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import classify, cluster as cluster_mod, regress
from .corrupt import CorruptionSpec, derive_seed, impute, inject
from .data import Cell, Dataset
from .errors import ConfigurationError, EmptyInputError, ParameterError
from .cluster import Clustering
from .features import EncodedTable

CLASSIFICATION = "classification"
CLUSTERING = "clustering"
REGRESSION = "regression"

PRF_MEASURES = ("precision", "recall", "f_measure")
REGRESSION_MEASURES = ("rmsd", "nrmsd", "cv_rmsd")

LOWER_IS_BETTER = frozenset(REGRESSION_MEASURES)


class _NoiseLabel:
    """Sentinel prediction for noise rows; never equals a real class."""

    def __repr__(self):
        return "<noise>"


NOISE_LABEL = _NoiseLabel()


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def macro_precision_recall_f(pred: Sequence[Cell], truth: Sequence[Cell]) -> tuple[float, float, float]:
    """Per-class precision/recall averaged over the classes present in the
    truth; classes nothing was assigned to contribute precision 0."""
    if len(pred) != len(truth):
        raise ParameterError("prediction and truth lengths differ")
    if not truth:
        raise EmptyInputError("no records to score")
    classes = list(dict.fromkeys(truth))
    precisions = []
    recalls = []
    for c in classes:
        rn = sum(1 for p in pred if p == c)
        r = sum(1 for t in truth if t == c)
        rc = sum(1 for p, t in zip(pred, truth) if p == c and t == c)
        precisions.append(rc / rn if rn else 0.0)
        recalls.append(rc / r if r else 0.0)
    P = float(np.mean(precisions))
    R = float(np.mean(recalls))
    F = f_measure(P, R)
    return P, R, F


def f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def match_clusters(clustering: Clustering, truth: Sequence[Cell]) -> list[Cell]:
    """Relabel cluster indices as class tokens so P/R/F apply.

    When the cluster count equals the class count, clusters and classes are
    matched one to one so that the most rows agree (:func:`_best_assignment`);
    otherwise each cluster takes its majority class, the first on ties.
    Classes are numbered in first-seen order.  Noise rows get a label that
    matches no class.
    """
    if len(truth) != len(clustering.assignments):
        raise ParameterError("truth must cover every row")
    classes = list(dict.fromkeys(truth))
    n_c, k = len(classes), clustering.n_clusters
    class_idx = {c: i for i, c in enumerate(classes)}
    code = np.fromiter((class_idx[t] for t in truth), dtype=np.int64, count=len(truth))
    assign = clustering.assignments
    kept = assign != cluster_mod.NOISE
    contingency = np.bincount(assign[kept] * n_c + code[kept],
                              minlength=k * n_c).reshape(k, n_c)
    order = (_best_assignment(contingency.tolist()) if k == n_c
             else contingency.argmax(axis=1).tolist())
    label = [classes[c] for c in order]
    return [NOISE_LABEL if a == cluster_mod.NOISE else label[a] for a in assign.tolist()]


def _best_assignment(table: list[list[int]]) -> list[int]:
    """The column of each row in the one-to-one assignment of the square
    ``table``'s rows to its columns with the largest total; among equal
    totals the lexicographically first, which is the permutation an in-order
    scan of all n! keeps when it replaces its best only on a higher total.

    Kuhn-Munkres with potentials (Kuhn, 1955; Munkres, 1957), in its
    shortest-augmenting-path form, O(n^3) on exact integers.  The tie-break
    is folded into the cost: the columns of rows 0..n-1 read as the digits
    of a base-n number stay below n**n, so a table scaled by n**n orders
    assignments by total first and by that number second.
    """
    n = len(table)
    scale = n ** n
    cost = [[c * n ** (n - 1 - r) - w * scale for c, w in enumerate(row)]
            for r, row in enumerate(table)]
    # 1-based rows and columns; column 0 holds the row being placed
    u, v = [0] * (n + 1), [0] * (n + 1)
    row_at, way = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        row_at[0], j0 = i, 0
        reach, used = [math.inf] * (n + 1), [False] * (n + 1)
        while row_at[j0]:
            used[j0] = True
            i0, delta, j1 = row_at[j0], math.inf, 0
            row_cost, ui = cost[i0 - 1], u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row_cost[j - 1] - ui - v[j]
                    if cur < reach[j]:
                        reach[j], way[j] = cur, j0
                    if reach[j] < delta:
                        delta, j1 = reach[j], j
            # every unused column was reached above, so no inf is shifted
            for j in range(n + 1):
                if used[j]:
                    u[row_at[j]] += delta
                    v[j] -= delta
                else:
                    reach[j] -= delta
            j0 = j1
        while j0:
            row_at[j0] = row_at[way[j0]]
            j0 = way[j0]
    col_of = [0] * n
    for j in range(1, n + 1):
        col_of[row_at[j] - 1] = j - 1
    return col_of


@dataclass(frozen=True)
class RegressionMeasures:
    rmsd: float
    nrmsd: float | None
    cv_rmsd: float | None
    flags: tuple[str, ...] = ()


def regression_measures(pred: Sequence[float], truth: Sequence[float]) -> RegressionMeasures:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if len(pred) != len(truth):
        raise ParameterError("prediction and truth lengths differ")
    if len(pred) == 0:
        raise EmptyInputError("no records to score")
    rmsd = float(np.sqrt(((pred - truth) ** 2).mean()))
    flags = []
    span = float(pred.max() - pred.min())
    if span > 0:
        nrmsd = rmsd / span
    else:
        nrmsd = None
        flags.append("nrmsd-undefined")
    mean = float(pred.mean())
    if mean != 0:
        cv = rmsd / mean
    else:
        cv = None
        flags.append("cv-undefined")
    return RegressionMeasures(rmsd, nrmsd, cv, tuple(flags))


# ---------------------------------------------------------------------------
# algorithm registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Algorithm:
    name: str
    params: dict = field(default_factory=dict)


# the classifiers and regression fitters by name (a clusterer is a function of
# the cluster module); ``learner_of`` reads an entry at call time, so a patched
# one, as in the traced benchmark, is the one that runs
CLASSIFIER_TYPES: dict[str, Callable] = {
    "decision_tree": classify.DecisionTreeClassifier,
    "knn": classify.KNNClassifier,
    "naive_bayes": classify.NaiveBayesClassifier,
    "bayesian_network": classify.BayesianNetworkClassifier,
    "logistic_regression": classify.LogisticRegressionClassifier,
    "random_forest": classify.RandomForestClassifier,
}

REGRESSOR_FITTERS: dict[str, Callable] = {
    "least_squares": regress.fit_least_squares,
    "maximum_likelihood": regress.fit_maximum_likelihood,
    "polynomial": regress.fit_polynomial,
    "stepwise": regress.fit_stepwise,
}

TASKS = (CLASSIFICATION, CLUSTERING, REGRESSION)
_HOMES = {CLASSIFICATION: CLASSIFIER_TYPES, CLUSTERING: vars(cluster_mod),
          REGRESSION: REGRESSOR_FITTERS}

# every learner: its task, then the rules on its parameters, each of which the
# learner applies too, so a value one rejects would fail every point;
# ``check_sweep`` passes each rule the bound values it names.  A classifier's
# constructor applies its own rules.
LEARNERS: dict[str, tuple] = {
    "decision_tree": (CLASSIFICATION,),
    "knn": (CLASSIFICATION,),
    "naive_bayes": (CLASSIFICATION,),
    "bayesian_network": (CLASSIFICATION,),
    "logistic_regression": (CLASSIFICATION,),
    "random_forest": (CLASSIFICATION,),
    "kmeans": (CLUSTERING, cluster_mod.check_k, cluster_mod.check_max_iters),
    "lvq": (CLUSTERING,),
    "clarans": (CLUSTERING, cluster_mod.check_k, cluster_mod.check_num_local),
    "dbscan": (CLUSTERING, cluster_mod.check_density),
    "birch": (CLUSTERING, cluster_mod.check_k, cluster_mod.check_cf_tree),
    "cure": (CLUSTERING, cluster_mod.check_k, cluster_mod.check_representatives),
    "least_squares": (REGRESSION,),
    "maximum_likelihood": (REGRESSION,),
    "polynomial": (REGRESSION, regress.check_degree),
    "stepwise": (REGRESSION, regress.check_alphas),
}


def task_of(algorithm: Algorithm) -> str:
    try:
        return LEARNERS[algorithm.name][0]
    except KeyError:
        raise ConfigurationError(f"unknown algorithm {algorithm.name!r}") from None


def learner_of(name: str) -> Callable:
    """The classifier class, clusterer or regression fitter called ``name``,
    read from its home when called."""
    return _HOMES[LEARNERS[name][0]][name]


def measures_of(task: str) -> tuple[str, ...]:
    return REGRESSION_MEASURES if task == REGRESSION else PRF_MEASURES


def with_run_defaults(algorithm: Algorithm, clean: Dataset, seed: int) -> Algorithm:
    """The algorithm with every parameter a run derives filled in where its
    params leave it out, read from its learner's signature: a ``seed`` from
    the run's seed, a required ``k`` from the class count, and a required
    ``eps`` as DBSCAN's radius from the clean table at the run's ``min_pts``,
    so that a sweep varies only the corruption."""
    params = dict(algorithm.params)
    parameters = inspect.signature(learner_of(algorithm.name)).parameters
    required = {p.name for p in parameters.values() if p.default is p.empty}
    if "seed" in parameters:
        params.setdefault("seed", derive_seed(seed, "algo", algorithm.name))
    if "k" in required:
        params.setdefault("k", clean.n_c)
    if "eps" in required and "eps" not in params:
        # the k-dist heuristic reads the min_pts-th neighbour (Ester et al., 1996)
        min_pts = {"min_pts": params["min_pts"]} if "min_pts" in params else {}
        params["eps"] = cluster_mod.dbscan_default_eps(clean, **min_pts)
    return Algorithm(algorithm.name, params)


# ---------------------------------------------------------------------------
# evaluation results
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    dataset: str
    algorithm: str
    task: str
    error_type: str | None
    rate: float
    seed: int
    measures: dict[str, float | None]
    fold_values: dict[str, list[float | None]]
    flags: tuple[str, ...]
    wall_time_log10_ms: float

    def ledger_row(self) -> dict[str, object]:
        row: dict[str, object] = {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "task": self.task,
            "error_type": self.error_type or "",
            "rate": self.rate,
        }
        for key in PRF_MEASURES + REGRESSION_MEASURES:
            value = self.measures.get(key)
            row[key] = "" if value is None else value
        row["time_log10_ms"] = self.wall_time_log10_ms
        row["seed"] = self.seed
        row["flags"] = ";".join(self.flags)
        return row

    @classmethod
    def from_ledger_row(cls, row: dict) -> "EvalResult":
        """Inverse of :meth:`ledger_row`; the ledger keeps no per-fold values."""
        return cls(
            dataset=row["dataset"], algorithm=row["algorithm"], task=row["task"],
            error_type=row["error_type"] or None, rate=row["rate"], seed=row["seed"],
            measures={m: None if row[m] == "" else row[m] for m in measures_of(row["task"])},
            fold_values={}, flags=tuple(row["flags"].split(";")) if row["flags"] else (),
            wall_time_log10_ms=row["time_log10_ms"],
        )


# every ledger column, in order, with the type of its values; a measure
# the point left undefined is written as ""
LEDGER_TYPES = {
    "dataset": str, "algorithm": str, "task": str, "error_type": str, "rate": float,
    **{m: float for m in PRF_MEASURES + REGRESSION_MEASURES},
    "time_log10_ms": float, "seed": int, "flags": str,
}
LEDGER_COLUMNS = tuple(LEDGER_TYPES)


def fold_partition(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded shuffle then contiguous slices; sizes differ by at most one."""
    if folds < 2:
        raise ParameterError("need at least 2 folds")
    if folds > n:
        raise ParameterError(f"cannot make {folds} folds from {n} rows")
    order = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(order, folds)]


def _timed(fn: Callable[[], object], repeats: int) -> tuple[object, float]:
    """Run fn `repeats` times; log10 of the mean wall time in ms.  At one
    repeat, the default, that is the time of the pass whose value is kept."""
    times = []
    value = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    mean_ms = max(float(np.mean(times)) * 1000.0, 1e-9)
    return value, float(np.log10(mean_ms))


def _prepare(dataset: Dataset, spec: CorruptionSpec | None) -> EncodedTable:
    work = dataset if spec is None else inject(dataset, spec)
    return EncodedTable(impute(work) if work.has_missing() else work)


class PreparedPoint:
    """The one input of an evaluation: ``dataset`` corrupted by ``spec``,
    imputed and encoded on first use, and the ``name`` (by default the
    dataset's source) that its results carry.  A spec at rate 0 is the clean
    point, the same as none.  A preparation that fails raises the same error
    at every use."""

    def __init__(self, dataset: Dataset, spec: CorruptionSpec | None = None,
                 name: str | None = None):
        self.dataset, self.name = dataset, name or dataset.source
        self.spec = None if spec is None or spec.rate == 0 else spec
        self._outcome: EncodedTable | Exception | None = None

    def table(self) -> EncodedTable:
        if self._outcome is None:
            try:
                self._outcome = _prepare(self.dataset, self.spec)
            except Exception as exc:
                self._outcome = exc
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome


def _result(point: PreparedPoint, algorithm: Algorithm, seed: int,
            run_pass: Callable[[], tuple], timing_repeats: int) -> EvalResult:
    """The result of ``algorithm`` at ``point`` from timing ``run_pass``,
    which returns the per-fold measures and the flags; measures are fold means."""
    (per_fold, flags), wall = _timed(run_pass, timing_repeats)
    task = task_of(algorithm)
    spec = point.spec
    return EvalResult(
        dataset=point.name,
        algorithm=algorithm.name,
        task=task,
        error_type=spec.error_type if spec else None,
        rate=spec.rate if spec else 0.0,
        seed=seed,
        measures=_aggregate(task, per_fold),
        fold_values=per_fold,
        flags=tuple(flags),
        wall_time_log10_ms=wall,
    )


def cross_validate(point: PreparedPoint, algorithm: Algorithm, folds: int = 10,
                   seed: int = 0, timing_repeats: int = 1) -> EvalResult:
    """K-fold train/test on the point's table, aggregate fold means.

    The reported F-measure is recomputed from the aggregated precision and
    recall so the harmonic-mean identity holds on every emitted result.
    """
    task = task_of(algorithm)
    if task == CLUSTERING:
        raise ConfigurationError("clustering runs fold-free; use evaluate_clustering")
    params = with_run_defaults(algorithm, point.dataset, seed).params
    work = point.table()
    parts = fold_partition(work.n_rows, folds, np.random.default_rng(derive_seed(seed, "folds")))

    def run_pass():
        per_fold: dict[str, list[float | None]] = {m: [] for m in measures_of(task)}
        flags: list[str] = []
        trains = [np.concatenate([p for g, p in enumerate(parts) if g != f])
                  for f in range(len(parts))]
        # a tree learner grows the trees of every fold in one lockstep
        learner = learner_of(algorithm.name)
        fitted = learner(**params).fit_each(work, trains) if hasattr(learner, "fit_each") else None
        for f, test_rows in enumerate(parts):
            truth = [work.truth[i] for i in test_rows]
            if task == CLASSIFICATION:
                model = fitted[f] if fitted else learner(**params).fit(work, trains[f])
                pred = model.predict_rows(work, test_rows)
                P, R, F = macro_precision_recall_f(pred, truth)
                per_fold["precision"].append(P)
                per_fold["recall"].append(R)
                per_fold["f_measure"].append(F)
            else:
                model = learner(work, rows=trains[f], **params)
                pred = regress.predict_rows(model, work, test_rows)
                rm = regression_measures(pred, [float(v) for v in truth])
                per_fold["rmsd"].append(rm.rmsd)
                per_fold["nrmsd"].append(rm.nrmsd)
                per_fold["cv_rmsd"].append(rm.cv_rmsd)
                for flag in rm.flags:
                    flags.append(f"fold{f}:{flag}")
                if model.ridge_fallback:
                    flags.append(f"fold{f}:ridge-fallback")
        return per_fold, flags

    return _result(point, algorithm, seed, run_pass, timing_repeats)


def _aggregate(task: str, per_fold: dict[str, list[float | None]]) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for m in measures_of(task):
        values = [v for v in per_fold[m] if v is not None]
        out[m] = float(np.mean(values)) if values else None
    if task != REGRESSION:
        P, R = out["precision"], out["recall"]
        out["f_measure"] = f_measure(P, R)
    return out


def evaluate_clustering(point: PreparedPoint, algorithm: Algorithm, seed: int = 0,
                        timing_repeats: int = 1) -> EvalResult:
    """Fold-free protocol: cluster the point's whole table, match clusters
    against the clean labels, report P/R/F as the means of a single fold."""
    work = point.table()
    if work.truth is None:
        raise ConfigurationError("clustering evaluation needs ground-truth labels")
    truth = work.truth
    params = with_run_defaults(algorithm, point.dataset, seed).params

    def run_pass():
        clustering = learner_of(algorithm.name)(work, **params)
        P, R, F = macro_precision_recall_f(match_clusters(clustering, truth), truth)
        return {"precision": [P], "recall": [R], "f_measure": [F]}, ()

    return _result(point, algorithm, seed, run_pass, timing_repeats)


def evaluate_algorithm(point: PreparedPoint, algorithm: Algorithm, folds: int = 10,
                       seed: int = 0, timing_repeats: int = 1) -> EvalResult:
    """Dispatch to the protocol matching the algorithm's task."""
    if task_of(algorithm) == CLUSTERING:
        return evaluate_clustering(point, algorithm, seed, timing_repeats)
    return cross_validate(point, algorithm, folds, seed, timing_repeats)
