"""Robustness metrics over error-rate sweeps, and selection guidance.

``sensibility`` is the total absolute variation of a measure along the rate
grid (larger = more quality-sensitive).  ``keeping_point`` is the last grid
rate before the measure first degrades by more than the threshold k relative
to the clean baseline (larger = more error-tolerant).  ``run_sweep`` builds
the full (dataset x algorithm x error type x rate) grid of evaluations and
reduces it to both metrics plus per-algorithm averages and rankings;
``recommend`` walks the stepwise selection guidance over a finished report.

A sweep runs point by point: each (dataset, error type, rate) point is
corrupted and encoded once and evaluated by every algorithm of its dataset.
A pool worker receives the sweep's plan once, when it starts, and each of
its tasks is one point's key.

The report dataclasses are the only statement of ``report.json``: their
fields are its keys, and ``_build`` reads each object back checked against
them, as it reads a run configuration.
"""
from __future__ import annotations

import inspect
import math
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import cluster as cluster_mod
from .corrupt import (
    CONFLICTING, CorruptionSpec, ERROR_TYPES, INCONSISTENT, derive_seed, usable_fd_rules,
)
from .data import NUMERIC, Dataset, FDRule
from .errors import ConfigurationError, DirtyBenchError, ParameterError
from .evaluate import (
    Algorithm,
    CLASSIFICATION,
    CLUSTERING,
    EvalResult,
    LEARNERS,
    LEDGER_COLUMNS,
    LEDGER_TYPES,
    LOWER_IS_BETTER,
    PRF_MEASURES,
    PreparedPoint,
    REGRESSION,
    REGRESSION_MEASURES,
    TASKS,
    evaluate_algorithm,
    learner_of,
    measures_of,
    task_of,
    with_run_defaults,
)

HIGHER = "higher"
LOWER = "lower"


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: an array fits a list or
    a tuple, an integer fits a float, and a boolean fits only ``bool``."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) in (list, tuple):
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _check_keys(entry, known, required, what: str):
    """``entry``, which must be a JSON object holding only ``known`` keys and
    every ``required`` one."""
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {entry!r}")
    unknown = set(entry) - set(known)
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [name for name in required if name not in entry]
    if missing:
        raise ConfigurationError(f"{what} needs {missing}")
    return entry


def _build(cls, entry, what: str):
    """``cls`` from one JSON object, whose keys must be its fields, whose
    values must fit their annotations, and which names every field that
    has no default."""
    known = {f.name: f for f in fields(cls)}
    _check_keys(entry, known, [name for name, f in known.items()
                               if f.default is MISSING and f.default_factory is MISSING], what)
    hints = typing.get_type_hints(cls)
    for key, value in entry.items():
        if not _fits(value, hints[key]):
            raise ConfigurationError(f"{what} key {key!r} must be {known[key].type}, "
                                     f"got {value!r}")
    return cls(**entry)


@dataclass(frozen=True)
class MetricSeries:
    """Measure values sampled along a uniformly spaced, ascending rate grid."""

    rates: tuple[float, ...]
    values: tuple[float, ...]
    direction: str = HIGHER

    def __post_init__(self):
        if len(self.rates) != len(self.values):
            raise ParameterError("rates and values must have equal length")
        if self.direction not in (HIGHER, LOWER):
            raise ParameterError(f"unknown direction {self.direction!r}")
        diffs = [b - a for a, b in zip(self.rates, self.rates[1:])]
        if any(d <= 0 for d in diffs):
            raise ParameterError("rates must be strictly ascending")
        if diffs and any(abs(d - diffs[0]) > 1e-9 for d in diffs):
            raise ParameterError("rates must be uniformly spaced")


def sensibility(series: MetricSeries) -> float:
    """Sum of absolute consecutive changes along the rate grid."""
    if len(series.values) < 2:
        raise ParameterError("sensibility needs at least two grid points")
    return float(sum(abs(b - a) for a, b in zip(series.values, series.values[1:])))


def keeping_point(series: MetricSeries, k: float) -> float:
    """Largest grid rate reached before the measure first moves more than k
    away from the baseline in the degrading direction; the last grid rate
    when it never does."""
    if k <= 0:
        raise ParameterError("k must be positive")
    if len(series.values) < 2:
        raise ParameterError("keeping point needs at least two grid points")
    baseline = series.values[0]
    for i in range(1, len(series.values)):
        drop = (
            baseline - series.values[i]
            if series.direction == HIGHER
            else series.values[i] - baseline
        )
        if drop > k:
            return series.rates[i - 1]
    return series.rates[-1]


@dataclass(frozen=True)
class RateGrid:
    """Arithmetic rate sequence start, start+step, ..., start+count*step."""

    start: float = 0.0
    step: float = 0.02
    count: int = 25

    def __post_init__(self):
        if self.count < 0:
            raise ParameterError("count must be non-negative")
        if self.count > 0 and self.step <= 0:
            raise ParameterError("step must be positive")
        if self.start < 0 or self.last > 1.0 + 1e-9:
            raise ParameterError("rates must stay within [0, 1]")

    @property
    def last(self) -> float:
        return self.start + self.count * self.step

    def rates(self) -> tuple[float, ...]:
        return tuple(round(self.start + i * self.step, 12) for i in range(self.count + 1))


# ---------------------------------------------------------------------------
# sweep orchestration
# ---------------------------------------------------------------------------

@dataclass
class SweepDataset:
    """A dataset registered for sweeping, with its corruption context."""

    name: str
    dataset: Dataset
    task: str
    rules: tuple[FDRule, ...] = ()
    entity_key: tuple[str, ...] = ()
    column_mask: tuple[str, ...] | None = None
    corrupt_target_in_train: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigurationError(f"unknown task {self.task!r}")
        if not self.rules:
            self.rules = self.dataset.rules
        if not self.entity_key:
            self.entity_key = tuple(
                self.dataset.schema.columns[j].name for j in self.dataset.schema.key_indices
            )


@dataclass
class SeriesEntry:
    """One measure's curve over the rate grid and its two metrics; the curve
    fields are all None when some point failed or left the measure undefined."""

    dataset: str
    algorithm: str
    task: str
    error_type: str
    measure: str
    rates: tuple[float, ...] | None
    values: tuple[float, ...] | None
    direction: str | None
    sensibility: float | None
    keeping_point: float | None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        self.flags = tuple(self.flags)
        if (self.rates, self.values, self.direction) != (None, None, None):
            # a curve read back from JSON meets the checks of the one computed
            series = MetricSeries(tuple(self.rates or ()), tuple(self.values or ()),
                                  self.direction)
            self.rates, self.values = series.rates, series.values


@dataclass
class AlgorithmSummary:
    task: str
    algorithm: str
    error_type: str
    measure: str
    mean_sensibility: float | None
    mean_keeping_point: float | None
    n_datasets: int


@dataclass
class RobustnessReport:
    grid: RateGrid
    seed: int
    k_classification: float
    k_regression: float
    entries: list[SeriesEntry] = field(default_factory=list)
    summaries: list[AlgorithmSummary] = field(default_factory=list)
    rankings: list[dict] = field(default_factory=list)
    results: list[EvalResult] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    def entry(self, dataset: str, algorithm: str, error_type: str, measure: str) -> SeriesEntry:
        for e in self.entries:
            if (e.dataset, e.algorithm, e.error_type, e.measure) == (
                dataset, algorithm, error_type, measure,
            ):
                return e
        raise KeyError((dataset, algorithm, error_type, measure))

    def summaries_by_key(self) -> dict[tuple[str, str, str], AlgorithmSummary]:
        """Every summary under its (algorithm, error type, measure)."""
        return {(s.algorithm, s.error_type, s.measure): s for s in self.summaries}

    def summary(self, algorithm: str, error_type: str, measure: str) -> AlgorithmSummary:
        return self.summaries_by_key()[(algorithm, error_type, measure)]

    def clean_value(self, task: str, algorithm: str, measure: str) -> float | None:
        """Baseline (first grid rate) measure averaged across datasets."""
        vals = [e.values[0] for e in self.entries
                if e.task == task and e.algorithm == algorithm and e.measure == measure
                and e.values]
        return float(np.mean(vals)) if vals else None

    def metric_table(self, task: str, metric: str) -> tuple[list[str], list[list]]:
        """Algorithm-by-(error type x measure) matrix of mean sensibility or
        mean keeping point, shaped like the published summary tables."""
        if metric not in ("sensibility", "keeping_point"):
            raise ParameterError("metric must be 'sensibility' or 'keeping_point'")
        measures = measures_of(task)
        error_types = sorted({s.error_type for s in self.summaries}, key=ERROR_TYPES.index)
        header = ["algorithm"] + [f"{et}_{m}" for et in error_types for m in measures]
        algorithms = dict.fromkeys(s.algorithm for s in self.summaries if s.task == task)
        by_key = self.summaries_by_key()
        rows = []
        for algo in algorithms:
            row: list = [algo]
            for et in error_types:
                for m in measures:
                    s = by_key.get((algo, et, m))
                    row.append(None if s is None else getattr(s, f"mean_{metric}"))
            rows.append(row)
        return header, rows

    def to_json_dict(self) -> dict:
        """The report as JSON values, with each result as its ledger row."""
        data = asdict(replace(self, results=[]))  # results go in as ledger rows
        data["results"] = [r.ledger_row() for r in self.results]
        return data

    @classmethod
    def from_json_dict(cls, data) -> "RobustnessReport":
        """Inverse of :meth:`to_json_dict`.  Each object must hold every key
        that method writes, and ``_build`` checks their values, so a missing,
        unknown or ill-typed key raises a ConfigurationError that names it."""
        def read(kind, entry, what: str):
            names = [f.name for f in fields(kind)]
            return _build(kind, _check_keys(entry, names, names, what), what)

        if isinstance(data, dict):
            data = dict(data)
            if "grid" in data:
                data["grid"] = read(RateGrid, data["grid"], "grid")
            for key, kind, what in (("entries", SeriesEntry, "entry"),
                                    ("summaries", AlgorithmSummary, "summary")):
                if isinstance(data.get(key), list):
                    data[key] = [read(kind, item, what) for item in data[key]]
            if isinstance(data.get("results"), list):
                data["results"] = [_ledger_row(row) for row in data["results"]]
        return read(cls, data, "report")


def _ledger_row(row) -> EvalResult:
    """A result from its ledger row, which must hold every ledger column and
    only those, each value of its column's type (a measure may be "")."""
    _check_keys(row, LEDGER_COLUMNS, LEDGER_COLUMNS, "ledger row")
    for key, kind in LEDGER_TYPES.items():
        value = row[key]
        absent = value == "" and key in PRF_MEASURES + REGRESSION_MEASURES
        if not (_fits(value, kind) or absent):
            raise ConfigurationError(f"ledger row key {key!r} must be {kind.__name__}, "
                                     f"got {value!r}")
    return EvalResult.from_ledger_row(row)


def corruption_spec(ds: SweepDataset, error_type: str, rate: float, seed: int) -> CorruptionSpec:
    """The seeded corruption of one (dataset, error type, rate) point; FD rules
    go only to inconsistent injection and the entity key only to conflicting."""
    return CorruptionSpec(
        error_type=error_type,
        rate=rate,
        seed=derive_seed(seed, ds.name, error_type, rate),
        column_mask=ds.column_mask,
        corrupt_target_in_train=ds.corrupt_target_in_train,
        rules=ds.rules if error_type == INCONSISTENT else (),
        entity_key=ds.entity_key if error_type == CONFLICTING else (),
    )


def check_names(datasets, algorithms, error_types) -> None:
    """Every algorithm and error type must be known, and no dataset or
    algorithm name may repeat: series, ledger rows, summaries and injected
    files are keyed by name, so a repeat would silently merge two runs."""
    for kind, items in (("dataset", datasets), ("algorithm", algorithms)):
        names = [item.name for item in items]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"{kind} names must be unique")
    for algorithm in algorithms:
        task_of(algorithm)  # an unknown name raises here
    for et in error_types:
        if et not in ERROR_TYPES:
            raise ConfigurationError(f"unknown error type {et!r}")


def check_sweep(datasets: Sequence[SweepDataset], algorithms, error_types, grid: RateGrid,
                k_classification: float, k_regression: float, folds: int,
                seed: int = 0) -> list:
    """The sweep's rules, checked on the loaded datasets before any point is
    evaluated, and the (dataset, algorithm) pairs that a sweep of ``seed``
    evaluates, each algorithm's run-derived parameters filled in once;
    ``run_sweep``, ``validate-config`` and ``sweep --dry-run`` apply exactly
    these.  Each algorithm's params must bind to its learner's signature and
    each classifier's constructor accept them (not ``n_bins: 0``).  Each
    dataset needs a target, numeric for regression, the entity key of
    ``conflicting`` and the FD rules of ``inconsistent``, one of them at least
    usable by the injector (``usable_fd_rules``); a classification or
    clustering dataset needs numeric features whose max - min is finite
    (``check_spans``).  Each pair's resolved
    values, defaults included, must pass its learner's rules in
    ``LEARNERS`` (not ``degree: 0``, nor a DBSCAN radius of 0 frozen from
    identical rows); a binary-only classifier needs two clean labels; and no
    count may exceed the clean rows it reads: the folds, a knn ``k`` (the
    smallest training fold), a ``cure`` ``k`` (its sample of
    ``round(sample_frac * n)`` rows), any other ``k`` or LVQ's ``q``."""
    for kind, items in (("datasets", datasets), ("algorithms", algorithms),
                        ("error types", error_types)):
        if not items:
            raise ConfigurationError(f"no {kind} selected")
    check_names(datasets, algorithms, error_types)
    for algorithm in algorithms:
        learner = learner_of(algorithm.name)
        try:
            inspect.signature(learner).bind_partial(**algorithm.params)
            if task_of(algorithm) == CLASSIFICATION:
                learner(**algorithm.params)
        except (TypeError, ParameterError) as exc:
            raise ConfigurationError(f"algorithm {algorithm.name!r}: {exc}") from None
    if grid.start != 0.0:
        raise ConfigurationError("rate grid must start at the clean baseline 0")
    if not (k_classification > 0 and k_regression > 0):
        raise ConfigurationError("k_classification and k_regression must be positive")
    pairs = sweep_pairs(datasets, algorithms)
    if not pairs:
        raise ConfigurationError("no (dataset, algorithm) pair matches by task")
    for ds in {ds.name: ds for ds, _ in pairs}.values():
        target = ds.dataset.schema.target_index
        if target is None:
            raise ConfigurationError(f"{ds.task} dataset {ds.name!r} has no target column")
        if ds.task == REGRESSION and ds.dataset.schema.columns[target].kind != NUMERIC:
            raise ConfigurationError(f"regression dataset {ds.name!r} has a categorical "
                                     f"target {ds.dataset.schema.columns[target].name!r}")
        for et, needs, held in ((INCONSISTENT, "FD rules", ds.rules),
                                (CONFLICTING, "an entity key", ds.entity_key)):
            if et in error_types and not held:
                raise ConfigurationError(
                    f"error type {et!r} needs {needs}, dataset {ds.name!r} has none")
        if INCONSISTENT in error_types:
            try:  # the injector binds the same rules at every nonzero rate
                usable_fd_rules(ds.dataset, corruption_spec(ds, INCONSISTENT, 0.0, seed))
            except DirtyBenchError as exc:
                raise ConfigurationError(f"{exc} (dataset {ds.name!r})") from None
        if ds.task != REGRESSION:
            check_spans(ds.name, ds.dataset)
    resolved = []
    for ds, algorithm in pairs:
        name, n = algorithm.name, ds.dataset.n_rows
        learner, rules = learner_of(name), LEARNERS[name][1:]
        if getattr(learner, "binary_only", False) and ds.dataset.n_c != 2:
            raise ConfigurationError(f"algorithm {name!r} needs a binary target, "
                                     f"dataset {ds.name!r} has {ds.dataset.n_c} classes")
        if ds.task != CLUSTERING and folds > n:
            raise ConfigurationError(
                f"{folds} folds need at least {folds} rows, dataset {ds.name!r} has {n}")
        try:
            algorithm = with_run_defaults(algorithm, ds.dataset, derive_seed(seed, ds.name))
            bound = inspect.signature(learner).bind_partial(**algorithm.params)
            bound.apply_defaults()
            values = bound.arguments
            for rule in rules:
                rule(**{p: values[p] for p in inspect.signature(rule).parameters})
            if name == "lvq" and values["q"] is not None:  # None: one per label
                cluster_mod.check_prototypes(values["q"], ds.dataset.n_c, n)
        except (TypeError, ValueError, DirtyBenchError) as exc:
            raise ConfigurationError(f"algorithm {name!r}: {exc} (dataset {ds.name!r})") from None
        # corruption never removes rows, so a k above these rows fails every point
        rows, of = n, "clean table"
        if name == "knn":
            rows, of = n - math.ceil(n / folds), "smallest training fold"
        elif name == "cure":  # cure links a sample of the rows
            rows, of = round(values["sample_frac"] * n), "cure sample"
        if values.get("k", 0) > rows:
            raise ConfigurationError(f"algorithm {name!r} has k={values['k']}, dataset "
                                     f"{ds.name!r} has {rows} rows in its {of}")
        resolved.append((ds, algorithm))
    return resolved


def check_spans(name: str, dataset: Dataset) -> None:
    """The rule on the numeric feature columns that classifiers and
    clusterers min-max scale: a column whose max - min overflows scales to
    NaN, which no learner can read, so every point would fail or score 0."""
    columns = dataset.schema.columns
    for j in dataset.schema.feature_indices:
        if columns[j].kind != NUMERIC:
            continue
        values = [row[j] for row in dataset.rows if row[j] is not None]
        if values and math.isinf(max(values) - min(values)):
            raise ConfigurationError(
                f"numeric column {columns[j].name!r} of dataset {name!r} spans "
                f"{min(values)!r} to {max(values)!r}, a range beyond the largest "
                f"double, which min-max scaling cannot map")


def sweep_pairs(datasets, algorithms) -> list:
    """Every (dataset, algorithm) pair whose tasks match, datasets outermost:
    the sweep's plan is these pairs x error types x rates, in that order."""
    return [(ds, a) for ds in datasets for a in algorithms if task_of(a) == ds.task]


@dataclass(frozen=True)
class _Plan:
    """What evaluating any point of a sweep needs: the datasets, each
    dataset's algorithms in plan order with their run defaults filled in,
    and the run's settings."""

    datasets: tuple[SweepDataset, ...]
    algorithms: tuple[tuple[Algorithm, ...], ...]
    seed: int
    folds: int
    timing_repeats: int


_served: _Plan | None = None  # the plan of the sweep this pool worker serves


def _serve(plan: _Plan) -> None:
    """Pool initializer: keep the sweep's plan for every task of the worker."""
    global _served
    _served = plan


def _run_point(key: tuple[int, str | None, float], plan: _Plan | None = None) -> dict:
    """Each algorithm's (result, error message) at the point ``key`` =
    (dataset index, error type, rate), by algorithm name; the clean point is
    (dataset index, None, 0.0).  The point is prepared once, on first use,
    for all of them; a pool worker reads the plan it was served."""
    plan = plan or _served
    d, error_type, rate = key
    ds = plan.datasets[d]
    point = PreparedPoint(
        ds.dataset, corruption_spec(ds, error_type, rate, plan.seed) if rate else None, ds.name)
    outcomes = {}
    for algorithm in plan.algorithms[d]:
        try:
            outcomes[algorithm.name] = evaluate_algorithm(
                point, algorithm, folds=plan.folds, seed=derive_seed(plan.seed, ds.name),
                timing_repeats=plan.timing_repeats,
            ), None
        except Exception as exc:  # a failed combination must not kill the sweep
            outcomes[algorithm.name] = None, f"{type(exc).__name__}: {exc}"
    return outcomes


def run_sweep(
    datasets: Sequence[SweepDataset],
    algorithms: Sequence[Algorithm],
    error_types: Sequence[str] = ("missing",),
    grid: RateGrid = RateGrid(),
    seed: int = 0,
    k_classification: float = 0.10,
    k_regression: float = 0.1,
    folds: int = 10,
    timing_repeats: int = 1,
    jobs: int = 1,
) -> RobustnessReport:
    """Evaluate every combination, then reduce to series, metrics, averages,
    and sensibility rankings.  Points are evaluated one (dataset, error type,
    rate) point at a time, all of that dataset's algorithms on one prepared
    table, and reduced in plan order: pairs x error types x rates.  A
    dataset's clean point is evaluated once; each error type's series reads
    it at rate 0.
    Deterministic for a fixed seed regardless of worker count; a failing
    combination is recorded and skipped."""
    pairs = check_sweep(datasets, algorithms, error_types, grid, k_classification,
                        k_regression, folds, seed)
    rates = grid.rates()
    plan = _Plan(
        datasets=tuple(datasets),
        algorithms=tuple(tuple(a for d, a in pairs if d is ds) for ds in datasets),
        seed=seed, folds=folds, timing_repeats=timing_repeats,
    )
    keys = list(dict.fromkeys((d, et if rate else None, rate)
                              for d, algos in enumerate(plan.algorithms) if algos
                              for et in error_types for rate in rates))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_serve,
                                 initargs=(plan,)) as pool:
            outcomes = dict(zip(keys, pool.map(_run_point, keys)))
    else:
        outcomes = {key: _run_point(key, plan) for key in keys}

    report = RobustnessReport(
        grid=grid, seed=seed,
        k_classification=k_classification, k_regression=k_regression,
    )
    index = {ds.name: d for d, ds in enumerate(datasets)}
    for ds, algorithm in pairs:
        k = k_regression if ds.task == REGRESSION else k_classification
        for et in error_types:
            chunk = [outcomes[index[ds.name], et if rate else None, rate][algorithm.name]
                     for rate in rates]
            point_results = [result for result, _ in chunk]
            report.results.extend(r for r in point_results if r is not None)
            report.errors.extend(
                {"dataset": ds.name, "algorithm": algorithm.name,
                 "error_type": et, "rate": rate, "message": error}
                for rate, (_, error) in zip(rates, chunk) if error is not None
            )
            for measure in measures_of(ds.task):
                report.entries.append(_series_entry(
                    ds, algorithm.name, et, measure, rates, point_results, k,
                ))
    _summarize(report, pairs, error_types)
    return report


def _series_entry(ds, algo_name, error_type, measure, rates, point_results, k) -> SeriesEntry:
    """One measure's series over the rates; ``point_results`` holds one result
    per rate, None where that point failed."""
    values = [None if r is None else r.measures.get(measure) for r in point_results]
    curve, metrics, flags = (None, None, None), (None, None), ()
    if any(v is None for v in values):
        failed = any(r is None for r in point_results)
        flags = ("incomplete-series" if failed else "undefined-points",)
    else:
        series = MetricSeries(tuple(rates), tuple(float(v) for v in values),
                              LOWER if measure in LOWER_IS_BETTER else HIGHER)
        curve = series.rates, series.values, series.direction
        if len(rates) < 2:
            flags = ("degenerate-grid",)
        else:
            metrics = sensibility(series), keeping_point(series, k)
    return SeriesEntry(ds.name, algo_name, ds.task, error_type, measure, *curve, *metrics, flags)


def _summarize(report: RobustnessReport, pairs, error_types):
    groups: dict[tuple, list[SeriesEntry]] = {}
    for e in report.entries:
        groups.setdefault((e.task, e.algorithm, e.error_type, e.measure), []).append(e)
    rankings: dict[tuple, list] = {}
    for task, algo in dict.fromkeys((ds.task, algorithm.name) for ds, algorithm in pairs):
        for et in error_types:
            for measure in measures_of(task):
                group = groups.get((task, algo, et, measure), [])
                sens = [e.sensibility for e in group if e.sensibility is not None]
                kps = [e.keeping_point for e in group if e.keeping_point is not None]
                summary = AlgorithmSummary(
                    task=task, algorithm=algo, error_type=et, measure=measure,
                    mean_sensibility=float(np.mean(sens)) if sens else None,
                    mean_keeping_point=float(np.mean(kps)) if kps else None,
                    n_datasets=len(sens),
                )
                report.summaries.append(summary)
                # keyed on first sight, so rankings run task, error type, measure
                ranked = rankings.setdefault((task, et, measure), [])
                if summary.mean_sensibility is not None:
                    ranked.append((algo, summary.mean_sensibility))
    for (task, et, measure), ranked in rankings.items():
        ranked.sort(key=lambda p: (-p[1], p[0]))
        report.rankings.append({
            "task": task, "error_type": et, "measure": measure,
            "most_sensitive_first": [a for a, _ in ranked],
        })


# ---------------------------------------------------------------------------
# guideline engine
# ---------------------------------------------------------------------------

CANDIDATE_THRESHOLDS = {
    "precision": (HIGHER, 0.70),
    "recall": (HIGHER, 0.70),
    "f_measure": (HIGHER, 0.70),
    "rmsd": (LOWER, 1.0),
    "cv_rmsd": (LOWER, 1.0),
    "nrmsd": (LOWER, 0.5),
}

# the data-size rule: logistic regression below SMALL_DATA rows, DBSCAN from
# LARGE_DATA rows on
SMALL_DATA = 1000
LARGE_DATA = 10000


@dataclass
class Guideline:
    task: str
    detected_rates: dict[str, float]
    priority_measure: str
    dominant_error: str
    candidates: list[tuple[str, float]]
    nearest_misses: list[tuple[str, float]]
    size_preference: str | None
    chosen: str | None
    ranking: list[tuple[str, float]]
    cleaning_targets: dict[str, dict[str, float | None]]
    notes: list[str]

    @property
    def no_acceptable(self) -> bool:
        return self.chosen is None

    def narrative(self) -> str:
        lines = [f"Task: {self.task}"]
        lines.append("Step 1 - detected error rates: " + ", ".join(
            f"{et}={rate:.2%}" for et, rate in self.detected_rates.items()
        ))
        threshold_dir, threshold = CANDIDATE_THRESHOLDS[self.priority_measure]
        comparator = ">" if threshold_dir == HIGHER else "<"
        lines.append(
            f"Step 2 - candidates with clean {self.priority_measure} "
            f"{comparator} {threshold}: "
            + (", ".join(f"{a} ({v:.3f})" for a, v in self.candidates) or "none")
        )
        if not self.candidates:
            lines.append("No acceptable algorithm. Nearest misses: " + ", ".join(
                f"{a} ({v:.3f})" for a, v in self.nearest_misses
            ))
            return "\n".join(lines)
        if self.size_preference:
            lines.append(f"Step 3 - data-size rule prefers: {self.size_preference}")
        else:
            lines.append("Step 3 - data-size rule not applicable")
        lines.append(
            f"Step 4 - sensibility ranking for {self.dominant_error}/"
            f"{self.priority_measure} (least sensitive first): "
            + ", ".join(f"{a} ({v:.4f})" for a, v in self.ranking)
        )
        lines.append(f"Selected algorithm: {self.chosen}")
        lines.append("Step 5 - cleaning targets (clean down to the keeping point):")
        for et, info in self.cleaning_targets.items():
            kp = info["keeping_point"]
            detected = info["detected"]
            target = info["target"]
            if kp is None:
                lines.append(f"  {et}: no keeping point available")
            elif target is None:
                lines.append(
                    f"  {et}: detected {detected:.2%} within keeping point {kp:.2%}; leave as is"
                )
            else:
                lines.append(
                    f"  {et}: detected {detected:.2%} exceeds keeping point {kp:.2%}; "
                    f"clean down to {target:.2%}"
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def recommend(
    report: RobustnessReport,
    task: str,
    detected_rates: dict[str, float],
    data_size: int,
    priority_measure: str | None = None,
) -> Guideline:
    """Stepwise selection: threshold candidates on clean accuracy, apply the
    data-size preference, pick the least sensitive candidate for the dominant
    error type, then derive per-error-type cleaning targets."""
    if task not in TASKS:
        raise ConfigurationError(f"unknown task {task!r}")
    if priority_measure is None:
        priority_measure = "rmsd" if task == REGRESSION else "f_measure"
    if priority_measure not in measures_of(task):
        raise ConfigurationError(f"measure {priority_measure!r} does not fit task {task!r}")

    algorithms = dict.fromkeys(s.algorithm for s in report.summaries if s.task == task)
    if not algorithms:
        raise ConfigurationError(f"report contains no {task} algorithms")

    direction, threshold = CANDIDATE_THRESHOLDS[priority_measure]
    clean_values = {a: v for a in algorithms
                    if (v := report.clean_value(task, a, priority_measure)) is not None}
    best_first = sorted(clean_values.items(),
                        key=lambda p: (-p[1] if direction == HIGHER else p[1], p[0]))
    candidates = [(a, v) for a, v in best_first
                  if (v > threshold if direction == HIGHER else v < threshold)]
    misses = [(a, v) for a, v in best_first if (a, v) not in candidates][:3]

    notes: list[str] = []
    dominant = max(
        detected_rates,
        key=lambda et: (detected_rates[et], -ERROR_TYPES.index(et)),
    ) if detected_rates else ERROR_TYPES[0]

    size_preference = None
    candidate_names = [a for a, _ in candidates]
    if task == CLASSIFICATION and data_size < SMALL_DATA:
        if "logistic_regression" in candidate_names:
            size_preference = "logistic_regression"
        else:
            notes.append("small-data preference (logistic_regression) is not a candidate")
    if task == CLUSTERING and data_size >= LARGE_DATA:
        if "dbscan" in candidate_names:
            size_preference = "dbscan"
        else:
            notes.append("large-data preference (dbscan) is not a candidate")

    by_key = report.summaries_by_key()
    ranking = []
    for algo in candidate_names:
        s = by_key.get((algo, dominant, priority_measure))
        if s is not None and s.mean_sensibility is not None:
            ranking.append((algo, s.mean_sensibility))
    ranking.sort(key=lambda p: (p[1], p[0]))  # least sensitive first

    if size_preference is not None:
        chosen = size_preference
    elif ranking:
        chosen = ranking[0][0]
    elif candidates:
        chosen = candidates[0][0]
        notes.append("no sensibility data for the dominant error type; "
                     "fell back to the best clean score")
    else:
        chosen = None

    cleaning_targets: dict[str, dict[str, float | None]] = {}
    if chosen is not None:
        error_types = dict.fromkeys(
            [s.error_type for s in report.summaries if s.task == task]
        )
        for et in error_types:
            s = by_key.get((chosen, et, priority_measure))
            kp = None if s is None else s.mean_keeping_point
            detected = detected_rates.get(et, 0.0)
            target = kp if (kp is not None and detected > kp) else None
            cleaning_targets[et] = {
                "keeping_point": kp, "detected": detected, "target": target,
            }

    return Guideline(
        task=task,
        detected_rates=dict(detected_rates),
        priority_measure=priority_measure,
        dominant_error=dominant,
        candidates=candidates,
        nearest_misses=misses,
        size_preference=size_preference,
        chosen=chosen,
        ranking=ranking,
        cleaning_targets=cleaning_targets,
        notes=notes,
    )
