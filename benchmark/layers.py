"""Where the traced run puts its spans, and the per-layer metrics they give.

Span families are named after the program's modules.  Each family reports
``.calls`` and ``.self_s``; the families in ``PEAK_FAMILIES`` also report
``.peak_mb`` from a separate tracemalloc pass.  Which end-to-end metric
each family should move, and on which workload, is recorded in
``baseline.json`` next to this file.
"""
from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

from workloads import CLASSIFIERS, CLUSTERERS, ERROR_TYPES, REGRESSORS

CLUSTER_FAMILIES = tuple(f"cluster.{a}" for a in CLUSTERERS) + ("cluster.dbscan_default_eps",)
INJECT_FAMILIES = tuple(f"corrupt.inject.{et}" for et in ERROR_TYPES)
PEAK_FAMILIES = CLUSTER_FAMILIES + INJECT_FAMILIES

FAMILIES = (
    tuple(f"classify.{a}.{m}" for a in CLASSIFIERS for m in ("fit", "predict_rows"))
    + ("features.FeatureEncoder", "features.Discretizer")
    + CLUSTER_FAMILIES
    + INJECT_FAMILIES + ("corrupt.impute",)
    + ("data.load_dataset", "data.detect_error_rates", "data.dataset_to_text")
    + tuple(f"regress.{f}.fit" for f in REGRESSORS) + ("regress.predict_rows",)
    + ("evaluate.protocol", "evaluate.score", "evaluate.match_clusters")
    + ("robustness.run_sweep", "config.load", "cli.artifacts")
)

# (name, unit, better) of every per-layer metric, in report order
POOL_METRICS = (
    ("robustness.pool.utilization", "ratio", "higher"),
    ("robustness.pool.payload_bytes", "B", "lower"),
    ("robustness.pool.tasks", "count", "lower"),
)
PER_LAYER = (
    tuple(
        (f"{fam}.{field}", unit, "lower")
        for fam in FAMILIES
        for field, unit in (("calls", "count"), ("self_s", "s"))
    )
    + tuple((f"{fam}.peak_mb", "MB", "lower") for fam in PEAK_FAMILIES)
    + POOL_METRICS
    + (("trace.overhead_s", "s", "lower"),)
)


def _inject_span(args, kwargs) -> str:
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return f"corrupt.inject.{spec.error_type}"


def install(rec, peaks_only: bool = False) -> None:
    """Wrap every traced name with ``rec``; only the peak families when
    ``peaks_only``.  ``rec.restore()`` undoes it."""
    from dirtybench import classify, cli, cluster, config, evaluate, regress

    for name in CLUSTERERS + ("dbscan_default_eps",):
        rec.patch(cluster, name, rec.wrap(getattr(cluster, name), f"cluster.{name}"))
    for module in (evaluate, cli):
        rec.patch(module, "inject", rec.wrap(module.inject, _inject_span))
    if peaks_only:
        return

    # registry entries, so a forest's internal trees stay inside its own span
    for algo, cls in list(evaluate.CLASSIFIER_TYPES.items()):
        rec.patch(evaluate.CLASSIFIER_TYPES, algo, _subclass(rec, cls, {
            "fit": f"classify.{algo}.fit",
            "predict_rows": f"classify.{algo}.predict_rows",
        }))
    encoder = _subclass(rec, classify.FeatureEncoder, {
        "__init__": "features.FeatureEncoder", "transform_rows": "features.FeatureEncoder",
    })
    discretizer = _subclass(rec, classify.Discretizer, {
        "__init__": "features.Discretizer", "codes_rows": "features.Discretizer",
    })
    rec.patch(classify, "FeatureEncoder", encoder)
    rec.patch(classify, "Discretizer", discretizer)
    rec.patch(cluster, "FeatureEncoder", encoder)

    for module in (evaluate, cluster):
        rec.patch(module, "impute", rec.wrap(module.impute, "corrupt.impute"))
    rec.patch(config, "load_dataset", rec.wrap(config.load_dataset, "data.load_dataset"))
    for name in ("detect_error_rates", "dataset_to_text"):
        rec.patch(cli, name, rec.wrap(getattr(cli, name), f"data.{name}"))

    for fitter, fn in list(evaluate.REGRESSOR_FITTERS.items()):
        rec.patch(evaluate.REGRESSOR_FITTERS, fitter, rec.wrap(fn, f"regress.{fitter}.fit"))
    rec.patch(regress, "predict_rows", rec.wrap(regress.predict_rows, "regress.predict_rows"))

    for name in ("cross_validate", "evaluate_clustering"):
        rec.patch(evaluate, name, rec.wrap(getattr(evaluate, name), "evaluate.protocol"))
    for name in ("macro_precision_recall_f", "regression_measures"):
        rec.patch(evaluate, name, rec.wrap(getattr(evaluate, name), "evaluate.score"))
    rec.patch(evaluate, "match_clusters",
              rec.wrap(evaluate.match_clusters, "evaluate.match_clusters"))

    rec.patch(cli, "run_sweep", rec.wrap(cli.run_sweep, "robustness.run_sweep"))
    load_file = config.RunConfig.__dict__["load_file"]
    rec.patch(config.RunConfig, "load_file",
              classmethod(rec.wrap(load_file.__func__, "config.load")))
    rec.patch(config.RunConfig, "load_sweep_datasets",
              rec.wrap(config.RunConfig.load_sweep_datasets, "config.load"))
    for name in ("cmd_sweep", "cmd_inject"):
        rec.patch(cli, name, rec.wrap(getattr(cli, name), "cli.artifacts"))


def _subclass(rec, cls: type, spans: dict[str, str]) -> type:
    methods = {attr: rec.wrap(getattr(cls, attr), name) for attr, name in spans.items()}
    return type(cls.__name__, (cls,), methods)


def count_pool_payload(rec, stats: dict) -> None:
    """Patch the sweep's process pool so each task's pickled size and count
    are added to ``stats``; ``rec.restore()`` undoes it."""
    from dirtybench import robustness

    class CountingPool(ProcessPoolExecutor):
        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            stats["tasks"] += len(tasks)
            stats["payload_bytes"] += sum(len(pickle.dumps((fn, t))) for t in tasks)
            return super().map(fn, tasks, **kwargs)

    rec.patch(robustness, "ProcessPoolExecutor", CountingPool)
