"""Command-line front door: inject, sweep, recommend, validate-config.

Exit codes: 0 success, 2 configuration error, 3 partial sweep failure,
4 I/O error.  Every emitted artifact embeds the config hash and root seed so
a run can be reproduced from its own outputs.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .config import RunConfig, read_json
from .corrupt import ERROR_TYPES, MISSING, inject, rate_units
from .data import dataset_to_text, detect_error_rates, format_rows
from .errors import DirtyBenchError
from .evaluate import LEDGER_COLUMNS, TASKS
from .robustness import (
    RobustnessReport, check_set_ups, check_sweep, corruption_spec, recommend, run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3
EXIT_IO = 4


def _stamp(config_hash: str, seed: int) -> str:
    return f"# config_hash={config_hash} seed={seed}\n"


def _write_csv(path: Path, header, rows, stamp: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(stamp)
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _load(args):
    """The config with its command-line overrides, and its datasets loaded,
    so that a missing or unreadable data file fails before any plan is
    printed, the same way in validation, a dry run and a real run.  The
    overrides are merged into the config's JSON form and rebuilt, so they
    meet the same checks as values from the file."""
    config = RunConfig.load_file(args.config)
    overrides = {key: getattr(args, key) for key in ("seed", "output_dir", "jobs")
                 if getattr(args, key) is not None}
    if overrides:
        base_dir = config.base_dir
        config = RunConfig.from_dict({**config.to_dict(), **overrides})
        config._base_dir = base_dir
    return config, config.load_sweep_datasets()


def _check_sweep(config: RunConfig, datasets) -> None:
    """The rules ``run_sweep`` applies, so that validation and a dry run
    accept exactly the configs a sweep runs."""
    check_sweep(datasets, config.algorithms, config.error_types,
                config.rate_grid, config.k_classification, config.k_regression,
                config.folds, config.seed)


def cmd_validate_config(args) -> int:
    config, datasets = _load(args)
    _check_sweep(config, datasets)
    print("\n".join(config.plan_lines()))
    print("config OK")
    return EXIT_OK


def _rate_tag(rate: float) -> str:
    """File-name tag of a grid rate: its percentage, zero-padded to three
    integer digits, with the decimals that tell finer rates apart
    (0.1 -> "010", 0.005 -> "000.5", 0.0125 -> "001.25")."""
    whole, frac = f"{rate:.12f}".split(".")
    tag = f"{int(whole + frac[:2]):03d}"
    rest = frac[2:].rstrip("0")
    return f"{tag}.{rest}" if rest else tag


def cmd_inject(args) -> int:
    config, datasets = _load(args)
    set_ups = [check_set_ups(ds, config.error_types, config.rate_grid, config.seed)
               for ds in datasets]
    if args.dry_run:
        print("\n".join(config.plan_lines()))
        return EXIT_OK
    out_dir = Path(config.output_dir) / "injected"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(config.config_hash, config.seed)
    summary_rows = []
    for ds, ds_set_ups in zip(datasets, set_ups):
        entry = next(d for d in config.datasets if d.name == ds.name)
        # most rows of an output equal their clean row; those take its line
        clean_lines = format_rows(ds.dataset.clean_shadow, entry.delimiter)
        for error_type in config.error_types:
            # every rate injects from the pre-flight's set-up, held only here
            # so that it is freed after its last rate
            setup = ds_set_ups.pop(error_type, None)
            for rate in config.rate_grid.rates():
                spec = corruption_spec(ds, error_type, rate, config.seed)
                corrupted, changed = inject(ds.dataset, spec, setup)
                name = f"{ds.name}__{error_type}__{_rate_tag(rate)}.csv"
                target = out_dir / name
                target.write_text(
                    dataset_to_text(corrupted, delimiter=entry.delimiter,
                                    clean_lines=clean_lines),
                    encoding="utf-8",
                )
                if changed is None:
                    # rate 0, where the injector set nothing up: detection
                    # counts the output, and the spec holds only its own
                    # error type's rules or key
                    rates = detect_error_rates(corrupted, rules=spec.rules,
                                               entity_key=spec.entity_key)
                    changed = round(getattr(rates, error_type) * len(corrupted.rows))
                units = rate_units(corrupted, spec)
                summary_rows.append([
                    ds.name, error_type, rate, round(changed / units if units else 0.0, 6),
                    changed, "cells" if error_type == MISSING else "rows",
                    len(corrupted.rows), name,
                ])
                del corrupted  # freed before the next copy is made
    _write_csv(
        Path(config.output_dir) / "injection_summary.csv",
        ["dataset", "error_type", "target_rate", "achieved_rate",
         "changed", "unit", "rows", "file"],
        summary_rows, stamp,
    )
    print(f"wrote {len(summary_rows)} corrupted datasets under {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, datasets = _load(args)
    if args.dry_run:
        _check_sweep(config, datasets)
        print("\n".join(config.plan_lines()))
        return EXIT_OK
    report = run_sweep(
        datasets,
        config.algorithms,
        error_types=config.error_types,
        grid=config.rate_grid,
        seed=config.seed,
        k_classification=config.k_classification,
        k_regression=config.k_regression,
        folds=config.folds,
        timing_repeats=config.timing_repeats,
        jobs=config.resolved_jobs(),
    )
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(config.config_hash, config.seed)

    ledger = (result.ledger_row() for result in report.results)
    _write_csv(out_dir / "results.csv", LEDGER_COLUMNS,
               [[row[c] for c in LEDGER_COLUMNS] for row in ledger], stamp)

    for task in dict.fromkeys(ds.task for ds in datasets):
        for metric in ("sensibility", "keeping_point"):
            header, rows = report.metric_table(task, metric)
            _write_csv(out_dir / f"{metric}_{task}.csv", header, rows, stamp)

    plots = out_dir / "plots"
    for entry in report.entries:
        if entry.rates is None:
            continue
        name = "__".join([entry.dataset, entry.algorithm, entry.error_type, entry.measure])
        _write_csv(
            plots / f"{name}.csv", ["rate", "value"],
            list(zip(entry.rates, entry.values)), stamp,
        )

    payload = {"config_hash": config.config_hash, "root_seed": config.seed}
    payload.update(report.to_json_dict())
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )
    (out_dir / "resolved_config.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )

    if report.errors:
        print(f"sweep finished with {len(report.errors)} failed combinations:",
              file=sys.stderr)
        for err in report.errors:
            print(f"  {err['dataset']} / {err['algorithm']} / {err['error_type']} "
                  f"@ {err['rate']}: {err['message']}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"sweep complete: {len(report.results)} results under {out_dir}")
    return EXIT_OK


def cmd_recommend(args) -> int:
    data = read_json(Path(args.report))
    # the run's stamp, which sweep writes beside the report's own fields
    stamp = {key: data.pop(key) for key in ("config_hash", "root_seed")
             if isinstance(data, dict) and key in data}
    report = RobustnessReport.from_json_dict(data)
    detected = {et: getattr(args, f"{et}_rate") for et in ERROR_TYPES
                if getattr(args, f"{et}_rate") is not None}
    guide = recommend(
        report,
        task=args.task,
        detected_rates=detected,
        data_size=args.data_size,
        priority_measure=args.measure,
    )
    text = guide.narrative()
    print(text)
    if args.output:
        payload = {
            **asdict(guide),
            "config_hash": stamp.get("config_hash", ""),
            "root_seed": stamp.get("root_seed", report.seed),
            "narrative": text,
        }
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirtybench",
        description="Measure how missing, inconsistent, and conflicting data "
                    "degrade classical learning algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to the JSON run configuration")
    common.add_argument("--seed", type=int, help="override the root seed")
    common.add_argument("--output-dir", help="override the output directory")
    common.add_argument("--jobs", type=int, help="worker processes for the sweep")
    common.add_argument("--dry-run", action="store_true",
                        help="print the resolved plan and exit")

    sub.add_parser("validate-config", parents=[common],
                   help="check a config file and print the resolved plan")
    sub.add_parser("inject", parents=[common],
                   help="write corrupted dataset copies and an achieved-rate summary")
    sub.add_parser("sweep", parents=[common],
                   help="run the full robustness sweep and emit reports")

    rec = sub.add_parser("recommend", help="derive algorithm-selection guidance "
                                           "from a sweep report")
    rec.add_argument("--report", required=True, help="report.json from a sweep")
    rec.add_argument("--task", required=True,
                     choices=TASKS)
    rec.add_argument("--data-size", type=int, required=True,
                     help="row count of the data the guidance is for")
    rec.add_argument("--missing-rate", type=float)
    rec.add_argument("--inconsistent-rate", type=float)
    rec.add_argument("--conflicting-rate", type=float)
    rec.add_argument("--measure", help="priority measure (default: f_measure or rmsd)")
    rec.add_argument("--output", help="also write the guidance as JSON here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate-config": cmd_validate_config,
        "inject": cmd_inject,
        "sweep": cmd_sweep,
        "recommend": cmd_recommend,
    }
    try:
        return handlers[args.command](args)
    except DirtyBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
