"""Run configuration: one JSON file with documented keys, strict validation,
and loss-free round-tripping so an emitted config reproduces its run."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .corrupt import ERROR_TYPES
from .data import load_dataset, parse_fd_rules
from .errors import ConfigurationError
from .evaluate import ALL_ALGORITHMS, Algorithm
from .robustness import RateGrid, SweepDataset, check_unique_names, sweep_pairs

TASKS = ("classification", "clustering", "regression")

_DATASET_KEYS = {
    "name", "path", "task", "target", "keys", "delimiter", "has_header",
    "fd_rules", "fd_rules_inline", "entity_key", "column_mask",
    "corrupt_target_in_train",
}
_TOP_KEYS = {
    "seed", "output_dir", "rate_grid", "error_types", "folds", "timing_repeats",
    "k_classification", "k_regression", "jobs", "datasets", "algorithms",
}
_GRID_KEYS = {"start", "step", "count"}


@dataclass
class DatasetConfig:
    name: str
    path: str
    task: str
    target: str | None = None
    keys: tuple[str, ...] = ()
    delimiter: str = ","
    has_header: bool = True
    fd_rules: str | None = None          # path to a rule file
    fd_rules_inline: tuple[str, ...] = ()
    entity_key: tuple[str, ...] = ()
    column_mask: tuple[str, ...] | None = None
    corrupt_target_in_train: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigurationError(f"dataset {self.name!r}: unknown task {self.task!r}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "task": self.task,
            "target": self.target,
            "keys": list(self.keys),
            "delimiter": self.delimiter,
            "has_header": self.has_header,
            "fd_rules": self.fd_rules,
            "fd_rules_inline": list(self.fd_rules_inline),
            "entity_key": list(self.entity_key),
            "column_mask": list(self.column_mask) if self.column_mask is not None else None,
            "corrupt_target_in_train": self.corrupt_target_in_train,
        }

    def load(self, base_dir: Path) -> SweepDataset:
        path = Path(self.path)
        if not path.is_absolute():
            path = base_dir / path
        dataset = load_dataset(
            path, delimiter=self.delimiter, has_header=self.has_header,
            target=self.target, keys=self.keys,
        )
        rule_text = ""
        if self.fd_rules:
            rule_path = Path(self.fd_rules)
            if not rule_path.is_absolute():
                rule_path = base_dir / rule_path
            rule_text = rule_path.read_text(encoding="utf-8")
        if self.fd_rules_inline:
            rule_text += "\n" + "\n".join(self.fd_rules_inline)
        rules = tuple(parse_fd_rules(rule_text)) if rule_text.strip() else ()
        if rules:
            dataset = dataset.attach_rules(rules)
        return SweepDataset(
            name=self.name, dataset=dataset, task=self.task,
            rules=rules, entity_key=tuple(self.entity_key),
            column_mask=tuple(self.column_mask) if self.column_mask is not None else None,
            corrupt_target_in_train=self.corrupt_target_in_train,
        )


@dataclass
class RunConfig:
    datasets: list[DatasetConfig]
    algorithms: list[Algorithm]
    error_types: tuple[str, ...] = ("missing",)
    rate_grid: RateGrid = field(default_factory=RateGrid)
    seed: int = 0
    output_dir: str = "out"
    folds: int = 10
    timing_repeats: int = 5
    k_classification: float = 0.10
    k_regression: float = 0.1
    jobs: int = 0  # 0 = one worker per available core

    def __post_init__(self):
        if not self.datasets:
            raise ConfigurationError("config needs at least one dataset")
        if not self.algorithms:
            raise ConfigurationError("config needs at least one algorithm")
        check_unique_names(self.datasets, self.algorithms)
        for et in self.error_types:
            if et not in ERROR_TYPES:
                raise ConfigurationError(f"unknown error type {et!r}")
        for algo in self.algorithms:
            if algo.name not in ALL_ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm {algo.name!r}")
        if self.folds < 2:
            raise ConfigurationError("folds must be at least 2")
        if self.jobs < 0:
            raise ConfigurationError("jobs must be 0 (auto) or positive")

    def resolved_jobs(self) -> int:
        import os

        return self.jobs if self.jobs else (os.cpu_count() or 1)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        if "datasets" not in data or "algorithms" not in data:
            raise ConfigurationError("config needs 'datasets' and 'algorithms'")
        datasets = []
        for entry in data["datasets"]:
            bad = set(entry) - _DATASET_KEYS
            if bad:
                raise ConfigurationError(f"unknown dataset keys: {sorted(bad)}")
            entry = dict(entry)
            for key in ("keys", "fd_rules_inline", "entity_key"):
                if key in entry:
                    entry[key] = tuple(entry[key])
            if entry.get("column_mask") is not None:
                entry["column_mask"] = tuple(entry["column_mask"])
            datasets.append(DatasetConfig(**entry))
        algorithms = []
        for entry in data["algorithms"]:
            if isinstance(entry, str):
                algorithms.append(Algorithm(entry))
            else:
                bad = set(entry) - {"name", "params"}
                if bad:
                    raise ConfigurationError(f"unknown algorithm keys: {sorted(bad)}")
                algorithms.append(Algorithm(entry["name"], dict(entry.get("params", {}))))
        grid_data = data.get("rate_grid", {})
        bad = set(grid_data) - _GRID_KEYS
        if bad:
            raise ConfigurationError(f"unknown rate_grid keys: {sorted(bad)}")
        kwargs = {
            k: data[k]
            for k in (
                "seed", "output_dir", "folds", "timing_repeats", "k_classification",
                "k_regression", "jobs",
            )
            if k in data
        }
        if "error_types" in data:
            kwargs["error_types"] = tuple(data["error_types"])
        return cls(
            datasets=datasets,
            algorithms=algorithms,
            rate_grid=RateGrid(**grid_data),
            **kwargs,
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "rate_grid": {
                "start": self.rate_grid.start,
                "step": self.rate_grid.step,
                "count": self.rate_grid.count,
            },
            "error_types": list(self.error_types),
            "folds": self.folds,
            "timing_repeats": self.timing_repeats,
            "k_classification": self.k_classification,
            "k_regression": self.k_regression,
            "jobs": self.jobs,
            "datasets": [d.as_dict() for d in self.datasets],
            "algorithms": [
                {"name": a.name, "params": dict(a.params)} for a in self.algorithms
            ],
        }

    @classmethod
    def load_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        config = cls.from_dict(data)
        config._base_dir = path.parent  # dataset paths resolve relative to the file
        return config

    @property
    def base_dir(self) -> Path:
        return getattr(self, "_base_dir", Path("."))

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def load_sweep_datasets(self) -> list[SweepDataset]:
        return [d.load(self.base_dir) for d in self.datasets]

    def plan_lines(self) -> list[str]:
        rates = self.rate_grid.rates()
        lines = [
            f"config hash: {self.config_hash}",
            f"root seed:   {self.seed}",
            f"output dir:  {self.output_dir}",
            f"rate grid:   {len(rates)} points from {rates[0]:.2%} to {rates[-1]:.2%}",
            f"error types: {', '.join(self.error_types)}",
            f"folds: {self.folds}   timing repeats: {self.timing_repeats}   "
            f"jobs: {self.resolved_jobs()}",
            "datasets:",
        ]
        for d in self.datasets:
            lines.append(f"  - {d.name} ({d.task}) from {d.path}")
        lines.append("algorithms:")
        for a in self.algorithms:
            suffix = f" {a.params}" if a.params else ""
            lines.append(f"  - {a.name}{suffix}")
        combos = len(sweep_pairs(self.datasets, self.algorithms))
        lines.append(
            f"combinations: {combos} (dataset x algorithm) x "
            f"{len(self.error_types)} error types x {len(rates)} rates"
        )
        return lines
