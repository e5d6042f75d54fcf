"""Run configuration: one JSON file, read into the dataclasses below.

The dataclasses are the only statement of the schema: their fields are the
keys a config accepts, their annotations the value types, their defaults
the defaults, and ``dataclasses.asdict`` their JSON form, so an emitted
config round-trips loss-free and reproduces its run.  ``robustness._build``
reads each object, as it reads a sweep's report back.  ``RunConfig`` checks
the field rules every command needs; the sweep's own rules live in
``robustness.check_sweep``, which ``run_sweep``, ``validate-config`` and
``sweep --dry-run`` all apply before any point is evaluated.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .data import load_dataset, parse_fd_rules
from .errors import ConfigurationError
from .evaluate import Algorithm
from .robustness import RateGrid, SweepDataset, _build, check_names, sweep_pairs

TASKS = ("classification", "clustering", "regression")


def read_json(path: Path):
    """The JSON value in a file; a file that is not UTF-8 JSON text is a
    ConfigurationError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc


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
        for name in ("keys", "fd_rules_inline", "entity_key", "column_mask"):
            if getattr(self, name) is not None:
                setattr(self, name, tuple(getattr(self, name)))

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
            entity_key=self.entity_key, column_mask=self.column_mask,
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
    timing_repeats: int = 1
    k_classification: float = 0.10
    k_regression: float = 0.1
    jobs: int = 0  # 0 = one worker per available core

    def __post_init__(self):
        self.error_types = tuple(self.error_types)
        check_names(self.datasets, self.algorithms, self.error_types)
        if self.folds < 2:
            raise ConfigurationError("folds must be at least 2")
        if self.timing_repeats < 1:
            raise ConfigurationError("timing_repeats must be at least 1")
        if self.jobs < 0:
            raise ConfigurationError("jobs must be 0 (auto) or positive")

    def resolved_jobs(self) -> int:
        import os

        return self.jobs if self.jobs else (os.cpu_count() or 1)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if isinstance(data, dict):
            data = dict(data)
            if isinstance(data.get("datasets"), list):
                data["datasets"] = [_build(DatasetConfig, entry, "dataset")
                                    for entry in data["datasets"]]
            if isinstance(data.get("algorithms"), list):
                data["algorithms"] = [
                    _build(Algorithm, {"name": entry} if isinstance(entry, str) else entry,
                           "algorithm")
                    for entry in data["algorithms"]
                ]
            if "rate_grid" in data:
                data["rate_grid"] = _build(RateGrid, data["rate_grid"], "rate_grid")
        return _build(cls, data, "config")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def load_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        config = cls.from_dict(read_json(path))
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
