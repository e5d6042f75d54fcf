"""A real sweep through every error type, pinned by one digest.

The benchmark's sweeps corrupt with ``missing`` only, and the other sweep
tests run a scripted evaluator, so this is the one pin on a sweep whose
points go through the FD and entity injectors and real learners.  The
digest masks what ``benchmark/gate.py`` masks (the timing column, the
config hash and the stamp lines), by calling its ``digest`` on a folder
holding just ``results.csv`` and ``report.json``.
"""
import json
import shutil
import sys
from pathlib import Path

import pytest

from dirtybench import cli
from dirtybench.data import dataset_to_text
from dirtybench.synth import make_keyed_records

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmark"))
import gate  # noqa: E402

# seed 0: 27 ledger rows, no failed point
KEYED_SWEEP_DIGEST = "abc7b9dc7fe5d5c72dad9c4bdd83de3a5c8a15e26de2f80a3b2578e90da2a8b2"


def keyed_config(tmp_path: Path, jobs: int) -> Path:
    """200 keyed rows swept as classification and clustering of ``city``,
    under all three error types at rates 0, 0.2 and 0.4."""
    (tmp_path / "keyed.csv").write_text(dataset_to_text(make_keyed_records(200)),
                                        encoding="utf-8")
    datasets = [
        {"name": name, "path": "keyed.csv", "task": task, "target": "city",
         "keys": ["entity"], "fd_rules_inline": ["code -> dept"], "entity_key": ["entity"]}
        for name, task in (("keyed", "classification"), ("keyed_c", "clustering"))
    ]
    config = {
        "datasets": datasets,
        "algorithms": ["decision_tree", "naive_bayes", "kmeans"],
        "error_types": ["missing", "inconsistent", "conflicting"],
        "rate_grid": {"start": 0.0, "step": 0.2, "count": 2},
        "folds": 3, "jobs": jobs, "seed": 0, "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.mark.parametrize("jobs", [1, 2])
def test_keyed_sweep_of_every_error_type_is_pinned(tmp_path, jobs):
    assert cli.main(["sweep", str(keyed_config(tmp_path, jobs))]) == cli.EXIT_OK
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["errors"] == []
    pinned = tmp_path / "pinned"
    pinned.mkdir()
    for name in ("results.csv", "report.json"):
        shutil.copyfile(out / name, pinned / name)
    assert gate.digest(pinned) == KEYED_SWEEP_DIGEST
