from pathlib import Path

import pytest
from hypothesis import settings

from dirtybench.data import CATEGORICAL, Column, dataset_from_rows, load_dataset
from dirtybench.errors import ParameterError
from dirtybench.evaluate import EvalResult, measures_of, task_of

# Property tests draw a fixed, bounded set of examples so the suite stays
# deterministic and fast.
settings.register_profile(
    "dirtybench", max_examples=40, derandomize=True, database=None, deadline=None,
)
settings.load_profile("dirtybench")

DATA_DIR = Path(__file__).parent.parent / "data"


@pytest.fixture(scope="session")
def iris_path():
    return DATA_DIR / "iris.csv"


@pytest.fixture()
def iris(iris_path):
    return load_dataset(iris_path, target="species")


@pytest.fixture()
def student_table():
    """The four-row student example: one FD violation pair, one conflict pair."""
    cols = [
        Column("StudentNo", CATEGORICAL),
        Column("Name", CATEGORICAL),
        Column("City", CATEGORICAL),
        Column("Country", CATEGORICAL),
    ]
    rows = [
        ["170302", "Alice", "NYC", None],
        ["170302", "Steven", None, "FR"],
        ["170304", "Bob", "NYC", "U.S.A"],
        ["170304", "Bob", "LA", "U.S.A"],
    ]
    return dataset_from_rows(cols, rows, source="<students>")


class ScriptedEvaluator:
    """Stands in for ``robustness.evaluate_algorithm`` without fitting
    anything: each algorithm's measures come from a preset table
    ``{algorithm name: {measure: {rate: value}}}`` (absent entries give None),
    and the calls whose 0-based position is in ``fail_calls`` raise.  The
    algorithm of each call, params included, is kept in ``algorithms``.  With
    ``jobs=1`` the sweep calls it once per point, one (dataset, error type,
    rate) point at a time, a dataset's shared clean point first, and a
    point's algorithms in plan order.  It reads only the point's spec and
    name, so no table is corrupted."""

    def __init__(self, values, fail_calls=()):
        self.values = values
        self.fail_calls = set(fail_calls)
        self.calls = 0
        self.algorithms = []

    def __call__(self, point, algorithm, folds=10, seed=0, timing_repeats=1):
        call, self.calls = self.calls, self.calls + 1
        self.algorithms.append(algorithm)
        if call in self.fail_calls:
            raise ParameterError(f"scripted failure at call {call}")
        task = task_of(algorithm)
        spec = point.spec
        rate = spec.rate if spec else 0.0
        table = self.values.get(algorithm.name, {})
        measures = {
            m: next((float(v) for r, v in table.get(m, {}).items()
                     if abs(float(r) - rate) < 1e-9), None)
            for m in measures_of(task)
        }
        return EvalResult(
            dataset=point.name, algorithm=algorithm.name, task=task,
            error_type=spec.error_type if spec else None, rate=rate, seed=seed,
            measures=measures, fold_values={m: [v] for m, v in measures.items()},
            flags=(), wall_time_log10_ms=0.0,
        )


@pytest.fixture(scope="session")
def scripted_evaluator():
    """The ScriptedEvaluator class; tests install an instance with
    ``monkeypatch.setattr(robustness, "evaluate_algorithm", ...)``."""
    return ScriptedEvaluator
