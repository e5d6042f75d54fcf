from pathlib import Path

import pytest
from hypothesis import settings

from dirtybench.data import CATEGORICAL, Column, dataset_from_rows, load_dataset

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
