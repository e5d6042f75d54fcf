import json

import pytest
from hypothesis import given, strategies as st

from dirtybench.config import RunConfig
from dirtybench.corrupt import ERROR_TYPES
from dirtybench.errors import ConfigurationError
from dirtybench.evaluate import LEARNERS, TASKS

# the example config of the README's "Config file" section
README_CONFIG = {
    "seed": 0,
    "output_dir": "out",
    "rate_grid": {"start": 0.0, "step": 0.02, "count": 25},
    "error_types": ["missing", "inconsistent", "conflicting"],
    "folds": 10,
    "timing_repeats": 1,
    "k_classification": 0.10,
    "k_regression": 0.1,
    "jobs": 0,
    "datasets": [{
        "name": "students",
        "path": "students.csv",
        "task": "classification",
        "target": "grade",
        "keys": ["student_no"],
        "delimiter": ",",
        "has_header": True,
        "fd_rules": "rules.txt",
        "fd_rules_inline": ["student_no -> name"],
        "entity_key": ["student_no", "name"],
        "column_mask": None,
        "corrupt_target_in_train": False,
    }],
    "algorithms": [
        "decision_tree",
        {"name": "knn", "params": {"k": 5}},
        {"name": "random_forest", "params": {"n_trees": 50}},
    ],
}
MINIMAL_CONFIG = {
    "datasets": [{"name": "iris", "path": "iris.csv", "task": "classification"}],
    "algorithms": ["knn"],
}


@pytest.mark.parametrize("data, expected", [
    (README_CONFIG, "39766ed9f591f467"),
    (MINIMAL_CONFIG, "1616b20b550ec656"),
], ids=["readme", "minimal"])
def test_config_hash_is_pinned(data, expected):
    # the hash stamps every artifact, so the JSON form it is taken from is fixed
    assert RunConfig.from_dict(data).config_hash == expected


@pytest.mark.parametrize("changes, message", [
    ({"datasets": [{"name": "iris", "path": "iris.csv", "task": "classification",
                    "colour": "red"}]}, "unknown dataset keys: ['colour']"),
    ({"algorithms": [{"name": "knn", "k": 3}]}, "unknown algorithm keys: ['k']"),
    ({"rate_grid": {"start": 0.0, "stop": 1.0}}, "unknown rate_grid keys: ['stop']"),
    ({"datasets": [{"name": "iris", "path": "iris.csv", "task": "classification",
                    "keys": "id"}]}, "dataset key 'keys' must be tuple[str, ...]"),
    ({"rate_grid": {"step": "0.1"}}, "rate_grid key 'step' must be float"),
    ({"seed": True}, "config key 'seed' must be int"),
    ({"datasets": "iris.csv"}, "config key 'datasets' must be list[DatasetConfig]"),
    ({"algorithms": [3]}, "algorithm must be a JSON object"),
], ids=["dataset-key", "algorithm-key", "grid-key", "keys-as-text", "step-as-text",
        "seed-as-bool", "datasets-as-text", "algorithm-as-number"])
def test_malformed_entries_are_named(changes, message):
    with pytest.raises(ConfigurationError) as info:
        RunConfig.from_dict({**MINIMAL_CONFIG, **changes})
    assert message in str(info.value)


def test_missing_required_key_is_named():
    with pytest.raises(ConfigurationError, match=r"config needs \['algorithms'\]"):
        RunConfig.from_dict({"datasets": MINIMAL_CONFIG["datasets"]})


names = st.text(alphabet="abcxyz_", min_size=1, max_size=5)
datasets = st.fixed_dictionaries(
    {"name": names, "path": names.map(lambda n: f"{n}.csv"), "task": st.sampled_from(TASKS)},
    optional={
        "target": st.none() | names,
        "keys": st.lists(names, max_size=2),
        "delimiter": st.sampled_from([",", ";", "\t"]),
        "has_header": st.booleans(),
        "fd_rules": st.none() | names,
        "fd_rules_inline": st.lists(st.just("a -> b"), max_size=2),
        "entity_key": st.lists(names, max_size=2),
        "column_mask": st.none() | st.lists(names, max_size=2),
        "corrupt_target_in_train": st.booleans(),
    },
)
params = st.dictionaries(names, st.integers(-5, 50) | st.floats(0.01, 2.0), max_size=2)
algorithms = st.lists(
    st.sampled_from(tuple(LEARNERS)).flatmap(lambda name: st.just(name) | st.fixed_dictionaries(
        {"name": st.just(name)}, optional={"params": params})),
    min_size=1, max_size=4, unique_by=lambda a: a if isinstance(a, str) else a["name"],
)
configs = st.fixed_dictionaries(
    {"datasets": st.lists(datasets, min_size=1, max_size=3, unique_by=lambda d: d["name"]),
     "algorithms": algorithms},
    optional={
        "seed": st.integers(0, 2**40),
        "output_dir": names,
        "rate_grid": st.fixed_dictionaries({}, optional={
            "start": st.sampled_from([0.0, 0.25]),
            "step": st.sampled_from([0.005, 0.02, 0.1]),
            "count": st.integers(0, 7),
        }),
        "error_types": st.lists(st.sampled_from(ERROR_TYPES), unique=True),
        "folds": st.integers(2, 20),
        "timing_repeats": st.integers(1, 5),
        "k_classification": st.floats(0.01, 50.0),
        "k_regression": st.floats(0.01, 50.0) | st.integers(1, 5),
        "jobs": st.integers(0, 4),
    },
)


@given(data=configs)
def test_json_round_trip_reproduces_the_config(data):
    config = RunConfig.from_dict(data)
    emitted = config.to_dict()
    back = RunConfig.from_dict(json.loads(json.dumps(emitted)))
    assert back == config and back.to_dict() == emitted
    assert back.config_hash == config.config_hash
