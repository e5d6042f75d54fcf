"""From sweep report to an algorithm choice and cleaning budget.

The guidance walks five steps: record the detected error rates, keep
algorithms whose clean score clears the acceptance bar, apply the data-size
preference, pick the least sensitive candidate for the dominant error type,
and finally turn the chosen algorithm's keeping points into per-error-type
cleaning targets (clean only what exceeds the tolerance, no further).
"""
from pathlib import Path

from dirtybench import (
    Algorithm,
    RateGrid,
    SweepDataset,
    detect_error_rates,
    load_dataset,
    recommend,
    run_sweep,
)

iris = load_dataset(Path(__file__).parent.parent / "data" / "iris.csv",
                    target="species")

report = run_sweep(
    [SweepDataset("iris", iris, "classification")],
    [Algorithm("decision_tree"), Algorithm("knn", {"k": 5}),
     Algorithm("naive_bayes"), Algorithm("random_forest", {"n_trees": 20})],
    error_types=("missing",),
    grid=RateGrid(start=0.0, step=0.10, count=5),
    seed=7,
)

# Pretend the production table arrived with these measured error rates;
# detect_error_rates() produces the same dict for a real dataset.
detected = {"missing": 0.35}
print("clean-data rates would be:", detect_error_rates(iris).as_dict())

guide = recommend(
    report,
    task="classification",
    detected_rates=detected,
    data_size=iris.n_rows,
    priority_measure="f_measure",
)

print()
print(guide.narrative())
print()
print("chosen algorithm:", guide.chosen)
for error_type, info in guide.cleaning_targets.items():
    if info["target"] is not None:
        print(f"cleaning budget: reduce {error_type} data from "
              f"{info['detected']:.0%} to {info['target']:.0%}")
