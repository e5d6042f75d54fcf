"""A desk-scale robustness sweep on the iris flowers.

Four classifiers and three clusterers run against missing rates 0..50%.
Classifiers go through seeded 10-fold cross-validation on the corrupted,
mean/mode-imputed data and are scored against the protected clean labels;
clusterers run fold-free on the whole table and get matched to the classes
before scoring.  The report carries one metric series per (algorithm,
measure), its sensibility and keeping point, and per-algorithm averages.
"""
from pathlib import Path

from dirtybench import Algorithm, RateGrid, SweepDataset, load_dataset, run_sweep

iris = load_dataset(Path(__file__).parent.parent / "data" / "iris.csv",
                    target="species")

datasets = [
    SweepDataset("iris", iris, "classification"),
    SweepDataset("iris-as-clustering", iris, "clustering"),
]
algorithms = [
    Algorithm("decision_tree"),
    Algorithm("knn", {"k": 5}),
    Algorithm("naive_bayes"),
    Algorithm("random_forest", {"n_trees": 20}),
    Algorithm("kmeans"),
    Algorithm("dbscan"),
    Algorithm("cure"),
]

report = run_sweep(
    datasets,
    algorithms,
    error_types=("missing",),
    grid=RateGrid(start=0.0, step=0.10, count=5),
    seed=42,
    folds=10,
)

print("series for decision_tree / f_measure:")
entry = report.entry("iris", "decision_tree", "missing", "f_measure")
for rate, value in zip(entry.rates, entry.values):
    print(f"  missing {rate:4.0%} -> F = {value:.3f}")
print(f"  sensibility  = {entry.sensibility:.4f}")
print(f"  keeping point = {entry.keeping_point:.0%} (k = 10 points of F)")

print("\nsensibility table, classification task:")
header, rows = report.metric_table("classification", "sensibility")
print("  " + "  ".join(f"{h:>18s}" for h in header))
for row in rows:
    cells = [f"{row[0]:>18s}"] + [
        f"{v:18.4f}" if v is not None else f"{'-':>18s}" for v in row[1:]
    ]
    print("  " + "  ".join(cells))

print("\nmost sensitive first (missing / f_measure):")
for ranking in report.rankings:
    if ranking["task"] == "clustering" and ranking["measure"] == "f_measure":
        print("  clustering:", " > ".join(ranking["most_sensitive_first"]))
    if ranking["task"] == "classification" and ranking["measure"] == "f_measure":
        print("  classification:", " > ".join(ranking["most_sensitive_first"]))

if report.errors:
    print("\nfailed combinations:", report.errors)
