"""Walk through the three dirty-data types on a tiny student table.

Missing values are empty cells, inconsistent values violate a functional
dependency (StudentNo determines Name), and conflicting values disagree
about one real-world entity.  We detect all three, inject more of each at a
controlled rate, and repair the missing ones by imputation.
"""
from dirtybench import (
    CATEGORICAL,
    Column,
    CorruptionSpec,
    dataset_from_rows,
    detect_error_rates,
    impute,
    inject,
    parse_fd_rules,
)

# ------------------------------------------------------------------
# A four-row table: t1/t2 share a student number with different names
# (inconsistent), t3/t4 describe the same Bob with different cities
# (conflicting), and two cells are simply absent (missing).
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
students = dataset_from_rows(cols, rows)

rules = parse_fd_rules("StudentNo -> Name")
entity_key = ("StudentNo", "Name")

rates = detect_error_rates(students, rules=rules, entity_key=entity_key)
print("detected on the student table:")
print(f"  missing      {rates.missing:.2%} of feature cells")
print(f"  inconsistent {rates.inconsistent:.2%} of rows")
print(f"  conflicting  {rates.conflicting:.2%} of rows")

# ------------------------------------------------------------------
# Injection: a bigger clean table, then 30% of each error type.
clean_rows = [[f"{7000 + i}", f"name{i}", ["NYC", "LA", "SF"][i % 3], "US"]
              for i in range(20)]
clean = dataset_from_rows(cols, clean_rows)
print("\nclean 20-row table:", detect_error_rates(clean, rules, entity_key))

missing, _ = inject(clean, CorruptionSpec(error_type="missing", rate=0.3, seed=1))
print("after inject_missing(0.3):  missing =",
      f"{detect_error_rates(missing).missing:.2%}")

inconsistent, _ = inject(clean, CorruptionSpec(
    error_type="inconsistent", rate=0.3, seed=2, rules=tuple(rules)))
print("after inject_inconsistent(0.3): inconsistent =",
      f"{detect_error_rates(inconsistent, rules=rules).inconsistent:.2%}")

conflicting, _ = inject(clean, CorruptionSpec(
    error_type="conflicting", rate=0.3, seed=3, entity_key=entity_key))
print("after inject_conflicting(0.3): conflicting =",
      f"{detect_error_rates(conflicting, entity_key=entity_key).conflicting:.2%}")

# The clean shadow never moves, so ground truth survives any corruption.
assert clean.rows == [list(r) for r in missing.clean_shadow]

# ------------------------------------------------------------------
# Repair time: missing numerics get the column mean, categoricals the mode.
repaired = impute(missing)
print("\nafter impute: missing =", f"{detect_error_rates(repaired).missing:.2%}")
print("first repaired row:", repaired.rows[0])
