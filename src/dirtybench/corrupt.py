"""Seeded injection of the three dirty-data types, plus mean/mode imputation.

All injectors are pure: they return a new Dataset and leave the input (and its
clean shadow) untouched.  Rate denominators: cells for missing data, rows for
inconsistent and conflicting data.  Inconsistent/conflicting injection keeps
the detectors' index current (``data.FDIndex``/``data.EntityIndex``, where the
violation rules live), so the achieved row fraction lands within one row of
the requested rate on data with workable group structure.
"""
from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .data import Cell, Dataset, EntityIndex, FDIndex, FDRule, NUMERIC, count_missing
from .errors import (
    ConfigurationError,
    ImputationImpossibleError,
    InjectionImpossibleError,
)

MISSING = "missing"
INCONSISTENT = "inconsistent"
CONFLICTING = "conflicting"
ERROR_TYPES = (MISSING, INCONSISTENT, CONFLICTING)


def derive_seed(root: int, *parts) -> int:
    """Stable 63-bit seed from a root seed and arbitrary context tokens.

    Uses sha256 rather than hash() so sweep points reproduce across process
    restarts regardless of PYTHONHASHSEED.
    """
    payload = repr((int(root),) + tuple(str(p) for p in parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class CorruptionSpec:
    error_type: str
    rate: float
    seed: int = 0
    column_mask: tuple[str, ...] | None = None
    corrupt_target_in_train: bool = False
    rules: tuple[FDRule, ...] = ()
    entity_key: tuple[str, ...] = ()

    def __post_init__(self):
        if self.error_type not in ERROR_TYPES:
            raise ConfigurationError(f"unknown error type {self.error_type!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {self.rate}")
        if self.error_type == INCONSISTENT and not self.rules:
            raise ConfigurationError("inconsistent injection requires FD rules")
        if self.error_type == CONFLICTING and not self.entity_key:
            raise ConfigurationError("conflicting injection requires an entity key")


def inject(d: Dataset, spec: CorruptionSpec) -> Dataset:
    """Dispatch to the injector for spec.error_type."""
    if spec.error_type == MISSING:
        return inject_missing(d, spec)
    if spec.error_type == INCONSISTENT:
        return inject_inconsistent(d, spec)
    return inject_conflicting(d, spec)


def _eligible_feature_columns(d: Dataset, spec: CorruptionSpec) -> list[int]:
    cols = list(d.schema.feature_indices)
    if spec.corrupt_target_in_train and d.schema.target_index is not None:
        cols.append(d.schema.target_index)
    if spec.column_mask is not None:
        masked = {d.schema.index_of(n) for n in spec.column_mask}
        cols = [j for j in cols if j in masked]
    return cols


def _column_domain(d: Dataset, j: int) -> list[Cell]:
    values = {row[j] for row in d.rows}
    values.discard(None)
    return sorted(values)


def _refuse_dirtier(flagged: int, n: int, spec: CorruptionSpec, unit: str = "rows") -> None:
    """Raise InjectionImpossibleError when the table's own ``flagged`` of
    ``n`` rows (or cells) are already more than one above the spec's rate:
    an injector adds errors and never removes one."""
    if flagged > round(spec.rate * n) + 1:
        raise InjectionImpossibleError(
            f"the table is already {spec.error_type} at {flagged / n:.6g} ({flagged}/{n} {unit}), "
            f"above rate {spec.rate}"
        )


# ---------------------------------------------------------------------------
# missing
# ---------------------------------------------------------------------------

def inject_missing(d: Dataset, spec: CorruptionSpec) -> Dataset:
    """Make exactly round(rate * eligible_cells) eligible cells missing by
    deleting present ones, chosen uniformly; a table already within one cell
    above that is returned as it is, and one further above is refused."""
    out = d.copy()
    cols = _eligible_feature_columns(d, spec)
    total = len(cols) * out.n_rows
    if spec.rate > 0 and total == 0:
        raise ConfigurationError("no eligible cells to delete")
    if spec.rate == 0:
        return out
    already = count_missing(out.rows, cols)
    _refuse_dirtier(already, total, spec, "cells")
    n_delete = int(round(spec.rate * total)) - already
    if n_delete <= 0:
        return out
    rng = np.random.default_rng(spec.seed)
    chosen = rng.choice(total - already, size=n_delete, replace=False)
    if already:
        # the k-th cell drawn is the k-th eligible cell still present
        present = [row[j] is not None for row in out.rows for j in cols]
        chosen = np.flatnonzero(present)[chosen]
    # flat cell k is eligible column k % len(cols) of row k // len(cols)
    at_col = chosen % len(cols)
    for jpos, j in enumerate(cols):
        for i in (chosen[at_col == jpos] // len(cols)).tolist():
            out.rows[i][j] = None
    return out


# ---------------------------------------------------------------------------
# inconsistent (FD violations)
# ---------------------------------------------------------------------------

def usable_fd_rules(d: Dataset, spec: CorruptionSpec) -> tuple[list, list]:
    """The (lhs indices, rhs index) of each of the spec's FD rules that
    inconsistent injection may violate under its column restrictions, and
    each one's sorted rhs values.  Raises ConfigurationError when no rule is
    usable, and InjectionImpossibleError for one whose rhs has a single value."""
    allowed = set(_eligible_feature_columns(d, spec)) | set(d.schema.key_indices)
    if spec.column_mask is not None:
        allowed &= {d.schema.index_of(nm) for nm in spec.column_mask}
    bindings = []
    domains = []
    for rule in spec.rules:
        lhs_idx, rhs_idx = rule.bind(d.schema)
        cols = set(lhs_idx) | {rhs_idx}
        if d.schema.target_index in cols and not spec.corrupt_target_in_train:
            continue
        if spec.column_mask is not None and not cols <= allowed:
            continue
        domain = _column_domain(d, rhs_idx)
        if len(domain) < 2:
            raise InjectionImpossibleError(
                f"rule {','.join(rule.lhs)} -> {rule.rhs}: rhs column has a single value"
            )
        bindings.append((lhs_idx, rhs_idx))
        domains.append(domain)
    if not bindings:
        raise ConfigurationError("no usable FD rule after applying column restrictions")
    return bindings, domains


def inject_inconsistent(d: Dataset, spec: CorruptionSpec) -> Dataset:
    """Mutate rhs cells (fabricating lhs partners when needed) until the
    fraction of rows in FD-violating groups reaches round(rate * rows);
    raises InjectionImpossibleError unless it lands within one row above."""
    out = d.copy()
    n = out.n_rows
    target = int(round(spec.rate * n))
    if spec.rate == 0:
        return out

    bindings, domains = usable_fd_rules(d, spec)
    rng = np.random.default_rng(spec.seed)
    index = FDIndex(out.rows, bindings)
    _refuse_dirtier(index.flagged, n, spec)
    guard = 0
    while index.flagged < target and guard < 20 * n + 100:
        guard += 1
        need = target - index.flagged
        r = int(rng.integers(len(bindings)))
        lhs_idx, rhs_idx = bindings[r]
        domain = domains[r]

        if need == 1:
            joined = _join_violated_fd(index, rng)
            if joined:
                continue

        perm = rng.permutation(n)
        # mutate a victim that shares its lhs with other rows
        victim = None
        for i in perm:
            i = int(i)
            if index.is_flagged(i):
                continue
            key = index.key(r, i)
            if key is None:
                continue
            members = index.groups[r][key]
            if len(members) < 2:
                continue
            gain = sum(1 for m in members if not index.is_flagged(m))
            if 1 <= gain <= need:
                victim = (i, key, members)
                break
        if victim is not None:
            i, key, members = victim
            current = {out.rows[m][rhs_idx] for m in members}
            options = [v for v in domain if v not in current]
            if options:
                pick = options[int(rng.integers(len(options)))]
                index.set_cells(i, {rhs_idx: pick})
                continue

        # fabricate a partner: copy the victim's lhs onto another row and
        # give that row a differing rhs value
        v_row = None
        for i in perm:
            i = int(i)
            if not index.is_flagged(i) and index.key(r, i) is not None:
                v_row = i
                break
        p_row = None
        if v_row is not None:
            v_key = index.key(r, v_row)
            group = index.groups[r][v_key]
            for i in perm:
                i = int(i)
                if i != v_row and not index.is_flagged(i) and i not in group:
                    p_row = i
                    break
        if v_row is None or p_row is None:
            continue
        v_rhs = out.rows[v_row][rhs_idx]
        options = [v for v in domain if v != v_rhs]
        pick = options[int(rng.integers(len(options)))]
        updates = {j: out.rows[v_row][j] for j in lhs_idx}
        updates[rhs_idx] = pick
        index.set_cells(p_row, updates)

    # a fabricated partner flags its whole lhs group, which can overshoot
    if not target <= index.flagged <= target + 1:
        raise InjectionImpossibleError(
            f"could not reach inconsistent rate {spec.rate} (reached {index.flagged}/{n} rows)"
        )
    return out


def _join_violated_fd(index: FDIndex, rng: np.random.Generator) -> bool:
    """Attach one unflagged row to an already-violated group (+1 exactly)."""
    for r, viol in enumerate(index.violated):
        if not viol:
            continue
        key = next(iter(viol))
        lhs_idx, rhs_idx = index.bindings[r]
        members = index.groups[r][key]
        n = len(index.rows)
        for i in rng.permutation(n):
            i = int(i)
            if index.is_flagged(i) or i in members:
                continue
            updates = {j: kv for j, kv in zip(lhs_idx, key)}
            if index.rows[i][rhs_idx] is None:
                updates[rhs_idx] = index.rows[members[0]][rhs_idx]
            index.set_cells(i, updates)
            return True
    return False


# ---------------------------------------------------------------------------
# conflicting (entity disagreements)
# ---------------------------------------------------------------------------

def inject_conflicting(d: Dataset, spec: CorruptionSpec) -> Dataset:
    """Disagree one non-key attribute inside entity groups (duplicating
    singleton entities first) until the conflicting-row fraction meets the
    rate against the final row count."""
    out = d.copy()
    key_idx = tuple(out.schema.index_of(nm) for nm in spec.entity_key)
    mutate_cols = [j for j in _eligible_feature_columns(d, spec) if j not in key_idx]
    compare_idx = [j for j in range(out.schema.arity) if j not in key_idx]
    if not compare_idx:
        raise ConfigurationError("all columns are key columns; nothing can conflict")
    if spec.rate == 0:
        return out

    domains = {j: _column_domain(d, j) for j in mutate_cols}
    usable_cols = [j for j in mutate_cols if len(domains[j]) >= 2]
    if not usable_cols:
        raise InjectionImpossibleError("no non-key column has two distinct values")

    rng = np.random.default_rng(spec.seed)
    index = EntityIndex(out.rows, out.row_origin, key_idx, compare_idx)
    # rows are only appended flagged, so a table above the rate stays above it
    _refuse_dirtier(index.flag_count, out.n_rows, spec)
    # the bound is fixed by the input's row count: were it to grow with the
    # appended duplicates, a rate of 1.0 could chase its target forever
    for _ in range(20 * out.n_rows + 100):
        n = len(out.rows)
        target = int(round(spec.rate * n))
        if index.flag_count >= target:
            break
        need = target - index.flag_count

        if need == 1 and index.violated:
            key = next(iter(index.violated))
            index.append_duplicate(index.groups[key][0])
            continue

        perm = rng.permutation(n)
        mutated = False
        # conflict an existing multi-row entity group
        for i in perm:
            i = int(i)
            key = index.key(i)
            if key is None or key in index.violated:
                continue
            members = index.groups[key]
            if len(members) < 2 or len(members) > need:
                continue
            if _disagree_group(index, members, usable_cols, domains, rng):
                index.refresh(key)
                mutated = True
                break
        if mutated:
            continue
        # duplicate a singleton entity, then disagree the pair
        dup = None
        for i in perm:
            i = int(i)
            key = index.key(i)
            if key is None or key in index.violated:
                continue
            if len(index.groups[key]) == 1:
                dup = (i, key)
                break
        if dup is None:
            break
        i, key = dup
        copy_i = index.append_duplicate(i)
        if _disagree_group(index, [i, copy_i], usable_cols, domains, rng):
            index.refresh(key)

    final_target = int(round(spec.rate * len(out.rows)))
    if index.flag_count < final_target:
        raise InjectionImpossibleError(
            f"could not reach conflicting rate {spec.rate} "
            f"(reached {index.flag_count}/{len(out.rows)} rows)"
        )
    return out


def _disagree_group(index: EntityIndex, members: list[int], usable_cols: list[int],
                    domains: dict[int, list[Cell]], rng: np.random.Generator) -> bool:
    """Make one attribute differ inside a currently-agreeing group."""
    if not usable_cols:
        return False
    col = usable_cols[int(rng.integers(len(usable_cols)))]
    holders = [i for i in members if index.rows[i][col] is not None]
    dom = domains[col]
    if not holders:
        index.rows[members[0]][col] = dom[0]
        index.rows[members[1]][col] = dom[1]
        return True
    # the group agrees on one value; overwrite one holder (or, when only one
    # member holds a value, another member) with a different value
    target = holders[0] if len(holders) >= 2 else next(i for i in members if i != holders[0])
    current = index.rows[holders[0]][col]
    index.rows[target][col] = _other_value(dom, current, rng)
    return True


def _other_value(dom: list[Cell], current: Cell, rng: np.random.Generator) -> Cell:
    """A uniform draw from ``[v for v in dom if v != current]`` without
    building it: the domain is sorted and distinct, so dropping ``current``
    at position ``pos`` shifts every later option one place."""
    pos = bisect_left(dom, current)
    if pos == len(dom) or dom[pos] != current:
        return dom[int(rng.integers(len(dom)))]
    r = int(rng.integers(len(dom) - 1))
    return dom[r + (r >= pos)]


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------

def impute(d: Dataset) -> Dataset:
    """Fill numeric gaps with the column mean, categorical ones with the mode.

    Mode ties break toward the first-seen value.  A column that is entirely
    missing raises ImputationImpossibleError naming it.
    """
    if not d.has_missing():
        return d.copy()
    out = d.copy()
    for j, col in enumerate(out.schema.columns):
        holes = [i for i in range(out.n_rows) if out.rows[i][j] is None]
        if not holes:
            continue
        present = [out.rows[i][j] for i in range(out.n_rows) if out.rows[i][j] is not None]
        if not present:
            raise ImputationImpossibleError(f"column {col.name!r} is entirely missing")
        if col.kind == NUMERIC:
            fill: Cell = float(sum(present)) / len(present)
            if not math.isfinite(fill):  # the sum passed the largest double: divide first
                fill = min(max(sum(v / len(present) for v in present), min(present)), max(present))
        else:
            counts: dict[Cell, int] = {}
            for v in present:
                counts[v] = counts.get(v, 0) + 1
            fill = max(counts, key=counts.get)  # dict order keeps first-seen on ties
        for i in holes:
            out.rows[i][j] = fill
    return out
