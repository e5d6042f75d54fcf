"""Typed tabular datasets: loading, schema inference, FD rules, error-rate detection.

Cells are plain Python values: ``float`` for numeric columns, ``str`` for
categorical ones, and ``None`` as the dedicated missing marker (serialized as
an empty field).  ``load_dataset`` reads a file in one pass and gives the
equal fields of a column one shared, immutable cell.  A loaded or built
dataset keeps an immutable ``clean_shadow`` of its rows so that later
corruption can always be measured against ground truth; its ``rows`` are the
shadow's own tuples, so it holds them once, and ``copy`` gives the list rows
that corruption writes.  ``dataset_to_text`` returns a table's text, or
writes it into an open file a chunk of lines at a time.

What makes a row dirty is defined once, here, in ``ViolationIndex``: rows
that share key values are violated when they hold different present values
in a column those keys determine.  An FD rule groups by its lhs and compares
its rhs; an entity key is an FD onto every other column.  The detectors
read the index and the injectors in ``corrupt`` keep it current.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import (
    ConfigurationError,
    EmptyInputError,
    ParseError,
    RuleError,
    SchemaError,
)

Cell = float | str | None

NUMERIC = "numeric"
CATEGORICAL = "categorical"

FEATURE = "feature"
TARGET = "target"
KEY = "key"


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # numeric | categorical
    role: str = FEATURE  # feature | target | key

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown column kind {self.kind!r}")
        if self.role not in (FEATURE, TARGET, KEY):
            raise SchemaError(f"unknown column role {self.role!r}")


@dataclass(frozen=True)
class Schema:
    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("column names must be unique")
        if sum(c.role == TARGET for c in self.columns) > 1:
            raise SchemaError("at most one target column allowed")
        if not self.feature_indices:
            raise SchemaError("schema needs at least one feature column")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def n(self) -> int:
        """Number of feature columns."""
        return len(self.feature_indices)

    @property
    def feature_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.role == FEATURE)

    @property
    def key_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.role == KEY)

    @property
    def target_index(self) -> int | None:
        for i, c in enumerate(self.columns):
            if c.role == TARGET:
                return i
        return None

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"unknown column {name!r}")


@dataclass(frozen=True)
class FDRule:
    """Consistency rule ``lhs1,lhs2 -> rhs``: the lhs values determine rhs."""

    lhs: tuple[str, ...]
    rhs: str

    def __post_init__(self):
        if not self.lhs:
            raise RuleError("rule needs a non-empty left-hand side")
        if self.rhs in self.lhs:
            raise RuleError(f"rule rhs {self.rhs!r} appears in its own lhs")

    def bind(self, schema: Schema) -> tuple[tuple[int, ...], int]:
        """Resolve column names to indices; raises RuleError on unknown names."""
        try:
            lhs_idx = tuple(schema.index_of(n) for n in self.lhs)
            rhs_idx = schema.index_of(self.rhs)
        except SchemaError as exc:
            raise RuleError(f"cannot bind rule {self}: {exc}") from exc
        return lhs_idx, rhs_idx

    def grouping(self, schema: Schema) -> Grouping:
        """The rule as a ``ViolationIndex`` grouping: rows with lhs and rhs
        present, grouped by lhs, compared on rhs."""
        lhs_idx, rhs_idx = self.bind(schema)
        return lhs_idx, (rhs_idx,), lhs_idx + (rhs_idx,)


@dataclass
class Dataset:
    """Rows plus schema, FD rules, and the protected clean copy.

    A table from ``load_dataset`` or ``dataset_from_rows`` holds its rows
    once: ``rows[i] is clean_shadow[i]``, a tuple, so a write into one of
    them raises TypeError instead of changing the ground truth and every
    config entry that shares the table.  ``copy`` gives list rows to write.

    ``row_origin[i]`` is the index into ``clean_shadow`` that row ``i``
    descends from; corruption that duplicates rows extends it, so ground
    truth stays addressable for every live row.
    """

    schema: Schema
    rows: list[Sequence[Cell]]
    clean_shadow: tuple[tuple[Cell, ...], ...]
    source: str = "<memory>"
    rules: tuple[FDRule, ...] = ()
    row_origin: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.row_origin:
            self.row_origin = list(range(len(self.rows)))
        arity = self.schema.arity
        for i, row in enumerate(self.rows):
            if len(row) != arity:
                raise SchemaError(f"row {i} has {len(row)} cells, schema expects {arity}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def has_missing(self) -> bool:
        return any(cell is None for row in self.rows for cell in row)

    def labels(self) -> list[Cell]:
        """Clean target values in row order (from the protected copy)."""
        t = self.schema.target_index
        if t is None:
            raise SchemaError("dataset has no target column")
        return [self.clean_shadow[o][t] for o in self.row_origin]

    def label_values(self) -> list[Cell]:
        """Distinct clean target values in first-seen order."""
        seen: dict[Cell, None] = {}
        for v in self.labels():
            if v is not None and v not in seen:
                seen[v] = None
        return list(seen)

    @property
    def n_c(self) -> int:
        return len(self.label_values())

    def with_rows(self, rows: list[Sequence[Cell]], row_origin: list[int] | None = None) -> "Dataset":
        """New dataset sharing schema/shadow/rules but carrying changed rows."""
        return Dataset(
            schema=self.schema,
            rows=rows,
            clean_shadow=self.clean_shadow,
            source=self.source,
            rules=self.rules,
            row_origin=list(row_origin) if row_origin is not None else list(self.row_origin),
        )

    def copy(self) -> "Dataset":
        """This table with each row copied into a list, free to write."""
        return self.with_rows(list(map(list, self.rows)))

    def attach_rules(self, rules: Iterable[FDRule]) -> "Dataset":
        bound = tuple(rules)
        for r in bound:
            r.bind(self.schema)  # validates names
        return replace(self, rules=bound)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def format_cell(cell: Cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        if cell == int(cell) and abs(cell) < 1e15:
            return str(int(cell))
        return repr(cell)
    return str(cell)


class _Column(dict):
    """A column being loaded: field text -> cell, each distinct field parsed
    once, so equal fields share one cell.  Numeric until a non-empty field
    is not a finite real; then the floats it gave ``rows`` go back to text."""

    def __init__(self, rows: list[list[Cell]], j: int):
        super().__init__({"": None})
        self.rows, self.j, self.numeric = rows, j, True

    def __missing__(self, text: str) -> Cell:
        if self.numeric:
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                self[text] = value
                return value
            self.numeric = False
            back = {}
            for t, c in self.items():
                if c is not None:
                    back[id(c)] = self[t] = t
            for row in self.rows:
                if row[self.j] is not None:
                    row[self.j] = back[id(row[self.j])]
        self[text] = text
        return text


def load_dataset(
    path: str | Path,
    delimiter: str = ",",
    has_header: bool = True,
    target: str | None = None,
    keys: Sequence[str] = (),
) -> Dataset:
    """Load a delimited text file into a typed Dataset in one pass.

    A row ends at a newline (``\\r\\n`` and ``\\r`` end one too); blank lines
    are skipped and fields trimmed.  A column is numeric iff each of its
    non-empty fields is a finite real.  ``target`` and ``keys`` assign
    column roles.  Raises ParseError on a row of the wrong width, naming
    its line in the file, and EmptyInputError when no data rows exist.
    The rows are the clean shadow's tuples.
    """
    path = Path(path)
    rows: list[list[Cell]] = []
    with path.open(encoding="utf-8") as fh:  # universal newlines
        lines = ((n, ln.split(delimiter))
                 for n, ln in enumerate(fh, start=1) if not ln.isspace())
        header = None
        if has_header:
            _, fields = next(lines, (0, None))
            if fields is None:
                raise EmptyInputError(f"{path}: file is empty")
            header = [f.strip() for f in fields]
        first = next(lines, None)
        if first is None:
            raise EmptyInputError(f"{path}: no data rows")
        width = len(header) if header else len(first[1])
        columns = [_Column(rows, j) for j in range(width)]
        for lineno, fields in itertools.chain((first,), lines):
            if len(fields) != width:
                raise ParseError(
                    f"{path}: line {lineno} has {len(fields)} fields, expected {width}"
                )
            rows.append([column[f.strip()] for column, f in zip(columns, fields)])

    names = header or [f"c{j}" for j in range(width)]
    if target is not None and target not in names:
        raise SchemaError(f"target column {target!r} not found in {names}")
    schema = Schema(tuple(
        Column(name, NUMERIC if column.numeric and len(column) > 1 else CATEGORICAL,
               TARGET if name == target else KEY if name in keys else FEATURE)
        for name, column in zip(names, columns)))
    # lists while reading, since a column turning categorical writes back
    # into them; then the shadow's tuples, so the table keeps one copy
    shadow = tuple(map(tuple, rows))
    rows[:] = shadow
    return Dataset(schema=schema, rows=rows, clean_shadow=shadow, source=str(path))


def format_rows(rows: Iterable[Sequence[Cell]], delimiter: str = ",") -> list[str]:
    """Each row as one line of text, without its line ending."""
    return [delimiter.join(map(format_cell, row)) for row in rows]


def _text_lines(d: Dataset, delimiter: str, header: bool,
                clean_lines: Sequence[str] | None) -> Iterator[str]:
    if header:
        yield delimiter.join(d.schema.names)
    if clean_lines is None:
        for row in d.rows:
            yield delimiter.join(map(format_cell, row))
        return
    shadow = d.clean_shadow
    for row, o in zip(d.rows, d.row_origin):
        yield (clean_lines[o] if tuple(row) == shadow[o]
               else delimiter.join(map(format_cell, row)))


WRITE_CHUNK_LINES = 1024


def dataset_to_text(d: Dataset, delimiter: str = ",", header: bool = True,
                    clean_lines: Sequence[str] | None = None,
                    file: TextIO | None = None) -> str | None:
    """The rows as delimited text, each line ended by a newline: returned,
    or, when ``file`` is an open text file, written into it
    ``WRITE_CHUNK_LINES`` lines at a time, so that the whole text never
    exists at once.  Both give the same characters.

    ``clean_lines``, when given, is ``format_rows(d.clean_shadow, delimiter)``:
    a row whose cells equal those of its ``row_origin`` clean row takes that
    row's line, so the outputs derived from one table format its unchanged
    rows once.  Equal cells format alike (floats that compare equal differ
    at most in the sign of zero, and both zeros format as "0"), so the text
    is the same with or without them.
    """
    if clean_lines is not None and len(clean_lines) != len(d.clean_shadow):
        raise ValueError(f"{len(clean_lines)} clean lines for "
                         f"{len(d.clean_shadow)} clean rows")
    lines = _text_lines(d, delimiter, header, clean_lines)
    if file is None:
        return "\n".join(lines) + "\n"
    chunk = list(itertools.islice(lines, WRITE_CHUNK_LINES))
    while True:  # the first chunk is written even when empty, as "\n"
        file.write("\n".join(chunk) + "\n")
        chunk = list(itertools.islice(lines, WRITE_CHUNK_LINES))
        if not chunk:
            return None


def save_dataset(d: Dataset, path: str | Path, delimiter: str = ",", header: bool = True) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        dataset_to_text(d, delimiter, header, file=fh)


def dataset_from_rows(
    columns: Schema | Sequence[Column],
    rows: Sequence[Sequence[Cell]],
    rules: Iterable[FDRule] = (),
    source: str = "<memory>",
) -> Dataset:
    """Build a Dataset from in-memory values (ints coerced to float); its
    rows are the clean shadow's tuples."""
    schema = columns if isinstance(columns, Schema) else Schema(tuple(columns))
    typed: list[Sequence[Cell]] = []
    for i, row in enumerate(rows):
        if len(row) != schema.arity:
            raise SchemaError(f"row {i} has {len(row)} cells, schema expects {schema.arity}")
        cells: list[Cell] = []
        for cell, col in zip(row, schema.columns):
            if cell is None:
                cells.append(None)
            elif col.kind == NUMERIC:
                value = float(cell)
                if value != value or value in (float("inf"), float("-inf")):
                    raise SchemaError(f"non-finite value in numeric column {col.name!r}")
                cells.append(value)
            else:
                cells.append(str(cell))
        typed.append(tuple(cells))
    if not typed:
        raise EmptyInputError("no rows supplied")
    shadow = tuple(typed)
    d = Dataset(schema=schema, rows=typed, clean_shadow=shadow, source=source)
    return d.attach_rules(rules) if rules else d


def parse_fd_rules(text: str) -> list[FDRule]:
    """Parse rules of the form ``A,B -> C``, one per line; blank lines skipped."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise RuleError(f"line {lineno}: expected 'lhs1,lhs2 -> rhs', got {line!r}")
        lhs_text, rhs_text = line.split("->", 1)
        lhs = tuple(t.strip() for t in lhs_text.split(",") if t.strip())
        rhs = rhs_text.strip()
        if not rhs or "," in rhs:
            raise RuleError(f"line {lineno}: rule needs exactly one rhs column")
        rules.append(FDRule(lhs=lhs, rhs=rhs))
    return rules


# ---------------------------------------------------------------------------
# error-rate detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorRates:
    missing: float
    inconsistent: float
    conflicting: float

    def as_dict(self) -> dict[str, float]:
        return {
            "missing": self.missing,
            "inconsistent": self.inconsistent,
            "conflicting": self.conflicting,
        }


def count_missing(rows: Sequence[Sequence[Cell]], cols: Iterable[int]) -> int:
    """Missing cells of ``rows`` in the columns ``cols``."""
    return sum([row[j] for row in rows].count(None) for j in cols)


def missing_cell_rate(d: Dataset) -> float:
    """Missing feature cells divided by total feature cells."""
    cols = d.schema.feature_indices
    total = len(cols) * d.n_rows
    if total == 0:
        return 0.0
    return count_missing(d.rows, cols) / total


Grouping = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class ViolationIndex:
    """Rows grouped by their key values under each of a list of groupings,
    with the violated groups and, in ``flag_count``, how many of them flag
    each row.

    A grouping is (key columns, compared columns, columns that must be
    present): a row joins the group of its key values when its
    must-be-present cells are all present, and a group is violated when two
    members hold different present values in one compared column.  An FD
    ``lhs -> rhs`` is ``(lhs, (rhs,), lhs + (rhs,))`` and an entity key
    ``(key, every other column, key)``.  The injectors keep the index
    current through ``set_cells``, ``refresh`` and ``append_duplicate``,
    which write, so they need list rows; a fresh table's tuple rows can be
    indexed and read only.
    ``groups`` and ``violated`` are ordered as ``_group`` says, so iteration
    is the same across process restarts.
    """

    def __init__(self, rows: list[Sequence[Cell]], groupings: Sequence[Grouping]):
        self.rows = rows
        self.groupings = list(groupings)
        self.groups: list[dict[tuple, list[int]]] = []
        self.violated: list[dict[tuple, None]] = []
        self.flag_count: dict[int, int] = {}
        for g, (key_idx, _, present_idx) in enumerate(self.groupings):
            # ``key(g, i)`` of every row, read column by column: the key
            # cells, then the other cells that must be present
            width = len(key_idx)
            cells = zip(*[[row[j] for row in rows]
                          for j in key_idx + tuple(j for j in present_idx if j not in key_idx)])
            keys = (None if None in k else k[:width] for k in cells)
            groups, violated = _group(keys, partial(self._violated_at, g))
            self.groups.append(groups)
            self.violated.append(violated)
            for key in violated:
                self._flag(groups[key])

    def copy(self, rows: list[list[Cell]]) -> "ViolationIndex":
        """This index over ``rows``, a copy of the rows it indexes, sharing
        nothing that the injectors change: the same as building it anew over
        ``rows``, group and violation order included, without the grouping."""
        twin = ViolationIndex.__new__(ViolationIndex)
        twin.rows, twin.groupings = rows, self.groupings
        twin.groups = [{key: list(members) for key, members in groups.items()}
                       for groups in self.groups]
        twin.violated = [dict(violated) for violated in self.violated]
        twin.flag_count = dict(self.flag_count)
        return twin

    @property
    def flagged(self) -> int:
        return len(self.flag_count)

    def is_flagged(self, i: int) -> bool:
        return i in self.flag_count

    def key(self, g: int, i: int) -> tuple | None:
        key_idx, _, present_idx = self.groupings[g]
        row = self.rows[i]
        for j in present_idx:
            if row[j] is None:
                return None
        return tuple([row[j] for j in key_idx])

    def _violated_at(self, g: int, members: list[int]) -> int | None:
        """The first member holding a value that differs from an earlier
        member's present value in the same compared column."""
        rows = self.rows
        compare_idx = self.groupings[g][1]
        seen: dict[int, Cell] = {}
        for m in members:
            row = rows[m]
            for j in compare_idx:
                v = row[j]
                if v is not None and seen.setdefault(j, v) != v:
                    return m
        return None

    def _flag(self, members: Iterable[int]):
        counts = self.flag_count
        for i in members:
            counts[i] = counts.get(i, 0) + 1

    def _unflag(self, members: Iterable[int]):
        counts = self.flag_count
        for i in members:
            counts[i] -= 1
            if counts[i] == 0:
                del counts[i]

    def _add(self, g: int, i: int):
        key = self.key(g, i)
        if key is None:
            return
        members = self.groups[g].setdefault(key, [])
        members.append(i)
        if key in self.violated[g]:
            self._flag((i,))
        elif self._violated_at(g, members) is not None:
            self.violated[g][key] = None
            self._flag(members)

    def _remove(self, g: int, i: int):
        key = self.key(g, i)
        if key is None:
            return
        members = self.groups[g][key]
        members.remove(i)
        if not members:
            del self.groups[g][key]
        if key in self.violated[g]:
            self._unflag((i,))
            if not members or self._violated_at(g, members) is None:
                del self.violated[g][key]
                self._unflag(members)

    def set_cells(self, i: int, updates: dict[int, Cell]):
        """Write cells of row ``i``, moving it between groups as it goes."""
        affected = [g for g, (key_idx, compare_idx, present_idx) in enumerate(self.groupings)
                    if not updates.keys().isdisjoint(key_idx + compare_idx + present_idx)]
        for g in affected:
            self._remove(g, i)
        for j, v in updates.items():
            self.rows[i][j] = v
        for g in affected:
            self._add(g, i)

    def refresh(self, g: int, key: tuple):
        """Re-evaluate one group after its members' compared cells were
        written in place."""
        members = self.groups[g][key]
        was = key in self.violated[g]
        now = self._violated_at(g, members) is not None
        if now and not was:
            self.violated[g][key] = None
            self._flag(members)
        elif was and not now:
            del self.violated[g][key]
            self._unflag(members)

    def append_duplicate(self, src: int) -> int:
        """Append a copy of row ``src`` and index it; its new row index."""
        self.rows.append(list(self.rows[src]))
        i = len(self.rows) - 1
        for g in range(len(self.groupings)):
            self._add(g, i)
        return i


def entity_grouping(schema: Schema, entity_key: Sequence[str]) -> Grouping:
    """The entity key as a grouping: rows with every key cell present,
    grouped by them and compared on every other column."""
    key_idx = tuple(schema.index_of(n) for n in entity_key)
    other_idx = tuple(j for j in range(schema.arity) if j not in key_idx)
    if not other_idx:
        raise ConfigurationError("all columns are key columns; nothing can conflict")
    return key_idx, other_idx, key_idx


def _group(keys: Iterable[tuple | None], violated_at) -> tuple[dict[tuple, list[int]], dict[tuple, None]]:
    """Rows grouped by their keys, in row order, in one pass (a None key
    leaves the row out), and the keys of the violated groups.  ``violated_at(members)``
    names the member that made a group violated, or None.  Both dicts have
    the order a row-by-row build through ``_add`` gives: groups by their
    first row, violated groups by the row that made them violated."""
    groups: dict[tuple, list[int]] = {}
    for i, k in enumerate(keys):
        if k is not None:
            groups.setdefault(k, []).append(i)
    at = {k: violated_at(members) for k, members in groups.items() if len(members) > 1}
    return groups, dict.fromkeys(sorted((k for k in at if at[k] is not None), key=at.get))


def inconsistent_rows(d: Dataset, rules: Sequence[FDRule]) -> set[int]:
    """Indices of rows that share FD lhs values with differing rhs values."""
    if not rules:
        raise ConfigurationError("inconsistent detection requires at least one FD rule")
    return set(ViolationIndex(d.rows, [rule.grouping(d.schema) for rule in rules]).flag_count)


def inconsistent_row_rate(d: Dataset, rules: Sequence[FDRule]) -> float:
    if d.n_rows == 0:
        return 0.0
    return len(inconsistent_rows(d, rules)) / d.n_rows


def conflicting_rows(d: Dataset, entity_key: Sequence[str]) -> set[int]:
    """Indices of rows whose entity group disagrees on some non-key attribute."""
    if not entity_key:
        raise ConfigurationError("conflicting detection requires an entity key")
    return set(ViolationIndex(d.rows, [entity_grouping(d.schema, entity_key)]).flag_count)


def conflicting_row_rate(d: Dataset, entity_key: Sequence[str]) -> float:
    if d.n_rows == 0:
        return 0.0
    return len(conflicting_rows(d, entity_key)) / d.n_rows


def detect_error_rates(
    d: Dataset,
    rules: Sequence[FDRule] | None = None,
    entity_key: Sequence[str] | None = None,
) -> ErrorRates:
    """Measure all three dirty-data rates.

    ``rules`` defaults to the dataset's attached rules, ``entity_key`` to the
    schema's key columns.  A rate whose prerequisite is absent reads as 0.
    """
    if rules is None:
        rules = d.rules
    if entity_key is None:
        entity_key = tuple(d.schema.columns[j].name for j in d.schema.key_indices)
    inconsistent = inconsistent_row_rate(d, rules) if rules else 0.0
    conflicting = conflicting_row_rate(d, entity_key) if entity_key else 0.0
    return ErrorRates(missing_cell_rate(d), inconsistent, conflicting)
