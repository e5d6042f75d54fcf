"""The one feature encoding every learner reads.

:class:`EncodedTable` reads a dataset's rows once into read-only arrays: a
float64 block of the numeric feature columns, first-seen codes of each
categorical feature column with the list of its values, the target's
first-seen codes (and its floats, for a numeric target) and the clean
labels.  A sweep builds one per (dataset, error type, rate) point, and every
learner at that point slices it.

:class:`ColumnFit` is the single place where the encoding is decided.  Fitted
on the training rows of a table, it records each numeric feature's min and
max and each categorical feature's first-seen vocabulary, with those rows'
numeric block and code block.  Encoding other rows through the fit maps a
category it never saw to code -1.  Every feature cell must be present:
impute before encoding, a missing cell raises :class:`SchemaError`.

Each reader takes a table or a dataset; a dataset is read into a table
first.  The views built on a fit work on whole row sets, read from a table
or given as the fit's own blocks (``num``, ``codes``):

* :class:`FeatureEncoder` min-max scales numeric features to [0, 1] and turns
  categorical ones into one-hot blocks scaled by 1/sqrt(2), so the squared
  Euclidean distance between two records is the scaled numeric terms plus an
  overlap term (0 if equal, 1 otherwise) per categorical column.  An unseen
  category embeds as an all-zero block.
* :class:`Discretizer` cuts numeric features into equal-width bins, clamped
  at both ends, and gives an unseen category the reserved code
  ``len(vocab)``.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .data import Cell, Dataset, NUMERIC
from .errors import EmptyInputError, SchemaError

CAT_SCALE = 1.0 / math.sqrt(2.0)


def _missing(schema, j: int) -> SchemaError:
    name = schema.columns[j].name
    return SchemaError(f"missing cell in column {name!r}; impute before encoding")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def first_seen(codes: np.ndarray) -> list[int]:
    """The distinct codes of ``codes`` in the order they first appear."""
    found, first = np.unique(codes, return_index=True)
    return found[np.argsort(first)].tolist()


def _coded(values: list[Cell]) -> tuple[np.ndarray, list[Cell]]:
    """First-seen codes of ``values`` (-1 for a missing one) and the values
    the codes stand for."""
    index: dict[Cell, int] = {}
    codes = [-1 if v is None else index.setdefault(v, len(index)) for v in values]
    return np.array(codes, dtype=np.int64), list(index)


class EncodedTable:
    """A dataset's rows read once into read-only arrays, in row order.

    ``num`` is the C-contiguous float64 block of the numeric feature
    columns (``numeric_cols``, schema order; NaN where a cell is missing),
    ``codes[:, b]`` the first-seen codes of categorical feature column
    ``categorical_cols[b]`` over the whole table, which stand for
    ``categories[b]`` (-1 where a cell is missing).  ``target_codes`` and
    ``target_values`` code the stored target the same way, ``target_num``
    holds a numeric target's floats, and ``truth`` each row's clean label.
    Build it from a dataset whose rows no one changes afterwards."""

    def __init__(self, dataset: Dataset):
        schema = self.schema = dataset.schema
        rows = dataset.rows
        self.n_rows = len(rows)
        columns = schema.columns
        self.feature_cols = schema.feature_indices
        self.is_numeric = [columns[j].kind == NUMERIC for j in self.feature_cols]
        self.numeric_cols = [j for j, n in zip(self.feature_cols, self.is_numeric) if n]
        self.categorical_cols = [j for j, n in zip(self.feature_cols, self.is_numeric) if not n]
        num = np.array([[row[j] for j in self.numeric_cols] for row in rows], dtype=float)
        self.num = _read_only(num.reshape(self.n_rows, len(self.numeric_cols)))
        codes = np.empty((self.n_rows, len(self.categorical_cols)), dtype=np.int64)
        self.categories: list[list[Cell]] = []
        for b, j in enumerate(self.categorical_cols):
            codes[:, b], values = _coded([row[j] for row in rows])
            self.categories.append(values)
        self.codes = _read_only(codes)
        t = schema.target_index
        self.target_codes = self.target_num = self.truth = None
        if t is not None:
            target = [row[t] for row in rows]
            codes, self.target_values = _coded(target)
            self.target_codes = _read_only(codes)
            if columns[t].kind == NUMERIC:
                self.target_num = _read_only(np.array(target, dtype=float))
            self.truth = tuple(dataset.clean_shadow[o][t] for o in dataset.row_origin)

    @classmethod
    def of(cls, data: Dataset | EncodedTable) -> EncodedTable:
        """``data`` itself if it is a table, else its rows read into one."""
        return data if isinstance(data, EncodedTable) else cls(data)

    def numeric(self, rows: Sequence[int] | None = None,
                cols: Sequence[int] | None = None) -> np.ndarray:
        """The C-contiguous float64 block of numeric feature columns ``cols``
        (all of them when None) at ``rows``."""
        block = self.num if rows is None else self.num[np.asarray(rows, dtype=np.int64)]
        if cols is not None and list(cols) != self.numeric_cols:
            cols = list(cols)
            block = np.ascontiguousarray(block[:, [self.numeric_cols.index(j) for j in cols]])
        else:
            cols = self.numeric_cols
        holes = np.isnan(block).any(axis=0)  # stored numbers are finite: NaN was None
        if holes.any():
            raise _missing(self.schema, cols[int(np.argmax(holes))])
        return block

    def category_codes(self, rows: Sequence[int] | None = None) -> np.ndarray:
        """The table's codes of every categorical feature column at ``rows``."""
        block = self.codes if rows is None else self.codes[np.asarray(rows, dtype=np.int64)]
        holes = (block < 0).any(axis=0)
        if holes.any():
            raise _missing(self.schema, self.categorical_cols[int(np.argmax(holes))])
        return block

    def labels(self, rows: Sequence[int] | None,
               model: str) -> tuple[tuple[Cell, ...], np.ndarray]:
        """The distinct stored labels at ``rows``, which train ``model``, in
        first-seen order, and each row's index into them."""
        idx = np.arange(self.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
        if not len(idx):
            raise EmptyInputError(f"cannot fit {model} on zero rows")
        if self.target_codes is None:
            raise SchemaError("dataset has no target column")
        codes = self.target_codes[idx]
        if (codes < 0).any():
            raise SchemaError("missing target label; labels cannot be imputed here")
        order = first_seen(codes)
        local = np.zeros(len(self.target_values), dtype=np.int64)
        local[order] = np.arange(len(order))
        return tuple(self.target_values[c] for c in order), local[codes]


Data = Dataset | EncodedTable  # what every reader takes


class ColumnFit:
    """Numeric min/max and first-seen vocabularies of the feature columns,
    fitted on ``rows``, with those rows' numeric block ``num`` and code block
    ``codes``.  Feature position ``p`` (schema order) is column
    ``block_col[p]`` of ``num`` when ``is_numeric[p]``, else of ``codes``."""

    def __init__(self, data: Data, rows: Sequence[int] | None = None):
        table = EncodedTable.of(data)
        self.feature_cols = table.feature_cols
        self.is_numeric = table.is_numeric
        self.numeric_cols = table.numeric_cols
        self.categorical_cols = table.categorical_cols
        self.block_col = [self.is_numeric[:p].count(n) for p, n in enumerate(self.is_numeric)]
        self.num = table.numeric(rows)
        self.lo = self.num.min(axis=0)
        self.span = self.num.max(axis=0) - self.lo
        found = table.category_codes(rows)
        self.vocab = [{values[c]: code for code, c in enumerate(first_seen(found[:, b]))}
                      for b, values in enumerate(table.categories)]
        self.codes = self._code(table, found)

    def _code(self, table: EncodedTable, found: np.ndarray) -> np.ndarray:
        """The fit's codes of a table's category codes; unseen ones get -1."""
        codes = np.empty(found.shape, dtype=np.int64)
        for b, (values, vocab) in enumerate(zip(table.categories, self.vocab)):
            lookup = np.array([vocab.get(v, -1) for v in values], dtype=np.int64)
            codes[:, b] = lookup[found[:, b]]
        return codes

    def encode(self, data: Data,
               rows: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(numeric block, code block) of ``rows``; unseen categories get -1."""
        table = EncodedTable.of(data)
        num = table.numeric(rows)
        return num, self._code(table, table.category_codes(rows))

    def unit_scale(self, num: np.ndarray) -> np.ndarray:
        """A numeric block min-max scaled by the fitted range; a constant
        column scales to 0."""
        flat = self.span <= 0
        out = (num - self.lo) / np.where(flat, 1.0, self.span)
        out[:, flat] = 0.0
        return out


class FeatureEncoder:
    """Min-max + scaled one-hot embedding of the feature columns."""

    def __init__(self, data: Data, rows: Sequence[int] | None = None):
        self.encoding = ColumnFit(data, rows)
        sizes = [len(v) for v in self.encoding.vocab]
        bounds = np.cumsum([len(self.encoding.numeric_cols)] + sizes)
        self.offsets = bounds[:-1]  # first one-hot column of each categorical feature
        self.width = int(bounds[-1])

    def transform_rows(self, data: Data,
                       rows: Sequence[int] | None = None) -> np.ndarray:
        return self.embed(*self.encoding.encode(data, rows))

    def embed(self, num: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """The embedding of encoded rows: a numeric block and a code block."""
        out = np.zeros((len(num), self.width))
        out[:, :num.shape[1]] = self.encoding.unit_scale(num)
        for b, offset in enumerate(self.offsets):
            seen = np.flatnonzero(codes[:, b] >= 0)  # unseen categories stay all-zero
            out[seen, offset + codes[seen, b]] = CAT_SCALE
        return out


class Discretizer:
    """Equal-width binning of numeric features plus categorical code maps.

    Produces the integer code matrix, one column per feature in schema order,
    that the probabilistic classifiers condition on; bin edges and
    vocabularies are fitted on the training rows.
    """

    def __init__(self, data: Data, rows: Sequence[int] | None = None,
                 n_bins: int = 10):
        self.encoding = ColumnFit(data, rows)
        self.n_bins = n_bins
        # one extra code per categorical feature is reserved for unseen values
        self.unseen = np.array([len(v) for v in self.encoding.vocab], dtype=np.int64)
        self.cardinalities = [
            n_bins if n else int(self.unseen[b]) + 1
            for n, b in zip(self.encoding.is_numeric, self.encoding.block_col)
        ]

    def codes_rows(self, data: Data,
                   rows: Sequence[int] | None = None) -> np.ndarray:
        return self.code(*self.encoding.encode(data, rows))

    def code(self, num: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """The code matrix of encoded rows: a numeric block and a code block."""
        scaled = self.encoding.unit_scale(num) * self.n_bins
        bins = np.clip(scaled, 0, self.n_bins - 1).astype(np.int64)  # clamps out-of-range values
        out = np.empty((len(num), len(self.encoding.is_numeric)), dtype=np.int64)
        numeric = np.array(self.encoding.is_numeric, dtype=bool)
        out[:, numeric] = bins
        out[:, ~numeric] = np.where(codes >= 0, codes, self.unseen)
        return out
