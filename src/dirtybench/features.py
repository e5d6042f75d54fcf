"""The one feature encoding every learner reads.

:class:`ColumnFit` is the single place where the encoding is decided.  Fitted
on the training rows, it records each numeric feature's min and max and each
categorical feature's first-seen vocabulary, and reads those rows once into a
float64 numeric block and an int code block.  Encoding other rows through the
fit maps a category it never saw to code -1.  Every feature cell must be
present: impute before encoding, a missing cell raises :class:`SchemaError`.

The views built on a fit work on whole row sets, read from a dataset or
given as the fit's own blocks (``num``, ``codes``):

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
from .errors import SchemaError

CAT_SCALE = 1.0 / math.sqrt(2.0)


def _missing(dataset: Dataset, j: int) -> SchemaError:
    name = dataset.schema.columns[j].name
    return SchemaError(f"missing cell in column {name!r}; impute before encoding")


def _row_list(dataset: Dataset, rows: Sequence[int] | None) -> list[list[Cell]]:
    return dataset.rows if rows is None else [dataset.rows[i] for i in rows]


def numeric_block(dataset: Dataset, rows: Sequence[int] | None,
                  cols: Sequence[int]) -> np.ndarray:
    """Raw float64 values of the numeric columns ``cols`` at ``rows``."""
    cells = _row_list(dataset, rows)
    block = np.array([[row[j] for j in cols] for row in cells], dtype=float)
    block = block.reshape(len(cells), len(cols))
    holes = np.isnan(block).any(axis=0)  # stored numbers are finite: NaN was None
    if holes.any():
        raise _missing(dataset, cols[int(np.argmax(holes))])
    return block


class ColumnFit:
    """Numeric min/max and first-seen vocabularies of the feature columns,
    fitted on ``rows``, with those rows' numeric block ``num`` and code block
    ``codes``.  Feature position ``p`` (schema order) is column
    ``block_col[p]`` of ``num`` when ``is_numeric[p]``, else of ``codes``."""

    def __init__(self, dataset: Dataset, rows: Sequence[int] | None = None):
        columns = dataset.schema.columns
        self.feature_cols = dataset.schema.feature_indices
        self.is_numeric = [columns[j].kind == NUMERIC for j in self.feature_cols]
        self.numeric_cols = [j for j, n in zip(self.feature_cols, self.is_numeric) if n]
        self.categorical_cols = [j for j, n in zip(self.feature_cols, self.is_numeric) if not n]
        self.block_col = [self.is_numeric[:p].count(n) for p, n in enumerate(self.is_numeric)]
        self.num = numeric_block(dataset, rows, self.numeric_cols)
        self.lo = self.num.min(axis=0)
        self.span = self.num.max(axis=0) - self.lo
        raw = self._categories(dataset, rows)
        self.vocab = [{v: c for c, v in enumerate(dict.fromkeys(vals))} for vals in raw]
        self.codes = self._code(raw, len(self.num))

    def _categories(self, dataset: Dataset, rows: Sequence[int] | None) -> list[list[Cell]]:
        cells = _row_list(dataset, rows)
        out = []
        for j in self.categorical_cols:
            vals = [row[j] for row in cells]
            if None in vals:
                raise _missing(dataset, j)
            out.append(vals)
        return out

    def _code(self, raw: list[list[Cell]], n_rows: int) -> np.ndarray:
        codes = np.empty((n_rows, len(raw)), dtype=np.int64)
        for b, (vals, vocab) in enumerate(zip(raw, self.vocab)):
            codes[:, b] = [vocab.get(v, -1) for v in vals]
        return codes

    def encode(self, dataset: Dataset,
               rows: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(numeric block, code block) of ``rows``; unseen categories get -1."""
        num = numeric_block(dataset, rows, self.numeric_cols)
        return num, self._code(self._categories(dataset, rows), len(num))

    def unit_scale(self, num: np.ndarray) -> np.ndarray:
        """A numeric block min-max scaled by the fitted range; a constant
        column scales to 0."""
        flat = self.span <= 0
        out = (num - self.lo) / np.where(flat, 1.0, self.span)
        out[:, flat] = 0.0
        return out


class FeatureEncoder:
    """Min-max + scaled one-hot embedding of the feature columns."""

    def __init__(self, dataset: Dataset, rows: Sequence[int] | None = None):
        self.encoding = ColumnFit(dataset, rows)
        sizes = [len(v) for v in self.encoding.vocab]
        bounds = np.cumsum([len(self.encoding.numeric_cols)] + sizes)
        self.offsets = bounds[:-1]  # first one-hot column of each categorical feature
        self.width = int(bounds[-1])

    def transform_rows(self, dataset: Dataset, rows: Sequence[int] | None = None) -> np.ndarray:
        return self.embed(*self.encoding.encode(dataset, rows))

    def embed(self, num: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """The embedding of encoded rows: a numeric block and a code block."""
        out = np.zeros((len(num), self.width))
        out[:, :num.shape[1]] = self.encoding.unit_scale(num)
        for b, offset in enumerate(self.offsets):
            seen = np.flatnonzero(codes[:, b] >= 0)  # unseen categories stay all-zero
            out[seen, offset + codes[seen, b]] = CAT_SCALE
        return out

    def inverse_numeric(self, points: np.ndarray) -> np.ndarray:
        """Map encoded points back to raw units; numeric-only schemas."""
        if self.encoding.categorical_cols:
            raise SchemaError("inverse transform defined only for all-numeric features")
        span, lo = self.encoding.span, self.encoding.lo
        return np.where(span > 0, points * span + lo, lo)


class Discretizer:
    """Equal-width binning of numeric features plus categorical code maps.

    Produces the integer code matrix, one column per feature in schema order,
    that the probabilistic classifiers condition on; bin edges and
    vocabularies are fitted on the training rows.
    """

    def __init__(self, dataset: Dataset, rows: Sequence[int] | None = None, n_bins: int = 10):
        self.encoding = ColumnFit(dataset, rows)
        self.n_bins = n_bins
        # one extra code per categorical feature is reserved for unseen values
        self.unseen = np.array([len(v) for v in self.encoding.vocab], dtype=np.int64)
        self.cardinalities = [
            n_bins if n else int(self.unseen[b]) + 1
            for n, b in zip(self.encoding.is_numeric, self.encoding.block_col)
        ]

    def codes_rows(self, dataset: Dataset, rows: Sequence[int] | None = None) -> np.ndarray:
        return self.code(*self.encoding.encode(dataset, rows))

    def code(self, num: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """The code matrix of encoded rows: a numeric block and a code block."""
        scaled = self.encoding.unit_scale(num) * self.n_bins
        bins = np.clip(scaled, 0, self.n_bins - 1).astype(np.int64)  # clamps out-of-range values
        out = np.empty((len(num), len(self.encoding.is_numeric)), dtype=np.int64)
        numeric = np.array(self.encoding.is_numeric, dtype=bool)
        out[:, numeric] = bins
        out[:, ~numeric] = np.where(codes >= 0, codes, self.unseen)
        return out


class LabelCodec:
    """First-seen mapping between raw target tokens and integer codes."""

    def __init__(self, values: Sequence[Cell]):
        self.values: list[Cell] = []
        index: dict[Cell, int] = {}
        for v in values:
            if v is None:
                raise SchemaError("missing target label; labels cannot be imputed here")
            if v not in index:
                index[v] = len(index)
                self.values.append(v)
        self.index = index

    @property
    def n_classes(self) -> int:
        return len(self.values)

    def encode(self, values: Sequence[Cell]) -> np.ndarray:
        return np.array([self.index[v] for v in values], dtype=np.int64)

    def decode(self, code: int) -> Cell:
        return self.values[int(code)]


def train_labels(dataset: Dataset, rows: Sequence[int] | None = None) -> list[Cell]:
    """Raw target tokens of the given rows, as stored (possibly corrupted)."""
    t = dataset.schema.target_index
    if t is None:
        raise SchemaError("dataset has no target column")
    idx = range(dataset.n_rows) if rows is None else rows
    return [dataset.rows[i][t] for i in idx]
