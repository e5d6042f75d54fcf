"""Six classical classifiers implemented from scratch on the Dataset type.

Every classifier exposes ``fit(data, rows=None)`` (rows are row indices of
``data``, a dataset or its :class:`~dirtybench.features.EncodedTable`; None
means all) and one batched ``predict_rows(data, rows=None)`` that returns
the raw label tokens of all the given rows.  Both read the features through
the shared encoding in :mod:`dirtybench.features`, fitted on the training
rows only.  Training labels are read from the (possibly corrupted) rows,
never from the clean shadow.  A fitted classifier keeps them as its
``classes`` tuple, in first-seen order in the training rows, and predicts
``classes[c]`` for a label code ``c``.  Ties in argmax votes always break
toward the lowest label code.
"""
from __future__ import annotations

import copy
import math
from typing import Sequence

import numpy as np

from .cluster import _gram_blocks, _k_candidates, _kept_sq_dists, _pairwise_sum
from .corrupt import derive_seed
from .data import Cell
from .errors import (
    DivergenceError,
    ParameterError,
    UnsupportedTaskError,
)
from .features import (
    ColumnFit,
    Data,
    Discretizer,
    EncodedTable,
    FeatureEncoder,
    first_seen,
)
from .regress import row_dots

# ---------------------------------------------------------------------------
# node purity measures
# ---------------------------------------------------------------------------

def _impurity_rows(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Row-wise impurity of a (m, n_classes) count matrix.  Row sums add the
    class columns in numpy's order, so they have the bits of
    ``.sum(axis=1)`` without its per-row reduction."""
    cols = counts.T.copy()  # class-major

    def row_sum(terms) -> np.ndarray:
        return _pairwise_sum(iter(terms), len(cols))

    n = row_sum(c.copy() for c in cols)
    p = cols / np.where(n > 0, n, 1.0)
    if criterion == "gini":
        out = 1.0 - row_sum(q ** 2 for q in p)
    elif criterion == "gain":  # minimizing child entropy maximizes gain
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
        out = -row_sum(p * logs)
    else:  # "error"
        out = 1.0 - p.max(axis=0)
    return np.where(n > 0, out, 0.0)


def _labelled_rows(data: Data, rows: Sequence[int] | None,
                   model: str) -> tuple[EncodedTable, tuple[Cell, ...], np.ndarray]:
    """The table of ``data``, the training rows' labels in first-seen order
    and each row's label code."""
    table = EncodedTable.of(data)
    return (table, *table.labels(rows, model))


def _argmax_labels(classes: tuple[Cell, ...], scores: np.ndarray) -> list[Cell]:
    """Each row's highest-scoring label; ties go to the lowest label code."""
    return [classes[c] for c in np.argmax(scores, axis=1)]


# ---------------------------------------------------------------------------
# decision trees and random forests
# ---------------------------------------------------------------------------

# Byte budget of one split search, whose temporaries peak at about 11 int64
# values and 12 int64 class counts per class for each (row, candidate column)
# entry (tracemalloc, 2 to 8 classes): a round of nodes with more entries is
# scored in chunks of nodes, at least one node per chunk.
_HIST_BYTES = 1 << 20


class _Node:
    __slots__ = ("label", "col", "is_numeric", "threshold", "category", "left", "right")

    def __init__(self):
        self.label = None  # leaf label code, None for internal nodes
        self.col = -1  # column of the fit's numeric or code block
        self.is_numeric = True
        self.threshold = 0.0
        self.category = -1  # a code of the fit's vocabulary
        self.left = None
        self.right = None


def _route(root: _Node, num: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Label codes of the encoded rows, routed down one tree as index sets."""
    out = np.empty(len(num), dtype=np.int64)
    stack = [(root, np.arange(len(num)))]
    while stack:
        node, at = stack.pop()
        if node.label is not None:
            out[at] = node.label
            continue
        if node.is_numeric:
            left = num[at, node.col] <= node.threshold
        else:  # an unseen category (-1) never matches, so it goes right
            left = codes[at, node.col] == node.category
        for child, part in ((node.left, at[left]), (node.right, at[~left])):
            if len(part):
                stack.append((child, part))
    return out


class _Lockstep:
    """Grows the trees of fits that share one table's columns, class count,
    criterion and limits together, each tree on its own sample of its fit's
    rows and with its own rng.

    Every feature is read as integer levels fixed once per fit: a numeric
    value's rank among the fit's distinct values (the presorted attribute
    lists of SLIQ, Mehta, Agrawal & Rissanen, EDBT 1996), a category's fit
    code.  Each tree grows depth first, as a recursive build would.  A round
    takes the next node to split from every tree and draws its candidate
    columns from that tree's rng, so each tree's RNG stream and node order
    do not depend on the other trees (a tree that draws nothing gives every
    pending node).  It scores the round's nodes, chunk by chunk, with
    one class histogram over the (node, candidate, level) triples present:
    a numeric cut's left counts are the histogram summed up to its level, a
    category's are its own row, and either child's counts are that row and
    the parent's counts minus it.  A node reads only its own rows, and a
    numeric cut its own fit's levels.
    """

    def __init__(self, fits: list[tuple], n_classes: int, per_split: int,
                 criterion: str, max_depth: int, min_split: int):
        """Each fit is (encoding, y, samples, rngs): ``y`` holds the label
        codes, below ``n_classes``, of the rows ``encoding`` was fitted on;
        its tree t grows on the row positions ``samples[t]``, repeats
        allowed, and draws ``per_split`` candidate columns per split from
        ``rngs[t]`` unless that is every column."""
        self.criterion, self.max_depth, self.min_split = criterion, max_depth, min_split
        self.n_c = n_classes
        self.numeric = np.array(fits[0][0].is_numeric, dtype=bool)
        self.block_col = fits[0][0].block_col
        n_feat = len(self.numeric)
        # the fits' rows stacked, each tree's sample shifted to its fit's rows
        self.y = np.concatenate([fit[1] for fit in fits])
        starts = np.cumsum([0] + [len(fit[1]) for fit in fits]).tolist()
        self.values = np.empty((starts[-1], n_feat), dtype=np.int64)
        self.fit_of = np.repeat(np.arange(len(fits)), [len(fit[2]) for fit in fits])
        distinct, self.samples, tree_rngs = [], [], []
        for f, (encoding, y, samples, rngs) in enumerate(fits):
            at = slice(starts[f], starts[f + 1])
            for p, b in enumerate(self.block_col):
                if self.numeric[p]:
                    found, self.values[at, p] = np.unique(encoding.num[:, b],
                                                          return_inverse=True)
                    distinct.append((f, p, found))
                else:
                    self.values[at, p] = encoding.codes[:, b]
            self.samples += [s + starts[f] for s in samples]
            tree_rngs += rngs
        self.width = int(self.values.max(initial=0)) + 1
        self.levels = np.zeros((len(fits), n_feat, self.width))  # numeric values by rank
        for f, p, found in distinct:
            self.levels[f, p, :len(found)] = found
        self.draw = per_split < n_feat
        self.n_cand = per_split if self.draw else n_feat
        # tree t of every fold has one seed, and folds of one size leave its
        # rng in one state after the bootstrap draw: such trees read one
        # stream of candidate draws, drawn once from the first one's rng
        streams: dict[str, tuple] = {}
        self.streams = [streams.setdefault(repr(rng.bit_generator.state), (rng, []))
                        for rng in tree_rngs]
        self.n_drawn = [0] * len(tree_rngs)
        # categories are tried in first-seen order within the tree's sample,
        # as ties between equally good splits go to the first one tried
        self.order = [{p: first_seen(self.values[sample, p])
                       for p in np.flatnonzero(~self.numeric).tolist()}
                      for sample in self.samples]

    def grow(self) -> list[_Node]:
        """Every tree's root, fit by fit."""
        self.stacks = [[] for _ in self.samples]
        roots = [_Node() for _ in self.samples]
        self._settle([(t, root, self.samples[t], 0) for t, root in enumerate(roots)],
                     np.array([np.bincount(self.y[s], minlength=self.n_c)
                               for s in self.samples]))
        row_bytes = 8 * self.n_cand * (11 + 12 * self.n_c)  # as counted for _HIST_BYTES
        while True:
            slots = []
            for t, stack in enumerate(self.stacks):
                # a tree that draws no candidates has no RNG order to keep,
                # so a round takes every node it has pending
                for _ in range(min(1, len(stack)) if self.draw else len(stack)):
                    slots.append((t, *stack.pop(), self._candidates(t)))
            if not slots:
                return roots
            chunk, used = [], 0
            for entry in slots:
                if chunk and used + len(entry[2]) * row_bytes > _HIST_BYTES:
                    self._split(chunk)
                    chunk, used = [], 0
                chunk.append(entry)
                used += len(entry[2]) * row_bytes
            self._split(chunk)

    def _candidates(self, t: int) -> list[int]:
        n_feat = len(self.numeric)
        if not self.draw:
            return list(range(n_feat))
        (rng, drawn), k = self.streams[t], self.n_drawn[t]
        if k == len(drawn):
            drawn.append(sorted(rng.choice(n_feat, size=self.n_cand, replace=False).tolist()))
        self.n_drawn[t] = k + 1
        return drawn[k]

    def _settle(self, new: list[tuple], counts: np.ndarray) -> None:
        """Make each new (tree, node, rows, depth) a leaf if it cannot split,
        else push it onto its tree's stack; ``counts`` holds their class
        counts, one row each."""
        n = counts.sum(axis=1)
        leaf = ((n < self.min_split) | (counts.max(axis=1) == n)).tolist()  # one class left
        labels = counts.argmax(axis=1).tolist()
        for k, (t, node, rows, depth) in enumerate(new):
            if leaf[k] or depth >= self.max_depth:
                node.label = labels[k]
            else:
                self.stacks[t].append((node, rows, counts[k], depth))

    def _split(self, slots: list[tuple]) -> None:
        """Score the split candidates of one chunk of a round's nodes; split
        the nodes that improve on their impurity, make leaves of the others."""
        trees, nodes, rows, counts, depths, cands = zip(*slots)
        n_s, c, n_c, width = len(slots), self.n_cand, self.n_c, self.width
        n_feat = len(self.numeric)
        parent = np.array(counts)
        cand = np.array(cands, dtype=np.int64).reshape(n_s, c)
        sizes = parent.sum(axis=1)
        at = np.concatenate(rows)
        # one entry per (candidate, row), candidate-major so that numpy
        # broadcasts along the rows: its block (node, candidate) and level
        block = np.repeat(np.arange(n_s * c).reshape(n_s, c).T, sizes, axis=1)
        level = self.values.take(np.repeat(cand.T, sizes, axis=1) + at * n_feat)
        # the (block, level) pairs present, ascending, and their class counts
        pairs, pair_of = np.unique(block * width + level, return_inverse=True)
        hist = np.bincount(pair_of.ravel() * n_c + np.tile(self.y[at], c),
                           minlength=len(pairs) * n_c).reshape(len(pairs), n_c)
        pair_block, pair_level = np.divmod(pairs, width)
        start = np.searchsorted(pair_block, np.arange(n_s * c))  # every block has a pair
        numeric = self.numeric[cand]
        # a numeric cut's left side is every level of its block up to it, a
        # category's is that category alone
        cum = hist.cumsum(axis=0)
        before = np.concatenate([np.zeros((1, n_c), dtype=cum.dtype), cum]).take(start, axis=0)
        left = np.where(numeric.ravel()[pair_block][:, None],
                        cum - before.take(pair_block, axis=0), hist)
        n_left = left.sum(axis=1)
        whose = pair_block // c
        valid = n_left < sizes[whose]
        whose = whose[valid]
        left_counts = left[valid].astype(float)
        m = len(whose)
        impurity = _impurity_rows(np.concatenate([
            left_counts, parent[whose] - left_counts, parent.astype(float),
        ]), self.criterion)
        n, nl = sizes[whose], n_left[valid]
        weighted = np.full(len(pairs), np.inf)  # no split where invalid
        weighted[valid] = (nl * impurity[:m] + (n - nl) * impurity[m:2 * m]) / n
        parent_impurity = impurity[2 * m:].tolist()
        # each block's lowest score and the first pair that reaches it
        col_best = np.minimum.reduceat(weighted, start)
        col_arg = np.minimum.reduceat(
            np.where(weighted == col_best[pair_block], np.arange(len(pairs)), len(pairs)), start)
        col_best = col_best.reshape(n_s, c).tolist()
        col_arg = col_arg.reshape(n_s, c).tolist()
        is_numeric = numeric.tolist()
        labels = parent.argmax(axis=1).tolist()
        if not numeric.all():
            bounds = np.append(start, len(pairs)).tolist()
            code_list, score_list = pair_level.tolist(), weighted.tolist()

        # sequential "strictly better by 1e-12" acceptance over the candidate
        # columns in order, and over a column's categories in first-seen order
        picks = []
        for s in range(n_s):
            best, pick = math.inf, None
            for j, p in enumerate(cands[s]):
                if is_numeric[s][j]:
                    if col_best[s][j] < best - 1e-12:
                        best, pick = col_best[s][j], (s, j, col_arg[s][j])
                    continue
                b = s * c + j
                pair_at = {code_list[e]: e for e in range(bounds[b], bounds[b + 1])}
                for code in self.order[trees[s]][p]:
                    e = pair_at.get(code)
                    if e is not None and score_list[e] < best - 1e-12:
                        best, pick = score_list[e], (s, j, e)
            if pick is not None and best < parent_impurity[s] - 1e-12:
                picks.append(pick)
            else:
                nodes[s].label = labels[s]
        if not picks:
            return

        ss, js, es = (np.array(v) for v in zip(*picks))
        cols, us = cand[ss, js], pair_level[es]
        # a numeric cut falls midway to the next level in its block
        following = pair_level.take(es + 1, mode="clip")  # unused for a category
        fit = self.fit_of[np.array(trees)[ss]]
        thresholds = ((self.levels[fit, cols, us] + self.levels[fit, cols, following])
                      / 2.0).tolist()
        # route each split node's rows by their level in its column, every
        # row of an unsplit node to the right
        cut = np.full(n_s, -1)
        cut[ss] = us
        col = np.zeros(n_s, dtype=np.int64)
        col[ss] = cols
        row_level = self.values.take(at * n_feat + np.repeat(col, sizes))
        row_cut = np.repeat(cut, sizes)
        goes_left = np.where(np.repeat(self.numeric[col], sizes),
                             row_level <= row_cut, row_level == row_cut)
        n_right = sizes.copy()
        n_right[ss] -= n_left[es]
        right_end = np.cumsum(n_right).tolist()
        left_end = np.cumsum(sizes - n_right).tolist()
        left_rows, right_rows = at[goes_left], at[~goes_left]

        new = []
        for i, (s, j, e) in enumerate(picks):
            node, depth = nodes[s], depths[s] + 1
            node.col = self.block_col[cands[s][j]]
            node.is_numeric = is_numeric[s][j]
            if node.is_numeric:
                node.threshold = thresholds[i]
            else:
                node.category = int(us[i])
            node.left, node.right = _Node(), _Node()
            # right first, so the left child is taken first
            new.append((trees[s], node.right,
                        right_rows[right_end[s - 1] if s else 0:right_end[s]], depth))
            new.append((trees[s], node.left,
                        left_rows[left_end[s - 1] if s else 0:left_end[s]], depth))
        child_left = left[es]
        self._settle(new, np.stack([parent[ss] - child_left, child_left], axis=1)
                     .reshape(-1, n_c))


class RandomForestClassifier:
    """Bagged decision trees with a random feature subset at every split."""

    def __init__(self, n_trees: int = 50, feat_frac: float | None = None, seed: int = 0,
                 bootstrap: bool = True, criterion: str = "gini",
                 max_depth: int = 25, min_split: int = 2):
        if n_trees < 1:
            raise ParameterError("n_trees must be at least 1")
        if feat_frac is not None and not 0 < feat_frac <= 1:
            raise ParameterError("feat_frac must be in (0, 1]")
        if criterion not in ("gini", "gain", "error"):
            raise ParameterError(f"unknown split criterion {criterion!r}")
        if max_depth < 0:
            raise ParameterError("max_depth must be >= 0")
        self.n_trees = n_trees
        self.feat_frac = feat_frac
        self.seed = seed
        self.bootstrap = bootstrap
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_split = max(2, min_split)

    def fit(self, data: Data, rows: Sequence[int] | None = None):
        """Fit on ``rows``.  In a batch that ``fit_each`` made, the last fit
        grows the trees of every forest in it."""
        table, self.classes, y = _labelled_rows(data, rows, "a forest")
        self.encoding = ColumnFit(table, rows)
        rngs = [np.random.default_rng(derive_seed(self.seed, "tree", t))
                for t in range(self.n_trees)]
        samples = [rng.integers(0, len(y), size=len(y)) if self.bootstrap
                   else np.arange(len(y)) for rng in rngs]
        self._drawn = (self.encoding, y, samples, rngs)
        batch = self.__dict__.pop("_batch", [self])
        if batch[-1] is self:
            self._grow(batch)
        return self

    def fit_each(self, data: Data, row_sets: Sequence[Sequence[int] | None]) -> list:
        """A copy of this forest fitted on each of ``row_sets`` in turn, each
        the same as ``fit`` on its set alone, with the trees of all of them
        grown in one lockstep.  The first set whose fit fails raises."""
        batch = [copy.copy(self) for _ in row_sets]
        for forest, rows in zip(batch, row_sets):
            forest._batch = batch
            forest.fit(data, rows)
        return batch

    def _grow(self, batch: list) -> None:
        n_feat = len(self.encoding.is_numeric)
        if self.feat_frac is None:
            per_split = max(1, math.ceil(math.sqrt(n_feat)))
        else:
            per_split = max(1, math.ceil(self.feat_frac * n_feat))
        # one lockstep per class count: padded zero counts reorder _impurity_rows' sums
        for n_c in {len(forest.classes) for forest in batch}:
            group = [forest for forest in batch if len(forest.classes) == n_c]
            grown = _Lockstep([forest.__dict__.pop("_drawn") for forest in group], n_c,
                              per_split, self.criterion, self.max_depth, self.min_split).grow()
            for i, forest in enumerate(group):
                forest.roots = grown[i * self.n_trees:(i + 1) * self.n_trees]

    def predict_rows(self, data: Data, rows: Sequence[int] | None = None) -> list[Cell]:
        num, codes = self.encoding.encode(data, rows)
        votes = np.zeros((len(num), len(self.classes)), dtype=np.int64)
        at = np.arange(len(num))
        for root in self.roots:
            votes[at, _route(root, num, codes)] += 1
        return _argmax_labels(self.classes, votes)


class DecisionTreeClassifier(RandomForestClassifier):
    """Greedy CART-style tree: numeric midpoints, one-vs-rest categories.
    It is a forest of one tree grown on every training row, with every
    column a candidate at every split (Breiman, Random Forests, 2001)."""

    def __init__(self, criterion: str = "gini", max_depth: int = 25, min_split: int = 2):
        super().__init__(n_trees=1, feat_frac=1.0, bootstrap=False, criterion=criterion,
                         max_depth=max_depth, min_split=min_split)

    @property
    def root(self) -> _Node:
        return self.roots[0]


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

def check_neighbours(k: int, train_rows: int) -> None:
    """KNN's rule on its neighbours, which a sweep also checks on the clean
    table's smallest training fold: at most the rows it votes among."""
    if k > train_rows:
        raise ParameterError(f"k={k} exceeds training size {train_rows}")


class KNNClassifier:
    """Majority vote over the k nearest training rows (Euclidean distance on
    the shared min-max / overlap encoding)."""

    def __init__(self, k: int = 5):
        if k < 1:
            raise ParameterError("k must be at least 1")
        self.k = k

    def fit(self, data: Data, rows: Sequence[int] | None = None):
        table, self.classes, self.y = _labelled_rows(data, rows, "KNN")
        check_neighbours(self.k, len(self.y))
        self.encoder = FeatureEncoder(table, rows)
        self.X = self.encoder.embed(self.encoder.encoding.num, self.encoder.encoding.codes)
        return self

    def predict_rows(self, data: Data, rows: Sequence[int] | None = None) -> list[Cell]:
        Q = self.encoder.transform_rows(data, rows)
        winners = np.empty(len(Q), dtype=np.int64)
        codes = np.arange(len(self.classes))
        for a, nearest in _nearest(Q, self.X, self.k):
            votes = (self.y[nearest][:, :, None] == codes).sum(axis=1)
            winners[a:a + len(nearest)] = votes.argmax(axis=1)
        return [self.classes[c] for c in winners]


def _nearest(Q: np.ndarray, X: np.ndarray, k: int):
    """Yield (first row, nearest) pairs covering the rows of Q: row i of
    ``nearest`` holds the k rows of X nearest to row a + i, as ``_k_nearest``
    picks them from the kernel's squared distances.  Only the columns that
    ``_k_candidates`` keeps can be among them; a row that keeps more than k
    is decided on the exact distances of what it kept."""
    for a, g, eps in _gram_blocks(Q, X):
        keep = _k_candidates(g, eps, k)
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        if len(over):
            d2, cols = _kept_sq_dists(Q[a + over], X, keep[over])
            keep[over] = False
            keep[over[:, None], np.take_along_axis(cols, _k_nearest(d2, k), axis=1)] = True
        yield a, (np.flatnonzero(keep) % len(X)).reshape(len(keep), k)


def _k_nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``d2``, the column indices of its k smallest entries, ties
    going to the lower index: the set of the first k of a stable argsort, in
    ascending index order.  A selection, not a sort: every entry below the
    k-th smallest value, then the lowest-index entries equal to it.  Only
    the rows with more than k entries at or below that value need the tie
    rule.  NaN entries, which the partition orders last, are never taken."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    take = d2 <= kth
    over = np.flatnonzero(np.count_nonzero(take, axis=1) > k)
    if len(over):
        sub, at = d2[over], kth[over]
        below, tied = sub < at, sub == at
        take[over] = below | (tied & (np.cumsum(tied, axis=1)
                                      <= k - below.sum(axis=1, keepdims=True)))
    return np.nonzero(take)[1].reshape(len(d2), k)


# ---------------------------------------------------------------------------
# Bayesian network
# ---------------------------------------------------------------------------

def _parent_configs(codes: np.ndarray, cards: Sequence[int],
                    parents: tuple[int, ...]) -> np.ndarray | int:
    """Each row's joint parent configuration, one index per row; without
    parents it is 0 for every row, returned once."""
    if not parents:
        return 0
    dims = [cards[p] for p in parents]
    return np.ravel_multi_index(tuple(codes[:, p] for p in parents), dims)


def _cpt(codes: np.ndarray, cards: Sequence[int], v: int, parents: tuple[int, ...],
         smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed (parent configuration, value) table of variable v, and the
    rows' parent configurations."""
    cfg = _parent_configs(codes, cards, parents)
    shape = (math.prod(cards[p] for p in parents), cards[v])
    tab = np.bincount(cfg * cards[v] + codes[:, v], minlength=shape[0] * shape[1])
    tab = tab.reshape(shape).astype(float)
    return (tab + smoothing) / (tab.sum(axis=1, keepdims=True) + smoothing * cards[v]), cfg


def _node_cost(codes: np.ndarray, cards: Sequence[int], v: int,
               parents: tuple[int, ...], smoothing: float, bits: float) -> float:
    """Description-length share of one node: coding cost of its parameters
    plus the negative log-likelihood of its column given its parents."""
    probs, cfg = _cpt(codes, cards, v, parents, smoothing)
    loglik = float(np.log(probs[cfg, codes[:, v]]).sum())
    return bits * ((cards[v] - 1) * len(probs)) - loglik


class BayesianNetworkClassifier:
    """Greedy description-length structure search over add/remove edge moves,
    smoothed CPTs, and exact posterior enumeration over the class variable.

    Numeric features are discretized into equal-width bins fitted on the
    training rows; the class is the last variable."""

    model_name = "a Bayesian network"

    def __init__(self, max_parents: int = 2, n_bins: int = 10, smoothing: float = 1.0):
        if max_parents < 0:
            raise ParameterError("max_parents must be >= 0")
        if n_bins < 1:
            raise ParameterError("n_bins must be at least 1")
        if smoothing <= 0:  # at 0 a CPT divides 0 by 0, below it no edge is ever added
            raise ParameterError("smoothing must be positive")
        self.max_parents = max_parents
        self.n_bins = n_bins
        self.smoothing = smoothing

    def fit(self, data: Data, rows: Sequence[int] | None = None):
        table, self.classes, y = _labelled_rows(data, rows, self.model_name)
        self.disc = Discretizer(table, rows, n_bins=self.n_bins)
        codes = np.column_stack([self.disc.code(self.disc.encoding.num,
                                                self.disc.encoding.codes), y])
        self.cards = list(self.disc.cardinalities) + [len(self.classes)]
        self.n_vars = codes.shape[1]
        self.class_var = self.n_vars - 1
        self.parents = self._structure(codes)
        self.cpts = {
            v: np.log(_cpt(codes, self.cards, v, self.parents[v], self.smoothing)[0])
            for v in range(self.n_vars)
        }
        return self

    def _structure(self, codes: np.ndarray) -> dict[int, tuple[int, ...]]:
        """Each variable's parents, from the greedy description-length search
        over the columns of ``codes``.  The search also sets ``cost``, the
        structure's total description length; a fixed structure sets none."""
        cards = self.cards
        bits = 0.5 * math.log2(max(len(codes), 2))

        # a node's cost depends only on its own parents, so each (node,
        # parents) pair is scored once per fit
        scored: dict[tuple[int, tuple[int, ...]], float] = {}

        def cost(v: int, parents: tuple[int, ...]) -> float:
            if (v, parents) not in scored:
                scored[v, parents] = _node_cost(codes, cards, v, parents, self.smoothing, bits)
            return scored[v, parents]

        parents: dict[int, tuple[int, ...]] = {v: () for v in range(self.n_vars)}
        node_costs = {v: cost(v, ()) for v in range(self.n_vars)}
        for _ in range(10 * self.n_vars * self.n_vars):
            best_move = None
            best_delta = -1e-9
            for v in range(self.n_vars):
                current = parents[v]
                for u in range(self.n_vars):
                    if u == v:
                        continue
                    if u in current:
                        cand = tuple(p for p in current if p != u)
                    else:
                        if len(current) >= self.max_parents:
                            continue
                        cand = tuple(sorted(current + (u,)))
                        if self._creates_cycle(parents, u, v):
                            continue
                    delta = cost(v, cand) - node_costs[v]
                    if delta < best_delta:
                        best_delta = delta
                        best_move = (v, cand)
            if best_move is None:
                break
            v, cand = best_move
            parents[v] = cand
            node_costs[v] = cost(v, cand)
        self.cost = sum(node_costs.values())
        return parents

    @staticmethod
    def _creates_cycle(parents: dict[int, tuple[int, ...]], u: int, v: int) -> bool:
        """Would the edge u -> v close a directed cycle?"""
        stack = [u]
        seen = set()
        while stack:
            node = stack.pop()
            if node == v:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(parents[node])
        return False

    def predict_log_joint(self, data: Data, rows: Sequence[int] | None = None) -> np.ndarray:
        """(rows, classes) joint log probability of each row's features with
        each class, the CPT terms added in variable order.

        Parents are sorted, so the class, the last variable, is the last of
        any parents it is among; such a variable's CPT, read as (other
        parents, class, value), gives every class's term in one gather."""
        codes = self.disc.codes_rows(data, rows)
        n_c = self.cards[self.class_var]
        out = np.zeros((len(codes), n_c))
        for v in range(self.n_vars):
            parents = self.parents[v]
            if v == self.class_var:
                out += self.cpts[v][_parent_configs(codes, self.cards, parents)]
            elif parents[-1:] == (self.class_var,):
                table = self.cpts[v].reshape(-1, n_c, self.cards[v])
                out += table[_parent_configs(codes, self.cards, parents[:-1]), :, codes[:, v]]
            else:
                cfg = _parent_configs(codes, self.cards, parents)
                out += self.cpts[v][cfg, codes[:, v]][:, None]
        return out

    def predict_rows(self, data: Data, rows: Sequence[int] | None = None) -> list[Cell]:
        return _argmax_labels(self.classes, self.predict_log_joint(data, rows))


class NaiveBayesClassifier(BayesianNetworkClassifier):
    """Class priors times per-feature conditionals with additive smoothing:
    the Bayesian network whose class is every feature's one parent
    (Friedman, Geiger & Goldszmidt, Machine Learning 29, 1997)."""

    model_name = "naive Bayes"

    def __init__(self, smoothing: float = 1.0, n_bins: int = 10):
        # max_parents is read only by the search, which _structure replaces
        super().__init__(n_bins=n_bins, smoothing=smoothing)

    def _structure(self, codes: np.ndarray) -> dict[int, tuple[int, ...]]:
        return {**{f: (self.class_var,) for f in range(self.class_var)}, self.class_var: ()}


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def sigmoid(z):
    """1 / (1 + exp(-z)), computed from exp(-|z|) so it never overflows."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def logistic_gradient(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray):
    """Exact gradient of the log-likelihood with respect to (w, b)."""
    residual = y - sigmoid(X @ w + b)
    return X.T @ residual, float(residual.sum())


def check_binary(n_labels: int) -> None:
    """Logistic regression's rule on its labels, which a sweep checks too."""
    if n_labels != 2:
        raise UnsupportedTaskError(f"needs a binary target, got {n_labels} classes")


class LogisticRegressionClassifier:
    """Binary classifier trained by batch gradient ascent on the
    log-likelihood; predicts the positive class when the squashed score
    reaches 0.5."""

    def __init__(self, lr: float = 0.1, iters: int = 500):
        if lr <= 0 or iters < 0:
            raise ParameterError("lr must be positive and iters non-negative")
        self.lr = lr
        self.iters = iters

    def fit(self, data: Data, rows: Sequence[int] | None = None):
        table, self.classes, y = _labelled_rows(data, rows, "logistic regression")
        check_binary(len(self.classes))
        self.encoder = FeatureEncoder(table, rows)
        X = self.encoder.embed(self.encoder.encoding.num, self.encoder.encoding.codes)
        y = y.astype(float)
        m = len(y)
        w = np.zeros(X.shape[1])
        b = 0.0
        for _ in range(self.iters):
            gw, gb = logistic_gradient(w, b, X, y)
            if not (np.isfinite(gw).all() and np.isfinite(gb)):
                raise DivergenceError("non-finite gradient during logistic training")
            w += self.lr * gw / m
            b += self.lr * gb / m
        if not (np.isfinite(w).all() and np.isfinite(b)):
            raise DivergenceError("logistic weights diverged")
        self.w = w
        self.b = b
        return self

    def predict_rows(self, data: Data, rows: Sequence[int] | None = None) -> list[Cell]:
        scores = row_dots(self.encoder.transform_rows(data, rows), self.w) + self.b
        return [self.classes[c] for c in (sigmoid(scores) >= 0.5).astype(int).tolist()]
