"""Six classical classifiers implemented from scratch on the Dataset type.

Every classifier exposes ``fit(dataset, rows=None)`` (rows are indices into
``dataset.rows``; None means all) and one batched
``predict_rows(dataset, rows=None)`` that returns the raw label tokens of
all the given rows.  Both read the features through the shared encoding in
:mod:`dirtybench.features`, fitted on the training rows only.  Training
labels are read from the (possibly corrupted) rows, never from the clean
shadow.  Ties in argmax votes always break toward the lowest label index,
where label indices follow first-seen order in the training rows.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .cluster import _sq_dist_blocks
from .corrupt import derive_seed
from .data import Cell, Dataset
from .errors import (
    DivergenceError,
    EmptyInputError,
    ParameterError,
    UndefinedNodeError,
    UnsupportedTaskError,
)
from .features import ColumnFit, Discretizer, FeatureEncoder, LabelCodec, train_labels

# ---------------------------------------------------------------------------
# node purity measures
# ---------------------------------------------------------------------------

def _as_counts(counts) -> np.ndarray:
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 1 or (arr < 0).any():
        raise UndefinedNodeError("counts must be a non-negative vector")
    if arr.sum() <= 0:
        raise UndefinedNodeError("purity measure undefined for an empty node")
    return arr


def _impurity_rows(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Row-wise impurity of a (m, n_classes) count matrix."""
    n = counts.sum(axis=1, keepdims=True)
    safe = np.where(n > 0, n, 1.0)
    p = counts / safe
    if criterion == "gini":
        out = 1.0 - (p ** 2).sum(axis=1)
    elif criterion == "gain":  # minimizing child entropy maximizes gain
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
        out = -(p * logs).sum(axis=1)
    elif criterion == "error":
        out = 1.0 - p.max(axis=1)
    else:
        raise ParameterError(f"unknown split criterion {criterion!r}")
    return np.where(n[:, 0] > 0, out, 0.0)


def gini(counts) -> float:
    """1 - sum of squared class frequencies; 0 for a pure node."""
    return float(_impurity_rows(_as_counts(counts)[None, :], "gini")[0])


def entropy(counts) -> float:
    """Shannon entropy in bits (base-2 log, 0*log0 treated as 0)."""
    return float(_impurity_rows(_as_counts(counts)[None, :], "gain")[0])


def misclassification_error(counts) -> float:
    return float(_impurity_rows(_as_counts(counts)[None, :], "error")[0])


def information_gain(parent_counts, partitions) -> float:
    """Entropy reduction when the parent splits into the given partitions."""
    parent = _as_counts(parent_counts)
    total = parent.sum()
    children = [_as_counts(c) for c in partitions]
    if not math.isclose(sum(c.sum() for c in children), total):
        raise UndefinedNodeError("partitions must cover the parent node")
    weighted = sum(c.sum() / total * entropy(c) for c in children)
    return float(entropy(parent) - weighted)


def _labelled_rows(dataset: Dataset, rows: Sequence[int] | None,
                   model: str) -> tuple[list[int], LabelCodec, np.ndarray]:
    """Training row indices, a codec of their labels and their label codes."""
    idx = list(range(dataset.n_rows)) if rows is None else list(rows)
    if not idx:
        raise EmptyInputError(f"cannot fit {model} on zero rows")
    labels = train_labels(dataset, idx)
    codec = LabelCodec(labels)
    return idx, codec, codec.encode(labels)


def _argmax_labels(codec: LabelCodec, scores: np.ndarray) -> list[Cell]:
    """Each row's highest-scoring label; ties go to the lowest label code."""
    return [codec.values[c] for c in np.argmax(scores, axis=1)]


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("label", "col", "is_numeric", "threshold", "category", "left", "right")

    def __init__(self, label=None):
        self.label = label  # leaf label code, None for internal nodes
        self.col = -1  # column of the fit's numeric or code block
        self.is_numeric = True
        self.threshold = 0.0
        self.category = -1  # a code of the fit's vocabulary
        self.left = None
        self.right = None


class DecisionTreeClassifier:
    """Greedy CART-style tree: numeric midpoints, one-vs-rest categories."""

    def __init__(self, criterion: str = "gini", max_depth: int = 25, min_split: int = 2,
                 features_per_split: int | None = None, rng: np.random.Generator | None = None):
        if criterion not in ("gini", "gain", "error"):
            raise ParameterError(f"unknown split criterion {criterion!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_split = max(2, min_split)
        self.features_per_split = features_per_split
        self.rng = rng
        self.root: _Node | None = None
        self.codec: LabelCodec | None = None

    def fit(self, dataset: Dataset, rows: Sequence[int] | None = None):
        idx, self.codec, y = _labelled_rows(dataset, rows, "a tree")
        return self._grow(ColumnFit(dataset, idx), np.arange(len(idx)), y)

    def _grow(self, encoding: ColumnFit, sample: np.ndarray, y: np.ndarray):
        """Grow on the rows ``encoding`` was fitted on, at positions
        ``sample`` (repeats allowed), whose label codes are ``y[sample]``;
        ``self.codec`` is already set."""
        self.encoding = encoding
        self._col_values = []
        self._to_fit_code = []
        for n, b in zip(encoding.is_numeric, encoding.block_col):
            if n:
                self._col_values.append(encoding.num[sample, b])
                self._to_fit_code.append(None)
                continue
            # categories are tried in first-seen order within the sample, as
            # ties between equally good splits go to the first one tried
            codes = encoding.codes[sample, b]
            found, first = np.unique(codes, return_index=True)
            order = found[np.argsort(first)]
            local = np.empty(len(encoding.vocab[b]), dtype=np.int64)
            local[order] = np.arange(len(order))
            self._col_values.append(local[codes])
            self._to_fit_code.append(order)
        self.root = self._build(np.arange(len(sample)), y[sample], depth=0)
        del self._col_values, self._to_fit_code  # per-fit scratch
        return self

    def _leaf(self, counts: np.ndarray) -> _Node:
        return _Node(label=int(np.argmax(counts)))

    def _build(self, local: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = np.bincount(y[local], minlength=self.codec.n_classes).astype(float)
        if (
            depth >= self.max_depth
            or len(local) < self.min_split
            or (counts > 0).sum() <= 1
        ):
            return self._leaf(counts)
        best = self._best_split(local, y, counts)
        if best is None:
            return self._leaf(counts)
        pos, left_mask = best[0], best[1]
        node = _Node()
        node.col = self.encoding.block_col[pos]
        node.is_numeric = self.encoding.is_numeric[pos]
        if node.is_numeric:
            node.threshold = best[2]
        else:
            node.category = int(self._to_fit_code[pos][best[2]])
        node.left = self._build(local[left_mask], y, depth + 1)
        node.right = self._build(local[~left_mask], y, depth + 1)
        return node

    def _candidate_columns(self) -> list[int]:
        n_cols = len(self._col_values)
        if self.features_per_split is None or self.features_per_split >= n_cols:
            return list(range(n_cols))
        picked = self.rng.choice(n_cols, size=self.features_per_split, replace=False)
        return sorted(int(c) for c in picked)

    def _best_split(self, local: np.ndarray, y: np.ndarray, counts: np.ndarray):
        n = len(local)
        n_c = self.codec.n_classes
        parent = _impurity_rows(counts[None, :], self.criterion)[0]
        best = None  # (weighted_impurity, pos, left_mask, threshold_or_category)
        for pos in self._candidate_columns():
            vals = self._col_values[pos][local]
            if self.encoding.is_numeric[pos]:
                order = np.argsort(vals, kind="stable")
                sv = vals[order]
                sy = y[local][order]
                cuts = np.nonzero(sv[:-1] < sv[1:])[0]
                if len(cuts) == 0:
                    continue
                onehot = np.zeros((n, n_c))
                onehot[np.arange(n), sy] = 1.0
                cum = onehot.cumsum(axis=0)
                left = cum[cuts]
                right = counts[None, :] - left
                n_left = left.sum(axis=1)
                n_right = n - n_left
                weighted = (
                    n_left * _impurity_rows(left, self.criterion)
                    + n_right * _impurity_rows(right, self.criterion)
                ) / n
                k = int(np.argmin(weighted))
                if best is None or weighted[k] < best[0] - 1e-12:
                    thr = float((sv[cuts[k]] + sv[cuts[k] + 1]) / 2.0)
                    mask = np.zeros(n, dtype=bool)
                    mask[order[: cuts[k] + 1]] = True
                    best = (float(weighted[k]), pos, mask, thr)
            else:
                for cat in range(int(vals.max()) + 1 if len(vals) else 0):
                    mask = vals == cat
                    n_left = int(mask.sum())
                    if n_left == 0 or n_left == n:
                        continue
                    left = np.bincount(y[local][mask], minlength=n_c).astype(float)
                    right = counts - left
                    weighted = (
                        n_left * _impurity_rows(left[None, :], self.criterion)[0]
                        + (n - n_left) * _impurity_rows(right[None, :], self.criterion)[0]
                    ) / n
                    if best is None or weighted < best[0] - 1e-12:
                        best = (float(weighted), pos, mask, cat)
        if best is None or best[0] >= parent - 1e-12:
            return None
        return best[1], best[2], best[3]

    def _predict_codes(self, num: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Label codes of the encoded rows, routed down the tree as index sets."""
        out = np.empty(len(num), dtype=np.int64)
        stack = [(self.root, np.arange(len(num)))]
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

    def predict_rows(self, dataset: Dataset, rows: Sequence[int] | None = None) -> list[Cell]:
        codes = self._predict_codes(*self.encoding.encode(dataset, rows))
        return [self.codec.values[c] for c in codes]


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

class KNNClassifier:
    """Majority vote over the k nearest training rows (Euclidean distance on
    the shared min-max / overlap encoding)."""

    def __init__(self, k: int = 5):
        if k < 1:
            raise ParameterError("k must be at least 1")
        self.k = k

    def fit(self, dataset: Dataset, rows: Sequence[int] | None = None):
        idx, self.codec, self.y = _labelled_rows(dataset, rows, "KNN")
        if self.k > len(idx):
            raise ParameterError(f"k={self.k} exceeds training size {len(idx)}")
        self.encoder = FeatureEncoder(dataset, idx)
        self.X = self.encoder.transform_rows(dataset, idx)
        return self

    def predict_rows(self, dataset: Dataset, rows: Sequence[int] | None = None) -> list[Cell]:
        Q = self.encoder.transform_rows(dataset, rows)
        winners = np.empty(len(Q), dtype=np.int64)
        classes = np.arange(self.codec.n_classes)
        for a, d2 in _sq_dist_blocks(Q, self.X):
            nearest = _k_nearest(d2, self.k)
            votes = (self.y[nearest][:, :, None] == classes).sum(axis=1)
            winners[a:a + len(d2)] = votes.argmax(axis=1)
        return [self.codec.values[c] for c in winners]


def _k_nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``d2``, the column indices of its k smallest entries, ties
    going to the lower index: the set of the first k of a stable argsort, in
    ascending index order.  A selection, not a sort: every entry below the
    k-th smallest value, then the lowest-index entries equal to it."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    below = d2 < kth
    tied = d2 == kth
    take = below | (tied & (np.cumsum(tied, axis=1) <= k - below.sum(axis=1, keepdims=True)))
    return np.nonzero(take)[1].reshape(len(d2), k)


# ---------------------------------------------------------------------------
# naive Bayes
# ---------------------------------------------------------------------------

class NaiveBayesClassifier:
    """Class priors times per-feature conditionals with additive smoothing.

    Numeric features are discretized into equal-width bins fitted on the
    training rows.
    """

    def __init__(self, smoothing: float = 1.0, n_bins: int = 10):
        if smoothing <= 0:
            raise ParameterError("smoothing must be positive")
        if n_bins < 1:
            raise ParameterError("n_bins must be at least 1")
        self.smoothing = smoothing
        self.n_bins = n_bins

    def fit(self, dataset: Dataset, rows: Sequence[int] | None = None):
        idx, self.codec, y = _labelled_rows(dataset, rows, "naive Bayes")
        self.disc = Discretizer(dataset, idx, n_bins=self.n_bins)
        codes = self.disc.codes_rows(dataset, idx)
        m = len(idx)
        n_c = self.codec.n_classes
        s = self.smoothing
        class_counts = np.bincount(y, minlength=n_c).astype(float)
        self.log_prior = np.log((class_counts + s) / (m + s * n_c))
        self.log_cond: list[np.ndarray] = []
        for f, card in enumerate(self.disc.cardinalities):
            tab = np.zeros((card, n_c))
            np.add.at(tab, (codes[:, f], y), 1.0)
            self.log_cond.append(np.log((tab + s) / (class_counts[None, :] + s * card)))
        return self

    def predict_log_joint(self, dataset: Dataset,
                          rows: Sequence[int] | None = None) -> np.ndarray:
        """(rows, classes) log prior plus the per-feature log conditionals."""
        codes = self.disc.codes_rows(dataset, rows)
        log_joint = np.tile(self.log_prior, (len(codes), 1))
        for f, table in enumerate(self.log_cond):
            log_joint += table[codes[:, f]]
        return log_joint

    def predict_rows(self, dataset: Dataset, rows: Sequence[int] | None = None) -> list[Cell]:
        return _argmax_labels(self.codec, self.predict_log_joint(dataset, rows))


# ---------------------------------------------------------------------------
# Bayesian network
# ---------------------------------------------------------------------------

def _parent_configs(codes: np.ndarray, cards: Sequence[int],
                    parents: tuple[int, ...]) -> np.ndarray:
    """Each row's joint parent configuration, one index per row."""
    if not parents:
        return np.zeros(len(codes), dtype=np.int64)
    dims = [cards[p] for p in parents]
    return np.ravel_multi_index(tuple(codes[:, p] for p in parents), dims)


def _cpt(codes: np.ndarray, cards: Sequence[int], v: int, parents: tuple[int, ...],
         smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed (parent configuration, value) table of variable v, and the
    rows' parent configurations."""
    cfg = _parent_configs(codes, cards, parents)
    tab = np.zeros((int(np.prod([cards[p] for p in parents])), cards[v]))
    np.add.at(tab, (cfg, codes[:, v]), 1.0)
    return (tab + smoothing) / (tab.sum(axis=1, keepdims=True) + smoothing * cards[v]), cfg


def _node_cost(codes: np.ndarray, cards: Sequence[int], v: int,
               parents: tuple[int, ...], smoothing: float, bits: float) -> float:
    """Description-length share of one node: coding cost of its parameters
    plus the negative log-likelihood of its column given its parents."""
    probs, cfg = _cpt(codes, cards, v, parents, smoothing)
    loglik = float(np.log(probs[cfg, codes[:, v]]).sum())
    return bits * ((cards[v] - 1) * len(probs)) - loglik


def bayes_net_cost(codes: np.ndarray, cards: Sequence[int],
                   parents: dict[int, tuple[int, ...]],
                   smoothing: float = 1.0, bits_per_param: float | None = None) -> float:
    """Total description length of a network structure on coded data."""
    m = len(codes)
    bits = bits_per_param if bits_per_param is not None else 0.5 * math.log2(max(m, 2))
    return sum(
        _node_cost(codes, cards, v, tuple(parents.get(v, ())), smoothing, bits)
        for v in range(codes.shape[1])
    )


class BayesianNetworkClassifier:
    """Greedy description-length structure search over add/remove edge moves,
    smoothed CPTs, and exact posterior enumeration over the class variable."""

    def __init__(self, max_parents: int = 2, n_bins: int = 10, smoothing: float = 1.0):
        if max_parents < 0:
            raise ParameterError("max_parents must be >= 0")
        if n_bins < 1:
            raise ParameterError("n_bins must be at least 1")
        self.max_parents = max_parents
        self.n_bins = n_bins
        self.smoothing = smoothing

    def fit(self, dataset: Dataset, rows: Sequence[int] | None = None):
        idx, self.codec, y = _labelled_rows(dataset, rows, "a Bayesian network")
        self.disc = Discretizer(dataset, idx, n_bins=self.n_bins)
        codes = np.column_stack([self.disc.codes_rows(dataset, idx), y])
        cards = list(self.disc.cardinalities) + [self.codec.n_classes]
        self.n_vars = codes.shape[1]
        self.class_var = self.n_vars - 1
        self.cards = cards
        m = len(idx)
        bits = 0.5 * math.log2(max(m, 2))

        parents: dict[int, tuple[int, ...]] = {v: () for v in range(self.n_vars)}
        node_costs = {
            v: _node_cost(codes, cards, v, (), self.smoothing, bits)
            for v in range(self.n_vars)
        }
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
                    delta = (
                        _node_cost(codes, cards, v, cand, self.smoothing, bits)
                        - node_costs[v]
                    )
                    if delta < best_delta:
                        best_delta = delta
                        best_move = (v, cand)
            if best_move is None:
                break
            v, cand = best_move
            parents[v] = cand
            node_costs[v] = _node_cost(codes, cards, v, cand, self.smoothing, bits)
        self.parents = parents
        self.cost = sum(node_costs.values())

        self.cpts = {
            v: np.log(_cpt(codes, cards, v, parents[v], self.smoothing)[0])
            for v in range(self.n_vars)
        }
        return self

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

    def predict_log_joint(self, dataset: Dataset,
                          rows: Sequence[int] | None = None) -> np.ndarray:
        """(rows, classes) joint log probability of each row's features with
        each class, the CPT terms added in variable order."""
        codes = self.disc.codes_rows(dataset, rows)
        out = np.empty((len(codes), self.cards[self.class_var]))
        assign = np.column_stack([codes, np.zeros(len(codes), dtype=np.int64)])
        for y in range(out.shape[1]):
            assign[:, self.class_var] = y
            total = np.zeros(len(codes))
            for v in range(self.n_vars):
                cfg = _parent_configs(assign, self.cards, self.parents[v])
                total += self.cpts[v][cfg, assign[:, v]]
            out[:, y] = total
        return out

    def predict_rows(self, dataset: Dataset, rows: Sequence[int] | None = None) -> list[Cell]:
        return _argmax_labels(self.codec, self.predict_log_joint(dataset, rows))


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def logistic_log_likelihood(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray) -> float:
    z = X @ w + b
    sign = 2.0 * y - 1.0
    return float(-np.logaddexp(0.0, -sign * z).sum())


def logistic_gradient(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray):
    """Exact gradient of the log-likelihood with respect to (w, b)."""
    residual = y - sigmoid(X @ w + b)
    return X.T @ residual, float(residual.sum())


class LogisticRegressionClassifier:
    """Binary classifier trained by batch gradient ascent on the
    log-likelihood; predicts the positive class when the squashed score
    reaches 0.5."""

    def __init__(self, lr: float = 0.1, iters: int = 500):
        if lr <= 0 or iters < 0:
            raise ParameterError("lr must be positive and iters non-negative")
        self.lr = lr
        self.iters = iters

    def fit(self, dataset: Dataset, rows: Sequence[int] | None = None):
        idx, self.codec, y = _labelled_rows(dataset, rows, "logistic regression")
        if self.codec.n_classes != 2:
            raise UnsupportedTaskError(
                f"logistic regression needs a binary target, got {self.codec.n_classes} classes"
            )
        self.encoder = FeatureEncoder(dataset, idx)
        X = self.encoder.transform_rows(dataset, idx)
        y = y.astype(float)
        m = len(idx)
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

    def predict_rows(self, dataset: Dataset, rows: Sequence[int] | None = None) -> list[Cell]:
        # one dot product per row: a matrix product may round the scores
        # differently in the last bit
        X = self.encoder.transform_rows(dataset, rows)
        return [self.codec.values[1 if sigmoid(x @ self.w + self.b) >= 0.5 else 0] for x in X]


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

class RandomForestClassifier:
    """Bagged decision trees with a random feature subset at every split."""

    def __init__(self, n_trees: int = 50, feat_frac: float | None = None, seed: int = 0,
                 bootstrap: bool = True, criterion: str = "gini",
                 max_depth: int = 25, min_split: int = 2):
        if n_trees < 1:
            raise ParameterError("n_trees must be at least 1")
        self.n_trees = n_trees
        self.feat_frac = feat_frac
        self.seed = seed
        self.bootstrap = bootstrap
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_split = min_split

    def fit(self, dataset: Dataset, rows: Sequence[int] | None = None):
        idx, self.codec, y = _labelled_rows(dataset, rows, "a forest")
        n_feat = dataset.schema.n
        if self.feat_frac is None:
            per_split = max(1, math.ceil(math.sqrt(n_feat)))
        else:
            per_split = max(1, math.ceil(self.feat_frac * n_feat))
        per_split = min(per_split, n_feat)
        self.encoding = ColumnFit(dataset, idx)
        self.trees: list[DecisionTreeClassifier] = []
        for t in range(self.n_trees):
            rng = np.random.default_rng(derive_seed(self.seed, "tree", t))
            if self.bootstrap:
                sample = rng.integers(0, len(idx), size=len(idx))
            else:
                sample = np.arange(len(idx))
            tree = DecisionTreeClassifier(
                criterion=self.criterion,
                max_depth=self.max_depth,
                min_split=self.min_split,
                features_per_split=per_split if per_split < n_feat else None,
                rng=rng,
            )
            tree.codec = self.codec
            self.trees.append(tree._grow(self.encoding, sample, y))
        return self

    def predict_rows(self, dataset: Dataset, rows: Sequence[int] | None = None) -> list[Cell]:
        num, codes = self.encoding.encode(dataset, rows)
        votes = np.zeros((len(num), self.codec.n_classes), dtype=np.int64)
        at = np.arange(len(num))
        for tree in self.trees:
            votes[at, tree._predict_codes(num, codes)] += 1
        return _argmax_labels(self.codec, votes)
