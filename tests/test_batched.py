"""Batched encodings and predictions against per-record reference code.

The references below encode and predict one record at a time, each fitting
its own statistics and vocabularies, the way the encoders and models did
before they shared one batched encoding.  No benchmark workload has a
categorical feature, so these properties are what hold that path: mixed
schemas, categories unseen in training, constant numeric columns and test
values outside the training range.
"""
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirtybench import classify, cluster, regress
from dirtybench.classify import (
    BayesianNetworkClassifier,
    DecisionTreeClassifier,
    KNNClassifier,
    LogisticRegressionClassifier,
    NaiveBayesClassifier,
    RandomForestClassifier,
    sigmoid,
)
from dirtybench.corrupt import derive_seed
from dirtybench.data import CATEGORICAL, NUMERIC, Column, dataset_from_rows
from dirtybench.errors import DirtyBenchError, EmptyInputError, SchemaError
from dirtybench.features import (
    CAT_SCALE,
    Discretizer,
    EncodedTable,
    FeatureEncoder,
)
from oracles import evaluate_row, impurity_rows

# training values come from few levels so constant columns are common; test
# values reach past both ends and take categories training never saw
TRAIN_NUMBERS = (0.0, 1.0, 2.5)
TEST_NUMBERS = (-3.0, 0.0, 1.0, 1.7, 2.5, 9.0)
TRAIN_WORDS = ("a", "b", "c")
TEST_WORDS = ("a", "b", "c", "d", "e")


# deeper trees: more rows, numeric levels, categories and labels
DEEP_NUMBERS = tuple(v / 4 for v in range(-6, 18))
DEEP_WORDS = ("a", "b", "c", "d", "e", "f")
DEEP_LABELS = ("p", "q", "r", "s")
# from 8 labels on, a class histogram's row sums are pairwise
MANY_LABELS = tuple("abcdefghi")


@st.composite
def split_tables(draw, target_kind=CATEGORICAL, deep=False, labels=None):
    """(dataset, training rows, test rows) over a random mixed schema."""
    kinds = draw(st.lists(st.sampled_from((NUMERIC, CATEGORICAL)), min_size=1, max_size=4))
    if target_kind == NUMERIC and NUMERIC not in kinds:
        kinds.append(NUMERIC)
    n_train = draw(st.integers(20, 80) if deep else st.integers(4, 16))
    n_test = draw(st.integers(1, 8))
    labels = labels or (DEEP_LABELS if deep else ("p", "q", "r"))

    def row(numbers, words):
        cells = [draw(st.sampled_from(numbers if k == NUMERIC else words)) for k in kinds]
        if target_kind == NUMERIC:
            return cells + [draw(st.floats(-5, 5, allow_nan=False))]
        return cells + [draw(st.sampled_from(labels))]

    if deep:
        rows = [row(DEEP_NUMBERS, DEEP_WORDS) for _ in range(n_train + n_test)]
    else:
        rows = [row(TRAIN_NUMBERS, TRAIN_WORDS) for _ in range(n_train)]
        rows += [row(TEST_NUMBERS, TEST_WORDS) for _ in range(n_test)]
    cols = [Column(f"x{j}", k) for j, k in enumerate(kinds)]
    cols.append(Column("y", target_kind, "target"))
    d = dataset_from_rows(cols, rows)
    return d, list(range(n_train)), list(range(n_train, n_train + n_test))


# ---------------------------------------------------------------------------
# per-record references
# ---------------------------------------------------------------------------

class RefEncoder:
    """Min-max + scaled one-hot, fitted and applied one record at a time."""

    def __init__(self, d, idx):
        self.cols = d.schema.feature_indices
        self.numeric = [j for j in self.cols if d.schema.columns[j].kind == NUMERIC]
        self.categorical = [j for j in self.cols if j not in self.numeric]
        self.lo = {j: min(d.rows[i][j] for i in idx) for j in self.numeric}
        self.hi = {j: max(d.rows[i][j] for i in idx) for j in self.numeric}
        self.vocab = {}
        for j in self.categorical:
            seen = {}
            for i in idx:
                seen.setdefault(d.rows[i][j], len(seen))
            self.vocab[j] = seen
        self.width = len(self.numeric) + sum(len(v) for v in self.vocab.values())

    def transform_cells(self, cells):
        out = np.zeros(self.width)
        pos = 0
        for j in self.numeric:
            span = self.hi[j] - self.lo[j]
            out[pos] = (float(cells[j]) - self.lo[j]) / span if span > 0 else 0.0
            pos += 1
        for j in self.categorical:
            slot = self.vocab[j].get(cells[j])
            if slot is not None:
                out[pos + slot] = CAT_SCALE
            pos += len(self.vocab[j])
        return out

    def codes_cells(self, cells, n_bins):
        out = []
        for j in self.cols:
            if j in self.vocab:
                out.append(self.vocab[j].get(cells[j], len(self.vocab[j])))
                continue
            span = self.hi[j] - self.lo[j]
            b = int((float(cells[j]) - self.lo[j]) / span * n_bins) if span > 0 else 0
            out.append(min(max(b, 0), n_bins - 1))
        return np.array(out, dtype=np.int64)


def stored_labels(d, idx):
    """The stored labels of rows ``idx``."""
    return [d.rows[i][d.schema.target_index] for i in idx]


def ref_classes(d, idx):
    """The distinct stored labels of rows ``idx`` in first-seen order."""
    return tuple(dict.fromkeys(stored_labels(d, idx)))


def ref_label_codes(d, idx, classes):
    """Each row's index into ``classes``."""
    return np.array([classes.index(v) for v in stored_labels(d, idx)], dtype=np.int64)


def ref_tree(d, idx, classes, criterion="gini", per_split=None, rng=None,
             max_depth=25, min_split=2):
    """Grow a tree on rows ``idx`` (repeats allowed) with per-fit
    first-seen vocabularies, one column and its numeric argsort at a time.
    Returns the tree as a leaf label or (schema column, threshold or
    category, left, right)."""
    cols = d.schema.feature_indices
    numeric = [d.schema.columns[j].kind == NUMERIC for j in cols]
    values, vocabs = [], []
    for j, is_num in zip(cols, numeric):
        raw = [d.rows[i][j] for i in idx]
        vocab = None if is_num else {}
        if not is_num:
            for v in raw:
                vocab.setdefault(v, len(vocab))
            raw = [vocab[v] for v in raw]
        values.append(np.array(raw, dtype=float if is_num else np.int64))
        vocabs.append(vocab)
    y = ref_label_codes(d, idx, classes)
    n_c = len(classes)

    def impurity(counts):
        return impurity_rows(np.atleast_2d(counts), criterion)

    def best_split(local, counts):
        n = len(local)
        best = None
        if per_split is None or per_split >= len(cols):
            candidates = range(len(cols))
        else:
            candidates = sorted(int(c) for c in rng.choice(len(cols), size=per_split,
                                                           replace=False))
        for pos in candidates:
            vals = values[pos][local]
            if numeric[pos]:
                order = np.argsort(vals, kind="stable")
                sv, sy = vals[order], y[local][order]
                cuts = np.nonzero(sv[:-1] < sv[1:])[0]
                if len(cuts) == 0:
                    continue
                onehot = np.zeros((n, n_c))
                onehot[np.arange(n), sy] = 1.0
                left = onehot.cumsum(axis=0)[cuts]
                n_left = left.sum(axis=1)
                weighted = (n_left * impurity(left)
                            + (n - n_left) * impurity(counts[None, :] - left)) / n
                k = int(np.argmin(weighted))
                if best is None or weighted[k] < best[0] - 1e-12:
                    mask = np.zeros(n, dtype=bool)
                    mask[order[: cuts[k] + 1]] = True
                    best = (float(weighted[k]), pos, mask,
                            float((sv[cuts[k]] + sv[cuts[k] + 1]) / 2.0))
            else:
                for cat in range(int(vals.max()) + 1):
                    mask = vals == cat
                    n_left = int(mask.sum())
                    if n_left == 0 or n_left == n:
                        continue
                    left = np.bincount(y[local][mask], minlength=n_c).astype(float)
                    weighted = (n_left * impurity(left)[0]
                                + (n - n_left) * impurity(counts - left)[0]) / n
                    if best is None or weighted < best[0] - 1e-12:
                        best = (float(weighted), pos, mask, cat)
        if best is None or best[0] >= impurity(counts)[0] - 1e-12:
            return None
        return best[1:]

    def build(local, depth):
        counts = np.bincount(y[local], minlength=n_c).astype(float)
        split = None
        if depth < max_depth and len(local) >= max(2, min_split) and (counts > 0).sum() > 1:
            split = best_split(local, counts)
        if split is None:
            return classes[int(np.argmax(counts))]
        pos, mask, at = split
        if not numeric[pos]:
            at = next(v for v, code in vocabs[pos].items() if code == at)
        return (cols[pos], at, build(local[mask], depth + 1), build(local[~mask], depth + 1))

    return build(np.arange(len(idx)), 0)


def ref_predict(tree, d, cells):
    """The label a tree grown by ``ref_tree`` gives one record."""
    while isinstance(tree, tuple):
        j, at, left, right = tree
        if d.schema.columns[j].kind == NUMERIC:
            tree = left if float(cells[j]) <= at else right
        else:
            tree = left if cells[j] == at else right
    return tree


def ref_forest(d, idx, n_trees, feat_frac, seed, bootstrap=True, **tree_params):
    """The trees of a forest, each grown by ``ref_tree``."""
    classes = ref_classes(d, idx)
    n_feat = d.schema.n
    per_split = math.ceil(math.sqrt(n_feat)) if feat_frac is None else math.ceil(feat_frac * n_feat)
    per_split = min(max(1, per_split), n_feat)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, "tree", t))
        sample = ([idx[int(i)] for i in rng.integers(0, len(idx), size=len(idx))]
                  if bootstrap else list(idx))
        trees.append(ref_tree(d, sample, classes, per_split=per_split, rng=rng, **tree_params))
    return trees


def ref_vote(trees, classes, d, cells):
    votes = np.zeros(len(classes), dtype=int)
    for tree in trees:
        votes[classes.index(ref_predict(tree, d, cells))] += 1
    return classes[int(np.argmax(votes))]


def grown(forest):
    """A fitted forest's trees in ``ref_tree``'s form: schema columns,
    numeric thresholds, raw categories and raw labels."""
    enc = forest.encoding

    def walk(node):
        if node.label is not None:
            return forest.classes[node.label]
        if node.is_numeric:
            j, at = enc.numeric_cols[node.col], node.threshold
        else:
            j = enc.categorical_cols[node.col]
            at = next(v for v, code in enc.vocab[node.col].items() if code == node.category)
        return (j, at, walk(node.left), walk(node.right))

    return [walk(root) for root in forest.roots]


def ref_knn(d, idx, k, classes):
    enc = RefEncoder(d, idx)
    X = np.array([enc.transform_cells(d.rows[i]) for i in idx])
    y = ref_label_codes(d, idx, classes)

    def predict_cells(cells):
        d2 = ((X - enc.transform_cells(cells)) ** 2).sum(axis=1)
        nearest = np.argsort(d2, kind="stable")[:k]
        return classes[int(np.argmax(np.bincount(y[nearest], minlength=len(classes))))]

    return predict_cells


def ref_bn_log_joint(model, codes):
    out = np.empty(model.cards[model.class_var])
    assign = np.append(codes, 0)
    for y in range(len(out)):
        assign[model.class_var] = y
        total = 0.0
        for v in range(model.n_vars):
            pa = model.parents[v]
            cfg = 0
            if pa:
                dims = [model.cards[p] for p in pa]
                cfg = int(np.ravel_multi_index(tuple(assign[list(pa)]), dims))
            total += float(model.cpts[v][cfg, assign[v]])
        out[y] = total
    return out


def ref_regress_predict(model, cells):
    return evaluate_row(model, np.array([float(cells[j]) for j in model.feature_cols]))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(split_tables(), st.integers(2, 6))
def test_encodings_equal_per_record_reference(case, n_bins):
    d, train, test = case
    ref = RefEncoder(d, train)
    enc = FeatureEncoder(d, train)
    disc = Discretizer(d, train, n_bins=n_bins)
    for rows in (train, test, None):
        cells = [d.rows[i] for i in (range(d.n_rows) if rows is None else rows)]
        want_x = np.array([ref.transform_cells(c) for c in cells])
        want_codes = np.array([ref.codes_cells(c, n_bins) for c in cells])
        assert np.array_equal(enc.transform_rows(d, rows), want_x)
        assert np.array_equal(disc.codes_rows(d, rows), want_codes)


@given(split_tables())
def test_one_shared_table_reads_as_the_dataset(case):
    """Classifiers fitted and applied on one shared EncodedTable predict as
    they do when each call reads the dataset's rows itself.  The table's
    arrays are read-only, and every numeric block sliced from it, a column
    subset too, is C-contiguous."""
    d, train, test = case
    table = EncodedTable(d)
    assert not any(a.flags.writeable for a in (table.num, table.codes, table.target_codes))
    for rows in (train, test, None):
        assert table.numeric(rows).flags.c_contiguous
        assert table.numeric(rows, table.numeric_cols[::-1]).flags.c_contiguous
    for make in (DecisionTreeClassifier, lambda: RandomForestClassifier(n_trees=3, seed=1),
                 lambda: KNNClassifier(k=1), NaiveBayesClassifier, BayesianNetworkClassifier):
        assert (make().fit(table, train).predict_rows(table, test)
                == make().fit(d, train).predict_rows(d, test))


@given(split_tables(), st.sampled_from(("gini", "gain", "error")))
def test_classifiers_equal_per_record_reference(case, criterion):
    d, train, test = case
    classes = ref_classes(d, train)
    cells = [d.rows[i] for i in test]

    tree = DecisionTreeClassifier(criterion=criterion).fit(d, train)
    ref = ref_tree(d, train, classes, criterion)
    assert tree.predict_rows(d, test) == [ref_predict(ref, d, c) for c in cells]

    forest = RandomForestClassifier(n_trees=4, feat_frac=0.5, seed=3).fit(d, train)
    refs = ref_forest(d, train, 4, 0.5, 3)
    assert forest.predict_rows(d, test) == [ref_vote(refs, classes, d, c) for c in cells]

    k = min(3, len(train))
    knn = KNNClassifier(k=k).fit(d, train)
    want = list(map(ref_knn(d, train, k, classes), cells))
    assert knn.predict_rows(d, test) == want
    with mock.patch.object(cluster, "_GRAM_MADDS", 1):  # one query row per block
        assert knn.predict_rows(d, test) == want

    ref = RefEncoder(d, train)
    nb = NaiveBayesClassifier(n_bins=4).fit(d, train)
    want = []
    for c in cells:
        lj = nb.log_prior.copy()
        for f, code in enumerate(ref.codes_cells(c, 4)):
            lj += nb.log_cond[f][code]
        want.append(lj)
    assert np.array_equal(nb.predict_log_joint(d, test), np.array(want))
    assert nb.predict_rows(d, test) == [classes[int(np.argmax(lj))] for lj in want]

    bn = BayesianNetworkClassifier(max_parents=2, n_bins=4).fit(d, train)
    want = [ref_bn_log_joint(bn, ref.codes_cells(c, 4)) for c in cells]
    assert np.array_equal(bn.predict_log_joint(d, test), np.array(want))
    assert bn.predict_rows(d, test) == [classes[int(np.argmax(lj))] for lj in want]

    if len(classes) == 2:
        logistic = LogisticRegressionClassifier(iters=50).fit(d, train)
        assert logistic.predict_rows(d, test) == [
            classes[1 if float(sigmoid(ref.transform_cells(c) @ logistic.w + logistic.b))
                    >= 0.5 else 0]
            for c in cells
        ]


@given(split_tables(deep=True), st.sampled_from(("gini", "gain", "error")),
       st.sampled_from((None, 0.25, 0.5, 0.75, 1.0)), st.sampled_from((1, 3, 25)),
       st.integers(2, 5), st.integers(0, 50))
def test_trees_grow_as_reference(case, criterion, feat_frac, max_depth, min_split, seed):
    """Every node's column and threshold or category equals the reference's:
    a tree, and a forest's trees drawing their candidate columns."""
    d, train, _ = case
    classes = ref_classes(d, train)
    limits = dict(criterion=criterion, max_depth=max_depth, min_split=min_split)

    tree = DecisionTreeClassifier(**limits).fit(d, train)
    assert grown(tree) == [ref_tree(d, train, classes, **limits)]

    forest = RandomForestClassifier(n_trees=3, feat_frac=feat_frac, seed=seed,
                                    **limits).fit(d, train)
    assert grown(forest) == ref_forest(d, train, 3, feat_frac, seed, **limits)


@given(split_tables(deep=True), st.integers(0, 50), st.sampled_from((1, 1500, 6000)))
def test_trees_grow_alike_in_histogram_chunks(case, seed, budget):
    """Rounds scored in chunks of a few nodes, or one node at a time (a
    budget below one node's histogram), grow the same trees."""
    d, train, _ = case
    classes = ref_classes(d, train)
    with mock.patch.object(classify, "_HIST_BYTES", budget):
        tree = DecisionTreeClassifier().fit(d, train)
        forest = RandomForestClassifier(n_trees=3, feat_frac=0.5, seed=seed).fit(d, train)
    assert grown(tree) == [ref_tree(d, train, classes)]
    assert grown(forest) == ref_forest(d, train, 3, 0.5, seed)


@given(st.sampled_from((DEEP_LABELS, MANY_LABELS)).flatmap(
           lambda labels: split_tables(deep=True, labels=labels)),
       st.data(), st.sampled_from(("gini", "gain", "error")),
       st.sampled_from((None, 0.5, 1.0)), st.booleans(),
       st.sampled_from((1, 1500, classify._HIST_BYTES)),
       st.integers(0, 50))
def test_trees_of_each_row_set_grow_as_that_set_alone(case, data, criterion, feat_frac,
                                                     bootstrap, budget, seed):
    """``fit_each`` over several row sets grows, for each set, the trees and
    predictions of the reference grown on that set alone, node by node: sets
    with different class counts, one without the first row's class, chunks
    down to one node each."""
    d, train, test = case
    labels = stored_labels(d, train)
    masks = st.lists(st.booleans(), min_size=len(train), max_size=len(train))
    sets = [[i for i, keep in zip(train, mask) if keep] or train
            for mask in data.draw(st.lists(masks, min_size=1, max_size=3))]
    without_first = [i for i, label in zip(train, labels) if label != labels[0]]
    if without_first:
        sets.insert(data.draw(st.integers(0, len(sets))), without_first)
    with mock.patch.object(classify, "_HIST_BYTES", budget):
        trees = DecisionTreeClassifier(criterion=criterion).fit_each(d, sets)
        forests = RandomForestClassifier(n_trees=3, feat_frac=feat_frac, seed=seed,
                                         bootstrap=bootstrap,
                                         criterion=criterion).fit_each(d, sets)
    cells = [d.rows[i] for i in test]
    for rows, tree, forest in zip(sets, trees, forests):
        classes = ref_classes(d, rows)
        ref = ref_tree(d, rows, classes, criterion)
        assert grown(tree) == [ref]
        assert tree.predict_rows(d, test) == [ref_predict(ref, d, c) for c in cells]
        refs = ref_forest(d, rows, 3, feat_frac, seed, bootstrap, criterion=criterion)
        assert grown(forest) == refs
        assert forest.predict_rows(d, test) == [ref_vote(refs, classes, d, c) for c in cells]


def test_first_failing_row_set_raises():
    d = dataset_from_rows([Column("x", NUMERIC), Column("y", CATEGORICAL, "target")],
                          [[0.0, "p"], [1.0, None], [2.0, "q"]])
    forest = RandomForestClassifier(n_trees=2)
    for sets, error in (([[0, 2], [], [0, 1]], EmptyInputError),
                        ([[0, 2], [0, 1], []], SchemaError)):
        with pytest.raises(error):
            forest.fit_each(d, sets)


@given(split_tables(target_kind=NUMERIC))
def test_regression_equals_per_record_reference(case):
    d, train, test = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # categorical features are dropped with a warning
        for fitter in (regress.fit_least_squares, regress.fit_polynomial, regress.fit_stepwise,
                       regress.fit_maximum_likelihood):
            try:
                model = fitter(d, rows=train)
            except DirtyBenchError:
                continue
            want = [ref_regress_predict(model, d.rows[i]) for i in test]
            assert np.array_equal(regress.predict_rows(model, d, test), np.array(want))
