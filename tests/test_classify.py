import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirtybench import classify
from dirtybench.classify import (
    BayesianNetworkClassifier,
    DecisionTreeClassifier,
    KNNClassifier,
    LogisticRegressionClassifier,
    NaiveBayesClassifier,
    RandomForestClassifier,
    logistic_gradient,
    sigmoid,
    _impurity_rows,
    _k_nearest,
    _route,
)
from dirtybench.data import CATEGORICAL, Column, NUMERIC, dataset_from_rows
from dirtybench.errors import (
    EmptyInputError,
    ParameterError,
    UnsupportedTaskError,
)
from dirtybench.synth import make_blobs
from oracles import (
    UndefinedNodeError,
    bayes_net_cost,
    entropy,
    gini,
    impurity_rows,
    information_gain,
    logistic_log_likelihood,
    misclassification_error,
)

TARGET = "target"


def labeled(rows, kinds):
    cols = [Column(f"x{j}", k) for j, k in enumerate(kinds)]
    cols.append(Column("label", CATEGORICAL, TARGET))
    return dataset_from_rows(cols, rows)


def predict_one(model, d, cells):
    """The model's prediction for one record of d's schema."""
    return model.predict_rows(dataset_from_rows(d.schema, [cells]))[0]


def posterior(model, d, cells):
    """Normalized class posterior of one record from the batched log joint."""
    lj = model.predict_log_joint(dataset_from_rows(d.schema, [cells]))[0]
    p = np.exp(lj - lj.max())
    return p / p.sum()


class TestPurityMeasures:
    def test_gini_examples(self):
        assert gini([5, 5]) == pytest.approx(0.5)
        assert gini([10, 0]) == pytest.approx(0.0)
        assert gini([1, 3]) == pytest.approx(0.375)

    def test_entropy_examples(self):
        assert entropy([5, 5]) == pytest.approx(1.0)
        assert entropy([10, 0]) == pytest.approx(0.0)

    def test_error_examples(self):
        assert misclassification_error([10, 0]) == pytest.approx(0.0)
        assert misclassification_error([5, 5]) == pytest.approx(0.5)

    def test_information_gain_perfect_split(self):
        assert information_gain([4, 4], [[4, 0], [0, 4]]) == pytest.approx(1.0)

    def test_empty_node_raises(self):
        for fn in (gini, entropy, misclassification_error):
            with pytest.raises(UndefinedNodeError):
                fn([0, 0])

    @pytest.mark.parametrize("n_c", [2, 3, 4])
    def test_zero_iff_pure_and_max_at_uniform(self, n_c):
        pure = [0] * n_c
        pure[0] = 7
        for fn in (gini, entropy, misclassification_error):
            assert fn(pure) == pytest.approx(0.0)
            uniform_value = fn([6] * n_c)
            rng = np.random.default_rng(n_c)
            for _ in range(25):
                counts = rng.integers(0, 9, size=n_c)
                if counts.sum() == 0:
                    continue
                value = fn(counts)
                assert value <= uniform_value + 1e-12
                if len(set(counts[counts > 0])) == 1 and (counts > 0).sum() == n_c:
                    continue  # uniform itself
                if value == pytest.approx(0.0, abs=1e-12):
                    assert (counts > 0).sum() == 1

    def test_entropy_bounded_by_log2_nc(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_c = int(rng.integers(2, 6))
            counts = rng.integers(1, 20, size=n_c)
            assert 0.0 <= entropy(counts) <= math.log2(n_c) + 1e-12

    def test_gain_nonnegative_for_partitions(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_c = int(rng.integers(2, 5))
            labels = rng.integers(0, n_c, size=int(rng.integers(4, 30)))
            side = rng.integers(0, 2, size=len(labels)).astype(bool)
            if side.all() or (~side).all():
                continue
            parent = np.bincount(labels, minlength=n_c)
            left = np.bincount(labels[side], minlength=n_c)
            right = np.bincount(labels[~side], minlength=n_c)
            assert information_gain(parent, [left, right]) >= -1e-12

    @given(st.integers(1, 140), st.integers(1, 30), st.integers(0, 2**32 - 1),
           st.sampled_from(("gini", "gain", "error")))
    def test_impurity_rows_equal_numpy_sums(self, n_c, m, seed, criterion):
        """The forest's impurities add the class columns in numpy's order, so
        they have the bits of the ``.sum(axis=1)`` form, empty rows included."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3, size=(m, n_c)) * rng.integers(0, 400, size=(m, n_c))
        counts = counts.astype(float)
        assert np.array_equal(_impurity_rows(counts, criterion), impurity_rows(counts, criterion))


class TestDecisionTree:
    def test_single_row_is_leaf(self):
        d = labeled([[1.0, "pos"]], [NUMERIC])
        model = DecisionTreeClassifier().fit(d)
        assert predict_one(model, d, [5.0, None]) == "pos"

    @pytest.mark.parametrize("criterion", ["gini", "gain", "error"])
    def test_threshold_separable_training_accuracy(self, criterion):
        rows = [[float(v), "lo" if v < 10 else "hi"] for v in range(20)]
        d = labeled(rows, [NUMERIC])
        model = DecisionTreeClassifier(criterion=criterion).fit(d)
        assert model.predict_rows(d) == [r[1] for r in rows]

    def test_identical_features_majority_leaf(self):
        rows = [[1.0, "a"], [1.0, "a"], [1.0, "b"]]
        d = labeled(rows, [NUMERIC])
        model = DecisionTreeClassifier().fit(d)
        assert predict_one(model, d, [1.0, None]) == "a"

    def test_categorical_split(self):
        rows = [["red", "stop"], ["red", "stop"], ["green", "go"], ["green", "go"]]
        d = labeled(rows, [CATEGORICAL])
        model = DecisionTreeClassifier().fit(d)
        assert predict_one(model, d, ["red", None]) == "stop"
        assert predict_one(model, d, ["green", None]) == "go"

    def test_empty_train_raises(self):
        d = labeled([[1.0, "a"]], [NUMERIC])
        with pytest.raises(EmptyInputError):
            DecisionTreeClassifier().fit(d, rows=[])

    def test_blobs_generalization(self):
        train = make_blobs(90, seed=3)
        model = DecisionTreeClassifier().fit(train)
        preds = model.predict_rows(train)
        agree = sum(p == t for p, t in zip(preds, train.labels()))
        assert agree / train.n_rows > 0.95


class TestKNN:
    def test_query_equal_to_training_row(self):
        d = labeled([[0.0, 0.0, "a"], [5.0, 5.0, "b"], [9.0, 1.0, "c"]], [NUMERIC, NUMERIC])
        model = KNNClassifier(k=1).fit(d)
        assert predict_one(model, d, [5.0, 5.0, None]) == "b"

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            X = rng.uniform(0, 1, size=(20, 3))
            y = rng.integers(0, 3, size=20)
            rows = [[*map(float, X[i]), f"c{y[i]}"] for i in range(20)]
            d = labeled(rows, [NUMERIC] * 3)
            model = KNNClassifier(k=3).fit(d)
            q = rng.uniform(0, 1, size=3)
            query = dataset_from_rows(d.schema, [[*map(float, q), None]])
            got = model.predict_rows(query)[0]
            # oracle: exhaustive distance sort on the same scaled space
            Xs = model.encoder.transform_rows(d)
            qs = model.encoder.transform_rows(query)[0]
            order = np.argsort(((Xs - qs) ** 2).sum(axis=1), kind="stable")[:3]
            votes = {}
            for i in order:
                votes[y[i]] = votes.get(y[i], 0) + 1
            top = max(votes.values())
            winners = [c for c in sorted(votes) if votes[c] == top]
            first_seen = list(dict.fromkeys(y.tolist()))  # label codes follow it
            codes = [first_seen.index(c) for c in winners]
            expect = f"c{winners[int(np.argmin(codes))]}"
            assert got == expect

    def test_k_equal_train_size_predicts_majority(self):
        rows = [[0.0, "a"], [1.0, "a"], [2.0, "a"], [3.0, "b"], [4.0, "b"]]
        d = labeled(rows, [NUMERIC])
        model = KNNClassifier(k=5).fit(d)
        for q in (-10.0, 0.0, 2.5, 99.0):
            assert predict_one(model, d, [q, None]) == "a"

    @given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_selection_equals_stable_argsort(self, m, n, levels, seed):
        # distances rounded onto a few levels, so most rows tie at the k-th value
        rng = np.random.default_rng(seed)
        d2 = np.round(rng.uniform(0, 1, size=(m, n)) * levels) / max(levels, 1)
        for k in sorted({1, (n + 1) // 2, n}):
            expect = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)
            assert np.array_equal(_k_nearest(d2, k), expect)

    @given(st.integers(2, 12), st.integers(2, 30), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_selection_mixes_tied_and_tie_free_rows(self, m, n, levels, seed):
        # distinct distances first, so no row needs the tie rule; then every
        # other row rounded onto a few levels, so one block mixes rows that
        # need it with rows that do not
        rng = np.random.default_rng(seed)
        d2 = rng.permutation(m * n).reshape(m, n) / (m * n)
        for rounded in (False, True):
            if rounded:
                d2[::2] = np.round(d2[::2] * levels) / levels
            for k in sorted({1, 2, (n + 1) // 2, n}):
                expect = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)
                assert np.array_equal(_k_nearest(d2, k), expect)

    def test_k_validation(self):
        d = labeled([[0.0, "a"], [1.0, "b"]], [NUMERIC])
        with pytest.raises(ParameterError):
            KNNClassifier(k=0)
        with pytest.raises(ParameterError):
            KNNClassifier(k=3).fit(d)


class TestNaiveBayes:
    def test_single_class_always_wins(self):
        d = labeled([[1.0, "a"], [2.0, "a"], [3.0, "a"]], [NUMERIC])
        model = NaiveBayesClassifier().fit(d)
        assert predict_one(model, d, [99.0, None]) == "a"

    def test_dominant_likelihood(self):
        d = labeled([["a", "pos"], ["b", "neg"]], [CATEGORICAL])
        model = NaiveBayesClassifier().fit(d)
        assert predict_one(model, d, ["a", None]) == "pos"
        assert predict_one(model, d, ["b", None]) == "neg"

    def test_eight_row_hand_computed_posterior(self):
        rows = [["a", "+"], ["a", "+"], ["b", "-"], ["a", "-"],
                ["b", "+"], ["b", "-"], ["a", "+"], ["b", "-"]]
        d = labeled(rows, [CATEGORICAL])
        model = NaiveBayesClassifier(smoothing=1.0).fit(d)
        # vocabulary is {a, b} plus one reserved unseen slot -> cardinality 3
        # priors: (4+1)/(8+2) = 0.5 each
        # P(a|+) = (3+1)/(4+3), P(a|-) = (1+1)/(4+3)
        p_plus = 0.5 * (4 / 7)
        p_minus = 0.5 * (2 / 7)
        proba = posterior(model, d, ["a", None])
        assert proba[model.classes.index("+")] == pytest.approx(p_plus / (p_plus + p_minus))
        assert predict_one(model, d, ["a", None]) == "+"

    def test_posterior_sums_to_one(self):
        train = make_blobs(60, n_classes=3, seed=5)
        model = NaiveBayesClassifier().fit(train)
        for i in range(0, 60, 7):
            assert posterior(model, train, train.rows[i]).sum() == pytest.approx(1.0, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError, match="smoothing"):
            NaiveBayesClassifier(smoothing=0.0)
        with pytest.raises(ParameterError, match="n_bins"):
            NaiveBayesClassifier(n_bins=0)


def add_at_cpt(codes, cards, v, parents, smoothing):
    """A node's smoothed CPT counted with ``np.add.at``, and the rows'
    parent configurations."""
    cfg = classify._parent_configs(codes, cards, parents)
    tab = np.zeros((int(np.prod([cards[p] for p in parents])), cards[v]))
    np.add.at(tab, (cfg, codes[:, v]), 1.0)
    return (tab + smoothing) / (tab.sum(axis=1, keepdims=True) + smoothing * cards[v]), cfg


def rescoring_search(codes, cards, max_parents, smoothing):
    """The greedy structure search that scores every move afresh at every
    step: its parents, its cost and how many node scores it computed."""
    n_vars = codes.shape[1]
    bits = 0.5 * math.log2(max(len(codes), 2))
    calls = 0

    def node_cost(v, parents):
        nonlocal calls
        calls += 1
        probs, cfg = add_at_cpt(codes, cards, v, parents, smoothing)
        return bits * ((cards[v] - 1) * len(probs)) - float(np.log(probs[cfg, codes[:, v]]).sum())

    parents = {v: () for v in range(n_vars)}
    node_costs = {v: node_cost(v, ()) for v in range(n_vars)}
    for _ in range(10 * n_vars * n_vars):
        best_move, best_delta = None, -1e-9
        for v in range(n_vars):
            current = parents[v]
            for u in range(n_vars):
                if u == v:
                    continue
                if u in current:
                    cand = tuple(p for p in current if p != u)
                else:
                    if len(current) >= max_parents:
                        continue
                    cand = tuple(sorted(current + (u,)))
                    if BayesianNetworkClassifier._creates_cycle(parents, u, v):
                        continue
                delta = node_cost(v, cand) - node_costs[v]
                if delta < best_delta:
                    best_delta, best_move = delta, (v, cand)
        if best_move is None:
            break
        v, cand = best_move
        parents[v] = cand
        node_costs[v] = node_cost(v, cand)
    return parents, sum(node_costs.values()), calls


class TestBayesianNetwork:
    def test_max_parents_zero_matches_marginal_argmax(self):
        rows = [["a", "+"], ["a", "+"], ["b", "+"], ["b", "-"]]
        d = labeled(rows, [CATEGORICAL])
        model = BayesianNetworkClassifier(max_parents=0).fit(d)
        # with no edges the class posterior is the prior, so the majority wins
        assert predict_one(model, d, ["b", None]) == "+"
        assert all(p == () for p in model.parents.values())

    def test_chain_scores_below_empty_graph(self):
        rng = np.random.default_rng(11)
        n = 300
        x1 = rng.integers(0, 2, size=n)
        flip = rng.random(n) < 0.05
        x2 = np.where(flip, 1 - x1, x1)
        y = np.where(rng.random(n) < 0.05, 1 - x2, x2)
        codes = np.column_stack([x1, x2, y])
        cards = [2, 2, 2]
        chain = {0: (), 1: (0,), 2: (1,)}
        empty = {0: (), 1: (), 2: ()}
        assert bayes_net_cost(codes, cards, chain) <= bayes_net_cost(codes, cards, empty)

    def test_deterministic_mapping_learned(self):
        rows = []
        for i in range(60):
            v = ["low", "mid", "high"][i % 3]
            rows.append([v, f"y_{v}"])
        d = labeled(rows, [CATEGORICAL])
        model = BayesianNetworkClassifier(max_parents=2).fit(d)
        assert model.predict_rows(d) == [r[1] for r in rows]

    @given(st.integers(10, 80), st.integers(1, 4), st.integers(2, 3), st.integers(0, 3),
           st.integers(2, 5), st.integers(0, 10_000))
    def test_scored_once_search_equals_rescoring_search(self, n, n_feat, n_c, max_parents,
                                                        n_bins, seed):
        d = make_blobs(n, n_features=n_feat, n_classes=n_c, spread=1.5, seed=seed)
        with mock.patch.object(classify, "_node_cost", wraps=classify._node_cost) as spy:
            model = BayesianNetworkClassifier(max_parents=max_parents, n_bins=n_bins).fit(d)
        labels = [row[d.schema.target_index] for row in d.rows]
        first_seen = list(dict.fromkeys(labels))
        codes = np.column_stack([model.disc.code(model.disc.encoding.num,
                                                 model.disc.encoding.codes),
                                 [first_seen.index(v) for v in labels]])
        parents, cost, calls = rescoring_search(codes, model.cards, max_parents, 1.0)
        assert model.parents == parents
        assert model.cost == cost
        for v, p in parents.items():
            assert np.array_equal(model.cpts[v], np.log(add_at_cpt(codes, model.cards, v, p, 1.0)[0]))
        if any(parents.values()):
            assert spy.call_count < calls
        else:
            assert spy.call_count <= calls

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            BayesianNetworkClassifier(max_parents=-1)
        with pytest.raises(ParameterError, match="n_bins"):
            BayesianNetworkClassifier(n_bins=0)
        for smoothing in (0.0, -1.0):  # as for naive Bayes
            with pytest.raises(ParameterError, match="smoothing must be positive"):
                BayesianNetworkClassifier(smoothing=smoothing)


class TestLogistic:
    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    @given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=30))
    def test_sigmoid_equals_masked_form(self, zs):
        """The two branches, each on its own sign of z, without overflow."""
        z = np.array(zs)
        want = np.empty_like(z)
        pos = z >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        want[~pos] = ez / (1.0 + ez)
        assert np.array_equal(sigmoid(z), want)
        assert [sigmoid(v) for v in zs] == want.tolist()

    def test_separable_1d(self):
        rows = [[float(v), "neg" if v < 0 else "pos"] for v in range(-10, 10)]
        d = labeled(rows, [NUMERIC])
        model = LogisticRegressionClassifier(lr=0.5, iters=3000).fit(d)
        assert model.predict_rows(d) == [r[1] for r in rows]

    def test_three_classes_unsupported(self):
        train = make_blobs(30, n_classes=3, seed=1)
        with pytest.raises(UnsupportedTaskError):
            LogisticRegressionClassifier().fit(train)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m, n = int(rng.integers(3, 9)), int(rng.integers(1, 4))
            X = rng.standard_normal((m, n))
            y = rng.integers(0, 2, size=m).astype(float)
            w = rng.standard_normal(n)
            b = float(rng.standard_normal())
            gw, gb = logistic_gradient(w, b, X, y)
            h = 1e-5
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd = (logistic_log_likelihood(w + e, b, X, y)
                      - logistic_log_likelihood(w - e, b, X, y)) / (2 * h)
                assert abs(fd - gw[j]) <= 1e-6 * max(1.0, abs(gw[j]))
            fd_b = (logistic_log_likelihood(w, b + h, X, y)
                    - logistic_log_likelihood(w, b - h, X, y)) / (2 * h)
            assert abs(fd_b - gb) <= 1e-6 * max(1.0, abs(gb))


class TestRandomForest:
    def binary_blobs(self, n=40, seed=2):
        return make_blobs(n, n_classes=2, seed=seed)

    def test_degenerate_forest_equals_tree(self):
        d = self.binary_blobs()
        forest = RandomForestClassifier(n_trees=1, feat_frac=1.0, bootstrap=False).fit(d)
        tree = DecisionTreeClassifier().fit(d)
        assert forest.predict_rows(d) == tree.predict_rows(d)

    def test_seed_determinism(self):
        d = self.binary_blobs()
        a = RandomForestClassifier(n_trees=7, seed=9).fit(d)
        b = RandomForestClassifier(n_trees=7, seed=9).fit(d)
        assert a.predict_rows(d) == b.predict_rows(d)

    def test_prediction_is_tree_majority(self):
        d = self.binary_blobs(n=30, seed=4)
        forest = RandomForestClassifier(n_trees=9, seed=1).fit(d)
        first_seen = list(dict.fromkeys(row[d.schema.target_index] for row in d.rows))
        for i in range(0, 30, 5):
            cells = d.rows[i]
            num, codes = forest.encoding.encode(dataset_from_rows(d.schema, [cells]))
            votes = {}
            for root in forest.roots:
                p = forest.classes[_route(root, num, codes)[0]]
                votes[p] = votes.get(p, 0) + 1
            top = max(votes.values())
            winners = [lbl for lbl in votes if votes[lbl] == top]
            expect = min(winners, key=first_seen.index)
            assert predict_one(forest, d, cells) == expect

    def test_n_trees_validation(self):
        with pytest.raises(ParameterError):
            RandomForestClassifier(n_trees=0)


class TestDeterminism:
    def test_all_classifiers_are_deterministic(self):
        d = make_blobs(45, n_classes=3, seed=8)
        builders = [
            lambda: DecisionTreeClassifier(),
            lambda: KNNClassifier(k=3),
            lambda: NaiveBayesClassifier(),
            lambda: BayesianNetworkClassifier(max_parents=1),
            lambda: RandomForestClassifier(n_trees=5, seed=3),
        ]
        for build in builders:
            p1 = build().fit(d).predict_rows(d)
            p2 = build().fit(d).predict_rows(d)
            assert p1 == p2
