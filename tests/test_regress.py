import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from dirtybench import regress
from dirtybench.data import CATEGORICAL, Column, NUMERIC, dataset_from_rows
from dirtybench.errors import ParameterError, SchemaError
from dirtybench.regress import (
    LinearModel,
    PolynomialModel,
    f1_tail,
    fit_least_squares,
    fit_maximum_likelihood,
    fit_polynomial,
    fit_stepwise,
    predict_rows,
)
from dirtybench.synth import make_linear
from oracles import evaluate_row


def xy_dataset(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != len(y):
        X = X.T
    cols = [Column(f"x{j}", NUMERIC) for j in range(X.shape[1])]
    cols.append(Column("y", NUMERIC, "target"))
    rows = [[*map(float, X[i]), float(y[i])] for i in range(len(y))]
    return dataset_from_rows(cols, rows)


@st.composite
def regression_tables(draw, repeat_columns=True):
    """(X, y) of small integers, 4-12 rows.  With ``repeat_columns``, X's
    columns are drawn from a few distinct ones, so equal columns, and ties
    in F, are common."""
    m = draw(st.integers(4, 12))
    column = st.lists(st.integers(-9, 9), min_size=m, max_size=m)
    distinct = draw(st.lists(column, min_size=1, max_size=4))
    picks = range(len(distinct))
    if repeat_columns:
        picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=6))
    X = np.array([distinct[i] for i in picks], dtype=float).T
    return X, np.array(draw(column), dtype=float)


def partial_f(sse_without, sse_with, dof, sst):
    """A column's partial F from least-squares sums of squares, an exact fit
    read as fit_stepwise reads it."""
    tol = 1e-12 * max(sst, 1.0)
    num, denom = max(sse_without - sse_with, 0.0), sse_with / dof
    return num / denom if denom > tol else np.inf if num > tol else 0.0


def lstsq_sse(X, y):
    A = np.column_stack([X, np.ones(len(y))])
    r = y - A @ np.linalg.lstsq(A, y, rcond=None)[0]
    return float(r @ r)


def predict_one(model, d, cells):
    """The model's prediction for one record of d's schema."""
    return float(predict_rows(model, dataset_from_rows(d.schema, [cells]))[0])


def training_sse(model, d):
    preds = predict_rows(model, d)
    truth = np.array([row[-1] for row in d.rows])
    return float(((preds - truth) ** 2).sum())


class TestLeastSquares:
    def test_exact_line(self):
        xs = np.arange(6.0)
        d = xy_dataset(xs, 2.0 * xs + 1.0)
        model = fit_least_squares(d)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
        assert model.intercept == pytest.approx(1.0, abs=1e-9)

    def test_constant_target(self):
        xs = np.array([1.0, 4.0, -2.0, 7.0])
        d = xy_dataset(xs, np.full(4, 3.25))
        model = fit_least_squares(d)
        assert model.weights[0] == pytest.approx(0.0, abs=1e-9)
        assert model.intercept == pytest.approx(3.25, abs=1e-9)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            X = rng.standard_normal((5, 2))
            y = rng.standard_normal(5)
            d = xy_dataset(X, y)
            model = fit_least_squares(d)
            design = np.column_stack([X, np.ones(5)])
            beta = np.linalg.pinv(design) @ y
            assert np.allclose(model.weights, beta[:-1], atol=1e-6)
            assert model.intercept == pytest.approx(beta[-1], abs=1e-6)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        d = xy_dataset(X, y)
        model = fit_least_squares(d)
        residuals = y - (X @ model.weights + model.intercept)
        design = np.column_stack([X, np.ones(30)])
        assert np.abs(design.T @ residuals).max() < 1e-8

    def test_perturbation_never_reduces_sse(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((25, 2))
        y = X @ np.array([1.5, -0.5]) + 0.3 * rng.standard_normal(25)
        d = xy_dataset(X, y)
        model = fit_least_squares(d)
        base = training_sse(model, d)
        for _ in range(100):
            dw = 1e-3 * rng.standard_normal(2)
            db = 1e-3 * float(rng.standard_normal())
            poked = LinearModel(weights=model.weights + dw,
                                intercept=model.intercept + db,
                                feature_cols=model.feature_cols)
            assert training_sse(poked, d) >= base - 1e-12

    def test_ridge_fallback_on_duplicate_columns(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        d = xy_dataset(X, np.array([2.0, 4.0, 6.0, 8.0]))
        model = fit_least_squares(d)
        assert model.ridge_fallback
        from dirtybench.errors import SingularityError
        with pytest.raises(SingularityError):
            fit_least_squares(d, allow_ridge=False)

    def test_categorical_columns_dropped_with_warning(self):
        cols = [Column("x0", NUMERIC), Column("c", CATEGORICAL),
                Column("y", NUMERIC, "target")]
        rows = [[float(i), "a", 2.0 * i] for i in range(6)]
        d = dataset_from_rows(cols, rows)
        with pytest.warns(UserWarning, match="dropping categorical"):
            model = fit_least_squares(d)
        assert model.feature_cols == (0,)


class TestMaximumLikelihood:
    def test_recovers_exact_line(self):
        xs = np.arange(8.0)
        d = xy_dataset(xs, 2.0 * xs + 1.0)
        model = fit_maximum_likelihood(d)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)

    def test_log_likelihood_trace_non_decreasing(self):
        d = make_linear(60, seed=3)
        model = fit_maximum_likelihood(d)
        trace = model.ll_trace
        assert len(trace) > 1
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_close_to_least_squares(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(40, 3))
        y = X @ np.array([0.5, -2.0, 1.0]) + 0.2 * rng.standard_normal(40)
        d = xy_dataset(X, y)
        mle = fit_maximum_likelihood(d)
        ls = fit_least_squares(d)
        assert np.abs(mle.weights - ls.weights).max() <= 1e-4
        assert abs(mle.intercept - ls.intercept) <= 1e-4


class TestPolynomial:
    def test_degree_one_equals_least_squares(self):
        d = make_linear(30, seed=6)
        poly = fit_polynomial(d, degree=1)
        ls = fit_least_squares(d)
        assert np.allclose(poly.coefficients[0], ls.weights, atol=1e-8)
        assert poly.intercept == pytest.approx(ls.intercept, abs=1e-8)

    def test_exact_parabola(self):
        xs = np.linspace(-3, 3, 9)
        d = xy_dataset(xs, xs ** 2)
        model = fit_polynomial(d, degree=2)
        assert model.coefficients[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert model.coefficients[1, 0] == pytest.approx(1.0, abs=1e-8)
        assert model.intercept == pytest.approx(0.0, abs=1e-8)

    def test_rmsd_non_increasing_in_degree(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(-2, 2, size=40)
        d = xy_dataset(xs, np.sin(xs) + 0.1 * rng.standard_normal(40))
        errors = []
        for degree in (1, 2, 3, 4):
            model = fit_polynomial(d, degree=degree)
            errors.append(training_sse(model, d))
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_degree_validation(self):
        d = make_linear(10, seed=0)
        with pytest.raises(ParameterError):
            fit_polynomial(d, degree=0)


class TestStepwise:
    def test_noise_free_single_driver_selected(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(40, 3))
        y = 3.0 * X[:, 1]
        d = xy_dataset(X, y)
        model = fit_stepwise(d)
        assert model.feature_cols == (1,)
        # oracle: no other single column explains the target this well
        for j in (0, 2):
            other = xy_dataset(X[:, [j]], y)
            assert training_sse(fit_least_squares(other), other) > training_sse(model, d)

    def test_pure_noise_yields_intercept_only(self):
        hits = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((30, 3))
            y = rng.standard_normal(30)
            model = fit_stepwise(xy_dataset(X, y), alpha_in=0.05)
            if model.feature_cols == ():
                hits += 1
        assert hits / trials >= 0.80  # ~5% false-entry rate per column

    def test_single_significant_feature_equals_least_squares(self):
        xs = np.arange(12.0)
        d = xy_dataset(xs, 2.0 * xs + 1.0)
        step = fit_stepwise(d)
        ls = fit_least_squares(d)
        assert step.feature_cols == (0,)
        assert np.allclose(step.weights, ls.weights, atol=1e-9)

    def test_subset_sse_at_least_full(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((50, 4))
        y = X @ np.array([2.0, 0.0, 0.0, 0.5]) + 0.3 * rng.standard_normal(50)
        d = xy_dataset(X, y)
        step = fit_stepwise(d)
        full = fit_least_squares(d)
        assert training_sse(step, d) >= training_sse(full, d) - 1e-9

    def test_alpha_validation(self):
        d = make_linear(20, seed=1)
        with pytest.raises(ParameterError):
            fit_stepwise(d, alpha_in=0.2, alpha_out=0.1)

    # steps rank by F, so a p-value only meets alpha_in or alpha_out: it
    # needs its digits, not scipy's last bits
    @settings(max_examples=400)
    @given(st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e308)), st.integers(1, 5000))
    @example(0.0, 1)
    @example(0.0, 5000)
    @example(1e3, 5000)  # a tail near 1e-200
    @example(1e300, 5000)  # underflows to 0
    @example(1e308, 1)
    def test_p_value_matches_scipy_stats(self, x, dof):
        ours, theirs = f1_tail(x, dof), float(stats.f.sf(x, 1, dof))
        if theirs >= 2.3e-308:  # a normal float
            assert abs(ours - theirs) <= 1e-10 * theirs
        else:
            assert ours <= 1e-300 and theirs <= 1e-300
        for alpha in (0.05, 0.10):
            assert (ours < alpha) == (theirs < alpha)

    @given(regression_tables())
    def test_same_fit_with_scipy_tail(self, table):
        ours = fit_stepwise(xy_dataset(*table))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regress, "f1_tail", lambda x, dof: float(stats.f.sf(x, 1, dof)))
            theirs = fit_stepwise(xy_dataset(*table))
        assert ours.feature_cols == theirs.feature_cols
        assert ours.weights.tobytes() == theirs.weights.tobytes()
        assert np.float64(ours.intercept).tobytes() == np.float64(theirs.intercept).tobytes()

    @given(regression_tables())
    def test_first_column_with_largest_f_enters(self, table):
        X, y = table
        m = len(y)
        tails = []

        def enter_first_then_hold(x, dof):
            # p = 0 lets the first candidate in; 0.07 then neither enters
            # (alpha_in 0.05) nor leaves (alpha_out 0.10)
            tails.append(x)
            return 0.0 if len(tails) == 1 else 0.07

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regress, "f1_tail", enter_first_then_hold)
            (chosen,) = fit_stepwise(xy_dataset(X, y)).feature_cols
        # oracle: each column's partial F against the intercept-only model
        sst = float(((y - y.mean()) ** 2).sum())
        f = [partial_f(sst, lstsq_sse(X[:, [j]], y), m - 2, sst) for j in range(X.shape[1])]
        largest = max(f)
        if largest == np.inf:
            assert f[chosen] == np.inf and tails[0] == np.inf
        else:
            assert f[chosen] >= largest - 1e-9 * max(largest, 1.0)
            assert tails[0] == pytest.approx(f[chosen], rel=1e-9, abs=1e-9)
        # a column equal to an earlier one has the same F, and loses the tie
        assert not any(np.array_equal(X[:, i], X[:, chosen]) for i in range(chosen))

    @given(regression_tables(repeat_columns=False))
    def test_column_with_smallest_f_leaves(self, table):
        X, y = table
        m, n = X.shape
        assume(m > n + 1 and np.linalg.cond(np.column_stack([X, np.ones(m)])) < 1e6)
        tails = []

        def all_enter_then_one_leaves(x, dof):
            # forward and backward steps alternate: p = 0 lets each column
            # in and 0.07 keeps it, until the n-th backward step sees 0.5
            tails.append(x)
            if len(tails) == 2 * n:
                return 0.5
            return 0.0 if len(tails) < 2 * n and len(tails) % 2 else 0.07

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regress, "f1_tail", all_enter_then_one_leaves)
            kept = fit_stepwise(xy_dataset(X, y)).feature_cols
        (left,) = set(range(n)) - set(kept)
        # oracle: each column's partial F against the model of all columns
        sst, full = float(((y - y.mean()) ** 2).sum()), lstsq_sse(X, y)
        f = [partial_f(lstsq_sse(np.delete(X, j, axis=1), y), full, m - n - 1, sst)
             for j in range(n)]
        smallest = min(f)
        if smallest == np.inf:
            assert f[left] == np.inf
        else:
            assert f[left] <= smallest + 1e-9 * max(smallest, 1.0)
            assert tails[2 * n - 1] == pytest.approx(f[left], rel=1e-9, abs=1e-9)


class TestPredict:
    def test_linear_formula(self):
        d = xy_dataset(np.arange(4.0), 2.0 * np.arange(4.0) + 1.0)
        model = fit_least_squares(d)
        assert predict_one(model, d, [3.0, None]) == pytest.approx(7.0)

    def test_polynomial_formula(self):
        xs = np.linspace(-3, 3, 9)
        d = xy_dataset(xs, xs ** 2)
        model = fit_polynomial(d, degree=2)
        assert predict_one(model, d, [4.0, None]) == pytest.approx(16.0, abs=1e-6)

    def test_intercept_only_is_mean(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        d = xy_dataset(X, y)
        model = fit_stepwise(d)
        if model.feature_cols == ():
            assert predict_one(model, d, [1.0, 2.0, None]) == pytest.approx(float(y.mean()))

    @given(st.integers(1, 40), st.integers(1, 30), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_batch_equals_row_by_row(self, d, m, degree, seed):
        """One stacked matrix product has the bits of one dot product per
        row, on coordinates and weights from 1e-3 to 1e3 in magnitude, where
        a change in the order of the additions shows in the last bits."""
        rng = np.random.default_rng(seed)

        def spread(*shape):
            return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 3, shape)

        X = spread(m, d)
        data = xy_dataset(X, np.zeros(m))
        cols = tuple(range(d))
        for model in (LinearModel(spread(d), float(spread(1)[0]), cols),
                      PolynomialModel(degree, spread(degree, d), float(spread(1)[0]), cols)):
            want = np.array([evaluate_row(model, x) for x in X])
            assert np.array_equal(predict_rows(model, data), want)

    def test_missing_feature_raises(self):
        d = xy_dataset(np.arange(4.0), np.arange(4.0))
        model = fit_least_squares(d)
        with pytest.raises(SchemaError):
            predict_one(model, d, [None, 1.0])
