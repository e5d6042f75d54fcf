"""Four regression fitters sharing a fit/predict contract.

All fitters use the numeric feature columns only; categorical feature columns
are dropped with a warning.  The design matrix is the raw numeric block
sliced from the :class:`dirtybench.features.EncodedTable` behind the shared
encoding (a dataset is read into one), and :func:`predict_rows` slices the
rows to predict the same way, in one block.  Linear solves go through the
normal equations with a Cholesky factorization and fall back to a lightly
damped ridge system when the design is singular (the model records that it
did).
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DivergenceError,
    EmptyInputError,
    ParameterError,
    SchemaError,
    SingularityError,
)
from .features import Data, EncodedTable

RIDGE_DAMPING = 1e-8


@dataclass
class LinearModel:
    weights: np.ndarray          # one coefficient per used feature column
    intercept: float
    feature_cols: tuple[int, ...]
    ridge_fallback: bool = False
    ll_trace: list[float] | None = None

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """The model at each row of X, or at the one row X."""
        return row_dots(X, self.weights) + self.intercept


@dataclass
class PolynomialModel:
    degree: int
    coefficients: np.ndarray     # shape (degree, n_features): per-power, per-feature
    intercept: float
    feature_cols: tuple[int, ...]
    ridge_fallback: bool = False

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """The model at each row of X, or at the one row X: the intercept,
        then each power's dot product added in turn."""
        total = self.intercept
        for p in range(1, self.degree + 1):
            total = total + row_dots(X ** p, self.coefficients[p - 1])
        return total


RegressionModel = LinearModel | PolynomialModel


def row_dots(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for each row x of X (or the one row X), bit for bit: numpy
    forms a stack of (1, d) @ (d, 1) products with the vector dot product
    that ``x @ w`` uses, where ``X @ w`` may round differently."""
    return np.matmul(X[..., None, :], w[:, None])[..., 0, 0]


def _numeric_setup(data: Data, rows: Sequence[int] | None):
    table = EncodedTable.of(data)
    idx = np.arange(table.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if not len(idx):
        raise EmptyInputError("cannot fit a regression on zero rows")
    if table.target_num is None:
        raise SchemaError("regression needs a numeric target column")
    columns = table.schema.columns
    dropped = [columns[j].name for j in table.categorical_cols]
    if dropped:
        warnings.warn(
            f"dropping categorical feature columns for regression: {dropped}",
            stacklevel=3,
        )
    check_numeric_features(len(table.numeric_cols))
    X = table.numeric(idx)
    y = table.target_num[idx]
    if np.isnan(y).any():
        raise SchemaError("missing target value; impute before fitting")
    return X, y, tuple(table.numeric_cols)


def check_numeric_features(n_numeric: int) -> None:
    """Every fitter's rule on the table: it fits the numeric feature columns
    only, so there must be one.  A sweep also checks it before its first
    point."""
    if n_numeric < 1:
        raise SchemaError("regression needs at least one numeric feature column")


def solve_normal_equations(A: np.ndarray, y: np.ndarray,
                           allow_ridge: bool = True) -> tuple[np.ndarray, bool]:
    """Solve min ||A beta - y||^2 via A'A; damped retry on singularity."""
    At_A = A.T @ A
    At_y = A.T @ y
    try:
        chol = np.linalg.cholesky(At_A)
        pivots = np.diag(chol)
        # rounding can push an exactly singular system through the
        # factorization; a collapsed pivot (pivots scale as sqrt of the
        # eigenvalues, so sqrt(eps)-level ratios) betrays it
        if pivots.min() <= 1e-6 * max(pivots.max(), 1e-300):
            raise np.linalg.LinAlgError("near-zero Cholesky pivot")
        beta = np.linalg.solve(chol.T, np.linalg.solve(chol, At_y))
        return beta, False
    except np.linalg.LinAlgError:
        if not allow_ridge:
            raise SingularityError("design matrix is singular") from None
        damped = At_A + RIDGE_DAMPING * np.eye(At_A.shape[0])
        try:
            beta = np.linalg.solve(damped, At_y)
        except np.linalg.LinAlgError as exc:
            raise SingularityError("design matrix is singular even with damping") from exc
        return beta, True


def _design(X: np.ndarray) -> np.ndarray:
    return np.column_stack([X, np.ones(len(X))])


def fit_least_squares(data: Data, rows: Sequence[int] | None = None,
                      allow_ridge: bool = True) -> LinearModel:
    """Minimize the sum of squared residuals over (weights, intercept)."""
    X, y, cols = _numeric_setup(data, rows)
    beta, ridged = solve_normal_equations(_design(X), y, allow_ridge)
    return LinearModel(weights=beta[:-1], intercept=float(beta[-1]),
                       feature_cols=cols, ridge_fallback=ridged)


def gaussian_log_likelihood(residuals: np.ndarray) -> float:
    """Profile log-likelihood of residuals under a fitted constant variance."""
    m = len(residuals)
    sse = float(residuals @ residuals)
    if sse <= 0:
        sse = 1e-300  # exact interpolation; keep the value finite
    sigma2 = sse / m
    return -0.5 * m * (math.log(2.0 * math.pi * sigma2) + 1.0)


def fit_maximum_likelihood(data: Data, rows: Sequence[int] | None = None,
                           max_iters: int = 5000, tol: float = 1e-14) -> LinearModel:
    """Gradient ascent on the Gaussian log-likelihood with backtracking, so
    every recorded step is non-decreasing.  Features are standardized for
    conditioning; coefficients are reported in original units."""
    X, y, cols = _numeric_setup(data, rows)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    Z = (X - mu) / sd
    m = len(y)
    w = np.zeros(Z.shape[1])
    b = float(y.mean())
    step = 1.0
    trace = []
    residuals = y - (Z @ w + b)
    ll = gaussian_log_likelihood(residuals)
    trace.append(ll)
    for _ in range(max_iters):
        gw = Z.T @ residuals / m
        gb = float(residuals.mean())
        gnorm = float(np.sqrt(gw @ gw + gb * gb))
        if not math.isfinite(gnorm):
            raise DivergenceError("non-finite gradient in likelihood ascent")
        if gnorm < 1e-13:
            break
        improved = False
        while step > 1e-18:
            w_try = w + step * gw
            b_try = b + step * gb
            r_try = y - (Z @ w_try + b_try)
            ll_try = gaussian_log_likelihood(r_try)
            if ll_try >= ll:
                w, b, residuals, ll = w_try, b_try, r_try, ll_try
                trace.append(ll)
                improved = True
                step *= 1.5
                break
            step *= 0.5
        if not improved:
            break
        if len(trace) > 2 and abs(trace[-1] - trace[-2]) < tol * max(abs(ll), 1.0):
            break
    weights = w / sd
    intercept = b - float(mu @ weights)
    return LinearModel(weights=weights, intercept=intercept, feature_cols=cols,
                       ll_trace=trace)


def check_degree(degree: int) -> None:
    """The polynomial fitter's rule on its degree, which a sweep also checks
    before its first point."""
    if degree < 1:
        raise ParameterError("degree must be at least 1")


def fit_polynomial(data: Data, degree: int = 3, rows: Sequence[int] | None = None,
                   allow_ridge: bool = True) -> PolynomialModel:
    """Least squares over per-feature power expansions x, x^2, ..., x^degree."""
    check_degree(degree)
    X, y, cols = _numeric_setup(data, rows)
    blocks = [X ** p for p in range(1, degree + 1)]
    design = _design(np.hstack(blocks))
    beta, ridged = solve_normal_equations(design, y, allow_ridge)
    n_feat = X.shape[1]
    coef = beta[:-1].reshape(degree, n_feat)
    return PolynomialModel(degree=degree, coefficients=coef, intercept=float(beta[-1]),
                           feature_cols=cols, ridge_fallback=ridged)


def _sse_of(A: np.ndarray, y: np.ndarray) -> float:
    beta, _ = solve_normal_equations(A, y)
    r = y - A @ beta
    return float(r @ r)


def _beta_fraction(a: float, b: float, y: float) -> float:
    """The continued fraction of the incomplete beta I_y(a, b), which
    converges fast for y < (a + 1) / (a + b + 2), by the modified Lentz
    method (Press et al., *Numerical Recipes*, 3rd ed., section 6.4)."""
    tiny = 1e-300  # keeps a denominator off zero
    c, d = 1.0, 1.0 - (a + b) * y / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for aa in (m * (b - m) * y / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * y / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, y={y}")


def f1_tail(x: float, dof: int) -> float:
    """P(F > x) for F ~ F(1, dof): a partial F-test's p-value.  It is the
    regularized incomplete beta I_y(dof/2, 1/2) at y = dof / (dof + x),
    within about 1e-10 relative of ``scipy.stats.f.sf(x, 1, dof)`` for dof
    up to 5000 (a test checks this).  Both y and 1 - y are computed
    directly, so neither loses digits to a subtraction."""
    if math.isnan(x):
        return math.nan
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    a, b = 0.5 * dof, 0.5
    y, y_rest = dof / (dof + x), x / (dof + x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     - a * math.log1p(x / dof) - b * math.log1p(dof / x))
    if y < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, y) / a
    return 1.0 - front * _beta_fraction(b, a, y_rest) / b


def check_alphas(alpha_in: float, alpha_out: float) -> None:
    """The stepwise fitter's rule on its thresholds, which a sweep also
    checks before its first point."""
    if not 0 < alpha_in <= alpha_out < 1:
        raise ParameterError("need 0 < alpha_in <= alpha_out < 1")


def fit_stepwise(data: Data, alpha_in: float = 0.05, alpha_out: float = 0.10,
                 rows: Sequence[int] | None = None) -> LinearModel:
    """Forward/backward selection by partial F-tests.  Each step ranks the
    columns by their partial F statistic: the first candidate with the
    largest F enters if its p-value is below alpha_in, then the first
    selected column with the smallest F leaves if its p-value is above
    alpha_out.  Within a step every F has the same degrees of freedom, so
    this is the smallest (largest) p-value, and one p-value per step is
    computed.  The model is the least-squares fit on the selected columns,
    or the target's mean with ``feature_cols=()`` when none is selected."""
    check_alphas(alpha_in, alpha_out)
    X, y, cols = _numeric_setup(data, rows)
    m, n_feat = X.shape
    selected: list[int] = []

    def sse_for(subset: list[int]) -> float:
        if not subset:
            r = y - y.mean()
            return float(r @ r)
        return _sse_of(_design(X[:, subset]), y)

    # exact fits collapse the F statistic; measure "zero" against the
    # intercept-only sum of squares
    tol = 1e-12 * max(sse_for([]), 1.0)

    def partial_f(num: float, denom: float) -> float:
        if denom > tol:
            return num / denom
        return math.inf if num > tol else 0.0

    for _ in range(100):
        changed = False
        current_sse = sse_for(selected)
        # forward: the candidate with the largest F enters
        dof = m - len(selected) - 2
        best = None
        if dof > 0:
            for j in range(n_feat):
                if j in selected:
                    continue
                sse_trial = sse_for(selected + [j])
                f = partial_f(max(current_sse - sse_trial, 0.0), sse_trial / dof)
                if best is None or f > best[0]:
                    best = (f, j)
        if best is not None and f1_tail(best[0], dof) < alpha_in:
            selected.append(best[1])
            changed = True
        # backward: the selected column with the smallest F leaves
        dof = m - len(selected) - 1
        if selected and dof > 0:
            full_sse = sse_for(selected)
            worst = None
            for j in selected:
                reduced = [c for c in selected if c != j]
                f = partial_f(max(sse_for(reduced) - full_sse, 0.0), full_sse / dof)
                if worst is None or f < worst[0]:
                    worst = (f, j)
            if f1_tail(worst[0], dof) > alpha_out:
                selected.remove(worst[1])
                changed = True
        if not changed:
            break

    selected = sorted(selected)
    if not selected:
        return LinearModel(weights=np.zeros(0), intercept=float(y.mean()), feature_cols=())
    beta, ridged = solve_normal_equations(_design(X[:, selected]), y)
    return LinearModel(weights=beta[:-1], intercept=float(beta[-1]),
                       feature_cols=tuple(cols[j] for j in selected), ridge_fallback=ridged)


def predict_rows(model: RegressionModel, data: Data,
                 rows: Sequence[int] | None = None) -> np.ndarray:
    """Evaluate a fitted model on the given rows (None means all)."""
    return model.evaluate(EncodedTable.of(data).numeric(rows, model.feature_cols))
