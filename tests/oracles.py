"""Independent oracles the tests check the program against.

The harness never calls these: they restate a measure the learners
optimise (node purity, a network's description length, the logistic
log-likelihood, the k-means objective), export a result, hash a table's
text or build a violation index row by row, in the plainest form, so a
faster form in the program has something to equal.
"""
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np

from dirtybench.classify import _node_cost
from dirtybench.data import EntityIndex, FDIndex, format_cell
from dirtybench.evaluate import NOISE_LABEL
from dirtybench.regress import LinearModel


class UndefinedNodeError(ValueError):
    """Purity measure requested for a node with no records."""


def _as_counts(counts) -> np.ndarray:
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 1 or (arr < 0).any():
        raise UndefinedNodeError("counts must be a non-negative vector")
    if arr.sum() <= 0:
        raise UndefinedNodeError("purity measure undefined for an empty node")
    return arr


def content_hash(schema, rows, delimiter: str = ",") -> str:
    """Hash over the canonical emitted text: trimmed fields, LF endings."""
    canonical = delimiter.join(schema.names) + "\n"
    canonical += "\n".join(delimiter.join(format_cell(c) for c in row) for row in rows)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fd_index_by_rows(rows, bindings) -> FDIndex:
    """An FD index grown one row at a time through ``_add``, rule by rule:
    the order of groups and violated keys a one-pass build must give."""
    index = FDIndex([], bindings)
    index.rows = rows
    for r in range(len(bindings)):
        for i in range(len(rows)):
            index._add(r, i)
    return index


def entity_index_by_rows(rows, origin, key_idx, compare_idx) -> EntityIndex:
    """An entity index grown one row at a time through ``_add``."""
    index = EntityIndex([], [], key_idx, compare_idx)
    index.rows, index.origin = rows, origin
    for i in range(len(rows)):
        index._add(i)
    return index


def impurity_rows(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Row-wise impurity of a (m, n_classes) count matrix, reduced along the
    class axis by numpy's ``.sum(axis=1)``."""
    n = counts.sum(axis=1, keepdims=True)
    p = counts / np.where(n > 0, n, 1.0)
    if criterion == "gini":
        out = 1.0 - (p ** 2).sum(axis=1)
    elif criterion == "gain":
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
        out = -(p * logs).sum(axis=1)
    else:
        out = 1.0 - p.max(axis=1)
    return np.where(n[:, 0] > 0, out, 0.0)


def gini(counts) -> float:
    """1 - sum of squared class frequencies; 0 for a pure node."""
    return float(impurity_rows(_as_counts(counts)[None, :], "gini")[0])


def entropy(counts) -> float:
    """Shannon entropy in bits (base-2 log, 0*log0 treated as 0)."""
    return float(impurity_rows(_as_counts(counts)[None, :], "gain")[0])


def misclassification_error(counts) -> float:
    return float(impurity_rows(_as_counts(counts)[None, :], "error")[0])


def information_gain(parent_counts, partitions) -> float:
    """Entropy reduction when the parent splits into the given partitions."""
    parent = _as_counts(parent_counts)
    total = parent.sum()
    children = [_as_counts(c) for c in partitions]
    if not math.isclose(sum(c.sum() for c in children), total):
        raise UndefinedNodeError("partitions must cover the parent node")
    weighted = sum(c.sum() / total * entropy(c) for c in children)
    return float(entropy(parent) - weighted)


def bayes_net_cost(codes: np.ndarray, cards, parents: dict, smoothing: float = 1.0,
                   bits_per_param: float | None = None) -> float:
    """Total description length of a network structure on coded data."""
    m = len(codes)
    bits = bits_per_param if bits_per_param is not None else 0.5 * math.log2(max(m, 2))
    return sum(
        _node_cost(codes, cards, v, tuple(parents.get(v, ())), smoothing, bits)
        for v in range(codes.shape[1])
    )


def logistic_log_likelihood(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray) -> float:
    z = X @ w + b
    sign = 2.0 * y - 1.0
    return float(-np.logaddexp(0.0, -sign * z).sum())


def kmeans_sse(X: np.ndarray, assign: np.ndarray, k: int) -> float:
    """Sum of squared distances to the per-cluster means."""
    total = 0.0
    for c in range(k):
        members = X[assign == c]
        if len(members):
            total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def export_rows(clustering) -> list[tuple[int, int]]:
    """(row index, cluster index) pairs; noise rows carry -1."""
    return [(i, int(c)) for i, c in enumerate(clustering.assignments)]


def write_clustering(clustering, path, delimiter: str = ",") -> None:
    """Two-column delimited export: row index, cluster index (noise = -1)."""
    lines = [f"row{delimiter}cluster"]
    lines += [f"{i}{delimiter}{c}" for i, c in export_rows(clustering)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def match_clusters_by_scan(assignments, n_clusters: int, truth) -> list:
    """Cluster-to-class relabelling by counting row by row: with as many
    clusters as classes, the first permutation in ``itertools`` order whose
    agreement no later one beats; otherwise each cluster's majority class,
    the first on ties.  Noise rows (-1) get ``NOISE_LABEL``."""
    classes = list(dict.fromkeys(truth))
    n_c = len(classes)
    contingency = [[0] * n_c for _ in range(n_clusters)]
    for a, t in zip(assignments, truth):
        if a != -1:
            contingency[int(a)][classes.index(t)] += 1
    if n_clusters == n_c:
        best = None
        for perm in itertools.permutations(range(n_c)):
            score = sum(contingency[c][perm[c]] for c in range(n_c))
            if best is None or score > best[0]:
                best = (score, perm)
        label = [classes[j] for j in best[1]]
    else:
        label = [classes[row.index(max(row))] for row in contingency]
    return [NOISE_LABEL if a == -1 else label[int(a)] for a in assignments]


def evaluate_row(model, x) -> float:
    """A regression model at one row x, one dot product per power: the
    per-row loop that batched prediction must equal bit for bit."""
    if isinstance(model, LinearModel):
        return float(x @ model.weights + model.intercept)
    total = model.intercept
    for p in range(1, model.degree + 1):
        total += float(model.coefficients[p - 1] @ (x ** p))
    return total
