"""Six clustering algorithms over the shared feature encoding.

Every function takes a Dataset (mean/mode-imputed first if it still has
missing cells) or the EncodedTable of an imputed one, clusters its rows, and
returns a :class:`Clustering` whose ``assignments`` array maps row index to
cluster index (-1 marks DBSCAN noise).  ``meta`` carries algorithm traces
used by the property tests: per-iteration SSE for k-means, accepted-cost
trace for CLARANS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .corrupt import impute
from .errors import ParameterError
from .features import Data, EncodedTable, FeatureEncoder

NOISE = -1


@dataclass
class Clustering:
    assignments: np.ndarray
    n_clusters: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        a = self.assignments
        bad = (a != NOISE) & ((a < 0) | (a >= self.n_clusters))
        if bad.any():
            raise ParameterError("cluster index out of range")


def _table(d: Data) -> EncodedTable:
    """The table a clusterer reads: ``d`` itself, or the rows of ``d``
    imputed first if they have missing cells."""
    if isinstance(d, EncodedTable):
        return d
    return EncodedTable(impute(d) if d.has_missing() else d)


def encode_for_clustering(d: Data) -> np.ndarray:
    enc = FeatureEncoder(_table(d))
    return enc.embed(enc.encoding.num, enc.encoding.codes)


# Byte budget of the one (d x rows x len(C)) buffer that holds a distance
# block's per-feature terms.  Each kernel call allocates it once and writes
# every block's terms into it, so no block allocates, frees or faults in
# memory of its own.
_CHUNK_BYTES = 2 << 20


def _pairwise_sum(terms: Iterator[np.ndarray], n: int) -> np.ndarray:
    """The sum of the next n arrays of ``terms``, added in the order in which
    numpy's ``.sum`` adds n contiguous elements (pairwise summation): one
    after another below 8; up to 128, eight running sums over the largest
    multiple of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    rest one by one; above 128, the sum of two halves, the first a multiple
    of 8.  Summing the columns of a matrix this way gives the bits of its
    ``.sum(axis=-1)`` without numpy's per-row reduction; a test pins the
    order against numpy.  The sums are kept in the arrays, which are
    overwritten."""
    if n < 8:
        out = next(terms)
        for _ in range(n - 1):
            out += next(terms)
        return out
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _pairwise_sum(terms, half)
        out += _pairwise_sum(terms, n - half)
        return out
    r = [next(terms) for _ in range(8)]
    for i in range(8, n - n % 8):
        r[i % 8] += next(terms)
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[a] += r[b]
    for _ in range(n % 8):
        r[0] += next(terms)
    return r[0]


def _sq_dist_blocks(X: np.ndarray, C: np.ndarray):
    """Yield (first row, block) pairs covering the squared Euclidean distances
    from the rows of X to the rows of C, a fixed byte budget per block.

    Each block is the per-feature squares ``(x_j - c_j) ** 2`` summed in
    numpy's order, so it has the bits of
    ``((X[a:b, None] - C[None]) ** 2).sum(axis=2)`` whatever the block size.

    The terms are written into one buffer that the call allocates once, and
    a block is a view into it: it is valid only until the next block is
    drawn, so a caller consumes it at once (and may overwrite it) or copies
    it.  Distances between two point sets go through here; per-sample loops
    that measure one point against a small set use the 2-D form
    ``((P - x) ** 2).sum(axis=1)``, which gives the same bits without this
    generator's per-call cost, and against a large set ``_sq_dists_to``.
    Searches that need only the nearest few or those within a radius filter
    through ``_gram_blocks`` and recompute what passes with
    ``_pair_sq_dists``.
    """
    n, d = X.shape
    step = max(1, _CHUNK_BYTES // (8 * max(1, C.size)))
    XT, CT = X.T.copy(), C.T.copy()  # feature-major
    buf = np.empty(d * min(step, n) * len(C))

    def terms(x, c):
        t = buf[:x.size * c.shape[1]].reshape(d, x.shape[1], c.shape[1])
        for tj, xj, cj in zip(t, x, c):
            np.subtract.outer(xj, cj, out=tj)
            yield np.multiply(tj, tj, out=tj)

    for a in range(0, n, step):
        yield a, _pairwise_sum(terms(XT[:, a:a + step], CT), d)


def _pair_sq_dists(X: np.ndarray, C: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The squared distances between the rows ``X[i]`` and ``C[j]`` of each
    pair, with the bits of ``_sq_dists(X, C)[i, j]``."""
    terms = np.take(X, i, axis=0)
    terms -= np.take(C, j, axis=0)
    terms = terms.T.copy()  # feature-major
    terms *= terms
    return _pairwise_sum(iter(terms), len(terms))


# Multiply-adds per product of ``_gram_blocks``.  OpenBLAS (0.3.31, two
# cores) runs a product of at most 2**19 multiply-adds on one thread and
# splits a larger one with its second thread: 40 x 1600 x 8 stayed on one,
# 41 x 1600 x 8 did not.  When the other core is busy, as it is with a pool
# worker on each, a split product waits for that thread: 400 x 1600 x 10
# next to a busy loop took a median 3.4 ms and up to 26 ms, against 0.5 ms
# in 16-row blocks.  Half the threshold leaves room for a build that splits
# sooner.
_GRAM_MADDS = 1 << 18

# Unit roundoff of float64, and the smallest subnormal: the absolute error a
# product that underflows may add.
_U, _TINY = 2.0 ** -53, 2.0 ** -1074


def _gram_blocks(X: np.ndarray, C: np.ndarray):
    """Yield (first row, G, eps) triples covering the rows of X.  ``G`` is
    the Gram approximation ``|x|^2 + |c|^2 - 2 x.c`` of the squared distances
    from the rows a:a+len(G) of X to the rows of C, and ``eps[i]`` bounds
    ``|G[i, j] - K[i, j]|`` for every j where ``G[i, j]`` is not NaN, K being
    the bits of ``_sq_dists(X, C)``.

    G is one product of ``[x, |x|^2, 1]`` and ``[-2c, 1, |c|^2]``.  The bound
    follows Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, section 3.1; u = 2**-53, gamma_n = nu / (1 - nu)).  With S =
    ``|x|^2 + |c|^2`` and T the true squared distance: the norms are within
    gamma_d S and the product within gamma_{d+2} of the sum of its terms'
    magnitudes, at most (2 + gamma_d) S, so ``|G - T| <= (gamma_d + (2 +
    gamma_d) gamma_{d+2}) S`` in whatever order, with or without FMA and on
    however many threads BLAS sums; the kernel's d squares and d - 1
    additions give ``|K - T| <= gamma_{d+2} T <= 2 gamma_{d+2} S``.  Their
    sum is about (5d + 8) u S, and ``eps = 8 (d+4) u (|x|^2 + max |c|^2)`` is
    over 1.6 times that, plus as many smallest subnormals for products that
    underflow.  An overflow makes G, or eps, inf or NaN, so a caller that
    keeps every entry not above its threshold, ``~(G > t)``, keeps it and
    lets the exact distance decide.

    This is the filter of a filter-and-refine search (Seidl and Kriegel,
    SIGMOD 1998): a caller keeps the entries that can pass and recomputes
    them with ``_pair_sq_dists``.  Blocks hold ``_GRAM_MADDS`` multiply-adds,
    so BLAS forms each on one thread."""
    n, d = X.shape
    xx = np.einsum("ij,ij->i", X, X)
    cc = np.einsum("ij,ij->i", C, C)
    eps = 8 * (d + 4) * (_U * (xx + cc.max()) + _TINY)
    XA = np.column_stack([X, xx, np.ones(n)])
    CA = np.vstack([-2 * C.T, np.ones(len(C)), cc])
    step = max(1, _GRAM_MADDS // max(1, CA.size))
    for a in range(0, n, step):
        yield a, XA[a:a + step] @ CA, eps[a:a + step]


def _k_candidates(g: np.ndarray, eps: np.ndarray, k: int) -> np.ndarray:
    """Where a block of ``_gram_blocks`` may hold one of each row's k
    smallest exact distances: not above the row's k-th smallest G plus
    twice the bound, since the k-th smallest exact distance is at most the
    k-th smallest G plus the bound, and each exact distance at least its G
    minus it."""
    t = np.partition(g, k - 1, axis=1)[:, k - 1] + 2 * eps
    return ~(g > t[:, None])


def _kept_sq_dists(X: np.ndarray, C: np.ndarray,
                   keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The squared distances from each row of X to the rows of C that its
    row of ``keep`` marks, left-aligned in column order and padded with NaN,
    which a partition orders last, and the column of each (-1 in the
    padding)."""
    i, j = np.divmod(np.flatnonzero(keep), keep.shape[1])
    count = np.count_nonzero(keep, axis=1)
    at = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    d2 = np.full((len(keep), count.max(initial=0)), np.nan)
    cols = np.full(d2.shape, -1)
    d2[i, at] = _pair_sq_dists(X, C, i, j)
    cols[i, at] = j
    return d2, cols


def _sq_dists_to(XT: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distances from the points in the columns of the feature-major
    XT to one point: the bits of ``((XT.T - point) ** 2).sum(axis=1)``."""
    terms = XT - point[:, None]
    terms *= terms
    return _pairwise_sum(iter(terms), len(terms))


def _sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    if len(C) < len(X):
        # the longer side innermost: (c - x) ** 2 has the bits of (x - c) ** 2
        return np.ascontiguousarray(_sq_dists(C, X).T)
    out = np.empty((len(X), len(C)))
    for a, block in _sq_dist_blocks(X, C):
        out[a:a + len(block)] = block
    return out


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _maximin_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k data points: seeded first pick, then farthest-first."""
    chosen = [int(rng.integers(len(X)))]
    min_d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        nxt = int(min_d2.argmax())
        chosen.append(nxt)
        min_d2 = np.minimum(min_d2, ((X - X[nxt]) ** 2).sum(axis=1))
    return X[chosen].copy()


def check_k(k: int) -> None:
    """The rule on the k of k-means, CLARANS, BIRCH and CURE, which a sweep
    also checks before its first point."""
    if k < 1:
        raise ParameterError("k must be at least 1")


def check_max_iters(max_iters: int) -> None:
    """k-means' rule on its iterations: with none, no row is assigned."""
    if max_iters < 1:
        raise ParameterError("max_iters must be at least 1")


def kmeans(d: Data, k: int, seed: int = 0, max_iters: int = 100) -> Clustering:
    """Lloyd iterations from k maximin-seeded data points; empty clusters are
    re-seeded with the point farthest from its current centroid."""
    check_k(k)
    check_max_iters(max_iters)
    X = encode_for_clustering(d)
    n = len(X)
    if k > n:
        raise ParameterError(f"k={k} exceeds row count {n}")
    rng = np.random.default_rng(seed)
    centroids = _maximin_init(X, k, rng)
    assign = np.full(n, -1)
    sse_trace: list[float] = []
    for _ in range(max_iters):
        d2 = _sq_dists(X, centroids)
        new_assign = d2.argmin(axis=1)
        sse_trace.append(float(d2[np.arange(n), new_assign].sum()))
        for c in range(k):
            if not (new_assign == c).any():
                stray = int(d2[np.arange(n), new_assign].argmax())
                centroids[c] = X[stray]
                new_assign[stray] = c
        if (new_assign == assign).all():
            break
        assign = new_assign
        for c in range(k):
            members = X[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return Clustering(assign, k, {"centroids": centroids, "sse": sse_trace})


# ---------------------------------------------------------------------------
# learning vector quantization
# ---------------------------------------------------------------------------

def check_prototypes(q: int, n_labels: int, n_rows: int) -> None:
    """LVQ's rule on its prototype count, which a sweep also checks on the
    clean table: at least one prototype per label, at most one per row."""
    if q < n_labels:
        raise ParameterError(f"q={q} is below the label count {n_labels}")
    if q > n_rows:
        raise ParameterError(f"q={q} exceeds row count {n_rows}")


def lvq(d: Data, q: int | None = None, learning_rate: float = 0.1,
        iters: int = 1000, seed: int = 0) -> Clustering:
    """Label-guided prototypes: pull the nearest prototype toward a sample
    with the same label, push it away otherwise.

    Training reads the dataset's stored labels (dirty ones included);
    evaluation against clean truth is the harness's job.
    """
    table = _table(d)  # labels are imputed along with features
    X = encode_for_clustering(table)
    if table.schema.target_index is None:
        raise ParameterError("LVQ needs a labeled dataset")
    classes, y = table.labels(None, "LVQ")
    n_c = len(classes)
    if q is None:
        q = n_c
    check_prototypes(q, n_c, len(X))
    rng = np.random.default_rng(seed)
    proto_idx: list[int] = []
    for c in range(n_c):  # every label gets at least one prototype
        members = np.flatnonzero(y == c)
        proto_idx.append(int(rng.choice(members)))
    remaining = sorted(set(range(len(X))) - set(proto_idx))
    extra = q - n_c
    if extra:
        proto_idx.extend(int(i) for i in rng.choice(remaining, size=extra, replace=False))
    protos = X[proto_idx].copy()
    proto_labels = y[proto_idx].copy()
    for _ in range(iters):
        i = int(rng.integers(len(X)))
        d2 = ((protos - X[i]) ** 2).sum(axis=1)
        p = int(d2.argmin())
        step = learning_rate * (X[i] - protos[p])
        protos[p] += step if proto_labels[p] == y[i] else -step
    assign = _sq_dists(X, protos).argmin(axis=1)
    return Clustering(assign, q, {"prototypes": protos, "prototype_labels": proto_labels})


# ---------------------------------------------------------------------------
# CLARANS
# ---------------------------------------------------------------------------

def check_num_local(num_local: int) -> None:
    """CLARANS' rule on its restarts: with none, no medoids are found."""
    if num_local < 1:
        raise ParameterError("num_local must be at least 1")


def clarans(d: Data, k: int, num_local: int = 5, max_neighbor: int = 100,
            seed: int = 0) -> Clustering:
    """Randomized medoid search: accept any cost-decreasing single-medoid
    swap, give up a restart after max_neighbor consecutive failures."""
    check_k(k)
    check_num_local(num_local)
    X = encode_for_clustering(d)
    n = len(X)
    if k > n:
        raise ParameterError(f"k={k} out of range for {n} rows")
    rng = np.random.default_rng(seed)
    XT = X.T.copy()

    def dists_to(medoids) -> np.ndarray:
        return np.sqrt(_sq_dists(X, X[medoids]))

    def nearest_without(dist: np.ndarray) -> np.ndarray:
        """Row j: each point's distance to its nearest medoid other than
        medoids[j], from the nearest and second-nearest distances."""
        if k == 1:
            return np.full((1, n), np.inf)
        first, second = np.partition(dist, 1, axis=1)[:, :2].T
        return np.where(dist.argmin(axis=1) == np.arange(k)[:, None], second, first)

    best_medoids = None
    best_cost = np.inf
    traces: list[list[float]] = []
    for _ in range(num_local):
        medoids = rng.choice(n, size=k, replace=False)
        dist = dists_to(medoids)  # column j: distances to medoids[j]
        current = float(dist.min(axis=1).sum())
        others = nearest_without(dist)
        trace = [current]
        fails = 0
        while fails < max_neighbor:
            pos = int(rng.integers(k))
            candidate = int(rng.integers(n))
            if candidate in medoids:
                fails += 1
                continue
            col = np.sqrt(_sq_dists_to(XT, X[candidate]))
            c = float(np.minimum(others[pos], col).sum())
            if c < current - 1e-12:
                medoids[pos] = candidate
                dist[:, pos] = col
                current = c
                others = nearest_without(dist)
                trace.append(current)
                fails = 0
            else:
                fails += 1
        traces.append(trace)
        if current < best_cost:
            best_cost = current
            best_medoids = medoids
    assign = dists_to(best_medoids).argmin(axis=1)
    return Clustering(assign, k, {"medoids": best_medoids, "cost": best_cost,
                                  "accepted_costs": traces})


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------

def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The lowest index of each of n nodes' connected components under the
    undirected edges (u, v).  Hook and compress: every edge lowers the larger
    of its two roots to the smaller, then pointer jumping flattens each tree,
    until both ends of every edge share a root."""
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            return root
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def check_min_pts(min_pts: int) -> None:
    """DBSCAN's rule on its core size, which its radius heuristic applies
    too, before it reads the ``min_pts``-th neighbour."""
    if min_pts < 1:
        raise ParameterError("min_pts must be at least 1")


def check_density(eps: float, min_pts: int) -> None:
    """DBSCAN's rules on its core size and radius, which a sweep also checks
    before its first point, on the radius it froze from the clean data too
    (0 on identical rows, and at ``min_pts`` 0, so that rule comes first)."""
    check_min_pts(min_pts)
    if eps <= 0:
        raise ParameterError("eps must be positive")


def _sq_radius(eps: float) -> float:
    """The largest double whose square root is at most ``eps``.  sqrt is
    correctly rounded and monotone, so a squared distance x has
    ``x <= _sq_radius(eps)`` exactly when ``sqrt(x) <= eps``; the bound is
    found by stepping one double at a time from ``eps * eps``."""
    eps = float(eps)
    lim = eps * eps
    while lim > 0 and math.sqrt(lim) > eps:
        lim = math.nextafter(lim, 0)
    while lim < math.inf and math.sqrt(math.nextafter(lim, math.inf)) <= eps:
        lim = math.nextafter(lim, math.inf)
    return lim


def _radius_pairs(X: np.ndarray, lim: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v) of rows of X, both ways round and self pairs
    included, in row-major order, whose squared distance in the kernel's
    bits is at most ``lim``.  A pair is tested exactly when its Gram
    approximation is not above ``lim`` plus the bound."""
    us, vs = [], []
    for a, g, eps in _gram_blocks(X, X):
        u, v = np.divmod(np.flatnonzero(~(g > (lim + eps)[:, None])), len(X))
        u += a
        near = _pair_sq_dists(X, X, u, v) <= lim
        us.append(u[near])
        vs.append(v[near])
    return np.concatenate(us), np.concatenate(vs)


def dbscan(d: Data, eps: float, min_pts: int = 4) -> Clustering:
    """Density clustering: clusters are eps-connected components of core
    points; border points join the lowest-indexed adjacent cluster."""
    check_density(eps, min_pts)
    X = encode_for_clustering(d)
    n = len(X)
    u, v = _radius_pairs(X, _sq_radius(eps))
    degree = np.bincount(u, minlength=n)
    core = degree >= min_pts
    core_idx = np.flatnonzero(core)

    # components are numbered by their lowest core index
    linked = (u < v) & core[u] & core[v]
    root = _component_roots(n, u[linked], v[linked])
    roots, labels = np.unique(root[core_idx], return_inverse=True)
    n_clusters = len(roots)
    assign = np.full(n, NOISE)
    assign[core_idx] = labels

    # a border point joins the lowest-numbered cluster among its core neighbours
    best = np.full(n, n_clusters)
    edge = ~core[u] & core[v]
    np.minimum.at(best, u[edge], assign[v[edge]])
    border = best < n_clusters
    assign[border] = best[border]
    return Clustering(assign, n_clusters, {"core_points": core_idx, "n_core": int(core.sum())})


def dbscan_default_eps(d: Data, min_pts: int = 4, percentile: float = 90.0) -> float:
    """Radius heuristic frozen on the clean data: percentile of the
    min_pts-th nearest-neighbor distances."""
    check_min_pts(min_pts)
    X = encode_for_clustering(d)
    kk = min(min_pts, len(X) - 1)
    # sqrt is monotone: the k-th smallest root is the root of the k-th square
    return _percentile(np.sqrt(_kth_sq_dists(X, kk)), percentile)


def _kth_sq_dists(X: np.ndarray, kk: int) -> np.ndarray:
    """The kk-th smallest, counting from 0, of each row's squared distances
    to the rows of X (itself included), in the kernel's bits.  Only the
    columns that ``_k_candidates`` keeps are measured exactly."""
    kth = []
    for a, g, eps in _gram_blocks(X, X):
        d2, _ = _kept_sq_dists(X[a:a + len(g)], X, _k_candidates(g, eps, kk + 1))
        d2.partition(kk, axis=1)
        kth.append(d2[:, kk])
    return np.concatenate(kth)


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` by its default linear method, bit for
    bit, without the ``numpy.ma`` import its ``np.unique`` call costs."""
    at = (len(values) - 1) * (q / 100)
    lo = min(math.floor(at), len(values) - 1)
    hi = min(lo + 1, len(values) - 1)
    part = np.partition(values, [lo, hi])
    a, b, t = float(part[lo]), float(part[hi]), at - lo
    # numpy's _lerp: from the upper end when the weight reaches one half
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


# ---------------------------------------------------------------------------
# BIRCH
# ---------------------------------------------------------------------------

class _CF:
    """Clustering feature: count, linear sum, component-wise square sum."""

    __slots__ = ("n", "ls", "ss")

    def __init__(self, point: np.ndarray | None = None, dim: int | None = None):
        if point is not None:
            self.n = 1
            self.ls = point.copy()
            self.ss = point * point
        else:
            self.n = 0
            self.ls = np.zeros(dim)
            self.ss = np.zeros(dim)

    def add(self, other: "_CF"):
        self.n += other.n
        self.ls += other.ls
        self.ss += other.ss

    def merged(self, other: "_CF") -> "_CF":
        out = _CF(dim=len(self.ls))
        out.add(self)
        out.add(other)
        return out

    @property
    def centroid(self) -> np.ndarray:
        return self.ls / self.n

    @property
    def radius(self) -> float:
        # mean squared distance to the centroid, clipped against rounding
        val = self.ss.sum() / self.n - (self.centroid ** 2).sum()
        return float(np.sqrt(max(val, 0.0)))


class _CFNode:
    """A CF-tree node: its entries, an internal node's children, and the
    entries' centroids, kept row by row as entries change."""

    __slots__ = ("is_leaf", "entries", "children", "cents")

    def __init__(self, is_leaf: bool, entries=(), children=()):
        self.is_leaf = is_leaf
        self.entries: list[_CF] = list(entries)
        self.children: list["_CFNode"] = list(children)
        self.rebuild()

    def rebuild(self):
        self.cents = np.array([e.centroid for e in self.entries])

    def put(self, i: int, cf: _CF):
        self.entries[i] = cf
        self.cents[i] = cf.centroid

    def append(self, cf: _CF, child: "_CFNode | None" = None):
        self.entries.append(cf)
        if child is not None:
            self.children.append(child)
        self.rebuild()


def _nearest_entry(node: _CFNode, point: np.ndarray) -> int:
    return int(((node.cents - point) ** 2).sum(axis=1).argmin())


def _split_node(node: _CFNode) -> tuple[_CFNode, _CFNode]:
    d2 = _sq_dists(node.cents, node.cents)
    a, b = np.unravel_index(int(d2.argmax()), d2.shape)
    left, right = _CFNode(node.is_leaf), _CFNode(node.is_leaf)
    for i, e in enumerate(node.entries):
        to_left = d2[i, a] <= d2[i, b]
        side = left if to_left else right
        side.entries.append(e)
        if not node.is_leaf:
            side.children.append(node.children[i])
    if not left.entries:  # degenerate tie layout
        left.entries.append(right.entries.pop())
        if not node.is_leaf:
            left.children.append(right.children.pop())
    if not right.entries:
        right.entries.append(left.entries.pop())
        if not node.is_leaf:
            right.children.append(left.children.pop())
    left.rebuild()
    right.rebuild()
    return left, right


def _insert_cf(node: _CFNode, cf: _CF, threshold: float, branching: int):
    """Insert a single-point CF; returns a (left, right) pair on split."""
    if node.is_leaf:
        if node.entries:
            i = _nearest_entry(node, cf.centroid)
            merged = node.entries[i].merged(cf)
            if merged.radius <= threshold:
                node.put(i, merged)
            else:
                node.append(cf)
        else:
            node.append(cf)
    else:
        i = _nearest_entry(node, cf.centroid)
        split = _insert_cf(node.children[i], cf, threshold, branching)
        if split is None:
            node.entries[i].add(cf)
            node.put(i, node.entries[i])
        else:
            left, right = split
            node.children[i] = left
            node.put(i, _summarize(left))
            node.append(_summarize(right), right)
    if len(node.entries) > branching:
        return _split_node(node)
    return None


def _summarize(node: _CFNode) -> _CF:
    out = _CF(dim=len(node.entries[0].ls))
    for e in node.entries:
        out.add(e)
    return out


def _collect_leaf_entries(node: _CFNode) -> list[_CF]:
    if node.is_leaf:
        return list(node.entries)
    out = []
    for child in node.children:
        out.extend(_collect_leaf_entries(child))
    return out


def _min_linkage_merge(points: np.ndarray, k: int) -> list[list[int]]:
    """Agglomerate points to k groups under single (MIN) linkage.

    Cluster-to-cluster distances are updated in place with the single-linkage
    rule d(a+b, c) = min(d(a, c), d(b, c)); merge ties resolve to the lowest
    index pair, so results are order-stable.  Each row keeps its minimum and
    the lowest column that holds it, so a merge updates the rows it touches
    instead of scanning the whole matrix.
    """
    n = len(points)
    if k > n:
        raise ParameterError(f"cannot form {k} groups from {n} points")
    d = np.sqrt(_sq_dists(points, points))
    d[np.tril_indices(n)] = np.inf
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    alive = np.ones(n, dtype=bool)
    near = d.argmin(axis=1)  # each row's lowest column at its minimum
    low = d[np.arange(n), near]
    while len(members) > k:
        a = int(low.argmin())  # the lowest row at the overall minimum
        b = int(near[a])
        members[a].extend(members.pop(b))
        alive[b] = False
        merged_row = np.minimum(
            np.minimum(d[a, :], d[:, a]), np.minimum(d[b, :], d[:, b])
        )
        d[a, :] = np.inf
        d[:, a] = np.inf
        d[b, :] = np.inf
        d[:, b] = np.inf
        below, above = alive[:a].nonzero()[0], a + 1 + alive[a + 1:].nonzero()[0]
        d[below, a] = merged_row[below]
        d[a, above] = merged_row[above]
        # a row above a loses column b, and its column a becomes the smaller
        # of its a and b entries, never below its minimum: column a takes
        # over where it now holds the minimum at a lower column
        gains = (merged_row[below] == low[below]) & (near[below] > a)
        near[below[gains]], low[below[gains]] = a, merged_row[below[gains]]
        # a row between a and b that lost its minimum at b, and row a itself,
        # are searched again
        lost = np.flatnonzero(alive & (near == b))
        for i in np.append(lost[lost > a], a):
            near[i] = d[i].argmin()
            low[i] = d[i, near[i]]
        low[b] = np.inf
    return [members[key] for key in sorted(members)]


def check_cf_tree(branching: int, threshold: float) -> None:
    """BIRCH's rules on its CF tree, which a sweep also checks before its
    first point."""
    if threshold <= 0:
        raise ParameterError("threshold must be positive")
    if branching < 2:
        raise ParameterError("branching must be at least 2")


def birch(d: Data, k: int, branching: int = 50, threshold: float = 0.25) -> Clustering:
    """Single-pass CF-tree summarization, MIN-linkage merge of the leaf-entry
    centroids down to k seeds, then a nearest-seed rescan of all rows."""
    check_k(k)
    check_cf_tree(branching, threshold)
    X = encode_for_clustering(d)
    root = _CFNode(is_leaf=True)
    for x in X:
        split = _insert_cf(root, _CF(point=x), threshold, branching)
        if split is not None:
            left, right = split
            root = _CFNode(False, [_summarize(left), _summarize(right)], [left, right])
    leaf_entries = _collect_leaf_entries(root)
    if k > len(leaf_entries):
        raise ParameterError(
            f"k={k} exceeds the {len(leaf_entries)} leaf entries; lower the threshold"
        )
    cents = np.array([e.centroid for e in leaf_entries])
    groups = _min_linkage_merge(cents, k)
    seeds = np.empty((k, X.shape[1]))
    for g, members in enumerate(groups):
        merged = _CF(dim=X.shape[1])
        for i in members:
            merged.add(leaf_entries[i])
        seeds[g] = merged.centroid
    assign = _sq_dists(X, seeds).argmin(axis=1)
    return Clustering(assign, k, {"seeds": seeds, "n_leaf_entries": len(leaf_entries),
                                  "cf_root": root})


# ---------------------------------------------------------------------------
# CURE
# ---------------------------------------------------------------------------

def check_representatives(n_rep: int, shrink: float, sample_frac: float) -> None:
    """CURE's rules on its representatives and the sample they come from,
    which a sweep also checks before its first point."""
    if not 0.0 < shrink <= 1.0:
        raise ParameterError("shrink must be in (0, 1]")
    if n_rep < 1:
        raise ParameterError("n_rep must be at least 1")
    if not 0.0 < sample_frac <= 1.0:
        raise ParameterError("sample_frac must be in (0, 1]")


def cure(d: Data, k: int, n_rep: int = 5, shrink: float = 0.3,
         sample_frac: float = 0.25, seed: int = 0) -> Clustering:
    """Representative-point clustering: MIN-linkage on a seeded sample,
    farthest-first representatives shrunk toward each centroid, then
    nearest-representative assignment of every row."""
    check_k(k)
    check_representatives(n_rep, shrink, sample_frac)
    X = encode_for_clustering(d)
    n = len(X)
    size = int(round(sample_frac * n))
    if size < k:
        raise ParameterError(f"sample of {size} rows is smaller than k={k}")
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(n, size=size, replace=False))
    S = X[sample]
    groups = _min_linkage_merge(S, k)
    rep_points = []
    rep_cluster = []
    for g, members in enumerate(groups):
        pts = S[members]
        centroid = pts.mean(axis=0)
        chosen: list[int] = []
        for r in range(min(n_rep, len(pts))):
            if not chosen:
                dist = ((pts - centroid) ** 2).sum(axis=1)
            else:
                dist = np.min(_sq_dists(pts, pts[chosen]), axis=1)
                dist[chosen] = -1.0
            chosen.append(int(dist.argmax()))
        for i in chosen:
            rep_points.append(pts[i] + shrink * (centroid - pts[i]))
            rep_cluster.append(g)
    reps = np.array(rep_points)
    rep_cluster = np.array(rep_cluster)
    nearest = _sq_dists(X, reps).argmin(axis=1)
    assign = rep_cluster[nearest]
    return Clustering(assign, k, {"representatives": reps, "rep_cluster": rep_cluster,
                                  "sample": sample})
