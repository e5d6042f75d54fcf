import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirtybench import classify, cluster
from dirtybench.classify import _nearest
from dirtybench.cluster import (
    _CF,
    _min_linkage_merge,
    _sq_dists,
    birch,
    clarans,
    cure,
    dbscan,
    dbscan_default_eps,
    encode_for_clustering,
    kmeans,
    lvq,
)
from dirtybench.data import CATEGORICAL, Column, NUMERIC, dataset_from_rows
from dirtybench.errors import ParameterError
from dirtybench.synth import make_blobs
from oracles import export_rows, kmeans_sse, write_clustering


def points_1d(values):
    cols = [Column("x", NUMERIC)]
    return dataset_from_rows(cols, [[float(v)] for v in values])


def points_2d(pairs):
    cols = [Column("x", NUMERIC), Column("y", NUMERIC)]
    return dataset_from_rows(cols, [[float(a), float(b)] for a, b in pairs])


def two_blobs(n_per=10, gap=50.0, seed=0):
    rng = np.random.default_rng(seed)
    pts = [(float(v), float(w)) for v, w in rng.normal(0, 1, size=(n_per, 2))]
    pts += [(float(v + gap), float(w + gap)) for v, w in rng.normal(0, 1, size=(n_per, 2))]
    return points_2d(pts), np.array([0] * n_per + [1] * n_per)


def same_partition(a, b):
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestKMeans:
    def test_two_groups_match_bruteforce_sse(self):
        d = points_1d([0, 1, 9, 10])
        result = kmeans(d, 2, seed=0)
        X = encode_for_clustering(d)
        best = None
        for bits in itertools.product([0, 1], repeat=4):
            assign = np.array(bits)
            if len(set(bits)) < 2:
                continue
            sse = kmeans_sse(X, assign, 2)
            if best is None or sse < best[0]:
                best = (sse, assign)
        assert same_partition(result.assignments, best[1])
        # in min-max units: the points 0, 1, 9, 10 sit at 0, 0.1, 0.9, 1
        cents = sorted(result.meta["centroids"].ravel())
        assert cents == pytest.approx([0.05, 0.95])

    def test_k_equals_n(self):
        d = points_1d([0, 3, 7, 11])
        result = kmeans(d, 4, seed=1)
        assert sorted(result.assignments) == [0, 1, 2, 3]
        X = encode_for_clustering(d)
        assert kmeans_sse(X, result.assignments, 4) == pytest.approx(0.0)

    def test_seed_determinism(self):
        d = make_blobs(60, seed=2)
        a = kmeans(d, 3, seed=5)
        b = kmeans(d, 3, seed=5)
        assert (a.assignments == b.assignments).all()

    def test_sse_trace_non_increasing(self):
        d = make_blobs(80, seed=4)
        for seed in range(5):
            trace = kmeans(d, 3, seed=seed).meta["sse"]
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_k_validation(self):
        d = points_1d([0, 1])
        with pytest.raises(ParameterError):
            kmeans(d, 0)
        with pytest.raises(ParameterError):
            kmeans(d, 3)


class TestLVQ:
    def labeled_blobs(self):
        cols = [Column("x", NUMERIC), Column("y", NUMERIC),
                Column("label", CATEGORICAL, "target")]
        rng = np.random.default_rng(3)
        rows = []
        for i in range(30):
            c = i % 2
            v = rng.normal(10.0 * c, 0.5, size=2)
            rows.append([float(v[0]), float(v[1]), f"c{c}"])
        return dataset_from_rows(cols, rows)

    def test_zero_learning_rate_keeps_prototypes(self):
        d = self.labeled_blobs()
        moved = lvq(d, learning_rate=0.0, iters=200, seed=7)
        again = lvq(d, learning_rate=0.0, iters=0, seed=7)
        assert np.allclose(moved.meta["prototypes"], again.meta["prototypes"])
        assert (moved.assignments == again.assignments).all()

    def test_separated_blobs_match_labels(self):
        d = self.labeled_blobs()
        result = lvq(d, q=2, learning_rate=0.2, iters=500, seed=1)
        # oracle: nearest true class centroid
        X = encode_for_clustering(d)
        truth = np.array([i % 2 for i in range(30)])
        cents = np.array([X[truth == c].mean(axis=0) for c in (0, 1)])
        oracle = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        assert same_partition(result.assignments, oracle)

    def test_q_below_label_count(self):
        d = self.labeled_blobs()
        with pytest.raises(ParameterError):
            lvq(d, q=1)

    def test_seed_determinism(self):
        d = self.labeled_blobs()
        a = lvq(d, seed=9, iters=300)
        b = lvq(d, seed=9, iters=300)
        assert (a.assignments == b.assignments).all()


class TestCLARANS:
    def test_k_equals_n_cost_zero(self):
        d = points_1d([0, 2, 5, 9])
        result = clarans(d, 4, seed=0)
        assert result.meta["cost"] == pytest.approx(0.0)

    def test_four_point_exhaustive_best(self):
        d = points_2d([(0, 0), (0, 1), (10, 10), (10, 11)])
        X = encode_for_clustering(d)
        dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        best = min(
            dist[:, list(pair)].min(axis=1).sum()
            for pair in itertools.combinations(range(4), 2)
        )
        result = clarans(d, 2, num_local=8, max_neighbor=40, seed=3)
        assert result.meta["cost"] == pytest.approx(best)

    def test_accepted_costs_non_increasing_within_restart(self):
        d = make_blobs(50, seed=6)
        result = clarans(d, 3, num_local=3, max_neighbor=30, seed=2)
        for restart in result.meta["accepted_costs"]:
            assert all(b <= a + 1e-12 for a, b in zip(restart, restart[1:]))

    def test_seed_determinism(self):
        d = make_blobs(40, seed=1)
        a = clarans(d, 3, seed=4)
        b = clarans(d, 3, seed=4)
        assert (a.assignments == b.assignments).all()


class TestDBSCAN:
    def test_two_blobs_two_clusters_no_noise(self):
        d, truth = two_blobs()
        result = dbscan(d, eps=0.3, min_pts=3)
        assert result.n_clusters == 2
        assert (result.assignments != -1).all()
        # oracle: connected components of the eps graph over core points
        assert same_partition(result.assignments, truth)

    def test_all_noise_when_eps_tiny(self):
        d = points_2d([(0, 0), (5, 5), (10, 0)])
        result = dbscan(d, eps=0.01, min_pts=2)
        assert (result.assignments == -1).all()
        assert result.n_clusters == 0

    def test_core_set_invariant_under_permutation(self):
        d, _ = two_blobs(seed=5)
        base = dbscan(d, eps=0.3, min_pts=3)
        rng = np.random.default_rng(0)
        perm = rng.permutation(d.n_rows)
        shuffled = dataset_from_rows(d.schema, [d.rows[i] for i in perm])
        other = dbscan(shuffled, eps=0.3, min_pts=3)
        assert other.n_clusters == base.n_clusters
        base_core = {int(i) for i in base.meta["core_points"]}
        # row i of the shuffled dataset is row perm[i] of the original
        expected = {i for i in range(d.n_rows) if int(perm[i]) in base_core}
        assert {int(i) for i in other.meta["core_points"]} == expected

    def test_parameter_validation(self):
        d = points_1d([0, 1])
        with pytest.raises(ParameterError):
            dbscan(d, eps=0.0)
        with pytest.raises(ParameterError):
            dbscan(d, eps=1.0, min_pts=0)

    def test_default_eps_positive_and_frozen_value(self):
        d = make_blobs(50, seed=2)
        assert dbscan_default_eps(d) > 0
        assert dbscan_default_eps(d) == dbscan_default_eps(d)

    @given(st.lists(st.one_of(st.floats(0, 1e6), st.sampled_from((0.0, 0.5, 1.0, 2.0))),
                    min_size=1, max_size=60),
           st.one_of(st.floats(0, 100), st.sampled_from((0.0, 50.0, 90.0, 100.0))))
    def test_percentile_has_the_bits_of_numpy(self, values, q):
        values = np.array(values)
        want = np.percentile(values, q)
        assert np.float64(cluster._percentile(values, q)).tobytes() == want.tobytes()


class TestBIRCH:
    def test_cf_additivity(self):
        a = _CF(point=np.array([1.0, 2.0]))
        b = _CF(point=np.array([3.0, 4.0]))
        merged = a.merged(b)
        assert merged.n == 2
        assert np.allclose(merged.ls, [4.0, 6.0])
        assert np.allclose(merged.ss, [10.0, 20.0])

    def test_huge_threshold_single_entry(self):
        d = make_blobs(40, seed=3)
        result = birch(d, k=1, threshold=1e9)
        assert result.meta["n_leaf_entries"] == 1
        assert (result.assignments == 0).all()

    def test_two_blobs_match_kmeans(self):
        d, _ = two_blobs(n_per=12, gap=80.0, seed=7)
        b = birch(d, k=2, threshold=0.2, branching=8)
        km = kmeans(d, 2, seed=0)
        assert same_partition(b.assignments, km.assignments)

    def test_cf_cauchy_schwarz_on_every_node(self):
        d = make_blobs(60, seed=9)
        result = birch(d, k=3, threshold=0.15, branching=6)

        def walk(node):
            for e in node.entries:
                assert (e.ss + 1e-9 >= e.ls ** 2 / e.n).all()
            for child in node.children:
                walk(child)

        walk(result.meta["cf_root"])

    def test_k_exceeding_leaf_entries(self):
        d = points_1d([0, 1])
        with pytest.raises(ParameterError):
            birch(d, k=5, threshold=1e9)

    def test_k_within_rows_exceeding_leaf_entries(self):
        """The leaf-entry count needs the CF tree built, so this bound stays
        the fit's own: a sweep's pre-flight does not check it."""
        d = points_1d([0, 1, 2, 3])
        with pytest.raises(ParameterError, match="k=3 exceeds the 1 leaf entries"):
            birch(d, k=3, threshold=1e9)


class TestCURE:
    def test_full_shrink_equals_centroid_assignment(self):
        d, _ = two_blobs(n_per=10, gap=60.0, seed=8)
        result = cure(d, k=2, n_rep=4, shrink=1.0, sample_frac=1.0, seed=2)
        X = encode_for_clustering(d)
        groups = _min_linkage_merge(X, 2)
        cents = np.array([X[g].mean(axis=0) for g in groups])
        oracle = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        assert same_partition(result.assignments, oracle)

    def test_single_rep_full_shrink_is_centroid_rule(self):
        d = points_2d([(0, 0), (1, 0), (0, 1), (20, 20), (21, 20), (20, 21)])
        result = cure(d, k=2, n_rep=1, shrink=1.0, sample_frac=1.0, seed=0)
        X = encode_for_clustering(d)
        groups = _min_linkage_merge(X, 2)
        cents = np.array([X[g].mean(axis=0) for g in groups])
        oracle = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        assert same_partition(result.assignments, oracle)

    def test_sample_smaller_than_k(self):
        d = points_1d(range(10))
        with pytest.raises(ParameterError):
            cure(d, k=5, sample_frac=0.2)

    def test_seed_determinism(self):
        d = make_blobs(60, seed=4)
        a = cure(d, k=3, seed=11)
        b = cure(d, k=3, seed=11)
        assert (a.assignments == b.assignments).all()


class TestCoverage:
    def test_every_row_assigned_exactly_once(self):
        d = make_blobs(40, seed=0)
        for result in (
            kmeans(d, 3, seed=0),
            clarans(d, 3, seed=0),
            birch(d, k=3, threshold=0.2),
            cure(d, k=3, sample_frac=0.5, seed=0),
            dbscan(d, eps=dbscan_default_eps(d)),
        ):
            assert len(result.assignments) == d.n_rows
            valid = (result.assignments == -1) | (
                (result.assignments >= 0) & (result.assignments < max(result.n_clusters, 1))
            )
            assert valid.all()

    @pytest.mark.parametrize("run, message", [
        (lambda d: kmeans(d, 3, max_iters=0), "max_iters must be at least 1"),
        (lambda d: lvq(d, q=41), "q=41 exceeds row count 40"),
        (lambda d: clarans(d, 3, num_local=0), "num_local must be at least 1"),
        (lambda d: cure(d, k=3, sample_frac=2.0), r"sample_frac must be in \(0, 1\]"),
    ])
    def test_learner_raises_its_own_rule(self, run, message):
        """A value that would fail inside numpy, or assign no row, is the
        learner's ParameterError."""
        with pytest.raises(ParameterError, match=message):
            run(make_blobs(40, seed=0))

    def test_export_rows(self):
        d = points_1d([0, 1, 9])
        result = kmeans(d, 2, seed=0)
        pairs = export_rows(result)
        assert [p[0] for p in pairs] == [0, 1, 2]

    def test_write_clustering_file(self, tmp_path):
        d = points_2d([(0, 0), (0.1, 0), (9, 9)])
        result = dbscan(d, eps=0.5, min_pts=2)
        out = tmp_path / "clusters.csv"
        write_clustering(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "row,cluster"
        assert lines[1] == "0,0"
        assert lines[3] == "2,-1"  # isolated point is noise


# ---------------------------------------------------------------------------
# reference copies of the dense kernels that the chunked ones replaced
# ---------------------------------------------------------------------------

def dense_sq_dists(X, C):
    return ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)


def union_find_dbscan(X, eps, min_pts):
    n = len(X)
    within = np.sqrt(dense_sq_dists(X, X)) <= eps
    core = within.sum(axis=1) >= min_pts
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    core_idx = np.flatnonzero(core)
    for ai, a in enumerate(core_idx):
        for b in core_idx[ai + 1:]:
            if within[a, b]:
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    cluster_of_root = {}
    assign = np.full(n, -1)
    for a in core_idx:
        root = find(int(a))
        if root not in cluster_of_root:
            cluster_of_root[root] = len(cluster_of_root)
        assign[a] = cluster_of_root[root]
    for i in range(n):
        if assign[i] != -1 or core[i]:
            continue
        neighbor_clusters = [int(assign[j]) for j in np.flatnonzero(within[i]) if core[j]]
        if neighbor_clusters:
            assign[i] = min(neighbor_clusters)
    return assign, len(cluster_of_root), core_idx


def sorted_eps(X, min_pts=4, percentile=90.0):
    dist = np.sqrt(dense_sq_dists(X, X))
    kth = np.sort(dist, axis=1)[:, min(min_pts, len(X) - 1)]
    return float(np.percentile(kth, percentile))


def dense_clarans(X, k, num_local, max_neighbor, seed):
    n = len(X)
    rng = np.random.default_rng(seed)
    all_d = np.sqrt(dense_sq_dists(X, X))

    def cost_of(medoids):
        return float(all_d[:, medoids].min(axis=1).sum())

    best_medoids, best_cost, traces = None, np.inf, []
    for _ in range(num_local):
        medoids = rng.choice(n, size=k, replace=False)
        current = cost_of(medoids)
        trace = [current]
        fails = 0
        while fails < max_neighbor:
            pos = int(rng.integers(k))
            candidate = int(rng.integers(n))
            if candidate in medoids:
                fails += 1
                continue
            trial = medoids.copy()
            trial[pos] = candidate
            c = cost_of(trial)
            if c < current - 1e-12:
                medoids, current = trial, c
                trace.append(current)
                fails = 0
            else:
                fails += 1
        traces.append(trace)
        if current < best_cost:
            best_cost, best_medoids = current, medoids
    return all_d[:, best_medoids].argmin(axis=1), best_medoids, best_cost, traces


@st.composite
def point_sets(draw):
    """Coarsely quantized points, so equal distances and duplicates occur,
    and a block budget (bytes of the kernel, multiply-adds of the Gram
    filter) small enough that blocks split the rows."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    budget = draw(st.integers(1, 3 * 8 * n * d))
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(0.0, 2.0, size=(n, d)) * 2) / 2
    cols = [Column(f"x{j}", NUMERIC) for j in range(d)]
    data = dataset_from_rows(cols, [[float(v) for v in row] for row in values])
    return data, budget, rng


class TestChunkedKernelsMatchDense:
    @given(point_sets(), st.integers(1, 25))
    def test_sq_dists(self, case, m):
        data, budget, rng = case
        X = encode_for_clustering(data)
        C = np.round(rng.normal(size=(m, X.shape[1])), 1)
        with mock.patch.object(cluster, "_CHUNK_BYTES", budget):
            assert np.array_equal(_sq_dists(X, C), dense_sq_dists(X, C))
            assert np.array_equal(_sq_dists(X, X), dense_sq_dists(X, X))

    @given(point_sets(), st.integers(1, 6), st.floats(0.0, 1.0))
    def test_dbscan(self, case, min_pts, q):
        data, budget, _ = case
        X = encode_for_clustering(data)
        # eps is one of the pairwise distances, so points sit exactly on it
        dists = np.sqrt(dense_sq_dists(X, X)).ravel()
        eps = float(np.quantile(dists, q, method="nearest")) or 0.25
        assign, n_clusters, core_idx = union_find_dbscan(X, eps, min_pts)
        with mock.patch.object(cluster, "_GRAM_MADDS", budget):
            result = dbscan(data, eps=eps, min_pts=min_pts)
        assert np.array_equal(result.assignments, assign)
        assert result.n_clusters == n_clusters
        assert np.array_equal(result.meta["core_points"], core_idx)
        assert result.meta["n_core"] == len(core_idx)

    def test_dbscan_border_between_two_clusters_and_noise(self):
        # cluster B comes first in row order, so it is cluster 0
        d = points_1d([9.7, 9.8, 9.9, 10.0, 5.0, 0.0, 0.1, 0.2, 0.3, 20.0])
        X = encode_for_clustering(d)
        eps, min_pts = 4.75 / 20.0, 4
        assign, n_clusters, core_idx = union_find_dbscan(X, eps, min_pts)
        assert n_clusters == 2 and assign[4] == 0 and 4 not in core_idx
        assert assign[9] == -1
        with mock.patch.object(cluster, "_GRAM_MADDS", 3 * 10 * 3):  # 3 rows a block
            result = dbscan(d, eps=eps, min_pts=min_pts)
        assert np.array_equal(result.assignments, assign)
        assert np.array_equal(result.meta["core_points"], core_idx)

    @given(point_sets(), st.integers(1, 6), st.floats(1.0, 100.0))
    def test_default_eps(self, case, min_pts, percentile):
        data, budget, _ = case
        X = encode_for_clustering(data)
        with mock.patch.object(cluster, "_GRAM_MADDS", budget):
            eps = dbscan_default_eps(data, min_pts=min_pts, percentile=percentile)
        assert eps == sorted_eps(X, min_pts, percentile)

    @given(point_sets(), st.integers(1, 4), st.integers(1, 3), st.integers(1, 20),
           st.integers(0, 1000))
    def test_clarans(self, case, k, num_local, max_neighbor, seed):
        data, budget, _ = case
        X = encode_for_clustering(data)
        k = min(k, len(X))
        assign, medoids, cost, traces = dense_clarans(X, k, num_local, max_neighbor, seed)
        with mock.patch.object(cluster, "_CHUNK_BYTES", budget):
            result = clarans(data, k, num_local=num_local, max_neighbor=max_neighbor,
                             seed=seed)
        assert np.array_equal(result.assignments, assign)
        assert np.array_equal(result.meta["medoids"], medoids)
        assert result.meta["cost"] == cost
        assert result.meta["accepted_costs"] == traces


@given(st.floats(1.0, 10.0), st.one_of(st.integers(-323, 149), st.integers(-170, -155)))
def test_squared_radius_compares_as_its_root(mantissa, exponent):
    # eps from subnormal to 1e150, often with a subnormal square, which
    # eps * eps can round above the largest one whose root is eps; x within
    # 8 doubles of eps * eps, and 0
    eps = mantissa * 10.0 ** exponent
    lim = cluster._sq_radius(eps)
    xs = [0.0]
    for toward in (0.0, math.inf):
        x = eps * eps
        for _ in range(9):
            xs.append(x)
            x = math.nextafter(x, toward)
    for x in xs:
        assert (x <= lim) == (np.sqrt(x) <= eps)


def test_distance_kernels_memory_is_bounded_at_10k_rows():
    # the dense n x n x d temporary alone would take 1.6 GB here
    d = make_blobs(10_000, n_features=2, n_classes=2, seed=0)
    limit = 64 * 2**20
    for run in (
        lambda: dbscan_default_eps(d),
        lambda: dbscan(d, eps=0.01),  # close to the default eps of these blobs
        lambda: clarans(d, 2, num_local=2, seed=0),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


# ---------------------------------------------------------------------------
# the distance kernel adds its per-feature terms in numpy's summation order
# ---------------------------------------------------------------------------

@st.composite
def spread_pairs(draw):
    """Two point sets whose coordinates span 1e-3 to 1e3 in magnitude, so a
    change in the order of the additions shows in the last bits, and a small
    block budget (1 gives one-row blocks)."""
    d = draw(st.one_of(st.integers(1, 40), st.sampled_from((128, 131, 300))))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    budget = draw(st.one_of(st.just(1), st.integers(1, 8 * m * d * 3)))
    rng = np.random.default_rng(seed)

    def points(rows):
        return rng.choice([-1.0, 1.0], size=(rows, d)) * 10.0 ** rng.uniform(-3, 3, (rows, d))

    return points(n), points(m), budget


class TestNumpySummationOrder:
    """A numpy release that changed the order of ``.sum`` must fail here
    rather than silently change the kernel's bits."""

    @given(spread_pairs())
    def test_sq_dists_equal_numpy_sum(self, case):
        X, C, budget = case
        with mock.patch.object(cluster, "_CHUNK_BYTES", budget):
            want = dense_sq_dists(X, C)
            assert np.array_equal(_sq_dists(X, C), want)
            assert np.array_equal(_sq_dists(C, X), dense_sq_dists(C, X))
            for a, block in cluster._sq_dist_blocks(X, C):
                assert np.array_equal(block, want[a:a + len(block)])
        for p in C:
            assert np.array_equal(cluster._sq_dists_to(X.T.copy(), p), ((X - p) ** 2).sum(axis=1))


# ---------------------------------------------------------------------------
# the Gram filter keeps every pair that the exact searches need
# ---------------------------------------------------------------------------

@st.composite
def filter_cases(draw):
    """Query rows Q and data rows X of one of four kinds, and a block budget
    (1 gives one-row blocks):

    * grid: integers 0-2, so distances tie exactly and rows repeat;
    * far: near-duplicates of one point 1e2-1e3 from the origin, so the
      expansion cancels and its error shows;
    * spread: coordinates from 1e-3 to 1e3 in magnitude;
    * huge: grid rows scaled by 1e200, whose squared norms overflow, so the
      expansion is NaN on the diagonal square of duplicates and inf elsewhere.
    """
    kind = draw(st.sampled_from(("grid", "far", "spread", "huge")))
    d = draw(st.one_of(st.sampled_from((1, 8, 131)), st.integers(1, 12)))
    n, m = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    budget = draw(st.one_of(st.just(1), st.integers(1, 4 * (n + m) * (d + 2))))

    def points(rows):
        if kind in ("grid", "huge"):
            return rng.integers(0, 3, (rows, d)) * (1e200 if kind == "huge" else 1.0)
        if kind == "far":
            centre = rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(2, 3, d)
            return centre + rng.integers(-2, 3, (rows, d)) * 10.0 ** rng.uniform(-9, -6)
        return rng.choice([-1.0, 1.0], (rows, d)) * 10.0 ** rng.uniform(-3, 3, (rows, d))

    X = points(n)
    Q = np.vstack([X[rng.integers(0, n, m // 2)], points(m - m // 2)])  # duplicates of X too
    return Q, X, budget


def first_k(d2, k):
    """The k columns of each row that a stable argsort puts first, ascending."""
    return np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)


def nearest_of(Q, X, k):
    return np.concatenate([nearest for _, nearest in _nearest(Q, X, k)])


def adversarial_gram(winners):
    """A stand-in for ``_gram_blocks`` that moves each entry nine tenths of
    the bound the wrong way: up where ``winners(K, a)`` marks the exact
    distances K of rows a: onwards as needed, down elsewhere; and makes
    every third row NaN, as an overflow would."""
    real = cluster._gram_blocks

    def blocks(X, C):
        for a, g, eps in real(X, C):
            K = dense_sq_dists(X[a:a + len(g)], C)
            g = np.where(winners(K, a), K + 0.9 * eps[:, None], K - 0.9 * eps[:, None])
            g[(a + np.arange(len(g))) % 3 == 0] = np.nan
            yield a, g, eps
    return blocks


def rank_winners(k):
    """The entries a selection of the k smallest takes."""
    def winners(K, a):
        marked = np.zeros(K.shape, dtype=bool)
        np.put_along_axis(marked, first_k(K, k), True, axis=1)
        return marked
    return winners


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestGramFilter:
    @given(filter_cases())
    def test_expansion_within_its_bound(self, case):
        Q, X, budget = case
        K = dense_sq_dists(Q, X)
        with mock.patch.object(cluster, "_GRAM_MADDS", budget):
            for a, g, eps in cluster._gram_blocks(Q, X):
                k, e = K[a:a + len(g)], eps[:, None]
                held = (k <= g + e) & (g <= k + e)
                assert (held | np.isnan(g)).all()

    @given(filter_cases(), st.data())
    def test_knn_takes_the_dense_winners(self, case, data):
        Q, X, budget = case
        want = dense_sq_dists(Q, X)
        with mock.patch.object(cluster, "_GRAM_MADDS", budget):
            for k in sorted({1, data.draw(st.integers(1, len(X))), len(X)}):
                assert np.array_equal(nearest_of(Q, X, k), first_k(want, k))

    @given(filter_cases(), st.floats(0.0, 1.0))
    def test_radius_pairs_are_the_dense_edges(self, case, q):
        _, X, budget = case
        want = dense_sq_dists(X, X)
        # a radius that is one of the squared distances, so pairs sit on it
        lim = float(np.quantile(want[np.isfinite(want)], q, method="nearest"))
        with mock.patch.object(cluster, "_GRAM_MADDS", budget):
            u, v = cluster._radius_pairs(X, lim)
        assert np.array_equal(np.stack([u, v]), np.stack(np.nonzero(want <= lim)))

    @given(filter_cases(), st.data())
    def test_kth_distance_is_the_dense_one(self, case, data):
        _, X, budget = case
        want = dense_sq_dists(X, X)
        kk = data.draw(st.integers(0, len(X) - 1))
        with mock.patch.object(cluster, "_GRAM_MADDS", budget):
            got = cluster._kth_sq_dists(X, kk)
        assert np.array_equal(got, np.partition(want, kk, axis=1)[:, kk], equal_nan=True)

    @given(filter_cases(), st.data())
    def test_searches_hold_at_the_bound(self, case, data):
        """Every search stays exact when the expansion is as far off as its
        bound allows, the wrong way, and when it is NaN."""
        Q, X, _ = case
        want = dense_sq_dists(X, X)
        for k in sorted({1, data.draw(st.integers(1, len(X))), len(X)}):
            with mock.patch.object(cluster, "_gram_blocks", adversarial_gram(rank_winners(k))), \
                    mock.patch.object(classify, "_gram_blocks", cluster._gram_blocks):
                assert np.array_equal(nearest_of(Q, X, k), first_k(dense_sq_dists(Q, X), k))
                got = cluster._kth_sq_dists(X, k - 1)
            assert np.array_equal(got, np.partition(want, k - 1, axis=1)[:, k - 1],
                                  equal_nan=True)
        finite = want[np.isfinite(want)]
        lim = float(np.quantile(finite, data.draw(st.floats(0.0, 1.0)), method="nearest"))
        with mock.patch.object(cluster, "_gram_blocks", adversarial_gram(lambda K, a: K <= lim)):
            u, v = cluster._radius_pairs(X, lim)
        assert np.array_equal(np.stack([u, v]), np.stack(np.nonzero(want <= lim)))

    def test_far_query_keeps_every_column(self):
        # the query's squared norm overflows: the expansion is inf or NaN and
        # every exact distance inf, so the lowest columns win
        X = np.random.default_rng(0).uniform(0, 1, (6, 2))
        Q = np.array([[1e200, 1e200], [-1e200, 0.5], [0.5, 0.5]])
        want = dense_sq_dists(Q, X)
        for k in (1, 3, 6):
            assert np.array_equal(nearest_of(Q, X, k), first_k(want, k))


# ---------------------------------------------------------------------------
# MIN linkage and BIRCH against copies of their simpler forms
# ---------------------------------------------------------------------------

def loop_min_linkage_merge(points, k):
    """The merge with the merged row written back one member at a time."""
    n = len(points)
    d = np.sqrt(dense_sq_dists(points, points))
    d[np.tril_indices(n)] = np.inf
    members = {i: [i] for i in range(n)}
    while len(members) > k:
        a, b = (int(i) for i in np.unravel_index(int(d.argmin()), d.shape))
        members[a].extend(members.pop(b))
        merged_row = np.minimum(np.minimum(d[a, :], d[:, a]), np.minimum(d[b, :], d[:, b]))
        d[a, :] = d[:, a] = d[b, :] = d[:, b] = np.inf
        for c in members:
            if c != a:
                d[min(c, a), max(c, a)] = merged_row[c]
    return [members[key] for key in sorted(members)]


def rebuilt_nearest_entry(node, point):
    """The CF-tree descent step with the node's centroids rebuilt from its
    entries at every call."""
    cents = np.array([e.centroid for e in node.entries])
    return int(((cents - point) ** 2).sum(axis=1).argmin())


def cf_tree(node) -> list:
    """A CF tree as nested lists of each entry's count and sums, in order;
    every node's kept centroids must equal the ones rebuilt from its entries."""
    assert np.array_equal(node.cents, np.array([e.centroid for e in node.entries]))
    return [node.is_leaf, [(e.n, e.ls.tolist(), e.ss.tolist()) for e in node.entries],
            [cf_tree(child) for child in node.children]]


def birch_outcome(data, **params):
    try:
        result = birch(data, **params)
    except ParameterError as exc:
        return str(exc)
    return result.assignments.tolist(), result.meta["seeds"].tolist(), cf_tree(
        result.meta["cf_root"])


class TestKeptStateMatchesRebuild:
    @given(point_sets(), st.integers(1, 6))
    def test_min_linkage_merge(self, case, k):
        data, _, _ = case
        X = encode_for_clustering(data)
        k = min(k, len(X))
        assert _min_linkage_merge(X, k) == loop_min_linkage_merge(X, k)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.booleans(), st.integers(1, 8))
    def test_min_linkage_merge_on_grids_and_random_points(self, seed, n, grid, k):
        """Points on a 5-step integer grid in 2 or 3 dimensions tie many
        distances (and repeat points); normal points tie none.  The merge
        that keeps each row's minimum groups both as the whole-matrix search
        does."""
        rng = np.random.default_rng(seed)
        X = (rng.integers(0, 5, size=(n, rng.integers(2, 4))).astype(float) if grid
             else rng.normal(size=(n, rng.integers(1, 5))))
        k = min(k, n)
        assert _min_linkage_merge(X, k) == loop_min_linkage_merge(X, k)

    @given(point_sets(), st.integers(1, 3), st.integers(2, 5),
           st.sampled_from((0.05, 0.1, 0.2, 0.5)))
    def test_birch(self, case, k, branching, threshold):
        data, _, _ = case
        params = dict(k=k, branching=branching, threshold=threshold)
        kept = birch_outcome(data, **params)
        with mock.patch.object(cluster, "_nearest_entry", rebuilt_nearest_entry):
            assert kept == birch_outcome(data, **params)
