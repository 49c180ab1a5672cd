import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glemiml.data import Bag, pack_bags
from glemiml.enhancer import EnhancerModel, _graph_means
from glemiml.errors import ShapeError
from glemiml.graph import (
    _SORTED_MEDIAN_MIN_PAIRS,
    GraphPlan,
    _circulant_index,
    _plan,
    _ranked_pairs,
    mutual_knn_median,
    mutual_knn_median_backward,
    pairwise_sq_dists,
)
from glemiml.nets import DenseLayer, FeedForwardNet, softmax_rows

from per_bag_reference import sq_dists_by_feature, strided_sq_dists


def random_batch(rng, max_sets=4, max_points=8, p=3):
    """A zero-padded (sets, n, p) block of random point sets of 1..max_points points."""
    counts = rng.integers(1, max_points + 1, size=int(rng.integers(1, max_sets + 1)))
    real = np.arange(counts.max()) < counts[:, None]
    pts = np.where(real[:, :, None], rng.normal(size=real.shape + (p,)), 0.0)
    return pts, counts


def laplacians(adj):
    """diag(A 1) - A for each adjacency of a (sets, n, n) stack."""
    return adj.sum(axis=2)[:, :, None] * np.eye(adj.shape[1]) - adj


def brute_force_energy(adj, emb):
    total = 0.0
    n = adj.shape[0]
    for k in range(n):
        for m in range(n):
            total += adj[k, m] * np.sum((emb[k] - emb[m]) ** 2)
    return 0.5 * total


def identity_net(dim):
    return FeedForwardNet([DenseLayer(np.eye(dim), np.zeros(dim), "identity")])


def zero_net(in_dim, out_dim):
    return FeedForwardNet([DenseLayer(np.zeros((out_dim, in_dim)), np.zeros(out_dim), "identity")])


def graph_means(instance_sets, k=3):
    """Mean propagated embedding of each bag under an identity sigma net.

    The embeddings are then the instances themselves, so each row is the mean
    of A @ X over the bag, with A the bag's median-width mutual-KNN graph.
    """
    instance_sets = [np.asarray(x, dtype=float) for x in instance_sets]
    d = instance_sets[0].shape[1]
    model = EnhancerModel(sigma_net=identity_net(d), omega1_net=zero_net(d, 2),
                          omega2_net=zero_net(d, 2), omega3_net=zero_net(2, 2), instance_k=k)
    bags = [Bag(x, np.array([1, 0])) for x in instance_sets]
    return _graph_means(model, pack_bags(bags))[0]


class TestMutualKnnAdjacency:
    def test_line_points_asymmetric_neighbors(self):
        pts = np.array([[[0.0], [1.0], [10.0]]])
        adj = mutual_knn_median(pts, [3], 1)[0][0]
        # squared distances 1, 100 and 81: the median width is 81
        assert adj[0, 1] == pytest.approx(np.exp(-1.0 / 162.0), abs=1e-12)
        assert adj[1, 0] == adj[0, 1]
        # node 2's neighbor (node 1) does not reciprocate
        assert np.all(adj[2] == 0.0) and np.all(adj[:, 2] == 0.0)

    def test_identical_points_weight_one(self):
        adj = mutual_knn_median(np.array([[[1.0, 2.0], [1.0, 2.0]]]), [2], 1)[0][0]
        assert adj[0, 1] == 1.0

    def test_full_k_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 2))
        adj = mutual_knn_median(pts[None], [6], 10)[0][0]
        d2 = np.array([[np.sum((a - b) ** 2) for b in pts] for a in pts])
        width = np.median(d2[np.triu_indices(6, k=1)])
        for a in range(6):
            for b in range(6):
                expect = 0.0 if a == b else np.exp(-d2[a, b] / (2 * width))
                assert adj[a, b] == pytest.approx(expect, abs=1e-12)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(1)
        counts = np.array([1, 2, 5, 9])
        real = np.arange(9) < counts[:, None]
        pts = np.where(real[:, :, None], rng.normal(size=(4, 9, 3)), 0.0)
        adj = mutual_knn_median(pts, counts, 2)[0]
        assert np.array_equal(adj, adj.transpose(0, 2, 1))
        assert np.all(np.diagonal(adj, axis1=1, axis2=2) == 0.0)
        assert adj.min() >= 0.0 and adj.max() <= 1.0
        # padded rows and columns stay empty
        assert not adj[~(real[:, :, None] & real[:, None, :])].any()


class TestLaplacian:
    def test_unit_triangle(self):
        # three unit vectors are pairwise at squared distance 2, the median width
        adj = mutual_knn_median(np.eye(3)[None], [3], 2)[0]
        a = np.exp(-0.5)
        expect = a * np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        np.testing.assert_array_equal(laplacians(adj)[0], expect)

    def test_single_node(self):
        adj = mutual_knn_median(np.zeros((1, 1, 2)), [1], 1)[0]
        np.testing.assert_array_equal(laplacians(adj)[0], [[0.0]])
        # a one-point set padded in a batch
        pts = np.zeros((2, 3, 2))
        pts[1] = np.random.default_rng(0).normal(size=(3, 2))
        np.testing.assert_array_equal(laplacians(mutual_knn_median(pts, [1, 3], 1)[0])[0],
                                      np.zeros((3, 3)))

    def test_row_sums_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pts, counts = random_batch(rng)
            lap = laplacians(mutual_knn_median(pts, counts, 2)[0])
            assert np.abs(lap.sum(axis=2)).max() < 1e-10

    def test_psd_quadratic_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pts, counts = random_batch(rng)
            for lap in laplacians(mutual_knn_median(pts, counts, 2)[0]):
                for _ in range(10):
                    x = rng.normal(size=lap.shape[0])
                    x /= np.linalg.norm(x)
                    assert x @ lap @ x >= -1e-10


class TestPropagation:
    """The enhancer's propagation: the mean of A @ E over each bag."""

    def test_zero_adjacency_zero_output(self):
        # a one-instance bag has no edges
        np.testing.assert_array_equal(graph_means([[[1.0, 2.0]], [[3.0, -4.0]]]),
                                      np.zeros((2, 2)))

    def test_two_instance_bag_exchanges_rows(self):
        # the one pair sets the median width, so its weight is exp(-1/2) and
        # each row becomes the other's, scaled by it
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(graph_means([emb])[0],
                                   np.exp(-0.5) * emb[::-1].mean(axis=0), rtol=1e-15)

    def test_triangle_neighbor_sums(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        # squared distances 2, 5 and 5: width 5, and every pair is mutual
        a01, a02 = np.exp(-0.2), np.exp(-0.5)
        rows = [a01 * emb[1] + a02 * emb[2], a01 * emb[0] + a02 * emb[2],
                a02 * emb[0] + a02 * emb[1]]
        np.testing.assert_allclose(graph_means([emb], k=2)[0], np.mean(rows, axis=0),
                                   rtol=1e-14)

    def test_shape_mismatch(self):
        model = EnhancerModel(sigma_net=identity_net(3), omega1_net=zero_net(3, 2),
                              omega2_net=zero_net(3, 2), omega3_net=zero_net(2, 2))
        bag = Bag(np.zeros((4, 2)), np.array([1, 0]))
        with pytest.raises(ShapeError):
            _graph_means(model, pack_bags([bag]))

    @given(scale=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]),
           seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, scale, sign, seed):
        # A @ E is linear in E for a fixed graph, and the median width leaves
        # the graph unchanged when the embeddings are scaled
        rng = np.random.default_rng(seed)
        emb = [rng.normal(size=(n, 3)) for n in (5, 2, 4)]
        c = sign * scale
        np.testing.assert_allclose(graph_means([c * e for e in emb]), c * graph_means(emb),
                                   rtol=1e-10, atol=1e-12)


class TestSmoothnessEnergy:
    """trace(E^T L E) over the Laplacian of a mutual_knn_median graph."""

    def test_constant_rows_zero(self):
        rng = np.random.default_rng(4)
        lap = laplacians(mutual_knn_median(rng.normal(size=(1, 5, 3)), [5], 2)[0])[0]
        emb = np.tile([1.0, 2.0], (5, 1))
        assert np.trace(emb.T @ lap @ emb) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_hand_value(self):
        # one pair: the median width is its squared distance, the weight exp(-1/2)
        lap = laplacians(mutual_knn_median(np.array([[[0.0], [3.0]]]), [2], 1)[0])[0]
        emb = np.array([[0.0], [2.0]])
        assert np.trace(emb.T @ lap @ emb) == pytest.approx(4.0 * np.exp(-0.5), abs=1e-12)

    def test_matches_pairwise_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pts, counts = random_batch(rng)
            adj = mutual_knn_median(pts, counts, 2)[0]
            for a, lap, n in zip(adj, laplacians(adj), counts):
                emb = rng.normal(size=(n, 4))
                energy = np.trace(emb.T @ lap[:n, :n] @ emb)
                assert energy >= 0.0
                assert energy == pytest.approx(brute_force_energy(a[:n, :n], emb), abs=1e-9)


class TestMedianWidthGradients:
    def test_adjacency_gradient_matches_finite_differences(self):
        # a padded batch of a 5-point set, a 1-point set and a 3-point set
        rng = np.random.default_rng(6)
        counts = np.array([5, 1, 3])
        real = np.arange(5) < counts[:, None]
        pts = np.where(real[:, :, None], rng.normal(size=(3, 5, 3)), 0.0)
        upstream = rng.normal(size=(3, 5, 5))

        def scalar(p):
            adj, _ = mutual_knn_median(p, counts, 2)
            return float(np.sum(adj * upstream))

        adj, cache = mutual_knn_median(pts, counts, 2)
        analytic = mutual_knn_median_backward(cache, upstream)
        eps = 1e-6
        assert not analytic[~real].any()
        for b, i in zip(*np.nonzero(real)):
            for j in range(pts.shape[2]):
                p = pts.copy()
                p[b, i, j] += eps
                up = scalar(p)
                p[b, i, j] -= 2 * eps
                dn = scalar(p)
                numeric = (up - dn) / (2 * eps)
                assert abs(analytic[b, i, j] - numeric) / max(
                    1e-8, abs(analytic[b, i, j]) + abs(numeric)) < 1e-4

    def test_median_width_floor(self):
        # coincident points are floored; a set with no pairs gets width 1
        _, cache = mutual_knn_median(np.zeros((2, 3, 2)), [3, 1], 1)
        np.testing.assert_array_equal(cache["width"], [1e-8, 1.0])


# The cache entries that mutual_knn_median_backward reads.
CACHE_ARRAYS = ("points", "d2", "mask", "adj", "width", "med_rows", "med_cols", "med_weights")


def ragged_block(rng, counts, p, ties):
    """A zero-padded (sets, max(counts), p) block; `ties` makes equal distances or points."""
    points = np.zeros((len(counts), counts.max(), p))
    for i, c in enumerate(counts):
        x = rng.normal(size=(c, p))
        if ties == "rounded":
            x = np.round(x)
        elif ties == "duplicates":
            x[1:c // 2 + 1] = x[0]
        elif ties == "coincident" and i % 2 == 0:
            x[:] = x[0]
        points[i, :c] = x
    return points


class TestPlansAndForwardOnly:
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans(), p=st.integers(1, 50),
           ties=st.sampled_from(["none", "rounded", "duplicates", "coincident"]),
           k=st.integers(1, 50), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_forward_only_and_warm_plans_change_no_bit(self, seed, wide, p, ties, k, data):
        """Forward-only and warm-plan builds equal a cold full build bit for bit.

        Padded N falls below and above the width p, so both distance paths
        run; wide blocks have at least _SORTED_MEDIAN_MIN_PAIRS pairs and take
        the sorted median search, narrow ones the stable argsort. Rounded
        coordinates and duplicate points tie distances, coincident points
        floor a width, and sets of one point and k >= n occur.
        """
        def draw_counts():
            n_sets = data.draw(st.integers(6, 10) if wide else st.integers(1, 5))
            counts = np.array(data.draw(st.lists(st.integers(1, 45 if wide else 30),
                                                 min_size=n_sets, max_size=n_sets)))
            if wide:
                counts[0] = 45
            return counts

        rng = np.random.default_rng(seed)
        counts = draw_counts()
        n = counts.max()
        assert (len(counts) * (n * (n - 1) // 2) >= _SORTED_MEDIAN_MIN_PAIRS) == wide
        points = ragged_block(rng, counts, p, ties)

        cold, cold_cache = mutual_knn_median(points, counts, k)
        forward_only, no_cache = mutual_knn_median(points, counts, k, grad=False)
        assert no_cache is None and forward_only.tobytes() == cold.tobytes()
        if n < 2:
            return
        upstream = rng.normal(size=cold.shape)
        cold_grad = mutual_knn_median_backward(cold_cache, upstream)

        # another block first puts another plan in the memo
        other = draw_counts()
        mutual_knn_median(ragged_block(rng, other, p, ties), other, k)
        mutual_knn_median(points, counts, k)
        plan = _plan(counts.astype(np.int64).tobytes(), n, k)
        warm, warm_cache = mutual_knn_median(points, counts, k)
        assert warm_cache["plan"] is plan
        assert warm.tobytes() == cold.tobytes()
        for key in CACHE_ARRAYS:
            assert warm_cache[key].tobytes() == cold_cache[key].tobytes(), key
        assert mutual_knn_median_backward(warm_cache, upstream).tobytes() == cold_grad.tobytes()
        # the forward-only build on the memo's plan, as train()'s second pass runs it
        forward_only = mutual_knn_median(points, counts, k, grad=False)[0]
        assert forward_only.tobytes() == cold.tobytes()


def label_points(rng, bags, labels, rounded=False, tied=False):
    """A label graph's points: the (1, labels, bags) feature-major view of a softmax batch."""
    d0 = softmax_rows(rng.normal(size=(bags, labels)) * rng.uniform(0.1, 5.0))
    if rounded:
        d0 = np.round(d0, 2)
    if tied:
        d0[:, -1] = d0[:, 0]
    return d0.T[None]


class TestInOrderDistances:
    """pairwise_sq_dists on every stack it adds up one feature at a time."""

    @given(seed=st.integers(0, 2**32 - 1), sets=st.integers(1, 24), n=st.integers(2, 100),
           features=st.integers(1, 130), feature_major=st.booleans(), rounded=st.booleans(),
           buffered=st.booleans())
    @settings(max_examples=80, deadline=None)
    @example(seed=1, sets=7, n=30, features=8, feature_major=False, rounded=False, buffered=True)
    @example(seed=2, sets=3, n=91, features=8, feature_major=False, rounded=True, buffered=False)
    @example(seed=3, sets=1, n=2, features=1, feature_major=False, rounded=False, buffered=True)
    @example(seed=4, sets=1, n=30, features=2000, feature_major=True, rounded=True, buffered=True)
    @example(seed=5, sets=1, n=2, features=2100, feature_major=True, rounded=True, buffered=True)
    @example(seed=6, sets=1, n=3, features=1000, feature_major=True, rounded=True, buffered=True)
    @example(seed=7, sets=1, n=4, features=600, feature_major=True, rounded=True, buffered=False)
    @example(seed=8, sets=7, n=50, features=8, feature_major=False, rounded=False, buffered=True)
    @example(seed=9, sets=1, n=6, features=32, feature_major=True, rounded=False, buffered=True)
    @example(seed=10, sets=24, n=5, features=3, feature_major=False, rounded=True, buffered=True)
    @example(seed=11, sets=24, n=5, features=8, feature_major=False, rounded=False, buffered=True)
    @example(seed=12, sets=5, n=2, features=4, feature_major=False, rounded=True, buffered=False)
    def test_equals_the_feature_by_feature_sum_bit_for_bit(self, seed, sets, n, features,
                                                           feature_major, rounded, buffered):
        """Row-major sets of up to twice as many features as points, and
        single feature-major sets of any width, the label graph's layout,
        give the bytes of adding each feature's squared differences to a
        running sum in feature order, with +0.0 on the diagonal. Each pair is
        computed once, at offsets 1..n//2: two or three points take one
        offset, and at an even n the last offset holds every pair twice (2,
        4, 6 and 50 points). Small stacks take the same layout (a 6-label
        graph over 32 bags, 24 sets of five points with three features or
        with eight, the default embedding width, and sets of two points with
        four). Steps of about _DIST_BLOCK elements hold several sets (50
        points, 8 features: three sets, so seven end part-way through a
        step) or split one set's features (91 points: a block of seven
        feature rows, then the running sum and the eighth), and a set may
        have one feature and two points. Another stack first puts another n's
        gather index in the memo."""
        p = features if feature_major else 1 + (features - 1) % (2 * n)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(p, n) if feature_major else (sets, n, p))
        if rounded:
            values = np.round(values, 1)
        points = values.T[None] if feature_major else values
        if buffered:  # another stack first
            pairwise_sq_dists(rng.normal(size=(sets + 2, n + 3, 2)))
        d2 = pairwise_sq_dists(points)
        assert d2.shape == points.shape[:-1] + (n,)
        assert d2.tobytes() == sq_dists_by_feature(points).tobytes()
        diagonal = np.diagonal(d2, axis1=-2, axis2=-1)
        assert diagonal.tobytes() == np.zeros(diagonal.shape).tobytes()


class TestLabelLayoutDistances:
    """pairwise_sq_dists on a single feature-major set, the label graph's layout."""

    @given(seed=st.integers(0, 2**32 - 1), labels=st.integers(2, 40),
           extra=st.integers(1, 560), rounded=st.booleans(), tied=st.booleans(),
           buffered=st.booleans())
    @settings(max_examples=60, deadline=None)
    @example(seed=7, labels=30, extra=1970, rounded=False, tied=False, buffered=False)
    @example(seed=8, labels=40, extra=1, rounded=True, tied=True, buffered=True)
    def test_equals_the_strided_einsum_bit_for_bit(self, seed, labels, extra, rounded, tied,
                                                   buffered):
        """Squared differences are added bag by bag, in bag order, as the former
        einsum over this layout added them. 2,000 bags of 30 labels span 31
        blocks, the last of 49 bags; 41 bags of 40 labels end in a three-bag
        block. Rounded distributions tie distances, and a label column copied
        onto another gives a pair at distance exactly zero."""
        # more bags than labels, the label graph's usual shape
        bags = labels + extra
        points = label_points(np.random.default_rng(seed), bags, labels, rounded, tied)
        if buffered:  # another stack first
            pairwise_sq_dists(label_points(np.random.default_rng(seed + 1), bags + 7, labels))
        d2 = pairwise_sq_dists(points)
        assert d2.shape == (1, labels, labels)
        assert d2.tobytes() == strided_sq_dists(points).tobytes()

    def test_forward_only_label_graph_build_stays_small(self):
        """A forward-only 30-label graph over 2,000 bags holds one block
        buffer of at most _DIST_BLOCK elements (256 KiB) and a few (30, 30)
        arrays. The former einsum formed (2, 30, 2000) difference chunks,
        0.96 MB each."""
        points = label_points(np.random.default_rng(0), 2000, 30)
        mutual_knn_median(points, [30], 3, grad=False)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mutual_knn_median(points, [30], 3, grad=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


def mutual_pair_weights(cache):
    """The Gaussian weights of a build's cache, written out over every entry and then masked."""
    width = cache["width"][:, None, None]
    return np.exp(-cache["d2"] / (2 * width)) * cache["mask"]


class TestMutualPairWeights:
    """The adjacency holds exp(-d2 / (2 w)) on mutual pairs and +0.0 elsewhere."""

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 12), k=st.integers(1, 6),
           ties=st.sampled_from(["none", "rounded", "duplicates", "coincident"]),
           counts=st.lists(st.integers(1, 45), min_size=1, max_size=8), data=st.data())
    @settings(max_examples=60, deadline=None)
    @example(seed=1, p=3, k=2, ties="coincident", counts=[3, 2, 1], data=None)
    @example(seed=2, p=8, k=3, ties="none", counts=[45, 1, 2, 3, 45, 30, 45, 40], data=None)
    def test_equals_the_masked_full_exp_bit_for_bit(self, seed, p, k, ties, counts, data):
        """Random sets, coincident points (d2 = 0 and floored widths), sets
        of 1-3 points padded in a batch, blocks on both sides of
        _SORTED_MEDIAN_MIN_PAIRS, and mutual pairs that take most cells
        (few points, large k) or few of them, with grad=True and
        grad=False."""
        counts = np.array(counts)
        points = ragged_block(np.random.default_rng(seed), counts, p, ties)
        adj, cache = mutual_knn_median(points, counts, k)
        forward_only = mutual_knn_median(points, counts, k, grad=False)[0]
        if counts.max() < 2:
            assert not adj.any() and not forward_only.any()
            return
        expected = mutual_pair_weights(cache).tobytes()
        assert adj.tobytes() == expected
        assert forward_only.tobytes() == expected

    def test_coincident_points_weigh_one_and_floor_the_width(self):
        # set 0: three coincident points, so d2 = 0 and the width is floored;
        # set 1: one point padded to three
        points = np.zeros((2, 3, 2))
        points[0] = [1.0, -2.0]
        adj, cache = mutual_knn_median(points, [3, 1], 2)
        np.testing.assert_array_equal(cache["width"], [1e-8, 1.0])
        assert adj.tobytes() == mutual_pair_weights(cache).tobytes()
        np.testing.assert_array_equal(adj[0], 1.0 - np.eye(3))
        assert not adj[1].any()

    @staticmethod
    def check_non_finite(points, k):
        """The adjacency of a block holding NaN points: the full formula's
        weights on the mutual pairs, NaN included, and +0.0 everywhere else,
        where the masked full exp leaves NaN. Returns the mask."""
        counts = [points.shape[1]] * len(points)
        cache = mutual_knn_median(points, counts, k)[1]
        mask = cache["mask"]
        with np.errstate(invalid="ignore"):
            full = np.exp(-cache["d2"] / (2 * cache["width"][:, None, None]))
        assert np.isnan(full[~mask]).any()
        for grad in (True, False):
            adj = mutual_knn_median(points, counts, k, grad=grad)[0]
            assert adj[mask].tobytes() == full[mask].tobytes()
            assert adj[~mask].tobytes() == np.zeros(np.count_nonzero(~mask)).tobytes()
        return cache

    def test_non_finite_point_leaves_zeros_off_sparse_mutual_pairs(self):
        """A NaN coordinate makes its point's distances NaN, its own on the
        diagonal too, and enough NaN points make the width NaN. Here the
        mutual pairs are a small share of the cells (40 points, k = 2)."""
        points = np.random.default_rng(11).normal(size=(3, 40, 3))
        points[0, 2, 1] = np.nan  # one point: the width stays finite
        points[1, :30, 0] = np.nan  # most points: the median pair is NaN
        cache = self.check_non_finite(points, 2)
        assert np.count_nonzero(cache["mask"]) <= cache["mask"].size // 8
        assert np.isfinite(cache["width"][[0, 2]]).all() and np.isnan(cache["width"][1])

    def test_non_finite_point_leaves_zeros_off_dense_mutual_pairs(self):
        """The same where mutual pairs take most cells (5 points, k = 4: every
        pair of a finite set), so that only the diagonal and a NaN width's
        set lie off them. A build whose mutual pairs took more than an eighth
        of its cells used to exponentiate every cell and leave NaN there."""
        points = np.random.default_rng(12).normal(size=(3, 5, 3))
        points[0, 2, 1] = np.nan  # one point: the width stays finite
        points[1, :4, 0] = np.nan  # most points: the median pair is NaN
        cache = self.check_non_finite(points, 4)
        assert np.count_nonzero(cache["mask"]) > cache["mask"].size // 8
        assert np.isfinite(cache["width"][[0, 2]]).all() and np.isnan(cache["width"][1])


def test_memoised_plans_and_gather_indices_are_shared_and_read_only():
    """Builds of the same (counts, N, k), and both workers of a chunked
    enhancer pass, share one GraphPlan, and stacks of the same n one gather
    index, so writing into either raises."""
    counts = np.array([4, 2, 3])
    points = np.random.default_rng(0).normal(size=(3, 4, 2))
    plan = mutual_knn_median(points, counts, 2)[1]["plan"]
    assert plan is _plan(counts.tobytes(), 4, 2)
    for name, array in vars(plan).items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array
    index = _circulant_index(4)
    assert index is _circulant_index(4)
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 0


class TestRankedPairs:
    """_ranked_pairs on blocks large enough for its sorted search."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 40),
           tie=st.sampled_from(["none", "at", "below", "above", "neighbours", "nan", "nan_mid"]),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    @example(seed=3, n=30, tie="at", data=None)
    @example(seed=4, n=21, tie="nan_mid", data=None)
    def test_equals_the_stable_argsort(self, seed, n, tie, data):
        """Each row's middle ranks name the columns a stable argsort puts
        there: rows with a tie at a middle rank, next to one (ranks r - 1 and
        r - 2 equal, or r + 1 and r + 2), or among neighbours on both sides,
        rows holding NaN anywhere or from the middle on, and padded pairs of
        smaller sets (+inf, sorted last) with sets of one and two points."""
        rng = np.random.default_rng(seed)
        sets = -(-_SORTED_MEDIAN_MIN_PAIRS // (n * (n - 1) // 2))
        counts = rng.integers(1, n + 1, size=sets)
        counts[0] = n
        plan = GraphPlan(counts, n, 3)
        assert sets * plan.flat.size >= _SORTED_MEDIAN_MIN_PAIRS
        vals = np.round(rng.uniform(0.0, 50.0, size=(sets, plan.flat.size)), 3)
        vals[plan.cols[None, :] >= counts[:, None]] = np.inf
        order = np.argsort(vals, axis=1, kind="stable")
        for row, rank in zip(range(sets), plan.ranks[:, 0]):
            at = order[row]
            if tie == "at":
                vals[row, at[rank + 1]] = vals[row, at[rank]]
            elif tie == "below" and rank >= 2:
                vals[row, at[rank - 1]] = vals[row, at[rank - 2]]
            elif tie == "above":
                vals[row, at[rank + 2]] = vals[row, at[rank + 1]]
            elif tie == "neighbours" and rank >= 1:
                vals[row, at[rank - 1]] = vals[row, at[rank]]
                vals[row, at[rank + 2]] = vals[row, at[rank + 1]] = vals[row, at[rank]]
            elif tie == "nan":
                vals[row, rng.integers(0, vals.shape[1])] = np.nan
            elif tie == "nan_mid":
                vals[row, at[rank:]] = np.nan
        expected = np.argsort(vals, axis=1, kind="stable")[plan.sets, plan.ranks]
        np.testing.assert_array_equal(_ranked_pairs(vals, plan), expected)
