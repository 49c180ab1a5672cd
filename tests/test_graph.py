import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glemiml.errors import ConfigError, NumericError, ShapeError
from glemiml.graph import (
    LaplacianMatrix,
    WeightedGraph,
    laplacian,
    median_width,
    mutual_knn_adjacency,
    mutual_knn_median,
    mutual_knn_median_backward,
    pairwise_sq_dists,
    propagate_embeddings,
    smoothness_energy,
)


def random_graph(rng, n, k=2):
    pts = rng.normal(size=(n, 3))
    return mutual_knn_adjacency(pts, k, median_width(pts))


def brute_force_energy(adj, emb):
    total = 0.0
    n = adj.shape[0]
    for k in range(n):
        for m in range(n):
            total += adj[k, m] * np.sum((emb[k] - emb[m]) ** 2)
    return 0.5 * total


class TestMutualKnnAdjacency:
    def test_line_points_asymmetric_neighbors(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        g = mutual_knn_adjacency(pts, 1, 0.5)
        assert g.adjacency[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert g.adjacency[1, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)
        # node 2's neighbor (node 1) does not reciprocate
        assert np.all(g.adjacency[2] == 0.0) and np.all(g.adjacency[:, 2] == 0.0)

    def test_identical_points_weight_one(self):
        g = mutual_knn_adjacency(np.array([[1.0, 2.0], [1.0, 2.0]]), 1, 0.5)
        assert g.adjacency[0, 1] == 1.0

    def test_full_k_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 2))
        width = 0.7
        g = mutual_knn_adjacency(pts, 10, width)
        for a in range(6):
            for b in range(6):
                expect = 0.0 if a == b else np.exp(
                    -np.sum((pts[a] - pts[b]) ** 2) / (2 * width))
                assert g.adjacency[a, b] == pytest.approx(expect, abs=1e-12)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5, 9):
            g = random_graph(rng, n)
            assert np.array_equal(g.adjacency, g.adjacency.T)
            assert np.all(np.diag(g.adjacency) == 0.0)
            assert g.adjacency.min() >= 0.0 and g.adjacency.max() <= 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            mutual_knn_adjacency(np.array([[np.nan]]), 1, 1.0)

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigError):
            mutual_knn_adjacency(np.zeros((2, 1)), 1, 0.0)


class TestLaplacian:
    def test_unit_triangle(self):
        adj = np.ones((3, 3)) - np.eye(3)
        lap = laplacian(WeightedGraph(adj, 1.0, 2))
        expect = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        np.testing.assert_array_equal(lap.matrix, expect)

    def test_single_node(self):
        g = mutual_knn_adjacency(np.zeros((1, 2)), 1, 1.0)
        np.testing.assert_array_equal(laplacian(g).matrix, [[0.0]])

    def test_row_sums_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            lap = laplacian(random_graph(rng, int(rng.integers(2, 8))))
            assert np.abs(lap.matrix.sum(axis=1)).max() < 1e-10

    def test_psd_quadratic_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(2, 8)))
            lap = laplacian(g).matrix
            for _ in range(10):
                x = rng.normal(size=lap.shape[0])
                x /= np.linalg.norm(x)
                assert x @ lap @ x >= -1e-10


class TestPropagation:
    def test_zero_adjacency_zero_output(self):
        g = WeightedGraph(np.zeros((3, 3)), 1.0, 1)
        emb = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(propagate_embeddings(emb, g), np.zeros((3, 2)))

    def test_unit_edge_swaps_rows(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = WeightedGraph(adj, 1.0, 1)
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(propagate_embeddings(emb, g), emb[::-1])

    def test_triangle_neighbor_sums(self):
        adj = np.ones((3, 3)) - np.eye(3)
        g = WeightedGraph(adj, 1.0, 2)
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        out = propagate_embeddings(emb, g)
        np.testing.assert_allclose(out[0], emb[1] + emb[2])
        np.testing.assert_allclose(out[1], emb[0] + emb[2])
        np.testing.assert_allclose(out[2], emb[0] + emb[1])

    def test_shape_mismatch(self):
        g = WeightedGraph(np.zeros((3, 3)), 1.0, 1)
        with pytest.raises(ShapeError):
            propagate_embeddings(np.zeros((4, 2)), g)

    @given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        combined = propagate_embeddings(alpha * a + beta * b, g)
        split = alpha * propagate_embeddings(a, g) + beta * propagate_embeddings(b, g)
        np.testing.assert_allclose(combined, split, atol=1e-10)


class TestSmoothnessEnergy:
    def test_constant_rows_zero(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 5)
        emb = np.tile([1.0, 2.0], (5, 1))
        assert smoothness_energy(emb, laplacian(g)) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_hand_value(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        lap = laplacian(WeightedGraph(adj, 1.0, 1))
        emb = np.array([[0.0], [2.0]])
        assert smoothness_energy(emb, lap) == pytest.approx(4.0, abs=1e-12)

    def test_matches_pairwise_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 8)))
            emb = rng.normal(size=(g.num_nodes, 4))
            energy = smoothness_energy(emb, laplacian(g))
            assert energy >= 0.0
            assert energy == pytest.approx(brute_force_energy(g.adjacency, emb), abs=1e-9)


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
        assert median_width(np.zeros((3, 2))) == 1e-8
        assert median_width(np.zeros((1, 2))) == 1.0
