import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glemiml.data import Bag, pack_bags
from glemiml.errors import ConfigError, ShapeError
from glemiml.losses import (
    SIM_MODES,
    LossWeights,
    asymmetric_interaction_loss,
    classifier_total_loss,
    distribution_loss,
    enhancer_total_loss,
    logical_bce_loss,
    similarity_loss,
    threshold_loss,
)


def fd_grad(f, x, eps=1e-6):
    """Central differences of the value f(x)[0] of a (value, gradient) loss."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        g[idx] = (f(xp)[0] - f(xm)[0]) / (2 * eps)
    return g


class TestLossWeights:
    def test_betas_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            LossWeights(beta1=0.5, beta2=0.5, beta3=0.5)

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            LossWeights(rho=1.5)

    def test_defaults_valid(self):
        w = LossWeights()
        assert w.beta1 + w.beta2 + w.beta3 == pytest.approx(1.0, abs=1e-15)


class TestInteractionLoss:
    def test_perfect_confident_match(self):
        v = np.array([1.0 - 1e-7])
        loss, _ = asymmetric_interaction_loss(v, v, np.array([1]), 0.0, 4.0)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_single_positive_half(self):
        loss, _ = asymmetric_interaction_loss(
            np.array([0.5]), np.array([0.5]), np.array([1]), 0.0, 4.0)
        assert loss == pytest.approx(0.6931, abs=1e-4)

    def test_mixed_hand_value(self):
        # pos (p=0.8, p*=0.9, g+=1) and neg (p=0.3, p*=0.2, g-=2)
        loss, _ = asymmetric_interaction_loss(
            np.array([0.8, 0.3]), np.array([0.9, 0.2]), np.array([1, 0]), 1.0, 2.0)
        assert loss == pytest.approx(0.02058, abs=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            asymmetric_interaction_loss(np.zeros(2), np.zeros(3), np.zeros(3), 0, 0)

    @pytest.mark.parametrize("gp,gn", [(0.0, 4.0), (1.0, 2.0), (2.0, 0.0)])
    def test_grad_matches_fd(self, gp, gn):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, size=(3, 4))
        ps = rng.uniform(0.05, 0.95, size=(3, 4))
        lab = rng.integers(0, 2, size=(3, 4))
        _, g_ps = asymmetric_interaction_loss(p, ps, lab, gp, gn)
        fd_ps = fd_grad(lambda x: asymmetric_interaction_loss(p, x, lab, gp, gn), ps)
        np.testing.assert_allclose(g_ps, fd_ps, rtol=1e-5, atol=1e-8)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0, 1, size=5)
        ps = rng.uniform(0, 1, size=5)
        lab = rng.integers(0, 2, size=5)
        assert asymmetric_interaction_loss(p, ps, lab, 0.5, 3.0)[0] >= 0.0


def make_bag(rows, labels=(1, 0)):
    return Bag(np.asarray(rows, dtype=float), np.asarray(labels))


def pack(bags):
    return pack_bags(bags, bag_features=True)


def one_instance_bags(rows):
    """A batch of one-instance bags whose bag features are `rows`."""
    return pack([make_bag([row]) for row in rows])


def cosines(rows):
    """Brute-force cosine matrix of non-zero rows."""
    return np.array([[x @ y / (np.linalg.norm(x) * np.linalg.norm(y)) for y in rows]
                     for x in np.asarray(rows, dtype=float)])


class TestSimilarityMatrices:
    """The two cosine matrices, read through the loss value."""

    def test_identical_bags_and_distributions(self):
        bags = pack([make_bag([[1.0, 2.0]]), make_bag([[1.0, 2.0]])])
        d = np.array([[0.7, 0.3], [0.7, 0.3]])
        for mode in SIM_MODES:
            assert similarity_loss(bags, d, mode)[0] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pooled_features(self):
        bags = pack([make_bag([[1.0, 0.0]]), make_bag([[0.0, 1.0]])])
        d = np.array([[0.5, 0.5], [0.5, 0.5]])
        # Z = I against A = ones: the off-diagonal deviations are -1
        assert similarity_loss(bags, d, "mse")[0] == pytest.approx(0.5, abs=1e-12)
        assert similarity_loss(bags, d, "eq9-literal")[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        bags = [make_bag(rng.normal(size=(int(rng.integers(1, 4)), 3))) for _ in range(5)]
        d = rng.uniform(0.01, 1.0, size=(5, 2))
        dev = cosines([bag.instances.mean(axis=0) for bag in bags]) - cosines(d)
        assert similarity_loss(pack(bags), d, "mse")[0] == pytest.approx(
            np.mean(dev * dev), abs=1e-12)
        assert similarity_loss(pack(bags), d, "eq9-literal")[0] == pytest.approx(
            (dev.sum() / 5) ** 2, abs=1e-12)

    def test_zero_vector_convention(self):
        bags = pack([make_bag([[0.0, 0.0]]), make_bag([[1.0, 0.0]])])
        d = np.array([[0.5, 0.5], [0.5, 0.5]])
        # Z = [[0, 0], [0, 1]] against A = ones
        assert similarity_loss(bags, d, "mse")[0] == pytest.approx(0.75, abs=1e-12)
        # and a zero distribution row: A = [[0, 0], [0, 1]] against Z = ones
        bags = pack([make_bag([[1.0, 1.0]]), make_bag([[2.0, 2.0]])])
        d = np.array([[0.0, 0.0], [0.5, 0.5]])
        assert similarity_loss(bags, d, "mse")[0] == pytest.approx(0.75, abs=1e-12)


class TestSimilarityLoss:
    def test_zero_deviation_both_modes(self):
        rows = np.random.default_rng(2).normal(size=(3, 2))
        for mode in SIM_MODES:
            value, grad = similarity_loss(one_instance_bags(rows), rows.copy(), mode)
            assert value == 0.0
            assert not grad.any()

    def test_hand_values(self):
        bags = one_instance_bags([[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)]])  # cosine 0.9
        d = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])  # cosine 0.5
        # off-diagonal deviations +0.4, +0.4
        assert similarity_loss(bags, d, "eq9-literal")[0] == pytest.approx(0.16, abs=1e-12)
        assert similarity_loss(bags, d, "mse")[0] == pytest.approx(0.08, abs=1e-12)

    def test_cancellation(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        # A is Z with rows and columns permuted: deviations -1/sqrt2 and +1/sqrt2
        d = rows[[2, 1, 0]]
        assert similarity_loss(one_instance_bags(rows), d, "eq9-literal")[0] == pytest.approx(
            0.0, abs=1e-12)
        assert similarity_loss(one_instance_bags(rows), d, "mse")[0] == pytest.approx(
            2.0 / 9.0, abs=1e-12)

    def test_mse_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        bags = one_instance_bags(rng.normal(size=(3, 3)))
        assert similarity_loss(bags, rng.uniform(size=(3, 3)), "mse")[0] > 0.0

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            similarity_loss(one_instance_bags(np.eye(2)), np.eye(2), "nope")

    @pytest.mark.parametrize("mode", SIM_MODES)
    def test_grad_matches_fd(self, mode):
        rng = np.random.default_rng(3)
        bags = pack([make_bag(rng.normal(size=(int(rng.integers(1, 4)), 3))) for _ in range(4)])
        d = rng.dirichlet(np.ones(4), size=4)
        _, g = similarity_loss(bags, d, mode)
        fd = fd_grad(lambda x: similarity_loss(bags, x, mode), d)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)


class TestCosineBackward:
    """The similarity gradient pushed back through the distributions' cosine matrix."""

    def test_matches_fd(self):
        rng = np.random.default_rng(4)
        bags = one_instance_bags(rng.normal(size=(4, 3)))
        rows = rng.normal(size=(4, 3))  # signed rows: cosines of both signs
        _, g = similarity_loss(bags, rows, "mse")
        fd = fd_grad(lambda x: similarity_loss(bags, x, "mse"), rows)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("mode", SIM_MODES)
    def test_zero_norm_rows(self, mode):
        rng = np.random.default_rng(10)
        bags = [make_bag(rng.normal(size=(2, 3))) for _ in range(4)]
        bags[0] = make_bag([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]])  # its mean is zero
        d = rng.dirichlet(np.ones(3), size=4)
        d[2] = 0.0
        value, g = similarity_loss(pack(bags), d, mode)
        assert np.isfinite(value) and np.isfinite(g).all()
        assert (g[2] == 0.0).all()
        # a zero row has no derivative; the others do, the zero-mean bag's row too
        fd = fd_grad(lambda x: similarity_loss(pack(bags), x, mode), d)
        others = [0, 1, 3]
        np.testing.assert_allclose(g[others], fd[others], rtol=1e-5, atol=1e-9)


class TestThresholdLoss:
    def test_separated_case(self):
        d = np.array([[0.7, 0.2, 0.4]])
        lab = np.array([[1, 0, 0]])
        assert threshold_loss(d, lab)[0] == 0.0

    def test_violated_case(self):
        d = np.array([[0.3, 0.5, 0.1]])
        lab = np.array([[1, 0, 0]])
        assert threshold_loss(d, lab)[0] == pytest.approx(0.2, abs=1e-12)

    def test_two_bag_average(self):
        d = np.array([[0.3, 0.5, 0.1], [0.7, 0.2, 0.4]])
        lab = np.array([[1, 0, 0], [1, 0, 0]])
        assert threshold_loss(d, lab)[0] == pytest.approx(0.1, abs=1e-12)

    def test_skips_ineligible_bags(self):
        d = np.array([[0.3, 0.5], [0.6, 0.4]])
        lab = np.array([[1, 1], [1, 0]])  # first bag has no negative
        assert threshold_loss(d, lab)[0] == pytest.approx(0.0, abs=1e-12)

    def test_all_skipped_is_zero(self):
        value, grad = threshold_loss(np.array([[0.5, 0.5], [0.2, 0.8]]),
                                     np.array([[1, 1], [0, 0]]))
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 2)))

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0, 1, size=(4, 5))
        lab = np.array([[1, 0, 0, 1, 0], [0, 1, 1, 0, 0],
                        [1, 1, 0, 0, 1], [0, 0, 0, 1, 1]])
        _, g = threshold_loss(d, lab)
        fd = fd_grad(lambda x: threshold_loss(x, lab), d)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


class TestEnhancerTotal:
    def test_vertex(self):
        w = LossWeights(beta1=1.0, beta2=0.0, beta3=0.0)
        assert enhancer_total_loss(w, 0.7, 99.0, 99.0) == 0.7

    def test_uniform(self):
        w = LossWeights()
        assert enhancer_total_loss(w, 0.3, 0.6, 0.9) == pytest.approx(0.6, abs=1e-12)

    def test_zero_components(self):
        assert enhancer_total_loss(LossWeights(), 0.0, 0.0, 0.0) == 0.0


class TestDistributionLoss:
    def test_single_label_zero(self):
        assert distribution_loss(np.array([[1.0]]), np.array([[3.2]]))[0] == 0.0

    def test_one_hot_uniform_logits(self):
        loss, _ = distribution_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-10)

    def test_uniform_d_uniform_logits(self):
        loss, _ = distribution_loss(np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-10)

    def test_equals_softmax_cross_entropy(self):
        rng = np.random.default_rng(6)
        d = rng.dirichlet(np.ones(5), size=4)
        s = rng.normal(size=(4, 5))
        lse = np.log(np.exp(s).sum(axis=1, keepdims=True))
        expect = float(np.mean(np.sum(d * (lse - s), axis=1)))
        assert distribution_loss(d, s)[0] == pytest.approx(expect, abs=1e-12)

    def test_nonnegative_on_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = rng.dirichlet(np.ones(4), size=3)
            s = rng.normal(scale=5, size=(3, 4))
            assert distribution_loss(d, s)[0] >= 0.0

    def test_grads_match_fd(self):
        rng = np.random.default_rng(8)
        d = rng.dirichlet(np.ones(4), size=3)
        s = rng.normal(size=(3, 4))
        _, g_s = distribution_loss(d, s)
        np.testing.assert_allclose(g_s, fd_grad(lambda x: distribution_loss(d, x), s),
                                   rtol=1e-6, atol=1e-9)


class TestLogicalBce:
    def test_perfect_prediction(self):
        lab = np.array([[1.0, 0.0]])
        p = np.array([[1.0 - 1e-7, 1e-7]])
        assert logical_bce_loss(p, lab)[0] == pytest.approx(0.0, abs=1e-6)

    def test_half_everywhere(self):
        p = np.full((3, 4), 0.5)
        lab = np.zeros((3, 4))
        assert logical_bce_loss(p, lab)[0] == pytest.approx(0.6931, abs=1e-4)

    def test_flipping_label_increases_loss(self):
        p = np.array([[0.9, 0.1]])
        base, _ = logical_bce_loss(p, np.array([[1.0, 0.0]]))
        flipped, _ = logical_bce_loss(p, np.array([[0.0, 0.0]]))
        assert flipped > base

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(0.05, 0.95, size=(3, 4))
        lab = rng.integers(0, 2, size=(3, 4)).astype(float)
        _, g = logical_bce_loss(p, lab)
        fd = fd_grad(lambda x: logical_bce_loss(x, lab), p)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)


class TestClassifierTotal:
    def test_boundaries(self):
        assert classifier_total_loss(LossWeights(rho=1.0), 0.4, 0.8) == 0.4
        assert classifier_total_loss(LossWeights(rho=0.0), 0.4, 0.8) == 0.8

    def test_midpoint(self):
        assert classifier_total_loss(LossWeights(rho=0.5), 0.4, 0.8) == pytest.approx(0.6, abs=1e-12)

    def test_out_of_range(self):
        # rho is checked once, where the weights are made; test_rho_range covers the upper end
        with pytest.raises(ConfigError):
            LossWeights(rho=-0.1)
