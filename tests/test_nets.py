import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glemiml.errors import ConfigError, ShapeError
from glemiml.nets import (
    DenseLayer,
    FeedForwardNet,
    backward_batch,
    forward_batch,
    grad_check,
    grads_to_vector,
    init_net,
    net_from_json_dict,
    net_to_json_dict,
    net_to_vector,
    num_params,
    read_checkpoint,
    vector_to_net,
)


def identity_net(dim):
    return FeedForwardNet([DenseLayer(np.eye(dim), np.zeros(dim), "identity")])


def forward(net, x):
    """forward_batch on a batch of one row."""
    return forward_batch(net, np.asarray(x, dtype=np.float64)[None, :])[0][0]


def backward(net, x, upstream):
    """backward_batch on a batch of one row: (flat parameter gradient, input gradient)."""
    _, cache = forward_batch(net, x[None, :])
    param_grads, g_in = backward_batch(net, cache, upstream[None, :])
    return grads_to_vector(param_grads), g_in[0]


class TestForward:
    def test_identity_layer(self):
        net = identity_net(3)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(forward(net, x), x)

    def test_sigmoid_layer_rejected(self):
        with pytest.raises(ConfigError, match="unknown activation 'sigmoid'"):
            DenseLayer(np.zeros((2, 3)), np.zeros(2), "sigmoid")

    def test_relu_clips(self):
        net = FeedForwardNet([DenseLayer(np.array([[-1.0]]), np.zeros(1), "relu")])
        np.testing.assert_array_equal(forward(net, np.array([2.0])), [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward(identity_net(3), np.zeros(4))

    def test_determinism(self):
        net = init_net([4, 5, 2], "tanh", seed=1)
        x = np.linspace(-1, 1, 4)
        a = forward(net, x)
        b = forward(net, x)
        assert (a == b).all()

    @given(seed=st.integers(0, 2**32 - 1),
           activations=st.lists(st.sampled_from(["identity", "relu", "tanh"]), min_size=1, max_size=3),
           rows=st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    @settings(max_examples=60, deadline=None)
    def test_forward_only_pass_is_bit_identical(self, seed, activations, rows):
        """grad=False computes each layer in place, with the same operations."""
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 40, size=len(activations) + 1)
        net = FeedForwardNet([
            DenseLayer(rng.normal(size=(fan_out, fan_in)), rng.normal(size=fan_out), act)
            for fan_in, fan_out, act in zip(dims, dims[1:], activations)
        ])
        x = rng.normal(scale=3.0, size=(rows, dims[0]))
        before = x.copy()
        out, cache = forward_batch(net, x, grad=False)
        want = forward_batch(net, x)[0]
        assert cache is None
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        net = init_net([3, 4, 2], "tanh", seed=0)
        pg, gi = backward(net, np.ones(3), np.zeros(2))
        assert np.all(pg == 0.0) and np.all(gi == 0.0)

    def test_linear_1x1_analytic(self):
        w = 3.0
        net = FeedForwardNet([DenseLayer(np.array([[w]]), np.zeros(1), "identity")])
        x = np.array([2.0])
        pg, gi = backward(net, x, np.array([1.0]))
        assert pg[0] == pytest.approx(2.0)  # dy/dw = x
        assert pg[1] == pytest.approx(1.0)  # dy/db = 1
        assert gi[0] == pytest.approx(3.0)  # dy/dx = w

    def test_random_tanh_net_matches_finite_differences(self):
        net = init_net([3, 5, 2], "tanh", seed=7, output_activation="tanh")
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        upstream = rng.normal(size=2)

        def loss_and_grad(vec):
            vector_to_net(vec, net)
            out, cache = forward_batch(net, x[None, :])
            pg, _ = backward_batch(net, cache, upstream[None, :])
            return float(out[0] @ upstream), grads_to_vector(pg)

        assert grad_check(loss_and_grad, net_to_vector(net), 1e-6) < 1e-4


class TestGradCheck:
    def test_quadratic_nearly_exact(self):
        def f(p):
            return 0.5 * float(p @ p), p

        assert grad_check(f, np.array([1.0, -2.0, 0.3]), 1e-6) < 1e-7

    def test_constant_loss(self):
        def f(p):
            return 1.0, np.zeros_like(p)

        assert grad_check(f, np.ones(4), 1e-6) == 0.0


class TestInit:
    def test_shapes(self):
        net = init_net([3, 4, 2], "relu", seed=0)
        assert [l.weights.shape for l in net.layers] == [(4, 3), (2, 4)]
        assert net.input_dim == 3 and net.output_dim == 2

    def test_same_seed_identical(self):
        a = net_to_vector(init_net([3, 4, 2], "relu", seed=5))
        b = net_to_vector(init_net([3, 4, 2], "relu", seed=5))
        assert (a == b).all()

    def test_biases_zero(self):
        net = init_net([3, 4, 2], "relu", seed=0)
        assert all(np.all(l.bias == 0.0) for l in net.layers)

    def test_bound_respected(self):
        net = init_net([10, 20], "relu", seed=1)
        bound = np.sqrt(6.0 / 30)
        assert np.abs(net.layers[0].weights).max() <= bound

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            init_net([3], "relu", seed=0)
        with pytest.raises(ConfigError):
            init_net([3, 0, 2], "relu", seed=0)


class TestParameterVector:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_identity(self, seed):
        net = init_net([3, 6, 2], "tanh", seed=seed)
        vec = net_to_vector(net)
        vector_to_net(vec.copy(), net)
        assert (net_to_vector(net) == vec).all()
        assert vec.size == num_params(net)

    def test_length_mismatch(self):
        net = init_net([2, 2], "relu", seed=0)
        with pytest.raises(ShapeError):
            vector_to_net(np.zeros(num_params(net) + 1), net)


def test_checkpoint_roundtrip(tmp_path):
    net = init_net([4, 8, 3], "tanh", seed=2)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net_to_json_dict(net)))
    loaded = read_checkpoint(path, net_from_json_dict)
    assert (net_to_vector(loaded) == net_to_vector(net)).all()
    assert [l.activation for l in loaded.layers] == [l.activation for l in net.layers]
