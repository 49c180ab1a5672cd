"""Dense-network primitives with analytic gradients and a finite-difference checker.

Everything differentiable in the system is built from these. Gradients are
hand-derived per layer; the model zoo is tiny and fixed, so no general tape.
All arithmetic is double precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError, ShapeError

_ACTIVATIONS = ("identity", "relu", "tanh")


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_rows_backward(soft: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient on the logits of softmax_rows, given its output and the gradient on it."""
    return soft * (grad - (grad * soft).sum(axis=1, keepdims=True))


def _act(name: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of z, written into `out` when given (identity returns z itself)."""
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    raise ConfigError(f"unknown activation {name!r}")


def _act_backward(name: str, z: np.ndarray, a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """`grad` times the activation's derivative at z, given its output a = _act(name, z).

    tanh takes its derivative from `a`, so nothing is recomputed.
    """
    if name == "identity":
        return grad
    if name == "relu":
        d = (z > 0.0).astype(np.float64)
    elif name == "tanh":
        d = np.square(a)
        np.subtract(1.0, d, out=d)
    else:
        raise ConfigError(f"unknown activation {name!r}")
    d *= grad
    return d


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeError("layer weight/bias shapes inconsistent")


@dataclass
class FeedForwardNet:
    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("net needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.weights.shape[1] != a.weights.shape[0]:
                raise ShapeError("consecutive layer shapes do not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]


def init_net(dims, activation: str, seed: int, output_activation: str = "identity") -> FeedForwardNet:
    """Uniform fan-based init, biases zero; hidden layers use `activation`."""
    if len(dims) < 2:
        raise ConfigError("need at least input and output dims")
    if any(d <= 0 for d in dims):
        raise ConfigError(f"non-positive layer dim in {list(dims)}")
    rng = np.random.default_rng(np.uint64(seed))
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        act = output_activation if i == len(dims) - 2 else activation
        layers.append(DenseLayer(
            weights=rng.uniform(-bound, bound, size=(fan_out, fan_in)),
            bias=np.zeros(fan_out),
            activation=act,
        ))
    return FeedForwardNet(layers=layers)


def forward_batch(net: FeedForwardNet, x: np.ndarray, grad: bool = True):
    """Batched forward pass. Returns (output (n, out), cache for backward).

    Each layer is z = a @ W.T; z += b, then its activation. With grad it
    caches (a, z) and applies the activation into a fresh array. With
    grad=False the cache is None and the activation is applied in place, so
    the output is the same bit for bit without keeping each layer's
    pre-activations and outputs alive.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with input_dim {net.input_dim}")
    cache = [] if grad else None
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T
        z += layer.bias
        if grad:
            cache.append((a, z))
        a = _act(layer.activation, z, out=None if grad else z)
    return a, cache


def backward_batch(net: FeedForwardNet, cache, grad_out: np.ndarray):
    """Reverse-mode through a cached forward pass.

    Returns (param_grads, grad_in): param_grads is a list of (dW, db) per
    layer, grad_in the gradient on the input rows.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    param_grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        a_in, z = cache[i]
        # the layer's output is the next layer's input; only the last recomputes it
        a_out = cache[i + 1][0] if i + 1 < len(cache) else _act(layer.activation, z)
        gz = _act_backward(layer.activation, z, a_out, g)
        param_grads[i] = (gz.T @ a_in, gz.sum(axis=0))
        g = gz @ layer.weights
    return param_grads, g


def net_to_vector(net: FeedForwardNet) -> np.ndarray:
    """Canonical flat parameter ordering: per layer, weights row-major then bias."""
    return np.concatenate([
        np.concatenate([layer.weights.ravel(), layer.bias]) for layer in net.layers
    ])


def vector_to_net(vec: np.ndarray, net: FeedForwardNet) -> None:
    """Write a flat parameter vector back into the net (inverse of net_to_vector)."""
    pos = 0
    for layer in net.layers:
        w_size = layer.weights.size
        layer.weights[...] = vec[pos:pos + w_size].reshape(layer.weights.shape)
        pos += w_size
        layer.bias[...] = vec[pos:pos + layer.bias.size]
        pos += layer.bias.size
    if pos != vec.size:
        raise ShapeError(f"parameter vector length {vec.size} != net size {pos}")


def grads_to_vector(param_grads) -> np.ndarray:
    return np.concatenate([
        np.concatenate([dw.ravel(), db]) for dw, db in param_grads
    ])


def num_params(net: FeedForwardNet) -> int:
    return sum(layer.weights.size + layer.bias.size for layer in net.layers)


def grad_check(loss_and_grad_fn, params: np.ndarray, eps: float = 1e-6) -> float:
    """Central-difference check of an analytic gradient.

    `loss_and_grad_fn` maps a flat parameter vector to (scalar loss, gradient).
    Returns the max over coordinates of |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|).
    """
    params = np.asarray(params, dtype=np.float64)
    loss0, analytic = loss_and_grad_fn(params)
    if not np.isfinite(loss0) or not np.all(np.isfinite(analytic)):
        raise NumericError("non-finite loss or gradient at the check point")
    worst = 0.0
    for i in range(params.size):
        p = params.copy()
        p[i] += eps
        lp, _ = loss_and_grad_fn(p)
        p[i] -= 2 * eps
        lm, _ = loss_and_grad_fn(p)
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericError(f"non-finite loss at perturbed coordinate {i}")
        numeric = (lp - lm) / (2 * eps)
        err = abs(analytic[i] - numeric) / max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, err)
    return worst


def net_to_json_dict(net: FeedForwardNet) -> dict:
    return {
        "dims": [net.input_dim] + [layer.weights.shape[0] for layer in net.layers],
        "activations": [layer.activation for layer in net.layers],
        "weights": [layer.weights.tolist() for layer in net.layers],
        "biases": [layer.bias.tolist() for layer in net.layers],
    }


def net_from_json_dict(doc: dict, key: str = "net") -> FeedForwardNet:
    """The net stored in `doc`. A missing field raises KeyError('<key>.<field>');
    arrays that do not form a net raise ShapeError naming `key`."""
    try:
        weights, biases, acts = doc["weights"], doc["biases"], doc["activations"]
    except KeyError as exc:
        raise KeyError(f"{key}.{exc.args[0]}") from None
    try:
        if not len(weights) == len(biases) == len(acts):
            raise ShapeError("weights, biases and activations differ in length")
        layers = [
            DenseLayer(
                weights=np.asarray(w, dtype=np.float64),
                bias=np.asarray(b, dtype=np.float64),
                activation=act,
            )
            for w, b, act in zip(weights, biases, acts)
        ]
        return FeedForwardNet(layers=layers)
    except (ConfigError, ShapeError, TypeError, ValueError) as exc:
        raise ShapeError(f"{key}: {exc}") from exc


# Version of the enhancer and classifier checkpoint layout. A checkpoint
# without a "schema" key was written before it was recorded and is schema 1.
CHECKPOINT_SCHEMA = 1


def read_checkpoint(path, from_json_dict):
    """The model `from_json_dict` builds from the JSON checkpoint at `path`.

    Invalid JSON, a schema other than CHECKPOINT_SCHEMA, a missing key and
    values of the wrong type or shape raise a DataFormatError that names the
    file and, where it can, the key or value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: a checkpoint must be a JSON object")
    schema = doc.get("schema", CHECKPOINT_SCHEMA)
    if type(schema) is not int or schema != CHECKPOINT_SCHEMA:
        raise DataFormatError(
            f"{path}: unsupported checkpoint schema {schema!r} (this version reads {CHECKPOINT_SCHEMA})")
    try:
        return from_json_dict(doc)
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (ConfigError, ShapeError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
