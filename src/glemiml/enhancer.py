"""Label-distribution recovery: instance embedding, graph interaction, label-graph refinement.

Per-bag logits are the sum of three branches (pooled raw features, pooled
graph-propagated embeddings, logical labels); a single label-graph propagation
pass refines the stacked batch logits. Distributions are the row-softmax of
the refined logits, confidences their elementwise sigmoid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .data import PackedBags, pack_bags
from .errors import ConfigError, ShapeError
from .graph import GraphBuffers, mutual_knn_median, mutual_knn_median_backward, scratch
from .nets import (
    CHECKPOINT_SCHEMA,
    FeedForwardNet,
    backward_batch,
    forward_batch,
    grads_to_vector,
    init_net,
    net_from_json_dict,
    net_to_json_dict,
    net_to_vector,
    num_params,
    read_checkpoint,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
    vector_to_net,
)

# Bags whose instance graph was built; the label graph is not counted. Lets
# ablation C prove its branch is dead.
_instance_graph_builds = 0

# Bags per instance-graph block in enhance_batch. Bags are grouped by size, so
# a block pads little and its (B, N, N) graph arrays stay small however many
# bags are enhanced.
GRAPH_CHUNK_BAGS = 64


def instance_graph_build_count() -> int:
    return _instance_graph_builds


def reset_instance_graph_build_count() -> None:
    global _instance_graph_builds
    _instance_graph_builds = 0


@dataclass
class EnhancerModel:
    sigma_net: FeedForwardNet  # d -> p instance embedding
    omega1_net: FeedForwardNet  # d -> t, pooled raw features
    omega2_net: FeedForwardNet  # p -> t, pooled graph interaction
    omega3_net: FeedForwardNet  # t -> t, logical labels
    instance_k: int = 3
    k_label: int = 3
    use_instance_graph: bool = True

    def __post_init__(self):
        t = self.omega1_net.output_dim
        if self.omega2_net.output_dim != t or self.omega3_net.output_dim != t:
            raise ConfigError("omega nets must share the label-count output dim")
        if self.sigma_net.output_dim != self.omega2_net.input_dim:
            raise ConfigError("sigma output dim must match omega2 input dim")
        if self.instance_k < 1 or self.k_label < 1:
            raise ConfigError(
                f"instance_k and k_label must be >= 1, got {self.instance_k} and {self.k_label}")

    @property
    def label_count(self) -> int:
        return self.omega1_net.output_dim

    @property
    def embed_dim(self) -> int:
        return self.sigma_net.output_dim

    @property
    def nets(self):
        return (self.sigma_net, self.omega1_net, self.omega2_net, self.omega3_net)


@dataclass(frozen=True)
class EnhancedBatch:
    logits: np.ndarray  # (B, t) refined logits
    distributions: np.ndarray  # (B, t) row-softmax of logits
    confidences: np.ndarray  # (B, t) elementwise sigmoid of logits


def init_enhancer(feature_dim: int, label_count: int, embed_dim: int = 8,
                  instance_k: int = 3, k_label: int = 3, seed: int = 0,
                  use_instance_graph: bool = True) -> EnhancerModel:
    """Two-layer tanh nets, hidden width max(16, 2t), identity outputs."""
    if label_count < 2:
        raise ConfigError("enhancer needs label_count >= 2")
    h = max(16, 2 * label_count)
    return EnhancerModel(
        sigma_net=init_net([feature_dim, h, embed_dim], "tanh", seed=seed * 4 + 1),
        omega1_net=init_net([feature_dim, h, label_count], "tanh", seed=seed * 4 + 2),
        omega2_net=init_net([embed_dim, h, label_count], "tanh", seed=seed * 4 + 3),
        omega3_net=init_net([label_count, h, label_count], "tanh", seed=seed * 4 + 4),
        instance_k=instance_k,
        k_label=k_label,
        use_instance_graph=use_instance_graph,
    )


def _graph_means(model: EnhancerModel, batch: PackedBags, buffers: GraphBuffers | None = None):
    """Mean graph-propagated embedding of each bag (B, p), plus the cache backprop needs.

    One sigma-net pass over the stacked instances, then one batched graph
    build over the zero-padded (B, N, p) block of their embeddings, in
    `buffers` when given.
    """
    global _instance_graph_builds
    counts = batch.counts
    E, sig_cache = forward_batch(model.sigma_net, batch.instances)
    real = np.arange(counts.max()) < counts[:, None]
    E_pad = np.zeros(real.shape + (E.shape[1],))
    E_pad[real] = E
    _instance_graph_builds += len(counts)
    A, gcache = mutual_knn_median(E_pad, counts, model.instance_k, buffers)
    M2 = (A @ E_pad).sum(axis=1) / counts[:, None]
    return M2, {"sig_cache": sig_cache, "E_pad": E_pad, "A": A, "gcache": gcache,
                "counts": counts, "real": real, "buffers": buffers}


def _graph_means_backward(model: EnhancerModel, cache, g_m2: np.ndarray):
    """Sigma-net parameter gradients, given the gradient on the pooled means."""
    E_pad, A = cache["E_pad"], cache["A"]
    g_p = np.broadcast_to((g_m2 / cache["counts"][:, None])[:, None, :], E_pad.shape)
    g_e = A.transpose(0, 2, 1) @ g_p
    g_a = np.matmul(g_p, E_pad.transpose(0, 2, 1), out=scratch(cache["buffers"], "g_a", A.shape))
    g_e += mutual_knn_median_backward(cache["gcache"], g_a)
    sg, _ = backward_batch(model.sigma_net, cache["sig_cache"], g_e[cache["real"]])
    return sg


def _branch_logits(model: EnhancerModel, batch: PackedBags, M2: np.ndarray):
    """Sum of the three branch nets per bag (B, t), with their caches.

    The branches take the mean raw instance, the mean propagated embedding
    M2 and the logical labels.
    """
    if batch.means is None:
        raise ShapeError("the enhancer needs bags packed with their bag features")
    o1, c1 = forward_batch(model.omega1_net, batch.means)
    o2, c2 = forward_batch(model.omega2_net, M2)
    o3, c3 = forward_batch(model.omega3_net, batch.logical)
    return o1 + o2 + o3, (c1, c2, c3)


def _base_forward(model: EnhancerModel, batch: PackedBags, buffers: GraphBuffers | None = None):
    """Base (pre-refinement) logits (B, t) of a batch, plus the caches backprop needs."""
    if model.use_instance_graph:
        M2, graph_cache = _graph_means(model, batch, buffers)
    else:
        M2, graph_cache = np.zeros((len(batch), model.embed_dim)), None
    base, net_caches = _branch_logits(model, batch, M2)
    return base, {"graph": graph_cache, "nets": net_caches}


def _row_normalize(adj: np.ndarray):
    """Scale rows with sum > 1 down to sum exactly 1; smaller rows untouched."""
    sums = adj.sum(axis=1)
    scale = np.where(sums > 1.0, sums, 1.0)
    return adj / scale[:, None], scale


def _refine_forward(model: EnhancerModel, base_logits: np.ndarray):
    if base_logits.ndim != 2 or base_logits.shape[0] < 1:
        raise ShapeError("batch logits must be a non-empty 2-D matrix")
    t = base_logits.shape[1]
    if t < 2:
        raise ConfigError("label-graph refinement needs label_count >= 2")
    d0 = softmax_rows(base_logits)
    adj, lab_cache = mutual_knn_median(d0.T[None], [t], model.k_label)
    adj = adj[0]
    adj_n, scale = _row_normalize(adj)
    refined = base_logits + base_logits @ adj_n.T
    batch = EnhancedBatch(
        logits=refined,
        distributions=softmax_rows(refined),
        confidences=sigmoid(refined),
    )
    cache = {"base": base_logits, "d0": d0, "adj": adj, "adj_n": adj_n,
             "scale": scale, "lab_cache": lab_cache}
    return batch, cache


def enhance_batch(model: EnhancerModel, bags) -> EnhancedBatch:
    """Forward over a batch of bags, keeping no backward caches.

    Instance graphs are built GRAPH_CHUNK_BAGS bags at a time, smallest bags
    first; the label graph spans the whole batch, as in enhancer_forward.
    """
    if not bags:
        raise ShapeError("enhance_batch needs at least one bag")
    batch = pack_bags(bags, bag_features=True)
    M2 = np.zeros((len(batch), model.embed_dim))
    if model.use_instance_graph:
        by_size = np.argsort(batch.counts, kind="stable")
        for lo in range(0, len(batch), GRAPH_CHUNK_BAGS):
            idx = by_size[lo:lo + GRAPH_CHUNK_BAGS]
            M2[idx] = _graph_means(model, batch.take(idx))[0]
    base, _ = _branch_logits(model, batch, M2)
    return _refine_forward(model, base)[0]


def enhancer_forward(model: EnhancerModel, batch: PackedBags, buffers: GraphBuffers | None = None):
    """Full forward over a batch packed with its bag features; returns (EnhancedBatch, cache).

    The instance graph is built in `buffers` when given, so the cache is valid
    only until the next forward with the same buffers. The label graph never
    uses them: it is built while the instance graph's cache is still needed.
    """
    if not len(batch):
        raise ShapeError("enhancer_forward needs at least one bag")
    base, cache = _base_forward(model, batch, buffers)
    batch, cache["refine"] = _refine_forward(model, base)
    return batch, cache


def _row_normalize_backward(adj: np.ndarray, scale: np.ndarray, grad_n: np.ndarray) -> np.ndarray:
    sums = adj.sum(axis=1)
    grad = grad_n / scale[:, None]
    scaled = sums > 1.0
    if scaled.any():
        inner = (grad_n * adj).sum(axis=1) / (scale * scale)
        grad = grad - np.where(scaled, inner, 0.0)[:, None]
    return grad


def enhancer_backward(model: EnhancerModel, cache, grad_refined: np.ndarray) -> np.ndarray:
    """Gradient of a scalar wrt all enhancer parameters, given its gradient on
    the refined logits. Returns a flat vector aligned with enhancer_params()."""
    rc = cache["refine"]
    base, d0, adj_n = rc["base"], rc["d0"], rc["adj_n"]

    g_base = grad_refined + grad_refined @ adj_n
    g_adj_n = grad_refined.T @ base
    g_adj = _row_normalize_backward(rc["adj"], rc["scale"], g_adj_n)
    g_cols = mutual_knn_median_backward(rc["lab_cache"], g_adj[None])[0]  # (t, B)
    g_base += softmax_rows_backward(d0, g_cols.T)

    c1, c2, c3 = cache["nets"]
    g1, _ = backward_batch(model.omega1_net, c1, g_base)
    g2, g_m2 = backward_batch(model.omega2_net, c2, g_base)
    g3, _ = backward_batch(model.omega3_net, c3, g_base)

    if cache["graph"] is None:
        sigma_grad = np.zeros(num_params(model.sigma_net))
    else:
        sigma_grad = grads_to_vector(_graph_means_backward(model, cache["graph"], g_m2))

    return np.concatenate([
        sigma_grad, grads_to_vector(g1), grads_to_vector(g2), grads_to_vector(g3)
    ])


def enhancer_params(model: EnhancerModel) -> np.ndarray:
    return np.concatenate([net_to_vector(n) for n in model.nets])


def set_enhancer_params(model: EnhancerModel, vec: np.ndarray) -> None:
    pos = 0
    for net in model.nets:
        size = num_params(net)
        vector_to_net(vec[pos:pos + size], net)
        pos += size
    if pos != vec.size:
        raise ShapeError("parameter vector length mismatch")


def enhancer_to_json_dict(model: EnhancerModel) -> dict:
    return {
        "kind": "enhancer",
        "schema": CHECKPOINT_SCHEMA,
        "instance_k": model.instance_k,
        "k_label": model.k_label,
        "use_instance_graph": model.use_instance_graph,
        "sigma": net_to_json_dict(model.sigma_net),
        "omega1": net_to_json_dict(model.omega1_net),
        "omega2": net_to_json_dict(model.omega2_net),
        "omega3": net_to_json_dict(model.omega3_net),
    }


def enhancer_from_json_dict(doc: dict) -> EnhancerModel:
    return EnhancerModel(
        sigma_net=net_from_json_dict(doc["sigma"], "sigma"),
        omega1_net=net_from_json_dict(doc["omega1"], "omega1"),
        omega2_net=net_from_json_dict(doc["omega2"], "omega2"),
        omega3_net=net_from_json_dict(doc["omega3"], "omega3"),
        instance_k=int(doc["instance_k"]),
        k_label=int(doc["k_label"]),
        use_instance_graph=bool(doc["use_instance_graph"]),
    )


def save_enhancer(model: EnhancerModel, path) -> None:
    with atomic_open(path) as fh:
        json.dump(enhancer_to_json_dict(model), fh, sort_keys=True)


def load_enhancer(path) -> EnhancerModel:
    return read_checkpoint(path, enhancer_from_json_dict)
