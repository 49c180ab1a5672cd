"""Label-distribution recovery: instance embedding, graph interaction, label-graph refinement.

Per-bag base logits are the sum of three branches (pooled raw features, pooled
graph-propagated embeddings, logical labels); a single label-graph propagation
pass refines them: refined = base + base @ A.T, A the row-normalised label
graph. Distributions are the row-softmax of the refined logits, confidences
their elementwise sigmoid.

Training builds the label graph over each mini-batch's base logits, with its
gradient. At the end of train() the label graph of the whole training split
is frozen on the model (EnhancerModel.label_graph), and enhance_batch refines
with it, so a trained model's output for a bag depends on that bag alone. A
model without a frozen graph (untrained, or loaded from a schema-1 or epoch
checkpoint) builds the graph over each call's bags, as training does.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .data import PackedBags, pack_bags
from .errors import ConfigError, ShapeError
from .graph import mutual_knn_median, mutual_knn_median_backward
from .nets import (
    FeedForwardNet,
    backward_batch,
    checkpoint_scalar,
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
# ablation C prove its branch is dead. Added to once per pass.
_instance_graph_builds = 0

# Layout of enhancer checkpoints. Schema 2 adds "label_graph": the frozen
# label graph, or null. Schema 1 (or no "schema" key) has none.
ENHANCER_SCHEMA = 2

# Cells (bags x N x N) at most in one forward-only instance-graph build: 1 MiB
# per (B, N, N) float64 array. A larger batch is built one chunk at a time,
# in chunks of bags sorted by size of at most this many cells each
# (_chunked_graph_means), so a chunk pads little and its graph arrays stay
# within this budget however many bags are enhanced. The 500 bags of 2-5
# instances of a default-shape set, and every training batch of the
# benchmark's shapes (at most 32 x 50^2 cells), take one build.
GRAPH_CHUNK_CELLS = 1 << 17


def instance_graph_build_count() -> int:
    return _instance_graph_builds


@dataclass
class EnhancerModel:
    sigma_net: FeedForwardNet  # d -> p instance embedding
    omega1_net: FeedForwardNet  # d -> t, pooled raw features
    omega2_net: FeedForwardNet  # p -> t, pooled graph interaction
    omega3_net: FeedForwardNet  # t -> t, logical labels
    instance_k: int = 3
    k_label: int = 3
    use_instance_graph: bool = True
    # (t, t) row-normalised label graph frozen by train(); None: each
    # enhance_batch call builds one over its own bags
    label_graph: np.ndarray | None = None

    def __post_init__(self):
        t = self.omega1_net.output_dim
        if self.omega2_net.output_dim != t or self.omega3_net.output_dim != t:
            raise ConfigError("omega nets must share the label-count output dim")
        if t < 2:
            raise ConfigError(f"enhancer needs label_count >= 2, got {t}")
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


def _graph_means(model: EnhancerModel, batch: PackedBags, grad: bool = True):
    """Mean graph-propagated embedding of each bag (B, p), plus the cache backprop needs.

    One sigma-net pass over the stacked instances, then one batched graph
    build over the zero-padded (B, N, p) block of their embeddings. With
    grad=False the sigma net and the build run forward only, and the cache
    is None.
    """
    counts = batch.counts
    E, sig_cache = forward_batch(model.sigma_net, batch.instances, grad=grad)
    real = np.arange(counts.max()) < counts[:, None]
    E_pad = np.zeros(real.shape + (E.shape[1],))
    E_pad[real] = E
    A, gcache = mutual_knn_median(E_pad, counts, model.instance_k, grad=grad)
    M2 = (A @ E_pad).sum(axis=1) / counts[:, None]
    if not grad:
        return M2, None
    return M2, {"sig_cache": sig_cache, "E_pad": E_pad, "A": A, "gcache": gcache,
                "counts": counts, "real": real}


def _graph_means_backward(model: EnhancerModel, cache, g_m2: np.ndarray):
    """Sigma-net parameter gradients, given the gradient on the pooled means."""
    E_pad, A = cache["E_pad"], cache["A"]
    g_p = np.broadcast_to((g_m2 / cache["counts"][:, None])[:, None, :], E_pad.shape)
    g_e = A.transpose(0, 2, 1) @ g_p
    g_a = g_p @ E_pad.transpose(0, 2, 1)
    g_e += mutual_knn_median_backward(cache["gcache"], g_a)
    sg, _ = backward_batch(model.sigma_net, cache["sig_cache"], g_e[cache["real"]])
    return sg


def _chunked_graph_means(model: EnhancerModel, batch: PackedBags):
    """Forward-only _graph_means of a batch built in chunks of at most GRAPH_CHUNK_CELLS cells.

    The bags are sorted by size and cut into chunks [lo, hi) that pad to
    their largest bag's size N: a chunk grows while its (hi - lo) x N x N
    block holds at most GRAPH_CHUNK_CELLS cells, and a bag larger than that
    is a chunk of its own. Each chunk is built as soon as it is cut, in
    arrays of its own, and writes its own rows of the means.
    """
    M2 = np.empty((len(batch), model.embed_dim))
    by_size = np.argsort(batch.counts, kind="stable")
    sizes = batch.counts[by_size].tolist()
    ends = range(1, len(sizes) + 1)
    lo = 0
    while lo < len(sizes):
        # a chunk's cells grow with its end, and ends[i] == i + 1, so the
        # index bisect_right returns is the last end that fits
        hi = bisect_right(ends, GRAPH_CHUNK_CELLS, lo=lo,
                          key=lambda end: (end - lo) * sizes[end - 1] ** 2)
        hi = max(hi, lo + 1)
        idx = by_size[lo:hi]
        M2[idx] = _graph_means(model, batch.take(idx), grad=False)[0]
        lo = hi
    return M2


def _branch_logits(model: EnhancerModel, batch: PackedBags, M2: np.ndarray, grad: bool = True):
    """Sum of the three branch nets per bag (B, t), o1 + o2 + o3, with their caches.

    The branches take the mean raw instance, the mean propagated embedding
    M2 and the logical labels. With grad=False the nets run forward only,
    the sum accumulates in o1's array and the caches are None.
    """
    if batch.means is None:
        raise ShapeError("the enhancer needs bags packed with their bag features")
    o1, c1 = forward_batch(model.omega1_net, batch.means, grad=grad)
    o2, c2 = forward_batch(model.omega2_net, M2, grad=grad)
    o3, c3 = forward_batch(model.omega3_net, batch.logical, grad=grad)
    if not grad:
        o1 += o2
        o1 += o3
        return o1, None
    return o1 + o2 + o3, (c1, c2, c3)


def _base_logits(model: EnhancerModel, batch: PackedBags, grad: bool = True):
    """Base logits (B, t) of a batch packed with its bag features, with the
    instance-graph and branch-net caches backprop needs (None with grad=False).

    A forward-only batch whose (B, N, N) block holds more than
    GRAPH_CHUNK_CELLS cells has its instance graphs built in size-sorted
    chunks of at most that many cells (_chunked_graph_means). Any other
    batch takes one build.
    """
    global _instance_graph_builds
    graph_cache = None
    if not model.use_instance_graph:
        M2 = np.zeros((len(batch), model.embed_dim))
    else:
        _instance_graph_builds += len(batch)
        if grad or len(batch) * int(batch.counts.max()) ** 2 <= GRAPH_CHUNK_CELLS:
            M2, graph_cache = _graph_means(model, batch, grad)
        else:
            M2 = _chunked_graph_means(model, batch)
    base, net_caches = _branch_logits(model, batch, M2, grad)
    return base, graph_cache, net_caches


def _row_normalize(adj: np.ndarray):
    """Scale rows with sum > 1 down to sum exactly 1; smaller rows untouched."""
    sums = adj.sum(axis=1)
    scale = np.where(sums > 1.0, sums, 1.0)
    return adj / scale[:, None], scale


def _label_graph(model: EnhancerModel, base_logits: np.ndarray, grad: bool = True):
    """Row-normalised label graph (t, t) of base logits (B, t), with its cache.

    The t labels are the points, each the column of the row-softmax of the
    logits over the B bags, joined by one mutual-KNN build. With grad=False
    the build is forward only and the cache is None. Its callers pass at
    least one bag, and a model has at least two labels.
    """
    d0 = softmax_rows(base_logits)
    adj, lab_cache = mutual_knn_median(d0.T[None], [d0.shape[1]], model.k_label, grad=grad)
    adj = adj[0]
    adj_n, scale = _row_normalize(adj)
    if not grad:
        return adj_n, None
    return adj_n, {"d0": d0, "adj": adj, "scale": scale, "lab_cache": lab_cache}


def _enhanced(base_logits: np.ndarray, adj_n: np.ndarray) -> EnhancedBatch:
    """Base logits (B, t) refined by one propagation over a label graph (t, t)."""
    refined = base_logits + base_logits @ adj_n.T
    return EnhancedBatch(
        logits=refined,
        distributions=softmax_rows(refined),
        confidences=sigmoid(refined),
    )


def enhancer_forward(model: EnhancerModel, batch: PackedBags, grad: bool = True):
    """Training's forward over a batch packed with its bag features; returns (EnhancedBatch, cache).

    The label graph is built over the batch's base logits (_base_logits),
    whether or not the model holds a frozen one. With grad=False both graphs
    are built forward only and the cache is None; the outputs are the same
    bit for bit.
    """
    if not len(batch):
        raise ShapeError("enhancer_forward needs at least one bag")
    base, graph_cache, net_caches = _base_logits(model, batch, grad)
    adj_n, label_cache = _label_graph(model, base, grad)
    out = _enhanced(base, adj_n)
    if not grad:
        return out, None
    return out, {"graph": graph_cache, "nets": net_caches,
                 "refine": {"base": base, "adj_n": adj_n, **label_cache}}


def freeze_label_graph(model: EnhancerModel, batch: PackedBags) -> None:
    """Set model.label_graph to the label graph of a packed set's base logits.

    One forward-only _base_logits pass over the set, then one label-graph
    build over all its bags; train() freezes its training split's graph this
    way once the last batch is done.
    """
    model.label_graph = _label_graph(model, _base_logits(model, batch, grad=False)[0],
                                     grad=False)[0]


def enhance_batch(model: EnhancerModel, bags) -> EnhancedBatch:
    """Forward-only enhancement of a list of bags in three stages: their base
    logits (_base_logits), a label graph, and one refinement by it (_enhanced).

    The label graph is the model's frozen one, so each bag's output depends
    on that bag alone, up to the rounding of the branch nets' products over
    the call's rows; a model without one builds it over the call's bags, as
    training does. An enhancer checkpoint with fewer than two labels does
    not load (DataFormatError).
    """
    if not bags:
        raise ShapeError("enhance_batch needs at least one bag")
    batch = pack_bags(bags, bag_features=True)
    base = _base_logits(model, batch, grad=False)[0]
    adj_n = model.label_graph
    if adj_n is None:
        adj_n = _label_graph(model, base, grad=False)[0]
    return _enhanced(base, adj_n)


def _row_normalize_backward(adj: np.ndarray, scale: np.ndarray, grad_n: np.ndarray) -> np.ndarray:
    grad = grad_n / scale[:, None]
    scaled = scale > 1.0  # the rows _row_normalize scaled down
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
        "schema": ENHANCER_SCHEMA,
        "instance_k": model.instance_k,
        "k_label": model.k_label,
        "use_instance_graph": model.use_instance_graph,
        "sigma": net_to_json_dict(model.sigma_net),
        "omega1": net_to_json_dict(model.omega1_net),
        "omega2": net_to_json_dict(model.omega2_net),
        "omega3": net_to_json_dict(model.omega3_net),
        "label_graph": None if model.label_graph is None else model.label_graph.tolist(),
    }


def _label_graph_from_json(value, t: int) -> np.ndarray:
    """A stored frozen label graph: a (t, t) matrix of finite, non-negative
    weights whose rows sum to at most 1, as _row_normalize leaves them (up to
    its division's rounding). Anything else raises ShapeError naming the key."""
    try:
        adj = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"label_graph: {exc}") from exc
    if adj.shape != (t, t):
        raise ShapeError(f"label_graph: shape {adj.shape} is not ({t}, {t})")
    if not np.isfinite(adj).all():
        raise ShapeError("label_graph: non-finite weight")
    if (adj < 0.0).any():
        raise ShapeError("label_graph: negative weight")
    if (adj.sum(axis=1) > 1.0 + 1e-12).any():
        raise ShapeError("label_graph: a row sums to more than 1")
    return adj


def enhancer_from_json_dict(doc: dict) -> EnhancerModel:
    """The enhancer a checkpoint of schema 1 or 2 stores."""
    model = EnhancerModel(
        sigma_net=net_from_json_dict(doc["sigma"], "sigma"),
        omega1_net=net_from_json_dict(doc["omega1"], "omega1"),
        omega2_net=net_from_json_dict(doc["omega2"], "omega2"),
        omega3_net=net_from_json_dict(doc["omega3"], "omega3"),
        instance_k=checkpoint_scalar(doc, "instance_k", int),
        k_label=checkpoint_scalar(doc, "k_label", int),
        use_instance_graph=checkpoint_scalar(doc, "use_instance_graph", bool),
    )
    if doc.get("schema", 1) >= 2 and doc["label_graph"] is not None:
        model.label_graph = _label_graph_from_json(doc["label_graph"], model.label_count)
    return model


def save_enhancer(model: EnhancerModel, path) -> None:
    with atomic_open(path) as fh:
        json.dump(enhancer_to_json_dict(model), fh, sort_keys=True)


def load_enhancer(path) -> EnhancerModel:
    return read_checkpoint(path, enhancer_from_json_dict, ENHANCER_SCHEMA)
