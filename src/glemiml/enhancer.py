"""Label-distribution recovery: instance embedding, graph interaction, label-graph refinement.

Per-bag logits are the sum of three branches (pooled raw features, pooled
graph-propagated embeddings, logical labels); a single label-graph propagation
pass refines the stacked batch logits. Distributions are the row-softmax of
the refined logits, confidences their elementwise sigmoid.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .data import PackedBags, pack_bags
from .errors import ConfigError, ShapeError
from .graph import mutual_knn_median, mutual_knn_median_backward
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
# ablation C prove its branch is dead. Only the calling thread of a pass
# adds to it, once per pass.
_instance_graph_builds = 0

# Cells (bags x N x N) at most in one forward-only instance-graph build: 1 MiB
# per (B, N, N) float64 array. A larger batch is built in chunks of bags
# sorted by size, of at most half this many cells each, on the calling
# thread and at most one pool thread (_chunked_graph_means). So a chunk pads
# little, the two workers' graph arrays together stay within this budget
# however many bags are enhanced, and the chunks, hence the outputs, do not
# depend on the host's CPUs. The 500 bags of 2-5 instances of a default-shape
# set, and every default training batch, take one build on the calling thread.
GRAPH_CHUNK_CELLS = 1 << 17


def instance_graph_build_count() -> int:
    return _instance_graph_builds


def _graph_workers() -> int:
    """Workers of a chunked instance-graph pass: two when the process may run on two CPUs."""
    getaffinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    cpus = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    return min(2, cpus)


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
    """Forward-only _graph_means of a batch built in chunks of at most GRAPH_CHUNK_CELLS // 2 cells.

    The bags are sorted by size and cut into chunks [lo, hi) that pad to
    their largest bag's size N: a chunk grows while its (hi - lo) x N x N
    block holds at most GRAPH_CHUNK_CELLS // 2 cells, and a bag larger than
    that is a chunk of its own. The chunks, largest first, go each to the
    worker with fewer cells so far, the calling thread on a tie. With two
    usable CPUs (_graph_workers) the other worker is one pool thread, made
    only when its share has chunks. A worker builds its chunks largest
    first, each in arrays of its own. Each chunk writes its own rows of the
    means, so the result does not depend on the worker count. An exception
    in either worker is raised here once the pool's thread has stopped.
    """
    M2 = np.empty((len(batch), model.embed_dim))
    budget = GRAPH_CHUNK_CELLS // 2
    by_size = np.argsort(batch.counts, kind="stable")
    sizes = batch.counts[by_size].tolist()
    ends = range(1, len(sizes) + 1)
    chunks = []  # (cells, bags) per chunk
    lo = 0
    while lo < len(sizes):
        # a chunk's cells grow with its end, and ends[i] == i + 1, so the
        # index bisect_right returns is the last end that fits
        hi = bisect_right(ends, budget, lo=lo, key=lambda end: (end - lo) * sizes[end - 1] ** 2)
        hi = max(hi, lo + 1)
        chunks.append(((hi - lo) * sizes[hi - 1] ** 2, by_size[lo:hi]))
        lo = hi
    two = _graph_workers() > 1
    mine, other = [], []
    lead = 0  # the calling thread's cells less the other worker's
    for cells, idx in sorted(chunks, key=lambda chunk: chunk[0], reverse=True):
        if two and lead > 0:
            other.append(idx)
            lead -= cells
        else:
            mine.append(idx)
            lead += cells

    def build(share):
        for idx in share:
            M2[idx] = _graph_means(model, batch.take(idx), grad=False)[0]

    if not other:
        build(mine)
        return M2
    # imported here: concurrent.futures imports logging, about 0.5 MiB that a
    # process whose passes never have two shares would otherwise hold
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(build, other)
        build(mine)
        future.result()
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


def _row_normalize(adj: np.ndarray):
    """Scale rows with sum > 1 down to sum exactly 1; smaller rows untouched."""
    sums = adj.sum(axis=1)
    scale = np.where(sums > 1.0, sums, 1.0)
    return adj / scale[:, None], scale


def _refine_forward(model: EnhancerModel, base_logits: np.ndarray, grad: bool = True):
    """Label-graph refinement of base logits (B, t); returns (EnhancedBatch,
    cache), the cache None with grad=False."""
    if base_logits.ndim != 2 or base_logits.shape[0] < 1:
        raise ShapeError("batch logits must be a non-empty 2-D matrix")
    t = base_logits.shape[1]
    if t < 2:
        raise ConfigError("label-graph refinement needs label_count >= 2")
    d0 = softmax_rows(base_logits)
    adj, lab_cache = mutual_knn_median(d0.T[None], [t], model.k_label, grad=grad)
    adj = adj[0]
    adj_n, scale = _row_normalize(adj)
    refined = base_logits + base_logits @ adj_n.T
    batch = EnhancedBatch(
        logits=refined,
        distributions=softmax_rows(refined),
        confidences=sigmoid(refined),
    )
    if not grad:
        return batch, None
    cache = {"base": base_logits, "d0": d0, "adj": adj, "adj_n": adj_n,
             "scale": scale, "lab_cache": lab_cache}
    return batch, cache


def enhancer_forward(model: EnhancerModel, batch: PackedBags, grad: bool = True):
    """Full forward over a batch packed with its bag features; returns (EnhancedBatch, cache).

    The label graph spans the whole batch. With grad=False both graphs are
    built forward only and the cache is None; the outputs are the same bit
    for bit. A forward-only batch whose (B, N, N) block holds more than
    GRAPH_CHUNK_CELLS cells has its instance graphs built in size-sorted
    chunks of at most half that, on the calling thread and at most one pool
    thread, each largest chunk first (_chunked_graph_means). Any other batch
    takes one build on the calling thread, and the branch nets and the label
    graph always run there, after the pool thread is joined.
    """
    global _instance_graph_builds
    if not len(batch):
        raise ShapeError("enhancer_forward needs at least one bag")
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
    out, refine_cache = _refine_forward(model, base, grad)
    if not grad:
        return out, None
    return out, {"graph": graph_cache, "nets": net_caches, "refine": refine_cache}


def enhance_batch(model: EnhancerModel, bags) -> EnhancedBatch:
    """Forward-only enhancer_forward over a list of bags."""
    if not bags:
        raise ShapeError("enhance_batch needs at least one bag")
    return enhancer_forward(model, pack_bags(bags, bag_features=True), grad=False)[0]


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
