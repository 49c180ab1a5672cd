"""MIML prediction model: per-instance transform, max pooling, label logits.

Depth counts affine layers including the head: depth 1 is a single affine head
on max-pooled raw features, depth 2 adds one hidden layer applied per instance,
depth 3 adds two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .data import MIMLDataset, PackedBags, pack_bags
from .errors import ConfigError, ShapeError
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
    vector_to_net,
)


@dataclass
class ClassifierModel:
    depth: int
    instance_net: FeedForwardNet | None  # per-instance transform; None at depth 1
    head: FeedForwardNet  # pooled features -> label logits

    def __post_init__(self):
        if self.depth not in (1, 2, 3):
            raise ConfigError(f"depth must be 1, 2 or 3, got {self.depth}")
        if (self.depth == 1) != (self.instance_net is None):
            raise ConfigError("instance net present iff depth > 1")

    @property
    def label_count(self) -> int:
        return self.head.output_dim

    @property
    def feature_dim(self) -> int:
        return self.instance_net.input_dim if self.instance_net else self.head.input_dim


def init_classifier(feature_dim: int, label_count: int, depth: int = 2,
                    seed: int = 0) -> ClassifierModel:
    """Relu hidden layers of width max(32, 2t); identity-activation head."""
    h = max(32, 2 * label_count)
    if depth == 1:
        return ClassifierModel(depth=1, instance_net=None,
                               head=init_net([feature_dim, label_count], "relu", seed=seed * 2 + 1))
    if depth == 2:
        inst = init_net([feature_dim, h], "relu", seed=seed * 2 + 1, output_activation="relu")
    elif depth == 3:
        inst = init_net([feature_dim, h, h], "relu", seed=seed * 2 + 1, output_activation="relu")
    else:
        raise ConfigError(f"depth must be 1, 2 or 3, got {depth}")
    return ClassifierModel(depth=depth, instance_net=inst,
                           head=init_net([h, label_count], "relu", seed=seed * 2 + 2))


# Bags per head pass in predict_dataset. The head's BLAS rounding depends on
# its row count, so each chunk's pooled rows go through the head together.
# The instance net runs over at most PREDICT_BLOCK_ROWS packed rows at a time,
# so the pass holds one row block's activations plus a chunk's packed
# instances and pooled rows and the (B, t) outputs, however large the dataset
# and its bags are.
PREDICT_CHUNK_BAGS = 256

# Packed rows per instance-net block of a forward-only classifier_forward,
# which predict_dataset runs per chunk. A chunk of 256 bags of 20-50 rows
# holds about 9k rows, and each of its hidden arrays takes 2.3 MB. Over 500
# such bags, in a process that trains between passes (2-vCPU AMD EPYC, BLAS
# on one thread, the heap policy of _heap, medians of 28 interleaved passes),
# a pass in one block per chunk took 1.21 ms; in blocks of at most 256, 512,
# 1024, 2048 and 4096 rows it took 1.56, 1.25, 1.14, 1.09 and 1.31 ms, none
# of them faulting. The blocks also bound the pass's memory. Chunks of short
# bags (about 900 rows) are one block.
PREDICT_BLOCK_ROWS = 1024

# Smallest number of stacked cells (rows x width) per rank of the largest bag
# at which _max_pool takes the maxima rank by rank. np.maximum.reduceat pays
# a fixed cost per bag and column, the rank path a fixed cost of a few us per
# rank. Timed on one thread over 8-256 bags of 1-2 to 20-50 rows at widths
# 10, 32 and 60, the faster path changes between about 1,500 and 3,000 cells
# per rank; with this bound the 135 shapes took 3% longer in all than with
# the faster path each time, and no shape more than 1.7 times as long.
# Batches of 32 short or wide bags at width 32 hold about 700 cells per rank
# and stay on reduceat (21 against 28 us for 2-5 rows, 60 against 151 us for
# 20-50); 128 bags of 2-5 rows at width 60 hold about 5,500 (153 against
# 49 us), and 256 bags of 20-50 rows at width 32 about 5,500 (1,017 against
# 513 us).
_RANK_POOL_MIN_CELLS = 2048


def predict_dataset(model: ClassifierModel, ds: MIMLDataset):
    """Stacked (B, t) logits and probabilities, one row per bag.

    classifier_forward(..., grad=False) on each PREDICT_CHUNK_BAGS chunk of
    bags, so it equals the training forward on each chunk to within
    rounding: each row block is its own instance-net product, and BLAS may
    round a row differently in a product of another row count.
    """
    logits, probs = [], []
    for lo in range(0, len(ds), PREDICT_CHUNK_BAGS):
        s, p, _ = classifier_forward(model, pack_bags(ds.bags[lo:lo + PREDICT_CHUNK_BAGS]),
                                     grad=False)
        logits.append(s)
        probs.append(p)
    return np.concatenate(logits), np.concatenate(probs)


def binarize(probs: np.ndarray) -> np.ndarray:
    """Positive above 0.5, a strict inequality: ties resolve to negative."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise ShapeError("probabilities must lie in [0, 1]")
    return (probs > 0.5).astype(np.int64)


def classifier_forward(model: ClassifierModel, batch: PackedBags, grad: bool = True):
    """Batched forward. Returns (logits (B, t), probs, cache).

    The instance net runs over the stacked instances of the bags, a per-bag
    max pool takes their hidden rows, and the head runs once over all the
    pooled rows. With grad=False both nets run forward only, the cache is
    None, and the instance net and the pool run over blocks of whole bags
    holding at most PREDICT_BLOCK_ROWS rows, or one larger bag, so no
    block's activations outlive it; a batch of at most PREDICT_BLOCK_ROWS
    rows is one block, and its bytes are grad=True's. With grad the batch
    is one block, whatever its rows.
    """
    X, counts, starts = batch.instances, batch.counts, batch.starts
    if X.shape[1] != model.feature_dim:
        raise ShapeError(f"bag feature dim {X.shape[1]} != model feature dim {model.feature_dim}")
    ends = starts + counts
    pooled = np.empty((len(counts), model.head.input_dim))
    lo = 0
    while lo < len(counts):
        first = starts[lo]
        hi = len(counts) if grad else max(
            lo + 1, np.searchsorted(ends, first + PREDICT_BLOCK_ROWS, side="right"))
        hidden, inst_cache = X[first:ends[hi - 1]], None
        if model.instance_net is not None:
            hidden, inst_cache = forward_batch(model.instance_net, hidden, grad)
        pooled[lo:hi] = _max_pool(hidden, counts[lo:hi], starts[lo:hi] - first)
        lo = hi
    S, head_cache = forward_batch(model.head, pooled, grad)
    cache = {"inst": inst_cache, "hidden": hidden, "pooled": pooled, "counts": counts,
             "starts": starts, "head": head_cache} if grad else None
    return S, sigmoid(S), cache


def _max_pool(hidden: np.ndarray, counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each bag's column-wise maximum over its rows of `hidden`: (B, width).

    Many short bags are pooled rank by rank. With the bags sorted largest
    first, those holding a row of rank j are a prefix of that order, so rank j
    is one gather of their j-th rows and one in-place np.maximum into that
    prefix; no temporary outgrows (B, width). A maximum is exact in any order;
    only the sign of a zero tie may differ from reduceat's.
    """
    tallest = counts.max()
    if hidden.size < _RANK_POOL_MIN_CELLS * tallest:
        return np.maximum.reduceat(hidden, starts, axis=0)
    order = np.argsort(-counts, kind="stable")
    rows = starts[order] + np.arange(tallest)[:, None]  # [j, i]: j-th row of bag order[i]
    pooled = hidden[rows[0]]
    holders = np.count_nonzero(np.arange(1, tallest)[:, None] < counts, axis=1)
    for j, n in enumerate(holders.tolist(), start=1):
        prefix = pooled[:n]
        np.maximum(prefix, hidden[rows[j, :n]], out=prefix)
    out = np.empty_like(pooled)
    out[order] = pooled
    return out


def classifier_backward(model: ClassifierModel, cache, grad_logits: np.ndarray) -> np.ndarray:
    """Gradient wrt all classifier parameters, flat, aligned with classifier_params()."""
    head_grad, g_pooled = backward_batch(model.head, cache["head"], grad_logits)
    if model.instance_net is None:
        return grads_to_vector(head_grad)
    # the pooled gradient goes to each bag's first row holding the maximum
    hidden = cache["hidden"]
    owner = np.repeat(np.arange(len(cache["counts"])), cache["counts"])
    rows = np.where(hidden == cache["pooled"][owner], np.arange(len(hidden))[:, None], len(hidden))
    first = np.minimum.reduceat(rows, cache["starts"], axis=0)
    g_hidden = np.zeros_like(hidden)
    g_hidden[first, np.arange(hidden.shape[1])] = g_pooled
    inst_grad, _ = backward_batch(model.instance_net, cache["inst"], g_hidden)
    return np.concatenate([grads_to_vector(inst_grad), grads_to_vector(head_grad)])


def classifier_params(model: ClassifierModel) -> np.ndarray:
    parts = []
    if model.instance_net is not None:
        parts.append(net_to_vector(model.instance_net))
    parts.append(net_to_vector(model.head))
    return np.concatenate(parts)


def set_classifier_params(model: ClassifierModel, vec: np.ndarray) -> None:
    pos = 0
    if model.instance_net is not None:
        size = num_params(model.instance_net)
        vector_to_net(vec[pos:pos + size], model.instance_net)
        pos += size
    size = num_params(model.head)
    vector_to_net(vec[pos:pos + size], model.head)
    if pos + size != vec.size:
        raise ShapeError("parameter vector length mismatch")


def classifier_to_json_dict(model: ClassifierModel) -> dict:
    return {
        "kind": "classifier",
        "schema": CHECKPOINT_SCHEMA,
        "depth": model.depth,
        "pooling": "max",
        "instance_net": (net_to_json_dict(model.instance_net)
                         if model.instance_net is not None else None),
        "head": net_to_json_dict(model.head),
    }


def classifier_from_json_dict(doc: dict) -> ClassifierModel:
    inst = doc.get("instance_net")
    return ClassifierModel(
        depth=int(doc["depth"]),
        instance_net=net_from_json_dict(inst, "instance_net") if inst is not None else None,
        head=net_from_json_dict(doc["head"], "head"),
    )


def save_classifier(model: ClassifierModel, path) -> None:
    with atomic_open(path) as fh:
        json.dump(classifier_to_json_dict(model), fh, sort_keys=True)


def load_classifier(path) -> ClassifierModel:
    return read_checkpoint(path, classifier_from_json_dict)
