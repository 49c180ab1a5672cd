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

# Packed rows per instance-net block in predict_dataset. A chunk of 256 bags
# of 20-50 rows holds about 9k rows, and each of its hidden arrays takes
# 2.3 MB of fresh pages. Over 500 such bags, in a process that trains between
# passes (2-vCPU Xeon, BLAS on one thread), a pass in one block per chunk took
# 8.5 ms and 1.7k minor faults; in blocks of at most 256, 512, 1024, 2048 and
# 4096 rows it took 5.7, 4.6, 4.0, 4.6 and 6.3 ms, with 149, 0, 0, 128 and
# 383 faults. Chunks of short bags (about 900 rows) stay in one block.
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

    Equal to classifier_forward on each PREDICT_CHUNK_BAGS chunk of bags,
    byte for byte where BLAS rounds as _predict_chunk describes.
    """
    logits, probs = [], []
    for lo in range(0, len(ds), PREDICT_CHUNK_BAGS):
        s, p = _predict_chunk(model, pack_bags(ds.bags[lo:lo + PREDICT_CHUNK_BAGS]))
        logits.append(s)
        probs.append(p)
    return np.concatenate(logits), np.concatenate(probs)


def _predict_chunk(model: ClassifierModel, batch: PackedBags):
    """classifier_forward's logits and probabilities, the instance net run a row block at a time.

    A chunk of more than PREDICT_BLOCK_ROWS rows is split into blocks, each a
    run of whole bags holding at most PREDICT_BLOCK_ROWS rows, or one larger
    bag, and the head runs once over all the chunk's pooled rows. A chunk of
    no more rows is one classifier_forward call: the block loop gives it the
    same bytes, but in alternating benchmark pairs (2-vCPU Xeon, BLAS on one
    thread) it read 1.7% and 2.9% lower predict_bags_per_s on the default and
    many-labels-c workloads, whose chunks hold about 900 rows.

    BLAS may round a small product with another kernel: OpenBLAS 0.3.31 with
    its SkylakeX kernels does so for a 1-row product and for one of at most
    1200 output cells over 32 or more inputs. So a block of fewer than half
    the budget's rows (the last of a chunk, or one before a larger bag) runs
    in a window of that many rows ending at its last row, or starting at row
    0. Where BLAS rounds each row of such a window as it rounds that row in
    the chunk's single product, as that build does, the outputs equal
    classifier_forward's byte for byte; other BLAS builds or CPUs may round
    differently, and then they agree to within rounding.
    """
    X, counts, starts = batch.instances, batch.counts, batch.starts
    if model.instance_net is None or len(X) <= PREDICT_BLOCK_ROWS:
        return classifier_forward(model, batch)[:2]
    if X.shape[1] != model.feature_dim:
        raise ShapeError(f"bag feature dim {X.shape[1]} != model feature dim {model.feature_dim}")
    least = PREDICT_BLOCK_ROWS // 2
    ends = starts + counts
    pooled = np.empty((len(counts), model.instance_net.output_dim))
    lo = 0
    while lo < len(counts):
        first = starts[lo]
        hi = max(lo + 1, np.searchsorted(ends, first + PREDICT_BLOCK_ROWS, side="right"))
        last = ends[hi - 1]
        start = min(first, max(last - least, 0))  # the chunk holds more than `least` rows
        hidden = forward_batch(model.instance_net, X[start:max(last, start + least)])[0]
        pooled[lo:hi] = _max_pool(hidden[first - start:last - start], counts[lo:hi],
                                  starts[lo:hi] - first)
        del hidden  # before the next block's activations are allocated
        lo = hi
    S = forward_batch(model.head, pooled)[0]
    return S, sigmoid(S)


def binarize(probs: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Strict inequality: ties resolve to negative."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold!r}")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise ShapeError("probabilities must lie in [0, 1]")
    return (probs > threshold).astype(np.int64)


def classifier_forward(model: ClassifierModel, batch: PackedBags):
    """Batched forward with caches. Returns (logits (B, t), probs, cache).

    One instance-net pass over the stacked instances of all bags, a
    per-bag max pool over their hidden rows, one head pass over the pooled rows.
    """
    X = batch.instances
    if X.shape[1] != model.feature_dim:
        raise ShapeError(f"bag feature dim {X.shape[1]} != model feature dim {model.feature_dim}")
    if model.instance_net is None:
        hidden, inst_cache = X, None
    else:
        hidden, inst_cache = forward_batch(model.instance_net, X)
    pooled = _max_pool(hidden, batch.counts, batch.starts)
    S, head_cache = forward_batch(model.head, pooled)
    cache = {"inst": inst_cache, "hidden": hidden, "pooled": pooled, "counts": batch.counts,
             "starts": batch.starts, "head": head_cache}
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
