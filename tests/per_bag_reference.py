"""Per-bag reference implementations of the packed batch paths.

The package builds instance graphs and runs its nets over packed ragged
batches. These are the straightforward one-bag-at-a-time versions of the same
computations; the tests require the packed paths to agree with them.

One change from the earlier per-bag code: the graph backward drops the
entries of coincident points, whose exact contribution is zero, as the package
does. Kept, they leave rounding residue of order 1 / WIDTH_FLOOR times the
machine epsilon wherever a floored width scales them.
"""

import numpy as np

from glemiml.enhancer import EnhancedBatch, _row_normalize, _row_normalize_backward
from glemiml.errors import ShapeError
from glemiml.graph import WIDTH_FLOOR
from glemiml.nets import (
    backward_batch,
    forward_batch,
    grads_to_vector,
    num_params,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
)


# ------------------------------------------------------------------ graph

# Largest difference tensor, in elements, that strided_sq_dists forms at once.
_DIFF_BUDGET = 1 << 15


def sq_dists(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def strided_sq_dists(points):
    """The former einsum route of graph.pairwise_sq_dists, for a (sets, n, p) stack.

    Rows are taken a few at a time, so the difference tensor stays within
    _DIFF_BUDGET elements. On a feature-major set such as the label graph's
    `d0.T[None]`, einsum adds each pair's squared differences one feature
    (bag) at a time, in feature order.
    """
    n = points.shape[-2]
    d2 = np.empty(points.shape[:-1] + (n,))
    step = max(1, _DIFF_BUDGET // points.size)
    for lo in range(0, n, step):
        diff = points[..., lo:lo + step, None, :] - points[..., None, :, :]
        d2[..., lo:lo + step, :] = np.einsum("...ijk,...ijk->...ij", diff, diff)
    return d2


def mutual_mask(d2, k):
    """Symmetric boolean mask of mutually-K-nearest pairs (self excluded)."""
    n = d2.shape[0]
    k = min(k, n - 1)
    if k < 1:
        return np.zeros((n, n), dtype=bool)
    d2_self = d2 + np.diag(np.full(n, np.inf))
    order = np.argsort(d2_self, axis=1, kind="stable")
    nbr = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    nbr[rows, order[:, :k].ravel()] = True
    return nbr & nbr.T


def mutual_knn_median(points, k):
    """Median-width mutual-KNN adjacency of one point set, plus a backprop cache."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 2:
        return np.zeros((n, n)), {"n": n, "points": points}
    d2 = sq_dists(points)
    iu = np.triu_indices(n, k=1)
    vals = d2[iu]
    order = np.argsort(vals, kind="stable")
    m = len(vals)
    if m % 2 == 1:
        med_pairs = [(iu[0][order[m // 2]], iu[1][order[m // 2]], 1.0)]
        med_raw = vals[order[m // 2]]
    else:
        lo, hi = order[m // 2 - 1], order[m // 2]
        med_pairs = [(iu[0][lo], iu[1][lo], 0.5), (iu[0][hi], iu[1][hi], 0.5)]
        med_raw = 0.5 * (vals[lo] + vals[hi])
    floored = med_raw < WIDTH_FLOOR
    width = max(float(med_raw), WIDTH_FLOOR)

    mask = mutual_mask(d2, k)
    adj = np.where(mask, np.exp(-d2 / (2.0 * width)), 0.0)
    np.fill_diagonal(adj, 0.0)
    cache = {
        "n": n, "points": points, "d2": d2, "mask": mask, "adj": adj,
        "width": width, "med_pairs": med_pairs, "floored": floored,
    }
    return adj, cache


def mutual_knn_median_backward(cache, grad_adj):
    n = cache["n"]
    if n < 2:
        return np.zeros_like(cache["points"])
    points, d2 = cache["points"], cache["d2"]
    mask, adj, width = cache["mask"], cache["adj"], cache["width"]

    g_masked = np.where(mask, grad_adj, 0.0)
    g_d2 = g_masked * adj * (-1.0 / (2.0 * width))
    if not cache["floored"]:
        g_width = float(np.sum(g_masked * adj * d2) / (2.0 * width * width))
        for (a_idx, b_idx, w) in cache["med_pairs"]:
            g_d2[a_idx, b_idx] += w * g_width
    sym = np.where(d2 == 0.0, 0.0, g_d2 + g_d2.T)
    return 2.0 * (sym.sum(axis=1)[:, None] * points - sym @ points)


# ---------------------------------------- former steps of the batched graph
# The batched builder in glemiml.graph computes these steps with sorted
# values, a circulant pair layout and in-place arithmetic; it must
# reproduce them bit for bit.

def sq_dists_by_feature(points):
    """Squared distances of a (B, n, p) stack, one feature at a time with fresh temporaries."""
    n = points.shape[-2]
    d2 = np.zeros(points.shape[:-1] + (n,))
    for f in range(points.shape[-1]):
        col = points[..., f]
        diff = col[..., :, None] - col[..., None, :]
        d2 += diff * diff
    return d2


def median_pairs_by_argsort(d2, counts):
    """Rows and columns (B, 2) of each set's middle pair(s) and its floored median width.

    A stable argsort of every set's upper-triangle pairs, padded pairs last.
    """
    n = d2.shape[1]
    rows, cols = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    vals = np.where(cols < counts[:, None], d2[:, rows, cols], np.inf)
    order = np.argsort(vals, axis=1, kind="stable")
    sets = np.arange(len(counts))
    m = counts * (counts - 1) // 2
    lo = order[sets, np.maximum((m - 1) // 2, 0)]
    hi = order[sets, m // 2]
    med_raw = np.where(m > 0, 0.5 * (vals[sets, lo] + vals[sets, hi]), 1.0)
    pick = np.stack([lo, hi], axis=1)
    return rows[pick], cols[pick], np.maximum(med_raw, WIDTH_FLOOR)


def batched_graph_backward(cache, grad_adj):
    """mutual_knn_median_backward computed with a fresh array for every step."""
    points, d2, mask = cache["points"], cache["d2"], cache["mask"]
    adj, width = cache["adj"], cache["width"]
    g_masked = np.where(mask, grad_adj, 0.0)
    g_d2 = g_masked * adj * (-1.0 / (2.0 * width[:, None, None]))
    g_width = (g_masked * adj * d2).sum(axis=(1, 2)) / (2.0 * width * width)
    sets = np.arange(width.shape[0])[:, None]
    np.add.at(g_d2, (sets, cache["med_rows"], cache["med_cols"]),
              cache["med_weights"] * g_width[:, None])
    sym = np.where(d2 == 0.0, 0.0, g_d2 + g_d2.transpose(0, 2, 1))
    return 2.0 * (sym.sum(axis=2)[:, :, None] * points - sym @ points)


# ---------------------------------------- former per-batch packing steps

def stack_instances(bags):
    """(instances (sum n_i, d), counts (B,)): the bags' rows stacked in bag order."""
    try:
        stacked = np.concatenate([bag.instances for bag in bags])
    except ValueError as exc:
        raise ShapeError(f"cannot stack the bags' instances: {exc}") from exc
    return stacked, np.array([bag.num_instances for bag in bags], dtype=np.int64)


def bag_means(stacked, counts):
    return np.add.reduceat(stacked, np.cumsum(counts) - counts, axis=0) / counts[:, None]


def logical_matrix(bags):
    """The float label matrix as the package formerly built it: stacked, then converted."""
    return np.stack([b.logical_labels for b in bags]).astype(np.float64)


# --------------------------------------------------------------- enhancer

def _bag_branches(model, bag):
    U = bag.instances
    m1 = U.mean(axis=0)
    if not model.use_instance_graph:
        return m1, np.zeros(model.embed_dim), None
    E, sig_cache = forward_batch(model.sigma_net, U)
    A, gcache = mutual_knn_median(E, model.instance_k)
    m2 = (A @ E).mean(axis=0)
    return m1, m2, {"sig_cache": sig_cache, "E": E, "A": A, "gcache": gcache, "n": U.shape[0]}


def enhancer_forward(model, bags):
    """Returns (EnhancedBatch, cache), one bag at a time up to the label graph."""
    m1s, m2s, bag_caches = [], [], []
    for bag in bags:
        m1, m2, bc = _bag_branches(model, bag)
        m1s.append(m1)
        m2s.append(m2)
        bag_caches.append(bc)
    Lmat = np.stack([b.logical_labels for b in bags]).astype(np.float64)
    o1, c1 = forward_batch(model.omega1_net, np.stack(m1s))
    o2, c2 = forward_batch(model.omega2_net, np.stack(m2s))
    o3, c3 = forward_batch(model.omega3_net, Lmat)
    base = o1 + o2 + o3
    d0 = softmax_rows(base)
    adj, lab_cache = mutual_knn_median(d0.T, model.k_label)
    adj_n, scale = _row_normalize(adj)
    refined = base + base @ adj_n.T
    batch = EnhancedBatch(logits=refined, distributions=softmax_rows(refined),
                          confidences=sigmoid(refined))
    cache = {"bag_caches": bag_caches, "c1": c1, "c2": c2, "c3": c3, "base": base,
             "d0": d0, "adj": adj, "adj_n": adj_n, "scale": scale, "lab_cache": lab_cache}
    return batch, cache


def enhancer_backward(model, cache, grad_refined):
    base, d0, adj_n = cache["base"], cache["d0"], cache["adj_n"]
    g_base = grad_refined + grad_refined @ adj_n
    g_adj = _row_normalize_backward(cache["adj"], cache["scale"], grad_refined.T @ base)
    g_cols = mutual_knn_median_backward(cache["lab_cache"], g_adj)
    g_base += softmax_rows_backward(d0, g_cols.T)

    g1, _ = backward_batch(model.omega1_net, cache["c1"], g_base)
    g2, g_m2 = backward_batch(model.omega2_net, cache["c2"], g_base)
    g3, _ = backward_batch(model.omega3_net, cache["c3"], g_base)

    sigma_grad = np.zeros(num_params(model.sigma_net))
    for i, bc in enumerate(cache["bag_caches"]):
        if bc is None:
            continue
        n, E, A = bc["n"], bc["E"], bc["A"]
        g_p = np.tile(g_m2[i] / n, (n, 1))
        g_e = A.T @ g_p + mutual_knn_median_backward(bc["gcache"], g_p @ E.T)
        sg, _ = backward_batch(model.sigma_net, bc["sig_cache"], g_e)
        sigma_grad += grads_to_vector(sg)
    return np.concatenate([
        sigma_grad, grads_to_vector(g1), grads_to_vector(g2), grads_to_vector(g3)
    ])


# ------------------------------------------------------------- classifier

def _bag_forward(model, bag):
    if model.instance_net is None:
        hidden, inst_cache = bag.instances, None
    else:
        hidden, inst_cache = forward_batch(model.instance_net, bag.instances)
    pool_idx = hidden.argmax(axis=0)
    pooled = hidden[pool_idx, np.arange(hidden.shape[1])]
    s, head_cache = forward_batch(model.head, pooled[None, :])
    return s[0], (inst_cache, pool_idx, hidden.shape[0], head_cache)


def classifier_forward(model, bags):
    """Returns (logits (B, t), probabilities, per-bag caches)."""
    rows = [_bag_forward(model, bag) for bag in bags]
    S = np.stack([s for s, _ in rows])
    return S, sigmoid(S), [c for _, c in rows]


def classifier_backward(model, caches, grad_logits):
    head_grad = np.zeros(num_params(model.head))
    inst_grad = (np.zeros(num_params(model.instance_net))
                 if model.instance_net is not None else None)
    for i, (inst_cache, pool_idx, n_inst, head_cache) in enumerate(caches):
        hg, g_pooled = backward_batch(model.head, head_cache, grad_logits[i][None, :])
        head_grad += grads_to_vector(hg)
        if model.instance_net is None:
            continue
        g_hidden = np.zeros((n_inst, pool_idx.shape[0]))
        g_hidden[pool_idx, np.arange(pool_idx.shape[0])] = g_pooled[0]
        ig, _ = backward_batch(model.instance_net, inst_cache, g_hidden)
        inst_grad += grads_to_vector(ig)
    if inst_grad is None:
        return head_grad
    return np.concatenate([inst_grad, head_grad])


# ----------------------------------------------------------------- losses

def threshold_loss(D, L):
    """Row-loop hinge; 0 when no row has both a positive and a negative label."""
    total, m = 0.0, 0
    for i in range(D.shape[0]):
        pos, neg = L[i] == 1, L[i] == 0
        if not pos.any() or not neg.any():
            continue
        total += max(D[i, neg].max() - D[i, pos].min(), 0.0)
        m += 1
    return total / m if m else 0.0


def threshold_loss_grad(D, L):
    grad = np.zeros_like(D)
    eligible = [i for i in range(D.shape[0]) if (L[i] == 1).any() and (L[i] == 0).any()]
    m = len(eligible)
    for i in eligible:
        neg_idx = np.flatnonzero(L[i] == 0)
        pos_idx = np.flatnonzero(L[i] == 1)
        j_neg = neg_idx[np.argmax(D[i, neg_idx])]
        j_pos = pos_idx[np.argmin(D[i, pos_idx])]
        if D[i, j_neg] - D[i, j_pos] > 0.0:
            grad[i, j_neg] += 1.0 / m
            grad[i, j_pos] -= 1.0 / m
    return grad
