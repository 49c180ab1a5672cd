"""Median-width mutual-KNN graphs with Gaussian edge weights, and their backward pass.

``mutual_knn_median`` builds the enhancer's instance graphs and its label
graph, a batch of zero-padded point sets at a time.
"""

from __future__ import annotations

import numpy as np

WIDTH_FLOOR = 1e-8

# Largest difference tensor, in elements, that pairwise_sq_dists forms at once.
_DIFF_BUDGET = 1 << 17

# Elements in each of the two (sets, n, n) buffers of pairwise_sq_dists'
# feature-by-feature path (256 KiB each). On 32 sets of 20-50 points with
# 8 features (2-vCPU Xeon, 48 KiB L1d and 2 MiB L2 per core, NumPy 2.4),
# blocks of 2^15 took 1.15-1.26 ms, blocks of 2^12 2.0-2.2 ms, one block of
# all sets 1.5-1.6 ms, and fresh temporaries per feature 2.1-2.2 ms.
_DIST_BLOCK = 1 << 15

# Smallest (sets x pairs) block on which mutual_knn_median finds the median
# pair(s) with np.sort instead of a stable argsort of every pair. Measured on
# the same host: 32 x 10 pairs, argsort 15 us against 40 us; 32 x 1225 pairs,
# 1.8 ms against 0.33 ms. They cross near 4k pairs (32 x 120: 65 against
# 56 us; 64 x 66: 66 against 73 us). Small-bag instance graphs and label
# graphs fall below it, 20-50-point bags above.
_SORTED_MEDIAN_MIN_PAIRS = 1 << 12


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of each (n, p) matrix of a (..., n, p) stack.

    With no more features than rows, the squared differences are added one
    feature at a time, in feature order, into preallocated buffers, a block
    of _DIST_BLOCK elements' worth of sets at a time. Otherwise rows are taken
    a few at a time, so the difference tensor stays within _DIFF_BUDGET
    elements.
    """
    n, p = points.shape[-2:]
    if p <= n:
        # (sets, p, n): each feature's column is contiguous
        cols = np.ascontiguousarray(points.reshape((-1, n, p)).transpose(0, 2, 1))
        d2 = np.empty((cols.shape[0], n, n))
        step = max(1, _DIST_BLOCK // (n * n))
        buf = np.empty((min(step, cols.shape[0]), n, n))
        for lo in range(0, cols.shape[0], step):
            acc = d2[lo:lo + step]
            sq = buf[:acc.shape[0]]
            col = cols[lo:lo + step, 0]
            np.subtract(col[:, :, None], col[:, None, :], out=acc)
            np.multiply(acc, acc, out=acc)
            for f in range(1, p):
                col = cols[lo:lo + step, f]
                np.subtract(col[:, :, None], col[:, None, :], out=sq)
                np.multiply(sq, sq, out=sq)
                acc += sq
        return d2.reshape(points.shape[:-1] + (n,))
    d2 = np.empty(points.shape[:-1] + (n,))
    step = max(1, _DIFF_BUDGET // points.size)
    for lo in range(0, n, step):
        diff = points[..., lo:lo + step, None, :] - points[..., None, :, :]
        d2[..., lo:lo + step, :] = np.einsum("...ijk,...ijk->...ij", diff, diff)
    return d2


def _mutual_mask(d2: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """(B, N, N) mask of mutually-K-nearest pairs among each set's first counts[b] nodes.

    K is clamped to counts[b] - 1 per set and a node is never its own
    neighbour. Neighbours are taken nearest first, ties to the lower index
    as in a stable sort; self and padded pairs are never nearer than +inf,
    so each set's neighbours are those of the set alone.
    """
    n_sets, n, _ = d2.shape
    real = np.arange(n) < counts[:, None]
    pairs = real[:, :, None] & real[:, None, :] & ~np.eye(n, dtype=bool)
    remaining = np.where(pairs, d2, np.inf).reshape(-1)
    wanted = np.minimum(k, counts - 1)[:, None]
    row_starts = np.arange(0, remaining.size, n).reshape(n_sets, n)
    nbr = np.zeros(remaining.size, dtype=bool)
    for rank in range(min(k, n - 1)):
        # flat index of each row's nearest remaining node
        nearest = row_starts + remaining.reshape(n_sets, n, n).argmin(axis=2)
        nbr[nearest] |= real & (rank < wanted)
        remaining[nearest] = np.inf
    nbr = nbr.reshape(n_sets, n, n)
    return nbr & nbr.transpose(0, 2, 1)


def _ranked_pairs(vals: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Column that a stable argsort of each row of `vals` puts at each of the row's `ranks`.

    `vals` is (B, P) and `ranks` (B, r). Blocks of at least
    _SORTED_MEDIAN_MIN_PAIRS values find each ranked value with np.sort; a
    value held by one column of its row names that column, and only rows
    where a ranked value is tied (or NaN) get a stable argsort.
    """
    rows = np.arange(len(vals))[:, None]
    if vals.size < _SORTED_MEDIAN_MIN_PAIRS:
        return np.argsort(vals, axis=1, kind="stable")[rows, ranks]
    ranked = np.sort(vals, axis=1)[rows, ranks]
    holders = vals[:, None, :] == ranked[:, :, None]
    pick = holders.argmax(axis=2)
    tied = np.flatnonzero((np.count_nonzero(holders, axis=2) != 1).any(axis=1))
    if tied.size:
        order = np.argsort(vals[tied], axis=1, kind="stable")
        pick[tied] = order[rows[:tied.size], ranks[tied]]
    return pick


def mutual_knn_median(points: np.ndarray, counts, k: int):
    """Median-width mutual-KNN adjacencies of a batch of point sets, plus a cache for backprop.

    `points` is a zero-padded (B, N, p) block: set b is its first counts[b]
    rows. Returns (adjacency (B, N, N), cache). Each set's adjacency is the
    one the set alone would get, zero on padded rows and columns; its width
    is the median of the set's squared pairwise distances, floored at
    WIDTH_FLOOR. The cache records everything needed to push a gradient on
    the adjacency entries back onto the points, including the dependence of
    each width on its median pair(s). `k` must be at least 1; TrainConfig and
    EnhancerModel check it where it enters.
    """
    points = np.asarray(points, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    n = points.shape[1]
    if n < 2:
        return np.zeros((points.shape[0], n, n)), {"points": points}
    d2 = pairwise_sq_dists(points)
    mask = _mutual_mask(d2, counts, k)

    # each set's pairs in np.triu_indices order, padded pairs sorted last
    rows, cols = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    vals = np.where(cols < counts[:, None], d2[:, rows, cols], np.inf)
    m = counts * (counts - 1) // 2
    # the middle pair(s) of each set's sorted pairs, ranks (m-1)//2 and m//2:
    # one when m is odd
    pick = _ranked_pairs(vals, np.maximum((m[:, None] - [1, 0]) // 2, 0))
    sets = np.arange(len(counts))
    lo, hi = pick.T
    med_raw = np.where(m > 0, 0.5 * (vals[sets, lo] + vals[sets, hi]), 1.0)
    width = np.maximum(med_raw, WIDTH_FLOOR)
    # share of the width's gradient each middle pair takes; none when floored
    med_weights = np.where((m % 2 == 1)[:, None], [1.0, 0.0], [0.5, 0.5])
    med_weights *= ((m > 0) & (med_raw >= WIDTH_FLOOR))[:, None]

    # exp(-d2 / (2 w)) on mutual pairs, 0 elsewhere (the weights are positive)
    adj = np.negative(d2)
    adj /= (2.0 * width)[:, None, None]
    np.exp(adj, out=adj)
    adj *= mask
    cache = {
        "points": points, "d2": d2, "mask": mask, "adj": adj, "width": width,
        "med_rows": rows[pick], "med_cols": cols[pick], "med_weights": med_weights,
    }
    return adj, cache


def mutual_knn_median_backward(cache, grad_adj: np.ndarray) -> np.ndarray:
    """Gradient of a scalar through the adjacencies back to the (B, N, p) input points.

    The KNN selection and the median choice are treated as locally constant
    (both are piecewise constant in the points); the Gaussian weights and the
    median width itself are differentiated exactly.
    """
    points = cache["points"]
    if "d2" not in cache:
        return np.zeros_like(points)
    d2, mask, adj, width = cache["d2"], cache["mask"], cache["adj"], cache["width"]

    g_d2 = np.where(mask, grad_adj, 0.0)
    g_d2 *= adj
    # width dependence: da/dw = a * d2 / (2 w^2), routed to the median pair(s)
    work = np.multiply(g_d2, d2)
    g_width = work.sum(axis=(1, 2)) / (2.0 * width * width)
    # direct dependence: a = exp(-d2 / (2 w))  =>  da/dd2 = -a / (2 w)
    g_d2 *= -1.0 / (2.0 * width[:, None, None])
    sets = np.arange(width.shape[0])[:, None]
    np.add.at(g_d2, (sets, cache["med_rows"], cache["med_cols"]),
              cache["med_weights"] * g_width[:, None])
    # d d2[k,m] / d p_k = 2 (p_k - p_m); both (k,m) and (m,k) entries contribute.
    # Coincident points contribute exactly nothing; dropping their entries keeps
    # the huge weights of a floored width from leaving rounding residue behind.
    sym = np.add(g_d2, g_d2.transpose(0, 2, 1), out=work)
    np.copyto(sym, 0.0, where=d2 == 0.0)
    return 2.0 * (sym.sum(axis=2)[:, :, None] * points - sym @ points)
