"""Mutual-KNN graphs with Gaussian edge weights, Laplacians, and propagation.

The feature-producing interaction used by the enhancer is adjacency-weighted
neighbor aggregation (``propagate_embeddings``); the scalar quadratic form over
the Laplacian is kept as the ``smoothness_energy`` diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

WIDTH_FLOOR = 1e-8

# Largest difference tensor, in elements, that pairwise_sq_dists forms at once.
_DIFF_BUDGET = 1 << 17


@dataclass(frozen=True)
class WeightedGraph:
    adjacency: np.ndarray  # (n, n) symmetric, zero diagonal, entries in [0, 1]
    width: float
    k_neighbors: int

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class LaplacianMatrix:
    matrix: np.ndarray  # degree minus adjacency


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of each (n, p) matrix of a (..., n, p) stack.

    With no more features than rows, the sum over features runs one feature
    at a time on (..., n, n) arrays. Otherwise rows are taken a few at a time,
    so the difference tensor stays within _DIFF_BUDGET elements.
    """
    n, p = points.shape[-2:]
    if p <= n:
        d2 = np.zeros(points.shape[:-1] + (n,))
        for f in range(p):
            col = points[..., f]
            diff = col[..., :, None] - col[..., None, :]
            d2 += diff * diff
        return d2
    d2 = np.empty(points.shape[:-1] + (n,))
    step = max(1, _DIFF_BUDGET // points.size)
    for lo in range(0, n, step):
        diff = points[..., lo:lo + step, None, :] - points[..., None, :, :]
        d2[..., lo:lo + step, :] = np.einsum("...ijk,...ijk->...ij", diff, diff)
    return d2


def median_width(points: np.ndarray) -> float:
    """Median of squared pairwise distances, floored; 1.0 when < 2 points."""
    n = points.shape[0]
    if n < 2:
        return 1.0
    d2 = pairwise_sq_dists(points)
    vals = d2[np.triu_indices(n, k=1)]
    return float(max(np.median(vals), WIDTH_FLOOR))


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


def mutual_knn_adjacency(points: np.ndarray, k: int, width: float) -> WeightedGraph:
    """Gaussian-weighted mutual-KNN adjacency; K is clamped to n-1 internally."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ShapeError("points must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(points)):
        raise NumericError("points contain non-finite values")
    if width <= 0:
        raise ConfigError(f"width must be positive, got {width!r}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    d2 = pairwise_sq_dists(points)
    mask = _mutual_mask(d2[None], np.array([points.shape[0]]), k)[0]
    adj = np.where(mask, np.exp(-d2 / (2.0 * width)), 0.0)
    return WeightedGraph(adjacency=adj, width=float(width), k_neighbors=int(k))


def laplacian(g: WeightedGraph) -> LaplacianMatrix:
    adj = g.adjacency
    return LaplacianMatrix(matrix=np.diag(adj.sum(axis=1)) - adj)


def propagate_embeddings(embeddings: np.ndarray, g: WeightedGraph) -> np.ndarray:
    """Adjacency-weighted neighbor aggregation: row k becomes sum_m a_km * row m."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.shape[0] != g.num_nodes:
        raise ShapeError(
            f"embedding rows {embeddings.shape[0]} != graph nodes {g.num_nodes}"
        )
    return g.adjacency @ embeddings


def smoothness_energy(embeddings: np.ndarray, lap: LaplacianMatrix) -> float:
    """trace(E^T L E); equals half the weighted sum of squared neighbor gaps."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.shape[0] != lap.matrix.shape[0]:
        raise ShapeError(
            f"embedding rows {embeddings.shape[0]} != Laplacian size {lap.matrix.shape[0]}"
        )
    return float(np.trace(embeddings.T @ lap.matrix @ embeddings))


def mutual_knn_median(points: np.ndarray, counts, k: int):
    """Median-width mutual-KNN adjacencies of a batch of point sets, plus a cache for backprop.

    `points` is a zero-padded (B, N, p) block: set b is its first counts[b]
    rows. Returns (adjacency (B, N, N), cache). Each set's adjacency is the
    one the set alone would get, zero on padded rows and columns; its width
    is the median of the set's squared pairwise distances, floored at
    WIDTH_FLOOR. The cache records everything needed to push a gradient on
    the adjacency entries back onto the points, including the dependence of
    each width on its median pair(s).
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
    order = np.argsort(vals, axis=1, kind="stable")
    sets = np.arange(len(counts))
    m = counts * (counts - 1) // 2
    # the middle pair(s) of each set's sorted pairs: one when m is odd
    lo = order[sets, np.maximum((m - 1) // 2, 0)]
    hi = order[sets, m // 2]
    med_raw = np.where(m > 0, 0.5 * (vals[sets, lo] + vals[sets, hi]), 1.0)
    width = np.maximum(med_raw, WIDTH_FLOOR)
    # share of the width's gradient each middle pair takes; none when floored
    med_weights = np.where((m % 2 == 1)[:, None], [1.0, 0.0], [0.5, 0.5])
    med_weights *= ((m > 0) & (med_raw >= WIDTH_FLOOR))[:, None]
    pick = np.stack([lo, hi], axis=1)

    adj = np.where(mask, np.exp(-d2 / (2.0 * width[:, None, None])), 0.0)
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

    g_masked = np.where(mask, grad_adj, 0.0)
    # direct dependence: a = exp(-d2 / (2 w))  =>  da/dd2 = -a / (2 w)
    g_d2 = g_masked * adj * (-1.0 / (2.0 * width[:, None, None]))
    # width dependence: da/dw = a * d2 / (2 w^2), routed to the median pair(s)
    g_width = (g_masked * adj * d2).sum(axis=(1, 2)) / (2.0 * width * width)
    sets = np.arange(width.shape[0])[:, None]
    np.add.at(g_d2, (sets, cache["med_rows"], cache["med_cols"]),
              cache["med_weights"] * g_width[:, None])
    # d d2[k,m] / d p_k = 2 (p_k - p_m); both (k,m) and (m,k) entries contribute.
    # Coincident points contribute exactly nothing; dropping their entries keeps
    # the huge weights of a floored width from leaving rounding residue behind.
    sym = np.where(d2 == 0.0, 0.0, g_d2 + g_d2.transpose(0, 2, 1))
    return 2.0 * (sym.sum(axis=2)[:, :, None] * points - sym @ points)
