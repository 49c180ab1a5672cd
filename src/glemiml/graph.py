"""Median-width mutual-KNN graphs with Gaussian edge weights, and their backward pass.

``mutual_knn_median`` builds the enhancer's instance graphs and its label
graph, a batch of zero-padded point sets at a time.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH_FLOOR = 1e-8

# About the elements of scratch one step of pairwise_sq_dists takes (256 KiB).
# With each step's sets innermost, on a 32-set stack of 20-50 points with 8
# features, the 30-label graph of 2,000 bags and 500 sets of 2-5 points
# (2-vCPU Xeon, 48 KiB L1d and 2 MiB L2 per core, NumPy 2.4, min of 15
# interleaved rounds), 2^12 took 1.63, 3.22 and 0.222 ms, 2^14 0.83, 1.61 and
# 0.132 ms, 2^15 0.67, 1.52 and 0.115 ms, 2^16 0.62, 1.45 and 0.104 ms, 2^17
# 0.59, 1.38 and 0.096 ms. 2^16 puts the forward-only label build's peak at
# 0.67 MB, above the 0.5 MB a test allows it.
_DIST_BLOCK = 1 << 15

# Smallest (sets x pairs) block on which mutual_knn_median finds the median
# pair(s) with np.sort instead of a stable argsort of every pair. Measured on
# the same host: 32 x 10 pairs, argsort 15 us against 40 us; 32 x 1225 pairs,
# 1.8 ms against 0.33 ms. They cross near 4k pairs (32 x 120: 65 against
# 56 us; 64 x 66: 66 against 73 us). Small-bag instance graphs and label
# graphs fall below it, 20-50-point bags above.
_SORTED_MEDIAN_MIN_PAIRS = 1 << 12


class GraphPlan:
    """The arrays of a mutual_knn_median build that depend only on (counts, N, k).

    Two builds of the same set sizes at the same padded size N and the same
    k share them, so a batch's forward, backward and forward-only rebuild
    need one plan between them.
    """

    def __init__(self, counts: np.ndarray, n: int, k: int):
        n_sets = len(counts)
        real = np.arange(n) < counts[:, None]
        # real pairs of distinct nodes; the rest never count as neighbours
        self.pairs = real[:, :, None] & real[:, None, :] & ~np.eye(n, dtype=bool)
        # rows that take a neighbour at each rank: K is clamped to counts[b] - 1
        wanted = np.minimum(k, counts - 1)[:, None]
        self.rank_masks = real & (np.arange(min(k, n - 1))[:, None, None] < wanted)
        # flat index of each row's first entry in the (B, N, N) block
        self.row_starts = np.arange(0, n_sets * n * n, n).reshape(n_sets, n)
        # each set's pairs in np.triu_indices order, and their flat index in an
        # (N, N) matrix
        self.rows, self.cols = np.nonzero(np.arange(n)[:, None] < np.arange(n))
        self.flat = self.rows * n + self.cols
        m = counts * (counts - 1) // 2
        # the middle pair(s) of each set's sorted pairs, ranks (m-1)//2 and
        # m//2: one when m is odd
        self.ranks = np.maximum((m[:, None] - [1, 0]) // 2, 0)
        self.has_pairs = m > 0
        # share of the width's gradient each middle pair takes, before the floor
        self.med_pattern = np.where((m % 2 == 1)[:, None], [1.0, 0.0], [0.5, 0.5])
        self.med_pattern *= self.has_pairs[:, None]
        self.sets = np.arange(n_sets)[:, None]


@functools.lru_cache(maxsize=2)
def _plan(counts: bytes, n: int, k: int) -> GraphPlan:
    """The GraphPlan of int64 set sizes `counts` (as bytes) at padded size n and k, memoised.

    Two entries hold a training batch's instance plan and the label plan:
    the batch's build, backward and forward-only rebuild share the one, and
    every batch of a train() call the other. The arrays are read-only, since
    every caller, and both workers of a chunked enhancer pass, share them.
    """
    plan = GraphPlan(np.frombuffer(counts, dtype=np.int64), n, k)
    for array in vars(plan).values():
        array.setflags(write=False)
    return plan


@functools.lru_cache(maxsize=2)
def _circulant_index(n: int) -> np.ndarray:
    """Where each entry of an (n, n) distance matrix sits in a set's circulant sums.

    The sums are (n//2, n) values, row d - 1 the distance from point i to
    point (i + d) mod n, then one +0.0 for the diagonal. Entry (i, j) reads
    offset (j - i) mod n from point i, or offset (i - j) mod n from point j
    when that is the one stored.
    """
    half = n // 2
    point = np.arange(n)
    offset = (point - point[:, None]) % n
    index = np.where(offset <= half, (offset - 1) * n + point[:, None],
                     (n - offset - 1) * n + point)
    index[offset == 0] = half * n
    index = index.reshape(-1)
    index.setflags(write=False)  # memoised, so shared by every caller
    return index


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of each (n, p) matrix of a (..., n, p) stack.

    Every stack takes one layout: instance sets of any size, and the label
    graph (a single set stored feature-major, whose features are a batch's
    bags). Each unordered pair is computed once, in a circulant layout: for
    offsets d = 1..n//2, row d - 1 of a set's (n//2, n) sums holds the
    distance from point i to point (i + d) mod n. (At d = n/2, n even, each
    pair appears twice.)

    The work goes in steps of about _DIST_BLOCK elements of scratch: as many
    feature rows as fit, then as many sets as fit, and a step's sets lie
    innermost. Its feature rows are copied into a C-ordered (rows, n + n//2,
    sets) block, each with its first n//2 points appended, so that one
    strided window over the copy holds every offset's partner points. The
    squared differences fill a C-ordered (rows, n//2, n, sets) block, so for
    one feature and offset a step's points x sets are one contiguous run
    (1,200 values in a step of 240 sets of five points, where a layout with
    the sets outermost runs over five at a time). Row 0 of the block holds
    the running sum, and np.add.reduce over axis 0, the outermost, adds the
    rows in order into the step's (n//2 * n + 1, sets) sums, whose last row
    is the diagonal's +0.0. One gather per step, through the index that
    _circulant_index memoises, then writes each value to (i, j) and (j, i)
    of the step's sets. A one-set step, such as every label graph's, has a
    unit sets axis: it reduces straight into its sums and gathers them
    without a copy. A step of several sets gathers through one transposed
    copy of its sums.

    So each pair's squared differences are added one feature at a time, in
    feature order, and (a - b)^2 and (b - a)^2 are the same bits: every
    value equals the one a full (n, n) sum would give, whatever the padded n
    of the stack and whichever sets share the step. (A block summed on its
    own and then added, or a reduction along a contiguous axis, which NumPy
    sums pairwise, would round differently.)

    Besides the result, a call holds one step's scratch, at most about
    _DIST_BLOCK elements (two feature rows of a set of 180 points or more
    take more), and its sums.
    """
    n, p = points.shape[-2:]
    cols = points.reshape((-1, n, p)).transpose(2, 1, 0)  # (p, n, sets)
    n_sets = cols.shape[2]
    half = n // 2  # partners per point
    cells = half * n  # one feature's differences
    per_row = cells + n + half  # and its wrapped points
    rows = min(max(2, _DIST_BLOCK // per_row), p)
    step = max(1, min(_DIST_BLOCK // (rows * per_row), n_sets))
    work = step * rows * per_row
    scratch = np.empty(work + step * (cells + 1))
    index = _circulant_index(n)
    d2 = np.empty((n_sets, n * n))
    for s in range(0, n_sets, step):
        k = min(step, n_sets - s)
        sums = scratch[work:work + (cells + 1) * k].reshape(cells + 1, k)
        sums[cells] = 0.0  # the diagonal's value
        out = sums[:cells].reshape(half, n, k)
        lo, start = 0, 0  # the first block has no running sum yet
        while lo < p:
            hi = min(p, lo + rows - start)
            ext = scratch[:(hi - lo) * (n + half) * k].reshape(hi - lo, n + half, k)
            ext[:, :n] = cols[lo:hi, :, s:s + k]
            ext[:, n:] = ext[:, :half]
            # partners[f, d - 1, i, j] = ext[f, i + d, j]
            partners = np.ndarray((hi - lo, half, n, k), ext.dtype, ext, ext.strides[1],
                                  ext.strides[:2] + ext.strides[1:])
            block = scratch[ext.size:ext.size + (start + hi - lo) * cells * k]
            block = block.reshape(start + hi - lo, half, n, k)
            sq = block[start:]
            np.subtract(partners, ext[:, None, :n], out=sq)
            np.multiply(sq, sq, out=sq)
            if start:
                block[0] = out
            np.add.reduce(block, axis=0, out=out)
            lo, start = hi, 1
        # the index is in range; mode "clip" lets take write into d2 unbuffered
        sums.T.take(index, axis=1, out=d2[s:s + k], mode="clip")
    return d2.reshape(points.shape[:-1] + (n,))


def _mutual_mask(remaining: np.ndarray, plan: GraphPlan) -> np.ndarray:
    """(B, N, N) mask of mutually-K-nearest pairs among each set's first counts[b] nodes.

    `remaining` holds the squared distances of the plan's pairs and +inf
    elsewhere, and is used up. K is clamped to counts[b] - 1 per set and a
    node is never its own neighbour. Neighbours are taken nearest first, ties
    to the lower index as in a stable sort; self and padded pairs are never
    nearer than +inf, so each set's neighbours are those of the set alone.
    """
    flat = remaining.reshape(-1)
    nbr = np.zeros(flat.size, dtype=bool)
    for rank_mask in plan.rank_masks:
        # flat index of each row's nearest remaining node
        nearest = plan.row_starts + remaining.argmin(axis=2)
        nbr[nearest] |= rank_mask
        flat[nearest] = np.inf
    nbr = nbr.reshape(remaining.shape)
    return nbr & nbr.transpose(0, 2, 1)


def _ranked_pairs(vals: np.ndarray, plan: GraphPlan) -> np.ndarray:
    """Column that a stable argsort of each row of `vals` puts at each of the plan's ranks.

    `vals` is (B, P) and the ranks (B, r). Blocks of at least
    _SORTED_MEDIAN_MIN_PAIRS values find each ranked value with np.sort. A
    stable sort puts the first column holding a value first among the
    values equal to it, so a ranked value above its sorted predecessor names
    the first column equal to it. Only rows where a ranked value equals its
    predecessor (or is NaN) get a stable argsort.
    """
    rows, ranks = plan.sets, plan.ranks
    if vals.size < _SORTED_MEDIAN_MIN_PAIRS:
        return np.argsort(vals, axis=1, kind="stable")[rows, ranks]
    ordered = np.sort(vals, axis=1)
    ranked = ordered[rows, ranks]
    first = (ranks == 0) | (ordered[rows, np.maximum(ranks - 1, 0)] < ranked)
    pick = np.empty(ranks.shape, dtype=np.intp)
    for r in range(ranks.shape[1]):
        pick[:, r] = (vals == ranked[:, r, None]).argmax(axis=1)
    tied = np.flatnonzero(~first.all(axis=1))
    if tied.size:
        order = np.argsort(vals[tied], axis=1, kind="stable")
        pick[tied] = order[rows[:tied.size], ranks[tied]]
    return pick


def mutual_knn_median(points: np.ndarray, counts, k: int, grad: bool = True):
    """Median-width mutual-KNN adjacencies of a batch of point sets, plus a cache for backprop.

    `points` is a zero-padded (B, N, p) block: set b is its first counts[b]
    rows. Returns (adjacency (B, N, N), cache). Each set's adjacency is zero
    on padded rows and columns and is the one the set alone would get, bit
    for bit while its points are finite. The width is the median of the
    set's squared pairwise distances, floored at WIDTH_FLOOR. The Gaussian
    weights exp(-d2 / (2 w)) are computed on the mutual pairs alone, and
    every other entry is +0.0. So where a point is not finite (Bag rejects
    such data, so only a diverging embedding makes one), its NaN distances,
    or a NaN width, reach the mutual pairs only. The cache records everything
    needed to push a gradient on the adjacency entries back onto the points,
    including the dependence of each width on its median pair(s). `k` must
    be at least 1; TrainConfig and EnhancerModel check it where it enters.

    Every array of a build and of its backward pass is allocated by that
    call, apart from the read-only GraphPlan of (counts, N, k), which _plan
    memoises. With grad=False the build is forward only: it reads the median
    from a sort of the pair values instead of locating the median pair(s),
    writes the adjacency over the distances and returns None for the cache;
    the adjacency is the same bit for bit.
    """
    points = np.asarray(points, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    n = points.shape[1]
    if n < 2:
        cache = {"points": points} if grad else None
        return np.zeros((points.shape[0], n, n)), cache
    plan = _plan(counts.tobytes(), n, k)
    d2 = pairwise_sq_dists(points)
    remaining = np.where(plan.pairs, d2, np.inf)
    # each set's pairs in np.triu_indices order, padded pairs +inf so they sort last
    vals = remaining.reshape(len(counts), -1)[:, plan.flat]
    mask = _mutual_mask(remaining, plan)
    del remaining  # used up; freed before the weights are computed

    if grad:
        pick = _ranked_pairs(vals, plan)
        mid = vals[plan.sets, pick]
    else:
        vals.sort(axis=1)
        mid = vals[plan.sets, plan.ranks]
    med_raw = np.where(plan.has_pairs, 0.5 * (mid[:, 0] + mid[:, 1]), 1.0)
    width = np.maximum(med_raw, WIDTH_FLOOR)

    # exp(-d2 / (2 w)) on mutual pairs, +0.0 elsewhere
    edges = np.flatnonzero(mask)
    weights = d2.reshape(-1)[edges]
    np.negative(weights, out=weights)
    weights /= (2.0 * width)[edges // (n * n)]
    np.exp(weights, out=weights)
    adj = np.empty_like(d2) if grad else d2
    adj.fill(0.0)
    adj.reshape(-1)[edges] = weights
    if not grad:
        return adj, None
    cache = {
        "points": points, "d2": d2, "mask": mask, "adj": adj, "width": width,
        "med_rows": plan.rows[pick], "med_cols": plan.cols[pick],
        # no width gradient reaches the middle pairs of a floored width
        "med_weights": plan.med_pattern * (med_raw >= WIDTH_FLOOR)[:, None],
        "plan": plan,
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
    work = g_d2 * d2
    g_width = work.sum(axis=(1, 2)) / (2.0 * width * width)
    # direct dependence: a = exp(-d2 / (2 w))  =>  da/dd2 = -a / (2 w)
    g_d2 *= -1.0 / (2.0 * width[:, None, None])
    np.add.at(g_d2, (cache["plan"].sets, cache["med_rows"], cache["med_cols"]),
              cache["med_weights"] * g_width[:, None])
    # d d2[k,m] / d p_k = 2 (p_k - p_m); both (k,m) and (m,k) entries contribute.
    # Coincident points contribute exactly nothing; dropping their entries keeps
    # the huge weights of a floored width from leaving rounding residue behind.
    sym = np.add(g_d2, g_d2.transpose(0, 2, 1), out=work)
    np.copyto(sym, 0.0, where=d2 == 0.0)
    return 2.0 * (sym.sum(axis=2)[:, :, None] * points - sym @ points)
