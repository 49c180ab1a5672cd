"""Time the graph routines on a fixed list of instance-set and label-graph shapes.

    python3 tools/graph_shapes.py [--rounds 7]

For each shape prints the smallest per-call time, in microseconds, over
--rounds rounds of `pairwise_sq_dists`, a `mutual_knn_median` build with the
cache for backprop (grad) and without it (forward only), and
`mutual_knn_median_backward`. Each round repeats a call until it has run for
at least MIN_TIME seconds. The routines come from the src/ tree next to
this file, and BLAS runs on one thread, as in benchmarks/run.py.

Shapes are sets x points x features. "32x(20-50)x8" is 32 zero-padded sets
of 20 to 50 points with 8 features, as the enhancer's instance graphs take
them; "label 30x2000" is the label graph of 30 labels over 2,000 bags, a
single feature-major set whose features are the bags. k is 3, the default
of both graphs. The inputs are drawn from a fixed seed.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # before NumPy loads BLAS; an importer keeps its own setting
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from glemiml.graph import (  # noqa: E402
    mutual_knn_median,
    mutual_knn_median_backward,
    pairwise_sq_dists,
)

# (name, sets, fewest points, most points, features); sets of 0 are label graphs
# of `most` labels over `features` bags
SHAPES = [
    ("32x(20-50)x8", 32, 20, 50, 8),
    ("26x50x8", 26, 50, 50, 8),
    ("96x26x8", 96, 26, 26, 8),
    ("32x(2-5)x8", 32, 2, 5, 8),
    ("500x(2-5)x8", 500, 2, 5, 8),
    ("2000x(2-5)x8", 2000, 2, 5, 8),
    ("label 6x32", 0, 6, 6, 32),
    ("label 6x500", 0, 6, 6, 500),
    ("label 30x128", 0, 30, 30, 128),
    ("label 30x2000", 0, 30, 30, 2000),
]
K = 3
MIN_TIME = 0.02  # seconds each round runs at least
COLUMNS = ("dists", "grad build", "fwd build", "backward")


def shape_inputs(rng, sets, fewest, most, features):
    """(points, counts) of one shape: zero-padded instance sets, or a label graph's points."""
    if not sets:
        logits = rng.normal(size=(features, most))
        d0 = np.exp(logits - logits.max(axis=1, keepdims=True))
        d0 /= d0.sum(axis=1, keepdims=True)
        return d0.T[None], np.array([most])  # the view enhancer._label_graph passes
    counts = rng.integers(fewest, most + 1, size=sets)
    real = np.arange(most) < counts[:, None]
    points = np.where(real[:, :, None], rng.normal(size=(sets, most, features)), 0.0)
    return points, counts


def best_us(call, rounds: int) -> float:
    """The smallest per-call time of `call` over `rounds` rounds, in microseconds."""
    call()
    best = float("inf")
    for _ in range(rounds):
        calls, start = 0, time.perf_counter()
        while True:
            call()
            calls += 1
            spent = time.perf_counter() - start
            if spent >= MIN_TIME:
                break
        best = min(best, spent / calls)
    return best * 1e6


def table(rounds: int) -> list[list[str]]:
    rng = np.random.default_rng(0)
    rows = [["shape", *COLUMNS]]
    for name, *shape in SHAPES:
        points, counts = shape_inputs(rng, *shape)
        adj, cache = mutual_knn_median(points, counts, K)
        upstream = rng.normal(size=adj.shape)
        calls = (
            lambda: pairwise_sq_dists(points),
            lambda: mutual_knn_median(points, counts, K),
            lambda: mutual_knn_median(points, counts, K, grad=False),
            lambda: mutual_knn_median_backward(cache, upstream),
        )
        rows.append([name, *(f"{best_us(call, rounds):.1f}" for call in calls)])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rounds", type=int, default=7, help="rounds per routine and shape")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    rows = table(args.rounds)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    print("per-call time, us (min over rounds)")
    for row in rows:
        print("  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
