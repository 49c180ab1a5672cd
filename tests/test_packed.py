"""Packed ragged batches agree with the per-bag reference.

The packed paths stack, pad and sum in other orders than one bag at a time,
so results may differ in the last bits; they must agree within 1e-12 of the
largest reference magnitude.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_bag_reference as ref
from glemiml.classifier import (
    _RANK_POOL_MIN_CELLS,
    _max_pool,
    classifier_backward,
    classifier_forward,
    init_classifier,
    predict_dataset,
)
from glemiml.data import Bag, MIMLDataset, pack_bags
from glemiml.enhancer import (
    enhance_batch,
    enhancer_backward,
    enhancer_forward,
    init_enhancer,
)
from glemiml.errors import ShapeError
from glemiml.graph import (
    _SORTED_MEDIAN_MIN_PAIRS,
    mutual_knn_median,
    mutual_knn_median_backward,
)
from glemiml.losses import similarity_loss, threshold_loss

REL_TOL = 1e-12
D, T = 3, 4


def assert_close(packed, reference):
    reference = np.asarray(reference)
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    np.testing.assert_allclose(packed, reference, rtol=0.0, atol=REL_TOL * scale)


def make_bags(seed, sizes, duplicates):
    """Random bags of the given sizes. With `duplicates`, every bag repeats its
    first instance and the first bag holds one instance n times (floored width)."""
    rng = np.random.default_rng(seed)
    bags = []
    for i, n in enumerate(sizes):
        inst = rng.normal(size=(n, D))
        if duplicates:
            inst[1:2] = inst[0]
            if i == 0:
                inst[:] = inst[0]
        labels = np.zeros(T, dtype=int)
        labels[rng.permutation(T)[: rng.integers(1, T)]] = 1
        bags.append(Bag(inst, labels))
    return bags


batches = dict(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 7), min_size=2, max_size=6),
    duplicates=st.booleans(),
)


@given(k=st.integers(1, 8), ablation_c=st.booleans(), **batches)
@settings(max_examples=60, deadline=None)
def test_enhancer_matches_per_bag(seed, sizes, duplicates, k, ablation_c):
    model = init_enhancer(D, T, embed_dim=3, instance_k=k, k_label=2, seed=seed % 97,
                          use_instance_graph=not ablation_c)
    bags = make_bags(seed, sizes, duplicates)
    upstream = np.random.default_rng(seed + 1).normal(size=(len(bags), T))

    batch, cache = enhancer_forward(model, pack_bags(bags, bag_features=True))
    expect, ref_cache = ref.enhancer_forward(model, bags)
    for name in ("logits", "distributions", "confidences"):
        assert_close(getattr(batch, name), getattr(expect, name))
        assert_close(getattr(enhance_batch(model, bags), name), getattr(expect, name))
    assert_close(enhancer_backward(model, cache, upstream),
                 ref.enhancer_backward(model, ref_cache, upstream))


@given(depth=st.sampled_from([1, 2, 3]), **batches)
@settings(max_examples=60, deadline=None)
def test_classifier_matches_per_bag(seed, sizes, duplicates, depth):
    model = init_classifier(D, T, depth=depth, seed=seed % 97)
    bags = make_bags(seed, sizes, duplicates)
    upstream = np.random.default_rng(seed + 1).normal(size=(len(bags), T))

    S, P, cache = classifier_forward(model, pack_bags(bags))
    S_ref, P_ref, ref_caches = ref.classifier_forward(model, bags)
    assert_close(S, S_ref)
    assert_close(P, P_ref)
    S_all, P_all = predict_dataset(model, MIMLDataset(bags, D, T))
    assert_close(S_all, S_ref)
    assert_close(P_all, P_ref)
    assert_close(classifier_backward(model, cache, upstream),
                 ref.classifier_backward(model, ref_caches, upstream))


@pytest.mark.parametrize("depth", [2, 3])
def test_classifier_on_the_rank_pooling_path_matches_per_bag(depth):
    """160 bags of 1-6 rows at hidden width 32 pool rank by rank."""
    model = init_classifier(D, T, depth=depth, seed=depth)
    sizes = np.random.default_rng(depth).integers(1, 7, size=160)
    bags = make_bags(depth, sizes, duplicates=True)
    batch = pack_bags(bags)
    width = model.head.input_dim
    assert len(batch.instances) * width >= _RANK_POOL_MIN_CELLS * batch.counts.max()
    upstream = np.random.default_rng(depth + 1).normal(size=(len(bags), T))

    S, P, cache = classifier_forward(model, batch)
    S_ref, P_ref, ref_caches = ref.classifier_forward(model, bags)
    assert_close(S, S_ref)
    assert_close(P, P_ref)
    S_all, P_all = predict_dataset(model, MIMLDataset(bags, D, T))
    assert S_all.tobytes() == S.tobytes() and P_all.tobytes() == P.tobytes()
    assert_close(classifier_backward(model, cache, upstream),
                 ref.classifier_backward(model, ref_caches, upstream))


@given(seed=st.integers(0, 2**32 - 1), n_bags=st.integers(1, 300), max_rows=st.integers(1, 60),
       width=st.integers(1, 64))
@example(seed=0, n_bags=300, max_rows=5, width=60)  # rank by rank
@example(seed=0, n_bags=32, max_rows=50, width=32)  # reduceat
@settings(max_examples=100, deadline=None)
def test_max_pool_equals_reduceat(seed, n_bags, max_rows, width):
    """Both sides of the shape rule take each bag's maxima. Rounded values tie
    often, among them +0 and -0, whose sign either side may keep: the
    comparison is by value."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, max_rows + 1, size=n_bags)
    counts[rng.integers(n_bags)] = max_rows
    starts = np.cumsum(counts) - counts
    hidden = np.round(rng.normal(size=(counts.sum(), width)))
    before = hidden.tobytes()
    pooled = _max_pool(hidden, counts, starts)
    np.testing.assert_array_equal(pooled, np.maximum.reduceat(hidden, starts, axis=0))
    assert pooled.shape == (n_bags, width) and hidden.tobytes() == before


@given(k=st.integers(1, 8), **batches)
@settings(max_examples=60, deadline=None)
def test_graph_builder_matches_per_set(seed, sizes, duplicates, k):
    """Each padded set gets the edges it gets alone, and their weights."""
    bags = make_bags(seed, sizes, duplicates)
    counts = np.array(sizes)
    points = np.zeros((len(sizes), counts.max(), D))
    for i, bag in enumerate(bags):
        points[i, :sizes[i]] = bag.instances
    upstream = np.random.default_rng(seed + 1).normal(size=(len(sizes),) + points.shape[1:2] * 2)

    adj, cache = mutual_knn_median(points, counts, k)
    grad = mutual_knn_median_backward(cache, upstream)
    for i, n in enumerate(sizes):
        adj_ref, ref_cache = ref.mutual_knn_median(bags[i].instances, k)
        np.testing.assert_array_equal(adj[i, :n, :n] != 0.0, adj_ref != 0.0)
        assert_close(adj[i, :n, :n], adj_ref)
        assert not adj[i, n:].any() and not adj[i, :, n:].any()
        assert_close(grad[i, :n], ref.mutual_knn_median_backward(ref_cache, upstream[i, :n, :n]))
        assert not grad[i, n:].any()


@given(seed=st.integers(0, 2**32 - 1), wide=st.booleans(), p=st.integers(1, 8),
       ties=st.sampled_from(["none", "rounded", "duplicates", "coincident"]),
       k=st.integers(1, 50), data=st.data())
@settings(max_examples=80, deadline=None)
def test_graph_builder_matches_former_steps_bit_for_bit(seed, wide, p, ties, k, data):
    """Distances, median pair(s), weights and gradients equal the former code's bits.

    Wide batches have at least _SORTED_MEDIAN_MIN_PAIRS pairs and take the
    sorted-median path; narrow ones the stable argsort. Rounded coordinates
    and duplicate points tie the middle values, a set of coincident points
    floors its width, and sets of one point and k >= n occur.
    """
    n_sets = data.draw(st.integers(6, 10) if wide else st.integers(1, 5))
    sizes = data.draw(st.lists(st.integers(1, 45 if wide else 30),
                               min_size=n_sets, max_size=n_sets))
    counts = np.array(sizes)
    if wide:
        counts[0] = 45
    n = counts.max()
    assert (n_sets * (n * (n - 1) // 2) >= _SORTED_MEDIAN_MIN_PAIRS) == wide
    rng = np.random.default_rng(seed)
    points = np.zeros((n_sets, n, p))
    for i, c in enumerate(counts):
        x = rng.normal(size=(c, p))
        if ties == "rounded":
            x = np.round(x)
        elif ties == "duplicates":
            x[1:c // 2 + 1] = x[0]
        elif ties == "coincident" and i % 2 == 0:
            x[:] = x[0]
        points[i, :c] = x

    adj, cache = mutual_knn_median(points, counts, k)
    if n < 2:
        assert not adj.any()
        return
    d2 = cache["d2"]
    assert d2.tobytes() == ref.sq_dists_by_feature(points).tobytes()
    med_rows, med_cols, width = ref.median_pairs_by_argsort(d2, counts)
    np.testing.assert_array_equal(cache["med_rows"], med_rows)
    np.testing.assert_array_equal(cache["med_cols"], med_cols)
    assert cache["width"].tobytes() == width.tobytes()
    expect = np.where(cache["mask"], np.exp(-d2 / (2.0 * width[:, None, None])), 0.0)
    assert adj.tobytes() == expect.tobytes()
    upstream = rng.normal(size=adj.shape)
    if ties == "rounded":
        upstream = np.round(upstream)
    assert (mutual_knn_median_backward(cache, upstream).tobytes()
            == ref.batched_graph_backward(cache, upstream).tobytes())


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), t=st.integers(1, 6),
       ties=st.booleans())
@settings(max_examples=100, deadline=None)
def test_threshold_loss_matches_row_loop(seed, rows, t, ties):
    rng = np.random.default_rng(seed)
    D_ = rng.uniform(size=(rows, t))
    if ties:
        D_ = np.round(D_, 1)  # equal values exercise the first-argmax/argmin rule
    L = rng.integers(0, 2, size=(rows, t))
    expect = ref.threshold_loss(D_, L)
    value, grad = threshold_loss(D_, L)
    assert value == pytest.approx(expect, rel=REL_TOL, abs=1e-15)
    np.testing.assert_array_equal(grad, ref.threshold_loss_grad(D_, L))


packs = dict(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 7), min_size=2, max_size=9),
    data=st.data(),
)


def draw_index(data, n_bags):
    """A batch of at least two positions: a permutation's prefix, so it is unordered."""
    size = data.draw(st.integers(2, n_bags))
    return np.asarray(data.draw(st.permutations(range(n_bags))))[:size]


@given(**packs)
@settings(max_examples=100, deadline=None)
def test_take_equals_the_former_per_batch_packing(seed, sizes, data):
    """A gathered batch holds the bytes that packing its bags afresh produced."""
    bags = make_bags(seed, sizes, duplicates=False)
    idx = draw_index(data, len(bags))
    chosen = [bags[i] for i in idx]
    batch = pack_bags(bags, bag_features=True).take(idx)

    X, counts = ref.stack_instances(chosen)
    assert batch.instances.tobytes() == X.tobytes()
    assert batch.counts.tobytes() == counts.tobytes()
    assert batch.starts.tobytes() == (np.cumsum(counts) - counts).tobytes()
    assert batch.logical.tobytes() == ref.logical_matrix(chosen).tobytes()
    assert batch.means.tobytes() == ref.bag_means(X, counts).tobytes()
    rows_only = pack_bags(bags).take(idx)
    assert rows_only.instances.tobytes() == X.tobytes()
    assert rows_only.logical is None and rows_only.means is None


@given(ablation_c=st.booleans(), depth=st.sampled_from([1, 2, 3]), **packs)
@settings(max_examples=40, deadline=None)
def test_forward_on_gathered_batch_equals_fresh_pack(seed, sizes, data, ablation_c, depth):
    bags = make_bags(seed, sizes, duplicates=bool(seed % 2))
    idx = draw_index(data, len(bags))
    gathered = pack_bags(bags, bag_features=True).take(idx)
    fresh = pack_bags([bags[i] for i in idx], bag_features=True)

    enh = init_enhancer(D, T, embed_dim=3, instance_k=2, k_label=2, seed=seed % 97,
                        use_instance_graph=not ablation_c)
    out, _ = enhancer_forward(enh, gathered)
    expect, _ = enhancer_forward(enh, fresh)
    for name in ("logits", "distributions", "confidences"):
        assert getattr(out, name).tobytes() == getattr(expect, name).tobytes()

    clf = init_classifier(D, T, depth=depth, seed=seed % 97)
    for got, want in zip(classifier_forward(clf, gathered)[:2], classifier_forward(clf, fresh)[:2]):
        assert got.tobytes() == want.tobytes()


def test_bag_feature_readers_reject_a_rows_only_pack():
    bags = make_bags(0, [2, 3], duplicates=False)
    rows_only = pack_bags(bags)
    with pytest.raises(ShapeError, match="bag features"):
        enhancer_forward(init_enhancer(D, T, embed_dim=3), rows_only)
    with pytest.raises(ShapeError, match="bag features"):
        similarity_loss(rows_only, np.full((2, T), 1.0 / T))
