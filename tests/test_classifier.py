import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glemiml.classifier as clf_mod
from glemiml.classifier import (
    PREDICT_BLOCK_ROWS,
    PREDICT_CHUNK_BAGS,
    ClassifierModel,
    binarize,
    classifier_forward,
    classifier_params,
    classifier_to_json_dict,
    init_classifier,
    load_classifier,
    predict_dataset,
    save_classifier,
    set_classifier_params,
)
from glemiml.data import Bag, MIMLDataset, pack_bags
from glemiml.errors import ConfigError, DataFormatError, ShapeError
from glemiml.nets import DenseLayer, FeedForwardNet, forward_batch


def predict_bag(model, bag):
    """(logits, sigmoid probabilities) of one bag."""
    s, p, _ = classifier_forward(model, pack_bags([bag]))
    return s[0], p[0]


def forward(net, x):
    """forward_batch on a batch of one row."""
    return forward_batch(net, x[None, :])[0][0]


def make_bag(rng, n=3, d=4, t=3):
    lab = np.zeros(t, dtype=int)
    lab[0] = 1
    return Bag(rng.normal(size=(n, d)), lab)


def zero_model(d=4, t=3):
    return ClassifierModel(
        depth=1, instance_net=None,
        head=FeedForwardNet([DenseLayer(np.zeros((t, d)), np.zeros(t), "identity")]),
    )


class TestPredictBag:
    def test_single_instance_pooling_identity(self):
        model = init_classifier(4, 3, depth=2, seed=0)
        bag = make_bag(np.random.default_rng(0), n=1)
        s, p = predict_bag(model, bag)
        hidden = forward(model.instance_net, bag.instances[0])
        expect = forward(model.head, hidden)
        np.testing.assert_allclose(s, expect, atol=1e-12)
        np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(-expect)), atol=1e-12)

    def test_duplicate_instance_no_change(self):
        model = init_classifier(4, 3, depth=2, seed=1)
        bag = make_bag(np.random.default_rng(1), n=2)
        doubled = Bag(np.vstack([bag.instances, bag.instances[:1]]), bag.logical_labels)
        np.testing.assert_array_equal(predict_bag(model, bag)[0],
                                      predict_bag(model, doubled)[0])

    def test_zero_parameters_half_probs(self):
        bag = make_bag(np.random.default_rng(2))
        s, p = predict_bag(zero_model(), bag)
        np.testing.assert_array_equal(s, np.zeros(3))
        np.testing.assert_array_equal(p, np.full(3, 0.5))

    def test_instance_permutation_invariance(self):
        model = init_classifier(4, 3, depth=3, seed=2)
        rng = np.random.default_rng(3)
        bag = make_bag(rng, n=5)
        shuffled = Bag(bag.instances[rng.permutation(5)], bag.logical_labels)
        np.testing.assert_array_equal(predict_bag(model, bag)[0],
                                      predict_bag(model, shuffled)[0])

    def test_monotone_pooling(self):
        model = init_classifier(4, 3, depth=2, seed=4)
        rng = np.random.default_rng(5)
        bag = make_bag(rng, n=3)
        hidden, _ = forward_batch(model.instance_net, bag.instances)
        pooled = hidden.max(axis=0)
        grown = Bag(np.vstack([bag.instances, rng.normal(size=(1, 4))]), bag.logical_labels)
        hidden2, _ = forward_batch(model.instance_net, grown.instances)
        assert (hidden2.max(axis=0) >= pooled - 1e-15).all()

    def test_dim_mismatch(self):
        model = init_classifier(4, 3, depth=2, seed=0)
        with pytest.raises(ShapeError):
            predict_bag(model, make_bag(np.random.default_rng(0), d=5))


class TestDepthVariants:
    def test_depth1_is_affine_on_pooled_raw(self):
        model = init_classifier(4, 3, depth=1, seed=6)
        bag = make_bag(np.random.default_rng(6), n=3)
        pooled = bag.instances.max(axis=0)
        np.testing.assert_allclose(predict_bag(model, bag)[0],
                                   forward(model.head, pooled), atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_forward_only_pass_is_the_training_forward(self, depth):
        """On a batch that fills one row block, grad=False keeps no cache and
        gives grad=True's logits and probabilities byte for byte."""
        model = init_classifier(40, 3, depth=depth, seed=depth)
        rng = np.random.default_rng(depth)
        bags = [make_bag(rng, n=int(n), d=40) for n in rng.integers(1, 40, size=100)]
        rows = np.cumsum([bag.num_instances for bag in bags])
        batch = pack_bags(bags[:np.searchsorted(rows, PREDICT_BLOCK_ROWS, side="right")])
        s, p, cache = classifier_forward(model, batch, grad=False)
        s_grad, p_grad, cache_grad = classifier_forward(model, batch)
        assert cache is None and cache_grad is not None
        assert s.tobytes() == s_grad.tobytes() and p.tobytes() == p_grad.tobytes()

    def test_training_forward_is_one_block_whatever_its_rows(self):
        """Row blocks split only the forward-only pass: with grad, a batch
        above PREDICT_BLOCK_ROWS keeps every row in one block and its bytes."""
        model = init_classifier(4, 3, depth=3, seed=5)
        batch = pack_bags([make_bag(np.random.default_rng(5), n=n) for n in (3, 1, 4, 2)])
        s, p, cache = classifier_forward(model, batch)
        with mock.patch.object(clf_mod, "PREDICT_BLOCK_ROWS", 2):
            s_small, p_small, cache_small = classifier_forward(model, batch)
        assert len(cache_small["hidden"]) == len(batch.instances)
        assert s_small.tobytes() == s.tobytes() and p_small.tobytes() == p.tobytes()

    @pytest.mark.parametrize("depth,n_layers", [(1, 0), (2, 1), (3, 2)])
    def test_layer_counts(self, depth, n_layers):
        model = init_classifier(4, 3, depth=depth, seed=0)
        inst_layers = 0 if model.instance_net is None else len(model.instance_net.layers)
        assert inst_layers == n_layers
        assert len(model.head.layers) == 1

    def test_bad_depth(self):
        with pytest.raises(ConfigError):
            init_classifier(4, 3, depth=4, seed=0)


class TestPredictDataset:
    def test_shapes_and_per_bag_oracle(self):
        model = init_classifier(4, 3, depth=2, seed=7)
        rng = np.random.default_rng(7)
        bags = [make_bag(rng) for _ in range(5)]
        ds = MIMLDataset(bags=bags, feature_dim=4, label_count=3)
        S, P = predict_dataset(model, ds)
        assert S.shape == (5, 3) and P.shape == (5, 3)
        for i, bag in enumerate(bags):
            s, p = predict_bag(model, bag)
            # one matrix product over all bags' rows may round the last bit
            # differently from one over a single bag's rows
            np.testing.assert_allclose(S[i], s, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(P[i], p, rtol=1e-12, atol=1e-15)

    def test_memory_stays_within_two_chunks(self):
        """Each chunk's caches are freed before the next chunk runs."""
        model = init_classifier(4, 3, depth=2, seed=9)
        rng = np.random.default_rng(9)
        bags = [make_bag(rng, n=int(n)) for n in rng.integers(2, 6, size=5 * PREDICT_CHUNK_BAGS)]
        ds = MIMLDataset(bags=bags, feature_dim=4, label_count=3)
        first = pack_bags(bags[:PREDICT_CHUNK_BAGS])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = classifier_forward(model, first)
            chunk_peak = tracemalloc.get_traced_memory()[1] - base
            del out
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            predict_dataset(model, ds)
            pass_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pass_peak < 2 * chunk_peak

    def test_memory_stays_within_two_row_blocks(self):
        """Chunks of wide bags hold one row block's activations at a time."""
        model = init_classifier(4, 3, depth=2, seed=10)
        rng = np.random.default_rng(10)
        bags = [make_bag(rng, n=int(n)) for n in rng.integers(20, 51, size=2 * PREDICT_CHUNK_BAGS)]
        ds = MIMLDataset(bags=bags, feature_dim=4, label_count=3)
        rows = np.cumsum([bag.num_instances for bag in bags])
        block = pack_bags(bags[:np.searchsorted(rows, PREDICT_BLOCK_ROWS, side="right")])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = classifier_forward(model, block)
            block_peak = tracemalloc.get_traced_memory()[1] - base
            del out
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            predict_dataset(model, ds)
            pass_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pass_peak < 2 * block_peak

    @given(seed=st.integers(0, 2**32 - 1), depth=st.sampled_from([1, 2, 3]),
           sizes=st.lists(st.one_of(st.just(1), st.integers(1, 400)), min_size=1, max_size=40),
           budget=st.sampled_from([2, 16, 76, 128, 300, PREDICT_BLOCK_ROWS]),
           d=st.sampled_from([3, 40]))
    # bags larger than the budget, with 1-row bags at block ends
    @example(seed=0, depth=3, sizes=[1, 400, 1, 1, 400, 1], budget=128, d=3)
    # two chunks, the second with fewer rows than half a budget
    @example(seed=1, depth=3, sizes=[1] * (PREDICT_CHUNK_BAGS - 1) + [400] * 2, budget=76, d=40)
    @settings(max_examples=60, deadline=None)
    def test_equals_one_forward_per_chunk(self, seed, depth, sizes, budget, d):
        """Whatever the row blocks, within 16 units in the last place of the
        chunk outputs' largest magnitude. Each block is its own instance-net
        product, and BLAS may round a row of a small product with other
        kernels than in the chunk's one product: over 300 random shapes, the
        budgets of 76 to 300 rows differed by up to 3 units and those of 2 and
        16 rows by up to 5; the full budget matched byte for byte."""
        rng = np.random.default_rng(seed)
        bags = [make_bag(rng, n=n, d=d) for n in sizes]
        model = init_classifier(d, 3, depth=depth, seed=seed % 97)
        with mock.patch.object(clf_mod, "PREDICT_BLOCK_ROWS", budget):
            S, P = predict_dataset(model, MIMLDataset(bags=bags, feature_dim=d, label_count=3))
        chunks = [classifier_forward(model, pack_bags(bags[lo:lo + PREDICT_CHUNK_BAGS]))
                  for lo in range(0, len(bags), PREDICT_CHUNK_BAGS)]
        for got, want in ((S, np.concatenate([c[0] for c in chunks])),
                          (P, np.concatenate([c[1] for c in chunks]))):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=16 * np.spacing(np.abs(want).max()))

    def test_identical_bags_identical_rows(self):
        model = init_classifier(4, 3, depth=2, seed=8)
        bag = make_bag(np.random.default_rng(8))
        ds = MIMLDataset(bags=[bag, bag], feature_dim=4, label_count=3)
        S, _ = predict_dataset(model, ds)
        np.testing.assert_array_equal(S[0], S[1])


class TestBinarize:
    def test_strict_inequality_at_threshold(self):
        np.testing.assert_array_equal(binarize(np.full((2, 2), 0.5)), np.zeros((2, 2)))

    def test_clear_separation(self):
        np.testing.assert_array_equal(binarize(np.array([[0.9, 0.1]])), [[1, 0]])

    def test_idempotent_on_binary(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(binarize(binarize(x).astype(float)), x.astype(int))


def test_checkpoint_roundtrip(tmp_path):
    for depth in (1, 2, 3):
        model = init_classifier(4, 3, depth=depth, seed=depth)
        path = tmp_path / f"clf{depth}.json"
        save_classifier(model, path)
        loaded = load_classifier(path)
        assert loaded.depth == depth
        assert (classifier_params(loaded) == classifier_params(model)).all()


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.pop("head"), "'head'"),
    (lambda doc: doc.pop("depth"), "'depth'"),
    (lambda doc: doc["instance_net"].pop("weights"), "'instance_net.weights'"),
    (lambda doc: doc["head"]["weights"][0].append([0.0]), "head"),
    (lambda doc: doc["instance_net"]["weights"].pop(), "instance_net"),
], ids=["no-head", "no-depth", "no-instance-weights", "ragged-head-weights", "short-instance-weights"])
def test_malformed_checkpoint_names_file_and_key(tmp_path, edit, named):
    path = tmp_path / "clf.json"
    doc = classifier_to_json_dict(init_classifier(4, 3, depth=3, seed=0))
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(named)) as info:
        load_classifier(path)
    assert str(path) in str(info.value)


def test_checkpoint_invalid_json(tmp_path):
    path = tmp_path / "clf.json"
    path.write_text("not json")
    with pytest.raises(DataFormatError, match="invalid JSON") as info:
        load_classifier(path)
    assert str(path) in str(info.value)
