import json
import re
import tracemalloc

import numpy as np
import pytest

import glemiml.enhancer as enh_mod
from glemiml.data import Bag, SyntheticConfig, generate_synthetic, pack_bags
from glemiml.enhancer import (
    EnhancerModel,
    _base_forward,
    _refine_forward,
    enhance_batch,
    enhancer_backward,
    enhancer_forward,
    enhancer_params,
    init_enhancer,
    load_enhancer,
    save_enhancer,
    set_enhancer_params,
)
from glemiml.errors import ConfigError, DataFormatError, ShapeError
from glemiml.graph import GraphBuffers
from glemiml.nets import DenseLayer, FeedForwardNet, forward_batch


def identity_net(dim):
    return FeedForwardNet([DenseLayer(np.eye(dim), np.zeros(dim), "identity")])


def zero_net(in_dim, out_dim):
    return FeedForwardNet([DenseLayer(np.zeros((out_dim, in_dim)), np.zeros(out_dim), "identity")])


def embed_instances(model, bag):
    """Sigma-net embedding of each instance of the bag, in order."""
    return forward_batch(model.sigma_net, bag.instances)[0]


def recover_logits(model, bag):
    """Base (pre-refinement) logits of one bag: the sum of the three branches."""
    return _base_forward(model, pack_bags([bag], bag_features=True))[0][0]


def refine_with_label_graph(model, logits):
    return _refine_forward(model, np.asarray(logits, dtype=np.float64))[0]


def make_bag(rng, n, d, t):
    lab = np.zeros(t, dtype=int)
    lab[: max(1, t // 2)] = 1
    return Bag(rng.normal(size=(n, d)), lab)


@pytest.fixture
def model():
    return init_enhancer(feature_dim=4, label_count=3, embed_dim=4, seed=1)


class TestEmbedInstances:
    def test_shape(self, model):
        bag = make_bag(np.random.default_rng(0), 1, 4, 3)
        assert embed_instances(model, bag).shape == (1, 4)

    def test_permutation_permutes_rows(self, model):
        rng = np.random.default_rng(1)
        bag = make_bag(rng, 4, 4, 3)
        perm = [2, 0, 3, 1]
        shuffled = Bag(bag.instances[perm], bag.logical_labels)
        np.testing.assert_allclose(
            embed_instances(model, shuffled), embed_instances(model, bag)[perm])

    def test_identity_sigma(self):
        m = EnhancerModel(
            sigma_net=identity_net(4),
            omega1_net=zero_net(4, 3),
            omega2_net=zero_net(4, 3),
            omega3_net=zero_net(3, 3),
        )
        bag = make_bag(np.random.default_rng(2), 3, 4, 3)
        np.testing.assert_array_equal(embed_instances(m, bag), bag.instances)

    def test_dim_mismatch(self, model):
        with pytest.raises(ShapeError):
            embed_instances(model, make_bag(np.random.default_rng(0), 2, 5, 3))


class TestRecoverLogits:
    def test_all_zero_nets(self):
        m = EnhancerModel(
            sigma_net=identity_net(4),
            omega1_net=zero_net(4, 3),
            omega2_net=zero_net(4, 3),
            omega3_net=zero_net(3, 3),
        )
        bag = make_bag(np.random.default_rng(3), 3, 4, 3)
        np.testing.assert_array_equal(recover_logits(m, bag), np.zeros(3))

    def test_single_instance_isolated_node(self, model):
        bag = make_bag(np.random.default_rng(4), 1, 4, 3)
        m1 = bag.instances.mean(axis=0)
        expect = (forward_batch(model.omega1_net, m1[None])[0]
                  + forward_batch(model.omega2_net, np.zeros((1, 4)))[0]
                  + forward_batch(model.omega3_net, bag.logical_labels[None].astype(float))[0])
        np.testing.assert_allclose(recover_logits(model, bag), expect[0], atol=1e-12)

    def test_omega3_identity_branch_isolation(self):
        m = EnhancerModel(
            sigma_net=identity_net(4),
            omega1_net=zero_net(4, 3),
            omega2_net=zero_net(4, 3),
            omega3_net=identity_net(3),
        )
        bag = make_bag(np.random.default_rng(5), 3, 4, 3)
        np.testing.assert_allclose(recover_logits(m, bag),
                                   bag.logical_labels.astype(float), atol=1e-12)

    def test_branch_additivity(self, model):
        bag = make_bag(np.random.default_rng(6), 3, 4, 3)
        full = recover_logits(model, bag)
        parts = []
        for kept in ("omega1_net", "omega2_net", "omega3_net"):
            m = EnhancerModel(
                sigma_net=model.sigma_net,
                omega1_net=model.omega1_net if kept == "omega1_net" else zero_net(4, 3),
                omega2_net=model.omega2_net if kept == "omega2_net" else zero_net(4, 3),
                omega3_net=model.omega3_net if kept == "omega3_net" else zero_net(3, 3),
                instance_k=model.instance_k, k_label=model.k_label,
            )
            parts.append(recover_logits(m, bag))
        np.testing.assert_allclose(full, sum(parts), atol=1e-10)

    def test_instance_permutation_invariance(self, model):
        rng = np.random.default_rng(7)
        bag = make_bag(rng, 5, 4, 3)
        shuffled = Bag(bag.instances[rng.permutation(5)], bag.logical_labels)
        np.testing.assert_allclose(recover_logits(model, shuffled),
                                   recover_logits(model, bag), atol=1e-10)


class TestRefine:
    def test_zero_adjacency_is_identity(self, model, monkeypatch):
        logits = np.random.default_rng(8).normal(size=(4, 3))

        def fake(points, counts, k):
            n_sets, n, _ = points.shape
            return np.zeros((n_sets, n, n)), {"points": points}

        monkeypatch.setattr(enh_mod, "mutual_knn_median", fake)
        batch = refine_with_label_graph(model, logits)
        np.testing.assert_array_equal(batch.logits, logits)

    def test_duplicated_columns_mutual_pair(self):
        m = init_enhancer(feature_dim=2, label_count=2, embed_dim=2, seed=0, k_label=1)
        logits = np.array([[0.4, 0.4], [1.0, 1.0], [-0.3, -0.3]])
        batch = refine_with_label_graph(m, logits)
        # identical softmax columns: mutual 1-NN pair with weight exp(0) = 1,
        # row sums stay 1 after normalization, so each column gains the other
        np.testing.assert_allclose(batch.logits[:, 0], logits[:, 0] + logits[:, 1], atol=1e-12)
        np.testing.assert_allclose(batch.logits[:, 1], logits[:, 1] + logits[:, 0], atol=1e-12)

    def test_rows_on_simplex(self, model):
        logits = np.random.default_rng(9).normal(size=(6, 3))
        batch = refine_with_label_graph(model, logits)
        np.testing.assert_allclose(batch.distributions.sum(axis=1), 1.0, atol=1e-9)
        assert (batch.distributions > 0).all()

    def test_single_label_rejected(self, model):
        with pytest.raises(ConfigError):
            refine_with_label_graph(model, np.zeros((3, 1)))


class TestEnhanceBatch:
    def test_single_bag(self, model):
        bag = make_bag(np.random.default_rng(10), 2, 4, 3)
        batch = enhance_batch(model, [bag])
        assert batch.distributions.shape == (1, 3)
        assert batch.distributions.sum() == pytest.approx(1.0, abs=1e-9)

    def test_identical_bags_identical_rows(self, model):
        bag = make_bag(np.random.default_rng(11), 3, 4, 3)
        batch = enhance_batch(model, [bag, bag])
        np.testing.assert_array_equal(batch.distributions[0], batch.distributions[1])

    def test_confidences_are_sigmoid_of_logits(self, model):
        bags = [make_bag(np.random.default_rng(s), 3, 4, 3) for s in range(4)]
        batch = enhance_batch(model, bags)
        np.testing.assert_allclose(
            batch.confidences, 1.0 / (1.0 + np.exp(-batch.logits)), atol=1e-12)
        assert (batch.confidences > 0).all() and (batch.confidences < 1).all()

    def test_empty_rejected(self, model):
        with pytest.raises(ShapeError):
            enhance_batch(model, [])


class TestInstanceGraphFlag:
    def test_disabled_branch_never_builds_graph(self):
        m = init_enhancer(4, 3, embed_dim=4, seed=2, use_instance_graph=False)
        enh_mod.reset_instance_graph_build_count()
        bags = [make_bag(np.random.default_rng(s), 3, 4, 3) for s in range(5)]
        enhance_batch(m, bags)
        assert enh_mod.instance_graph_build_count() == 0

    def test_enabled_branch_counts(self, model):
        enh_mod.reset_instance_graph_build_count()
        bags = [make_bag(np.random.default_rng(s), 3, 4, 3) for s in range(5)]
        enhance_batch(model, bags)
        assert enh_mod.instance_graph_build_count() == 5


class TestGraphBuffers:
    """Instance graphs built in reused buffers, as train() builds them within an epoch."""

    @staticmethod
    def wide_setup(seed=4):
        """A model and a packed set of 64 bags of 20-50 instances."""
        ds, _ = generate_synthetic(SyntheticConfig(num_bags=64, instances_min=20,
                                                   instances_max=50, seed=seed))
        model = init_enhancer(ds.feature_dim, ds.label_count, seed=seed)
        return model, pack_bags(ds.bags, bag_features=True)

    @staticmethod
    def step(model, batch, upstream, buffers):
        """A training step's enhancer work: forward, backward, forward again.
        Returns the gradient and both forwards' outputs."""
        out, cache = enhancer_forward(model, batch, buffers)
        grad = enhancer_backward(model, cache, upstream)
        del cache
        again = enhancer_forward(model, batch, buffers)[0]
        return [grad] + [getattr(b, name) for b in (out, again)
                         for name in ("logits", "distributions", "confidences")]

    def test_shared_buffers_change_no_bit(self):
        model, packed = self.wide_setup()
        # the second batch is smaller and its bags shorter, so it gets smaller
        # views of buffers that still hold the first batch's values
        batches = [packed.take(np.arange(32)), packed.take(np.argsort(packed.counts)[:20])]
        buffers = GraphBuffers()
        for i, batch in enumerate(batches):
            upstream = np.random.default_rng(i).normal(size=(len(batch), model.label_count))
            shared = self.step(model, batch, upstream, buffers)
            fresh = self.step(model, batch, upstream, None)
            assert [a.tobytes() for a in shared] == [b.tobytes() for b in fresh]

    def test_warm_buffers_allocate_no_graph_arrays(self):
        """With fresh arrays the step peaked at 6.6 (B, N, N) float arrays, with
        warm buffers at 2.0. That peak is no graph array: it falls in the sigma
        net's backward, which holds the forward's sigma-net caches, padded
        embeddings and neighbour mask and forms its own (rows, width)
        temporaries."""
        model, packed = self.wide_setup()
        batch = packed.take(np.arange(32))
        upstream = np.random.default_rng(0).normal(size=(32, model.label_count))
        buffers = GraphBuffers()
        self.step(model, batch, upstream, buffers)
        graph_array = 8 * len(batch) * int(batch.counts.max()) ** 2
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            self.step(model, batch, upstream, buffers)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * graph_array


class TestGradients:
    def test_full_pipeline_matches_fd(self, model):
        from glemiml.nets import grad_check
        rng = np.random.default_rng(12)
        # a ragged batch with a single-instance bag
        bags = pack_bags([make_bag(rng, n, 4, 3) for n in (3, 1, 5, 2)], bag_features=True)
        upstream = rng.normal(size=(4, 3))

        def f(vec):
            set_enhancer_params(model, vec)
            batch, cache = enhancer_forward(model, bags)
            grad = enhancer_backward(model, cache, upstream)
            return float(np.sum(batch.logits * upstream)), grad

        assert grad_check(f, enhancer_params(model), 1e-6) < 1e-4


def test_checkpoint_roundtrip(tmp_path, model):
    path = tmp_path / "enh.json"
    save_enhancer(model, path)
    loaded = load_enhancer(path)
    assert (enhancer_params(loaded) == enhancer_params(model)).all()
    assert loaded.instance_k == model.instance_k
    assert loaded.use_instance_graph == model.use_instance_graph


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.pop("sigma"), "'sigma'"),
    (lambda doc: doc["omega2"].pop("biases"), "'omega2.biases'"),
    (lambda doc: doc["omega1"]["weights"][0].pop(), "omega1"),
    (lambda doc: doc["omega3"]["activations"].append("relu"), "omega3"),
    (lambda doc: doc["sigma"]["biases"][-1].append(0.0), "sigma"),
    (lambda doc: doc.update(k_label=0), "k_label must be >= 1"),
    (lambda doc: doc.update(instance_k=-1), "instance_k and k_label must be >= 1"),
], ids=["no-sigma", "no-omega2-biases", "short-omega1-weights", "extra-omega3-activation",
        "long-sigma-bias", "zero-k-label", "negative-instance-k"])
def test_malformed_checkpoint_names_file_and_key(tmp_path, model, edit, named):
    path = tmp_path / "enh.json"
    doc = enh_mod.enhancer_to_json_dict(model)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(named)) as info:
        load_enhancer(path)
    assert str(path) in str(info.value)


def test_checkpoint_invalid_json(tmp_path):
    path = tmp_path / "enh.json"
    path.write_text('{"kind": "enhancer", ')
    with pytest.raises(DataFormatError, match="invalid JSON") as info:
        load_enhancer(path)
    assert str(path) in str(info.value)


def test_failed_save_keeps_previous_checkpoint(tmp_path, model, monkeypatch):
    path = tmp_path / "enhancer.json"
    save_enhancer(model, path)
    before = path.read_bytes()

    def dump_then_fail(doc, fh, **kwargs):
        fh.write('{"kind": "enhancer", "sig')
        raise RuntimeError("disk full")

    monkeypatch.setattr(enh_mod.json, "dump", dump_then_fail)
    with pytest.raises(RuntimeError, match="disk full"):
        save_enhancer(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["enhancer.json"]
