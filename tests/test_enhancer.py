import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glemiml.enhancer as enh_mod
import glemiml.graph as graph_mod
from glemiml.data import (
    Bag,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    pack_bags,
    split_dataset,
)
from glemiml.enhancer import (
    EnhancerModel,
    _enhanced,
    _label_graph,
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
from glemiml.nets import DenseLayer, FeedForwardNet, forward_batch, init_net, net_to_json_dict
from glemiml.training import TrainConfig, build_models, train


def identity_net(dim):
    return FeedForwardNet([DenseLayer(np.eye(dim), np.zeros(dim), "identity")])


def zero_net(in_dim, out_dim):
    return FeedForwardNet([DenseLayer(np.zeros((out_dim, in_dim)), np.zeros(out_dim), "identity")])


def embed_instances(model, bag):
    """Sigma-net embedding of each instance of the bag, in order."""
    return forward_batch(model.sigma_net, bag.instances)[0]


def recover_logits(model, bag):
    """Base (pre-refinement) logits of one bag: the sum of the three branches."""
    return enhancer_forward(model, pack_bags([bag], bag_features=True))[1]["refine"]["base"][0]


def refine_with_label_graph(model, logits):
    """Logits (B, t) refined by the label graph built over them."""
    logits = np.asarray(logits, dtype=np.float64)
    return _enhanced(logits, _label_graph(model, logits)[0])


def write_one_label_checkpoint(path):
    """An enhancer checkpoint, well formed but for having one label."""
    dims = {"sigma": [4, 16, 8], "omega1": [4, 16, 1], "omega2": [8, 16, 1], "omega3": [1, 16, 1]}
    doc = {"kind": "enhancer", "schema": 2, "instance_k": 3, "k_label": 3,
           "use_instance_graph": True, "label_graph": None,
           **{key: net_to_json_dict(init_net(d, "tanh", seed=0)) for key, d in dims.items()}}
    path.write_text(json.dumps(doc))


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

        def fake(points, counts, k, grad=True):
            n_sets, n, _ = points.shape
            return np.zeros((n_sets, n, n)), {"points": points} if grad else None

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

    def test_single_label_rejected(self, tmp_path):
        """A label graph needs two labels, so an enhancer has them from the
        start: a one-label model is a ConfigError, and a one-label checkpoint
        a DataFormatError naming the file."""
        with pytest.raises(ConfigError, match="label_count >= 2, got 1"):
            init_enhancer(feature_dim=4, label_count=1)
        with pytest.raises(ConfigError, match="label_count >= 2, got 1"):
            EnhancerModel(sigma_net=identity_net(4), omega1_net=zero_net(4, 1),
                          omega2_net=zero_net(4, 1), omega3_net=zero_net(1, 1))
        path = tmp_path / "enh.json"
        write_one_label_checkpoint(path)
        with pytest.raises(DataFormatError, match="label_count >= 2, got 1") as info:
            load_enhancer(path)
        assert str(path) in str(info.value)


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
        before = enh_mod.instance_graph_build_count()
        bags = [make_bag(np.random.default_rng(s), 3, 4, 3) for s in range(5)]
        enhance_batch(m, bags)
        assert enh_mod.instance_graph_build_count() == before

    def test_enabled_branch_counts(self, model):
        before = enh_mod.instance_graph_build_count()
        bags = [make_bag(np.random.default_rng(s), 3, 4, 3) for s in range(5)]
        enhance_batch(model, bags)
        assert enh_mod.instance_graph_build_count() - before == 5


@pytest.mark.parametrize("seed", [0, 2])
def test_graph_chunk_size_changes_no_bit(monkeypatch, seed):
    """A set's distances do not depend on the padded size of its chunk, so
    neither its graph nor the logits change in any bit with the chunk size."""
    ds, _ = generate_synthetic(SyntheticConfig(instances_min=2, instances_max=40, seed=1))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=seed)
    default = enh_mod.GRAPH_CHUNK_CELLS
    # a few bags per chunk, the default, and one chunk padded to 40
    budgets = (1 << 12, default, len(ds) * 40 ** 2)
    out = {}
    for budget in budgets:
        monkeypatch.setattr(enh_mod, "GRAPH_CHUNK_CELLS", budget)
        out[budget] = enhance_batch(model, ds.bags)
    for budget in (budgets[0], budgets[2]):
        for name in ("logits", "distributions", "confidences"):
            assert getattr(out[budget], name).tobytes() == getattr(out[default], name).tobytes()


@pytest.mark.parametrize("instances, oversized", [((2, 5), None), ((20, 50), 70)])
def test_graph_chunks_keep_the_cell_budget_and_change_no_bit(monkeypatch, instances, oversized):
    """A set's distances do not depend on the padded size of its chunk, so
    the budget moves no bit. A pass above the budget is cut into chunks
    that each hold at most the budget's cells, or one bag larger than that,
    and end where the next bag would break them. The chunks are built in
    their bags' size order, on the calling thread."""
    lo, hi = instances
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=60, instances_min=lo, instances_max=hi,
                                               seed=4))
    bags = list(ds.bags)
    if oversized:
        bags.insert(7, make_bag(np.random.default_rng(5), oversized, ds.feature_dim,
                                ds.label_count))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=3)
    chunks = []  # (bags, largest bag, smallest bag) per build
    real = enh_mod._graph_means
    caller = threading.current_thread()

    def recorded(model, batch, grad=True):
        assert threading.current_thread() is caller
        chunks.append((len(batch), int(batch.counts.max()), int(batch.counts.min())))
        return real(model, batch, grad)

    monkeypatch.setattr(enh_mod, "_graph_means", recorded)
    out = []
    for budget in (1 << 4, 1 << 9, 1 << 12, enh_mod.GRAPH_CHUNK_CELLS):
        monkeypatch.setattr(enh_mod, "GRAPH_CHUNK_CELLS", budget)
        chunks.clear()
        batch = enhance_batch(model, bags)
        out.append([a.tobytes() for a in (batch.logits, batch.distributions,
                                          batch.confidences)])
        assert sum(b for b, _, _ in chunks) == len(bags)
        if len(bags) * max(b.instances.shape[0] for b in bags) ** 2 <= budget:
            assert len(chunks) == 1
            continue
        for b, n, _ in chunks:
            assert b * n * n <= budget or b == 1
        for (b, largest, _), (_, _, next_first) in zip(chunks, chunks[1:]):
            assert largest <= next_first
            assert (b + 1) * next_first ** 2 > budget
        if oversized and oversized ** 2 > budget:
            assert (1, oversized, oversized) in chunks
    assert all(o == out[0] for o in out)


def test_chunked_pass_starts_no_thread(monkeypatch):
    """A pass over the 500 bags of 20-50 instances of the wide-bags benchmark
    shape is chunked at the default budget and builds every chunk on the
    calling thread: it starts no thread."""
    ds, _ = generate_synthetic(SyntheticConfig(instances_min=20, instances_max=50, seed=5))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=5)
    assert len(ds) * max(b.instances.shape[0] for b in ds.bags) ** 2 > enh_mod.GRAPH_CHUNK_CELLS
    chunked, started = [], []
    real_chunked = enh_mod._chunked_graph_means
    real_start = threading.Thread.start

    def counted(model, batch):
        chunked.append(len(batch))
        return real_chunked(model, batch)

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(enh_mod, "_chunked_graph_means", counted)
    monkeypatch.setattr(threading.Thread, "start", start)
    enhance_batch(model, ds.bags)
    assert chunked == [len(ds)]
    assert started == []


# Imports the enhancer, runs one chunked wide-bags-shape pass and prints
# whether concurrent.futures is among the imported modules.
_CHUNKED_PASS_MODULES = """
import json, sys
import glemiml.enhancer as enh_mod
from glemiml.data import SyntheticConfig, generate_synthetic

ds, _ = generate_synthetic(SyntheticConfig(instances_min=20, instances_max=50, seed=5))
model = enh_mod.init_enhancer(ds.feature_dim, ds.label_count, seed=5)
enh_mod.enhance_batch(model, ds.bags)
cells = len(ds) * max(b.instances.shape[0] for b in ds.bags) ** 2
print(json.dumps([cells > enh_mod.GRAPH_CHUNK_CELLS, "concurrent.futures" in sys.modules]))
"""


def test_chunked_pass_imports_no_pool_module():
    """A chunked pass, in a fresh process, leaves concurrent.futures (and the
    logging it imports, about 0.5 MiB resident) unimported."""
    src = str(Path(enh_mod.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _CHUNKED_PASS_MODULES], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [True, False]


def test_wide_bag_pass_memory_stays_bounded():
    """A warm pass over the 500 bags of 20-50 instances of the wide-bags
    benchmark set (seed 5) peaked at 6.62 MB when each of its seven chunks
    took a fresh GraphBuffers and the sigma net's cache lived through each
    build, and at 5.47 MB with one holder per pass, largest chunk first, and
    the cache freed. Built on the calling thread alone, in seven chunks of
    up to GRAPH_CHUNK_CELLS cells, each allocating its own arrays, it peaks
    at 5.48 MB on every pass."""
    ds, _ = generate_synthetic(SyntheticConfig(instances_min=20, instances_max=50, seed=5))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=5)
    enhance_batch(model, ds.bags)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        enhance_batch(model, ds.bags)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6.2e6


def test_small_bag_pass_memory_stays_bounded():
    """One build holds the 2,000 bags of 2-5 instances (50,000 cells). The
    pass peaked at 3.96 MB: the batch's pack, its padded embeddings and
    graph arrays (5.76 MB while the sigma net's activations lived through
    the build, 6.76 MB when the build also took a size-sorted gathered copy
    of the pack). With 64-bag chunks it peaked at 3.41 MB; at the budget's
    2^17 cells one build of bags of 5 holds 5,242 bags."""
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=2000, seed=6))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=0)
    enhance_batch(model, ds.bags)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        enhance_batch(model, ds.bags)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_frozen_many_labels_pass_memory_stays_bounded():
    """A warm pass over the 2,000 bags of the many-labels-c benchmark set
    (t = 30, 2-5 instances, ablation C, seed 5) with the model trained as the
    benchmark trains it: no instance graph and a frozen label graph, so the
    pass holds the pack, the branch nets' outputs and the three (B, t)
    results. It peaked at 3.83 MB on each of three passes. The bound leaves
    0.37 MB (about 10%), less than one more (B, t) float64 array (0.48 MB)
    alive at the peak; running the branch nets with their backward caches
    goes over it."""
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=2000, label_count=30, seed=5))
    train_ds, _, _ = split_dataset(ds, SplitSpec(seed=5))
    model, _, _ = train(train_ds, None, TrainConfig(epochs=30, batch_size=128, seed=5,
                                                    ablation="C"))
    assert model.label_graph is not None
    enhance_batch(model, ds.bags)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        enhance_batch(model, ds.bags)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4.2e6


class TestForwardOnlyCounts:
    """Forward-only builds go through enhancer.mutual_knn_median, where the
    benchmark's tracer counts graph builds, and count as instance graphs."""

    @staticmethod
    def record_builds(monkeypatch):
        """(sets, grad) of each build made through enhancer.mutual_knn_median."""
        builds = []
        real = enh_mod.mutual_knn_median

        def recorded(*args, **kwargs):
            builds.append((len(args[0]), kwargs.get("grad", True)))
            return real(*args, **kwargs)

        monkeypatch.setattr(enh_mod, "mutual_knn_median", recorded)
        return builds

    def test_forward_only_forward_is_called_and_counted(self, model, monkeypatch):
        builds = self.record_builds(monkeypatch)
        bags = [make_bag(np.random.default_rng(s), 3, 4, 3) for s in range(5)]
        before = enh_mod.instance_graph_build_count()
        enhancer_forward(model, pack_bags(bags, bag_features=True), grad=False)
        assert builds == [(5, False), (1, False)]
        assert enh_mod.instance_graph_build_count() - before == 5

    def test_train_builds_each_graph_twice_per_batch(self, monkeypatch):
        ds, _ = generate_synthetic(SyntheticConfig(num_bags=20, feature_dim=4, label_count=3))
        builds = self.record_builds(monkeypatch)
        before = enh_mod.instance_graph_build_count()
        train(ds, None, TrainConfig(epochs=1, batch_size=8))
        # the enhancer step's instance and label graphs, then the forward-only
        # pair; after the last batch, the freeze's forward-only pair over the
        # whole split
        assert builds == [build for size in (8, 8, 4)
                          for build in ((size, True), (1, True), (size, False), (1, False))
                          ] + [(len(ds), False), (1, False)]
        assert enh_mod.instance_graph_build_count() - before == 3 * len(ds)

    def test_train_makes_one_instance_plan_per_batch_and_one_label_plan(self, monkeypatch):
        """A batch's enhancer-step build, its backward and its forward-only
        rebuild share one instance-graph plan, and the label graphs of a
        train() call share one, the frozen one included. A rebuild through
        the size-sorted chunks would gather the bags in another order and
        make plans of its own. The freeze's pass over the whole split makes
        one more instance plan. The plan memo is emptied first, as a new
        process starts it."""
        graph_mod._plan.cache_clear()
        ds, _ = generate_synthetic(SyntheticConfig(num_bags=40, feature_dim=4, label_count=3,
                                                   instances_min=2, instances_max=9, seed=3))
        plans = []

        class CountedPlan(graph_mod.GraphPlan):
            def __init__(self, counts, n, k):
                plans.append((counts.tobytes(), n))
                super().__init__(counts, n, k)

        monkeypatch.setattr(graph_mod, "GraphPlan", CountedPlan)
        builds = self.record_builds(monkeypatch)
        epochs, batch_size = 2, 8
        train(ds, None, TrainConfig(epochs=epochs, batch_size=batch_size))
        batches = epochs * len(ds) // batch_size
        # per batch: the instance and label builds of the step, then of the
        # rebuild; then the freeze's over the whole split
        assert builds == [(batch_size, True), (1, True), (batch_size, False), (1, False)
                          ] * batches + [(len(ds), False), (1, False)]
        label_plan = (np.array([ds.label_count]).tobytes(), ds.label_count)
        instance_plans = [plan for plan in plans if plan != label_plan]
        assert len(plans) - len(instance_plans) == 1
        assert len(instance_plans) == batches + 1
        assert all(a != b for a, b in zip(instance_plans, instance_plans[1:]))


class TestTrainingSteps:
    """Enhancer steps as train() runs them, one batch after another."""

    @staticmethod
    def wide_setup(seed=4):
        """A model and a packed set of 64 bags of 20-50 instances."""
        ds, _ = generate_synthetic(SyntheticConfig(num_bags=64, instances_min=20,
                                                   instances_max=50, seed=seed))
        model = init_enhancer(ds.feature_dim, ds.label_count, seed=seed)
        return model, pack_bags(ds.bags, bag_features=True)

    @staticmethod
    def step(model, batch, upstream):
        """A training step's enhancer work: forward, backward, then the
        forward-only pass that train() runs for the classifier step.
        Returns the gradient and both forwards' outputs."""
        out, cache = enhancer_forward(model, batch)
        grad = enhancer_backward(model, cache, upstream)
        del cache
        again, no_cache = enhancer_forward(model, batch, grad=False)
        assert no_cache is None
        return [grad] + [getattr(b, name) for b in (out, again)
                         for name in ("logits", "distributions", "confidences")]

    def test_steps_through_the_memo_change_no_bit(self):
        """Successive steps, which take their plans and gather indices from the
        memo, give the bytes of a cold step, one made with the memo empty."""
        model, packed = self.wide_setup()
        # the second batch is smaller and its bags shorter
        batches = [packed.take(np.arange(32)), packed.take(np.argsort(packed.counts)[:20])]
        upstreams = [np.random.default_rng(i).normal(size=(len(batch), model.label_count))
                     for i, batch in enumerate(batches)]
        cold = []
        for batch, upstream in zip(batches, upstreams):
            graph_mod._plan.cache_clear()
            graph_mod._circulant_index.cache_clear()
            cold.append([a.tobytes() for a in self.step(model, batch, upstream)])
        for i in (0, 1, 0, 1):
            warm = self.step(model, batches[i], upstreams[i])
            assert [a.tobytes() for a in warm] == cold[i]
            # at unchanged parameters the forward-only pass repeats the first
            assert [a.tobytes() for a in warm[1:4]] == [a.tobytes() for a in warm[4:]]

    def test_step_peak_stays_below_seven_graph_arrays(self):
        """A step measured from a state that holds no graph arrays peaks at
        6.57 (B, N, N) float arrays, in the instance graph's backward. When
        graph builds took their arrays from holders that lived all epoch, the
        same measurement read 8.0: the holders kept about six arrays alive
        between steps."""
        model, packed = self.wide_setup()
        batch = packed.take(np.arange(32))
        upstream = np.random.default_rng(0).normal(size=(32, model.label_count))
        self.step(model, batch, upstream)  # puts the step's plans in the memo
        graph_array = 8 * len(batch) * int(batch.counts.max()) ** 2
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            self.step(model, batch, upstream)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 7.0 * graph_array


class TestGradients:
    def test_full_pipeline_matches_fd(self, model):
        from glemiml.nets import grad_check
        rng = np.random.default_rng(12)
        # a ragged batch with a single-instance bag, and a batch of single-instance
        # bags, whose instance graph has no pairs
        for sizes in ((3, 1, 5, 2), (1, 1, 1)):
            bags = pack_bags([make_bag(rng, n, 4, 3) for n in sizes], bag_features=True)
            upstream = rng.normal(size=(len(sizes), 3))

            def f(vec):
                set_enhancer_params(model, vec)
                batch, cache = enhancer_forward(model, bags)
                grad = enhancer_backward(model, cache, upstream)
                return float(np.sum(batch.logits * upstream)), grad

            assert grad_check(f, enhancer_params(model), 1e-6) < 1e-4, sizes


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
    (lambda doc: doc.update(use_instance_graph="false"),
     "field 'use_instance_graph' must be a boolean, got 'false'"),
    (lambda doc: doc.update(use_instance_graph=1),
     "field 'use_instance_graph' must be a boolean, got 1"),
    (lambda doc: doc.update(instance_k=2.9), "field 'instance_k' must be an integer, got 2.9"),
    (lambda doc: doc.update(k_label=True), "field 'k_label' must be an integer, got True"),
    (lambda doc: doc.update(k_label="3"), "field 'k_label' must be an integer, got '3'"),
], ids=["no-sigma", "no-omega2-biases", "short-omega1-weights", "extra-omega3-activation",
        "long-sigma-bias", "zero-k-label", "negative-instance-k", "string-flag", "int-flag",
        "float-instance-k", "bool-k-label", "string-k-label"])
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


@pytest.fixture(scope="module")
def trained():
    """An enhancer trained for three epochs, its label graph frozen, and its training set."""
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=60, seed=3))
    enh, _, _ = train(ds, None, TrainConfig(epochs=3, batch_size=16, seed=3))
    return enh, ds


def same_bytes(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("logits", "distributions", "confidences"))


class TestFrozenLabelGraph:
    """train() freezes the label graph of its training split on the enhancer;
    enhance_batch refines with it instead of building one over its bags."""

    def test_on_the_training_split_it_is_the_whole_call_graph(self, trained):
        """The frozen graph is the one a forward over the whole split builds,
        so on that split the frozen pass gives the whole-call bytes."""
        enh, ds = trained
        packed = pack_bags(ds.bags, bag_features=True)
        _, cache = enhancer_forward(enh, packed)
        assert enh.label_graph.tobytes() == cache["refine"]["adj_n"].tobytes()
        assert same_bytes(enhance_batch(enh, ds.bags), enhancer_forward(enh, packed, grad=False)[0])

    def test_train_drops_a_given_graph_and_freezes_before_the_last_callback(self):
        ds, _ = generate_synthetic(SyntheticConfig(num_bags=30, seed=4))
        cfg = TrainConfig(epochs=2, batch_size=16, seed=4)
        enh, clf = build_models(ds.feature_dim, ds.label_count, cfg)
        enh.label_graph = np.full((ds.label_count, ds.label_count), 0.1)
        frozen = []
        train(ds, None, cfg, enh=enh, clf=clf,
              epoch_callback=lambda e, c, epoch: frozen.append(e.label_graph is not None))
        assert frozen == [False, True]
        fresh, _, _ = train(ds, None, cfg)
        assert enhancer_params(enh).tobytes() == enhancer_params(fresh).tobytes()
        assert enh.label_graph.tobytes() == fresh.label_graph.tobytes()

    def test_a_pass_builds_no_label_graph(self, trained, monkeypatch):
        enh, ds = trained
        builds = TestForwardOnlyCounts.record_builds(monkeypatch)
        enhance_batch(enh, ds.bags[:10])
        assert builds == [(10, False)]

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "unfrozen"])
    def test_a_pass_does_not_run_the_training_forward(self, trained, monkeypatch, frozen):
        """enhance_batch builds its three stages itself, with or without a
        frozen graph. Without one it gives the bytes of the training forward
        over its bags; with one it does not."""
        enh, ds = trained
        if not frozen:
            enh = dataclasses.replace(enh, label_graph=None)
        bags = ds.bags[:20]
        expected = enhancer_forward(enh, pack_bags(bags, bag_features=True), grad=False)[0]

        def refused(*args, **kwargs):
            raise AssertionError("enhance_batch ran enhancer_forward")

        monkeypatch.setattr(enh_mod, "enhancer_forward", refused)
        assert same_bytes(enhance_batch(enh, bags), expected) == (not frozen)

    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 50), min_size=1, max_size=60),
           data=st.data())
    @example(seed=0, sizes=[1], data=None)
    @settings(max_examples=40, deadline=None)
    def test_each_bag_depends_on_that_bag_alone(self, trained, seed, sizes, data):
        """Ragged bags in any order: each row of a call equals the call on
        that bag alone, within 1e-12. Calls of more than GRAPH_CHUNK_CELLS
        cells build their instance graphs in chunks."""
        enh, ds = trained
        rng = np.random.default_rng(seed)
        bags = [Bag(rng.normal(size=(n, ds.feature_dim)),
                    rng.integers(0, 2, size=ds.label_count)) for n in sizes]
        if data is not None:
            bags = [bags[i] for i in data.draw(st.permutations(range(len(bags))))]
        together = enhance_batch(enh, bags)
        for i, bag in enumerate(bags):
            alone = enhance_batch(enh, [bag])
            for name in ("logits", "distributions", "confidences"):
                np.testing.assert_allclose(getattr(together, name)[i], getattr(alone, name)[0],
                                           rtol=0, atol=1e-12)

    def test_schema_2_round_trip_gives_the_same_bytes(self, trained, tmp_path):
        enh, ds = trained
        path = tmp_path / "enh.json"
        save_enhancer(enh, path)
        assert json.loads(path.read_text())["schema"] == 2
        loaded = load_enhancer(path)
        assert loaded.label_graph.tobytes() == enh.label_graph.tobytes()
        assert same_bytes(enhance_batch(loaded, ds.bags), enhance_batch(enh, ds.bags))

    @pytest.mark.parametrize("schema", [None, 1, 2])
    def test_checkpoint_without_a_graph_builds_one_per_call(self, trained, tmp_path, schema):
        """A schema-1 checkpoint (with or without its "schema" key), and a
        schema-2 one whose label_graph is null, as an untrained model writes,
        enhance with the label graph of each call's bags."""
        enh, ds = trained
        path = tmp_path / "enh.json"
        save_enhancer(enh, path)
        doc = json.loads(path.read_text())
        if schema == 2:
            doc["label_graph"] = None
        else:
            del doc["label_graph"]
            doc.pop("schema") if schema is None else doc.update(schema=schema)
        path.write_text(json.dumps(doc))
        loaded = load_enhancer(path)
        assert loaded.label_graph is None
        bags = ds.bags[:20]
        whole_call = enhancer_forward(enh, pack_bags(bags, bag_features=True), grad=False)[0]
        assert same_bytes(enhance_batch(loaded, bags), whole_call)
        assert not same_bytes(enhance_batch(enh, bags), whole_call)

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc.pop("label_graph"), "missing key 'label_graph'"),
        (lambda doc: doc.update(schema=3), "unsupported checkpoint schema 3"),
        (lambda doc: doc["label_graph"].pop(), "label_graph: shape (5, 6) is not (6, 6)"),
        # ragged rows and text fail NumPy's conversion, whose words vary by version
        (lambda doc: doc["label_graph"][0].append(0.0), "label_graph: "),
        (lambda doc: doc.update(label_graph="dense"), "label_graph: "),
        (lambda doc: doc["label_graph"][1].__setitem__(2, float("nan")),
         "label_graph: non-finite weight"),
        (lambda doc: doc["label_graph"][1].__setitem__(2, -0.25), "label_graph: negative weight"),
        (lambda doc: doc["label_graph"][1].__setitem__(2, 1.5),
         "label_graph: a row sums to more than 1"),
    ], ids=["missing", "schema-3", "rows", "columns", "text", "nan", "negative", "row-sum"])
    def test_malformed_graph_names_file_and_key(self, trained, tmp_path, edit, named):
        enh, _ = trained
        path = tmp_path / "enh.json"
        save_enhancer(enh, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=re.escape(named)) as info:
            load_enhancer(path)
        assert str(path) in str(info.value)
