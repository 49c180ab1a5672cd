import json
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import glemiml.enhancer as enh_mod
import glemiml.graph as graph_mod
from glemiml.data import Bag, SyntheticConfig, generate_synthetic, pack_bags
from glemiml.enhancer import (
    EnhancerModel,
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
from glemiml.nets import DenseLayer, FeedForwardNet, forward_batch
from glemiml.training import TrainConfig, train


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


def by_thread(builds):
    """The builds of a list of (thread, build) in the order each thread made them."""
    out = {}
    for thread, build in builds:
        out.setdefault(thread, []).append(build)
    return list(out.values())


@pytest.mark.parametrize("instances, oversized", [((2, 5), None), ((20, 50), 70)])
def test_graph_chunks_keep_the_cell_budget_and_change_no_bit(monkeypatch, instances, oversized):
    """A set's distances do not depend on the padded size of its chunk, so
    neither the budget nor the worker count moves a bit. A pass above the
    budget is cut into chunks that each hold at most half the budget's
    cells, or one bag larger than that, and end where the next bag would
    break them. Each worker builds its chunks largest first, and the
    workers' cells differ by at most one chunk."""
    lo, hi = instances
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=60, instances_min=lo, instances_max=hi,
                                               seed=4))
    bags = list(ds.bags)
    if oversized:
        bags.insert(7, make_bag(np.random.default_rng(5), oversized, ds.feature_dim,
                                ds.label_count))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=3)
    builds = []  # (thread, (bags, largest bag, smallest bag)) per build
    real = enh_mod._graph_means

    def recorded(model, batch, grad=True):
        builds.append((threading.current_thread(),
                       (len(batch), int(batch.counts.max()), int(batch.counts.min()))))
        return real(model, batch, grad)

    monkeypatch.setattr(enh_mod, "_graph_means", recorded)
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(enh_mod, "_graph_workers", lambda: workers)
        for budget in (1 << 4, 1 << 9, 1 << 12, enh_mod.GRAPH_CHUNK_CELLS):
            monkeypatch.setattr(enh_mod, "GRAPH_CHUNK_CELLS", budget)
            builds.clear()
            batch = enhance_batch(model, bags)
            out.append([a.tobytes() for a in (batch.logits, batch.distributions,
                                              batch.confidences)])
            chunks = [chunk for _, chunk in builds]
            assert sum(b for b, _, _ in chunks) == len(bags)
            if len(bags) * max(b.instances.shape[0] for b in bags) ** 2 <= budget:
                assert len(chunks) == 1 and builds[0][0] is threading.current_thread()
                continue
            shares = by_thread(builds)
            assert len(shares) == min(workers, len(chunks))
            loads = []
            for share in shares:
                cells = [b * n * n for b, n, _ in share]
                assert cells == sorted(cells, reverse=True)
                loads.append(sum(cells))
            assert max(loads) - min(loads) <= max(b * n * n for b, n, _ in chunks)
            half = budget // 2
            for b, n, _ in chunks:
                assert b * n * n <= half or b == 1
            # the chunks in size order; of two with the same bags' sizes, the full one first
            in_order = sorted(chunks, key=lambda c: (c[2], c[1], -c[0]))
            for (b, _, _), (_, _, next_first) in zip(in_order, in_order[1:]):
                assert (b + 1) * next_first ** 2 > half
            if oversized and oversized ** 2 > half:
                assert (1, oversized, oversized) in chunks
    assert all(o == out[0] for o in out)


def test_chunked_pass_builds_each_workers_chunks_largest_first(monkeypatch):
    """Each worker, the calling thread and one thread started for the pass,
    builds its chunks largest first, at the default budget, where the
    chunks' cell order is not their bags' size order. The label graph is
    built last, on the calling thread."""
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=300, instances_min=20, instances_max=50,
                                               seed=4))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=3)
    monkeypatch.setattr(enh_mod, "_graph_workers", lambda: 2)
    builds = []  # (thread, (cells, sets)) per build
    real = enh_mod.mutual_knn_median

    def recorded(points, counts, k, grad=True):
        builds.append((threading.current_thread(), (points.shape[0] * points.shape[1] ** 2,
                                                    len(points))))
        return real(points, counts, k, grad=grad)

    monkeypatch.setattr(enh_mod, "mutual_knn_median", recorded)
    enhance_batch(model, ds.bags)
    # the last build is the label graph's, on the calling thread after the join
    assert builds[-1][0] is threading.current_thread()
    instance = builds[:-1]
    assert len(instance) > 3 and sum(sets for _, (_, sets) in instance) == len(ds)
    threads = {thread for thread, _ in instance}
    assert len(threads) == 2 and threading.current_thread() in threads
    # the chunks' cell order is not their bags' size order
    by_cells = sorted((cells, round((cells / sets) ** 0.5)) for _, (cells, sets) in instance)
    sizes = [n for _, n in by_cells]
    assert sizes != sorted(sizes) and sizes != sorted(sizes, reverse=True)
    for share in by_thread(instance):
        cells = [c for c, _ in share]
        assert cells == sorted(cells, reverse=True)


class TimedThread(threading.Thread):
    """A thread whose join gives up after a timeout and records whether it returned in time."""

    started, late = [], []

    def start(self):
        TimedThread.started.append(self)
        super().start()

    def join(self, timeout=None):
        super().join(timeout=60)
        TimedThread.late.append(self.is_alive())


@pytest.fixture
def timed_threads(monkeypatch):
    """Threads started by the program are TimedThreads; the lists are emptied first."""
    TimedThread.started.clear()
    TimedThread.late.clear()
    monkeypatch.setattr(threading, "Thread", TimedThread)
    return TimedThread


def test_worker_count_changes_no_bit(monkeypatch, timed_threads):
    """The chunks do not depend on the worker count, and each chunk writes only
    its own rows, so 1 and 2 workers give the same bits, with a thread
    switch forced as often as the interpreter allows. Bags of 2-60 instances
    make chunks padded to many sizes. Two workers start one thread."""
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=120, instances_min=2, instances_max=60,
                                               seed=8))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=2)
    # chunks of up to 256 cells: 5 bags of 7, one bag of 16 or more
    monkeypatch.setattr(enh_mod, "GRAPH_CHUNK_CELLS", 1 << 9)
    out, builds = {}, {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2):
            monkeypatch.setattr(enh_mod, "_graph_workers", lambda: workers)
            before = enh_mod.instance_graph_build_count()
            batch = enhance_batch(model, ds.bags)
            builds[workers] = enh_mod.instance_graph_build_count() - before
            out[workers] = [a.tobytes() for a in (batch.logits, batch.distributions,
                                                  batch.confidences)]
    finally:
        sys.setswitchinterval(interval)
    assert out[2] == out[1]
    assert builds == {1: len(ds), 2: len(ds)}
    assert len(timed_threads.started) == 1
    assert timed_threads.late == [False]


def test_one_share_makes_no_pool(monkeypatch, timed_threads):
    """A chunked pass whose second share has no chunk, on one worker or with
    one bag above the budget, builds on the calling thread and makes no
    pool; a pass with two shares makes one."""
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=40, instances_min=20, instances_max=50,
                                               seed=4))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=3)
    monkeypatch.setattr(enh_mod, "GRAPH_CHUNK_CELLS", 1 << 9)
    pools = []
    init = ThreadPoolExecutor.__init__

    def recorded(pool, *args, **kwargs):
        pools.append(pool)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", recorded)
    chunked = []  # bags per chunked pass
    real = enh_mod._chunked_graph_means

    def counted(model, batch):
        chunked.append(len(batch))
        return real(model, batch)

    monkeypatch.setattr(enh_mod, "_chunked_graph_means", counted)
    oversized = make_bag(np.random.default_rng(5), 30, ds.feature_dim, ds.label_count)
    for workers, bags, made in ((1, ds.bags, 0), (2, [oversized], 0), (2, ds.bags, 1)):
        monkeypatch.setattr(enh_mod, "_graph_workers", lambda: workers)
        pools.clear()
        enhance_batch(model, bags)
        assert chunked.pop() == len(bags)
        assert len(pools) == made
    assert len(timed_threads.started) == 1


@pytest.mark.parametrize("failing", ["calling", "other"])
def test_worker_failure_is_raised_after_the_join(monkeypatch, timed_threads, failing):
    """A chunk that raises in either worker stops the pass with its own
    exception, once the other worker has been joined."""
    ds, _ = generate_synthetic(SyntheticConfig(num_bags=200, instances_min=20, instances_max=50,
                                               seed=4))
    model = init_enhancer(ds.feature_dim, ds.label_count, seed=3)
    monkeypatch.setattr(enh_mod, "_graph_workers", lambda: 2)
    caller = threading.current_thread()
    real = enh_mod._graph_means

    def failing_chunk(model, batch, grad=True):
        if (threading.current_thread() is caller) == (failing == "calling"):
            raise ShapeError("a chunk failed")
        return real(model, batch, grad)

    monkeypatch.setattr(enh_mod, "_graph_means", failing_chunk)
    active = threading.active_count()
    with pytest.raises(ShapeError, match="a chunk failed"):
        enhance_batch(model, ds.bags)
    assert threading.active_count() == active
    assert len(timed_threads.started) == 1 and timed_threads.late == [False]


def test_graph_workers_follow_the_usable_cpus(monkeypatch):
    """Two workers at most; the CPUs the process may run on, or where the
    platform cannot tell them, the machine's CPU count, or one."""
    monkeypatch.setattr(enh_mod.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert enh_mod._graph_workers() == 1
    monkeypatch.setattr(enh_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert enh_mod._graph_workers() == 2
    monkeypatch.delattr(enh_mod.os, "sched_getaffinity", raising=False)
    for cpus, workers in ((None, 1), (1, 1), (2, 2), (8, 2)):
        monkeypatch.setattr(enh_mod.os, "cpu_count", lambda: cpus)
        assert enh_mod._graph_workers() == workers


def test_wide_bag_pass_memory_stays_bounded():
    """A warm pass over the 500 bags of 20-50 instances of the wide-bags
    benchmark set (seed 5) peaked at 6.62 MB when each of its seven chunks
    took a fresh GraphBuffers and the sigma net's cache lived through each
    build, and at 5.47 MB with one holder per pass, largest chunk first, and
    the cache freed. With each build allocating its own arrays it peaks at
    4.5-5.4 MB on two workers, as their builds happen to overlap."""
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
        # the enhancer step's instance and label graphs, then the forward-only pair
        assert builds == [build for size in (8, 8, 4)
                          for build in ((size, True), (1, True), (size, False), (1, False))]
        assert enh_mod.instance_graph_build_count() - before == 2 * len(ds)

    def test_train_makes_one_instance_plan_per_batch_and_one_label_plan(self, monkeypatch):
        """A batch's enhancer-step build, its backward and its forward-only
        rebuild share one instance-graph plan, and the label graphs of a
        train() call share one. A rebuild through the size-sorted chunks
        would gather the bags in another order and make plans of its own.
        The plan memo is emptied first, as a new process starts it."""
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
        # per batch: the instance and label builds of the step, then of the rebuild
        assert builds == [(batch_size, True), (1, True), (batch_size, False), (1, False)] * batches
        label_plan = (np.array([ds.label_count]).tobytes(), ds.label_count)
        instance_plans = [plan for plan in plans if plan != label_plan]
        assert len(plans) - len(instance_plans) == 1
        assert len(instance_plans) == batches
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
