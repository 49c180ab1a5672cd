"""Acceptance suite: one test per shipping criterion.

Each test is a single pass/fail line under `pytest -v`.  Tolerances:

1. gradient fidelity     max relative error < 1e-4 (central FD, eps = 1e-6)
2. metric oracles        agreement within 1e-12
3. graph invariants      of mutual_knn_median's instance and label graphs:
                         row sums < 1e-10, quadratic form >= -1e-10,
                         pairwise-sum identity within 1e-9
4. synthetic recovery    cosine margin >= 0.02 over the normalized logical
                         baseline; trained ranking loss strictly below the
                         untrained 0.5-probability classifier; final mean
                         threshold loss below its first-epoch value
5. ablation harness      4 variants x 4 metrics, variant C builds zero
                         instance graphs, one documented difference each
6. determinism           byte-identical artifacts for identical config+seed
7. reference values      README states the published comparison numbers are
                         context only and not asserted anywhere
"""

import json
import os
import time

import numpy as np
import pytest

import glemiml.enhancer as enh_mod
import glemiml.training as tr_mod
from glemiml.classifier import (
    ClassifierModel,
    classifier_forward,
    classifier_params,
    init_classifier,
    set_classifier_params,
)
from glemiml.cli import main
from glemiml.data import (
    Bag,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    normalized_logical_baseline,
    pack_bags,
    split_dataset,
)
from glemiml.enhancer import (
    EnhancerModel,
    enhance_batch,
    enhancer_params,
    set_enhancer_params,
)
from glemiml.graph import mutual_knn_median
from glemiml.losses import (
    LossWeights,
    asymmetric_interaction_loss,
    distribution_loss,
    logical_bce_loss,
    similarity_loss,
    threshold_loss,
)
from glemiml.metrics import (
    hamming_loss,
    macro_average_precision,
    macro_f1,
    ranking_loss,
)
from glemiml.nets import (
    backward_batch,
    forward_batch,
    grad_check,
    grads_to_vector,
    init_net,
    net_to_vector,
    softmax_rows,
    vector_to_net,
)
from glemiml.training import TrainConfig, build_models, evaluate, train

GRAD_TOL = 1e-4
FD_EPS = 1e-6
N_CONFIGS = 50


# ---------------------------------------------------------------- criterion 1

def _mixed_labels(rng, n, t):
    """Random 0/1 matrix where every row has at least one 1 and one 0."""
    lab = rng.integers(0, 2, size=(n, t))
    for i in range(n):
        lab[i, rng.integers(t)] = 1
        lab[i, (np.argmax(lab[i]) + 1) % t] = 0
    return lab.astype(np.float64)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x):
    z = np.exp(x - x.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _softmax_back(soft, grad):
    return soft * (grad - (grad * soft).sum(axis=1, keepdims=True))


def _net_loss_check(seed, head_grad_fn, t=2, f=3, n=4):
    """FD-check a loss whose input is the output of a small random net.

    head_grad_fn(outputs, rng) -> (loss, grad wrt the net outputs).
    """
    rng = np.random.default_rng(np.uint64(seed))
    net = init_net([f, 4, t], "tanh", seed=seed)
    x = rng.normal(size=(n, f))

    def fn(vec):
        vector_to_net(vec, net)
        out, cache = forward_batch(net, x)
        loss, g_out = head_grad_fn(out, rng)
        pg, _ = backward_batch(net, cache, g_out)
        return float(loss), grads_to_vector(pg)

    return grad_check(fn, net_to_vector(net), FD_EPS)


def test_criterion_1_gradient_fidelity():
    start = time.time()
    worst = {}

    for seed in range(N_CONFIGS):
        rng0 = np.random.default_rng(np.uint64(1000 + seed))
        t, n = 2, 4
        logical = _mixed_labels(rng0, n, t)
        clf_probs = rng0.uniform(0.1, 0.9, size=(n, t))
        gp = float(rng0.choice([0.0, 1.0, 4.0]))
        gn = float(rng0.choice([0.0, 2.0, 4.0]))

        def interaction(out, rng):
            p = _sigmoid(out)
            loss, g_p = asymmetric_interaction_loss(clf_probs, p, logical, gp, gn)
            return loss, g_p * p * (1 - p)

        err = _net_loss_check(seed, interaction)
        worst["interaction"] = max(worst.get("interaction", 0.0), err)

        bags = pack_bags([Bag(rng0.normal(size=(2, 3)), logical[i].astype(int))
                          for i in range(n)], bag_features=True)

        for mode in ("mse", "eq9-literal"):
            def similarity(out, rng, mode=mode):
                d = _softmax(out)
                loss, g_d = similarity_loss(bags, d, mode)
                return loss, _softmax_back(d, g_d)

            err = _net_loss_check(seed, similarity)
            worst[f"similarity[{mode}]"] = max(worst.get(f"similarity[{mode}]", 0.0), err)

        def threshold(out, rng):
            d = _softmax(out)
            loss, g_d = threshold_loss(d, logical)
            return loss, _softmax_back(d, g_d)

        err = _net_loss_check(seed, threshold)
        worst["threshold"] = max(worst.get("threshold", 0.0), err)

        dist_const = rng0.dirichlet(np.ones(t), size=n)

        def distribution(out, rng):
            return distribution_loss(dist_const, out)

        err = _net_loss_check(seed, distribution)
        worst["distribution"] = max(worst.get("distribution", 0.0), err)

        def bce(out, rng):
            p = _sigmoid(out)
            loss, g_p = logical_bce_loss(p, logical)
            return loss, g_p * p * (1 - p)

        err = _net_loss_check(seed, bce)
        worst["bce"] = max(worst.get("bce", 0.0), err)

    # weighted totals composed with the real enhancer / classifier stacks
    for seed in range(N_CONFIGS):
        rng = np.random.default_rng(np.uint64(2000 + seed))
        b = rng.dirichlet(np.ones(3))
        w = LossWeights(beta1=float(b[0]), beta2=float(b[1]),
                        beta3=float(1 - b[0] - b[1]),
                        rho=float(rng.uniform(0.05, 0.95)),
                        gamma_pos=float(rng.choice([0.0, 2.0])),
                        gamma_neg=float(rng.choice([0.0, 4.0])))
        cfg = TrainConfig(epochs=1, batch_size=3,
                          loss_weights=w, instance_k=2, k_label=1,
                          embed_dim=2, seed=seed,
                          sim_mode=("mse" if seed % 2 == 0 else "eq9-literal"))
        t, f = 2, 2
        logical = _mixed_labels(rng, 3, t)
        bags = pack_bags([Bag(rng.normal(size=(int(rng.integers(2, 4)), f)),
                              logical[i].astype(int)) for i in range(3)], bag_features=True)
        clf_probs = rng.uniform(0.1, 0.9, size=(3, t))

        def single(i, o, s):
            return init_net([i, o], "identity", seed=s)

        enh = EnhancerModel(sigma_net=single(f, f, seed * 7 + 1),
                            omega1_net=single(f, t, seed * 7 + 2),
                            omega2_net=single(f, t, seed * 7 + 3),
                            omega3_net=single(t, t, seed * 7 + 4),
                            instance_k=2, k_label=1)

        def enhancer_total(vec):
            set_enhancer_params(enh, vec)
            losses, grad = tr_mod._enhancer_batch(enh, bags, clf_probs, cfg)
            return losses["L_CLE"], grad

        err = grad_check(enhancer_total, enhancer_params(enh), FD_EPS)
        worst["enhancer_total"] = max(worst.get("enhancer_total", 0.0), err)

        clf = ClassifierModel(depth=2,
                              instance_net=init_net([f, 3], "relu", seed=seed * 3 + 1),
                              head=init_net([3, t], "identity", seed=seed * 3 + 2))
        dist_const = rng.dirichlet(np.ones(t), size=3)

        def classifier_total(vec):
            set_classifier_params(clf, vec)
            losses, grad = tr_mod._classifier_batch(clf, classifier_forward(clf, bags),
                                                    logical, dist_const, cfg)
            return losses["L_C"], grad

        err = grad_check(classifier_total, classifier_params(clf), FD_EPS)
        worst["classifier_total"] = max(worst.get("classifier_total", 0.0), err)

    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s (budget 60s)"
    for name, err in worst.items():
        assert err < GRAD_TOL, f"{name}: max relative error {err:.2e} >= {GRAD_TOL}"


# ---------------------------------------------------------------- criterion 2

def _brute_hl(pred, truth):
    return sum(int(pred[i, j] != truth[i, j])
               for i in range(pred.shape[0])
               for j in range(pred.shape[1])) / pred.size


def _brute_rl(scores, truth):
    vals = []
    for i in range(scores.shape[0]):
        pos = [j for j in range(truth.shape[1]) if truth[i, j] == 1]
        neg = [j for j in range(truth.shape[1]) if truth[i, j] == 0]
        if pos and neg:
            bad = sum(1 for u in pos for v in neg if scores[i, u] <= scores[i, v])
            vals.append(bad / (len(pos) * len(neg)))
    return sum(vals) / len(vals)


def _brute_map(scores, truth):
    aps = []
    for j in range(scores.shape[1]):
        pos = [i for i in range(scores.shape[0]) if truth[i, j] == 1]
        if not pos:
            continue
        order = sorted(range(scores.shape[0]), key=lambda i: (-scores[i, j], i))
        precs = []
        for i in pos:
            rank = order.index(i) + 1
            hits = sum(1 for o in order[:rank] if truth[o, j] == 1)
            precs.append(hits / rank)
        aps.append(sum(precs) / len(precs))
    return sum(aps) / len(aps)


def _brute_f1(pred, truth):
    f1s = []
    for j in range(pred.shape[1]):
        tp = int(np.sum((pred[:, j] == 1) & (truth[:, j] == 1)))
        fp = int(np.sum((pred[:, j] == 1) & (truth[:, j] == 0)))
        fn = int(np.sum((pred[:, j] == 0) & (truth[:, j] == 1)))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return sum(f1s) / len(f1s)


def test_criterion_2_metric_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(np.uint64(99))
    for trial in range(100):
        scores = rng.normal(size=(20, 6))
        truth = rng.integers(0, 2, size=(20, 6))
        truth[0] = [1, 0, 1, 0, 1, 0]        # every metric stays defined
        if trial % 3 == 0:
            scores[:, 2] = scores[:, 4]      # ties across labels
        if trial % 5 == 0:
            truth[1] = 1                     # a skipped (all-positive) bag
        pred = (1 / (1 + np.exp(-scores)) > 0.5).astype(int)
        assert hamming_loss(pred, truth) == pytest.approx(_brute_hl(pred, truth), abs=1e-12)
        assert ranking_loss(scores, truth) == pytest.approx(_brute_rl(scores, truth), abs=1e-12)
        assert macro_average_precision(scores, truth) == pytest.approx(
            _brute_map(scores, truth), abs=1e-12)
        assert macro_f1(pred, truth) == pytest.approx(_brute_f1(pred, truth), abs=1e-12)
    assert time.time() - start < 10.0


# ---------------------------------------------------------------- criterion 3

def _check_graph_invariants(adj, counts, rng):
    """Symmetry, Laplacian row sums, PSD and the pairwise identity for each set's graph."""
    for A, n in zip(adj, counts):
        np.testing.assert_array_equal(A, A.T)
        assert np.all(np.diag(A) == 0.0)
        assert not A[n:].any() and not A[:, n:].any()  # padded nodes have no edges
        A = A[:n, :n]
        L = np.diag(A.sum(axis=1)) - A
        assert np.abs(L.sum(axis=1)).max() < 1e-10
        for _ in range(10):
            x = rng.normal(size=n)
            assert x @ L @ x >= -1e-10
        emb = rng.normal(size=(n, 3))
        pairwise = 0.5 * sum(
            A[i, j] * float(np.sum((emb[i] - emb[j]) ** 2))
            for i in range(n) for j in range(n))
        assert float(np.trace(emb.T @ L @ emb)) == pytest.approx(pairwise, abs=1e-9)


def test_criterion_3_graph_invariants():
    """The graphs the enhancer builds: padded batches of instance graphs, and
    the label graph over the columns of a batch's softmax."""
    rng = np.random.default_rng(np.uint64(7))
    for _ in range(100):
        counts = rng.integers(1, 9, size=int(rng.integers(1, 7)))
        real = np.arange(counts.max()) < counts[:, None]
        pts = np.where(real[:, :, None],
                       rng.normal(size=real.shape + (int(rng.integers(2, 5)),)), 0.0)
        k = int(rng.integers(1, 8))
        _check_graph_invariants(mutual_knn_median(pts, counts, k)[0], counts, rng)

        logits = rng.normal(size=(int(rng.integers(1, 33)), int(rng.integers(2, 9))))
        t = logits.shape[1]
        labels = mutual_knn_median(softmax_rows(logits).T[None], [t], k)[0]
        _check_graph_invariants(labels, [t], rng)


# ---------------------------------------------------------------- criterion 4

def _mean_cosine(A, B):
    num = (A * B).sum(axis=1)
    den = np.linalg.norm(A, axis=1) * np.linalg.norm(B, axis=1)
    return float(np.mean(num / den))


def test_criterion_4_synthetic_recovery():
    start = time.time()
    ds, truths = generate_synthetic(SyntheticConfig())      # 500 bags, d=10, t=6
    truths = np.asarray(truths)
    train_ds, test_ds, _ = split_dataset(ds, SplitSpec())

    cfg = TrainConfig(epochs=50, batch_size=32, seed=0)     # well under the 200 cap
    enh, clf, hist = train(train_ds, None, cfg)

    # (a) recovered distributions beat the normalized logical baseline
    recovered = enhance_batch(enh, ds.bags).distributions
    cos_model = _mean_cosine(recovered, truths)
    cos_base = _mean_cosine(normalized_logical_baseline(ds), truths)
    assert cos_model - cos_base >= 0.02, (
        f"cosine margin {cos_model - cos_base:.4f} < 0.02 "
        f"(model {cos_model:.4f}, baseline {cos_base:.4f})")

    # (b) trained classifier out-ranks the untrained all-0.5 one on test
    untrained = init_classifier(ds.feature_dim, ds.label_count, depth=2, seed=999)
    set_classifier_params(untrained, np.zeros(classifier_params(untrained).size))
    rl_trained = evaluate(enh, clf, test_ds).ranking_loss
    rl_untrained = evaluate(enh, untrained, test_ds).ranking_loss
    assert rl_trained < rl_untrained

    # (c) threshold-loss learning signal
    assert hist.records[-1]["L_thr"] < hist.records[0]["L_thr"]

    assert time.time() - start < 300.0


# ---------------------------------------------------------------- criterion 5

FAST_ABLATE = [
    "--synth", "--num-bags", "20", "--feature-dim", "4", "--label-count", "3",
    "--epochs", "1", "--batch-size", "8",
]


def test_criterion_5_ablation_harness(tmp_path):
    out = tmp_path / "abl"
    assert main(["ablate", *FAST_ABLATE, "--out", str(out)]) == 0
    doc = json.loads((out / "ablation.json").read_text())
    assert set(doc["variants"]) == {"GLEMIML", "GLEMIML-A", "GLEMIML-B", "GLEMIML-C"}
    for rep in doc["variants"].values():
        assert set(rep) >= {"hamming_loss", "ranking_loss",
                            "macro_avg_precision", "macro_f1"}

    # variant C provably never constructs an instance graph
    before = enh_mod.instance_graph_build_count()
    out_c = tmp_path / "only-c"
    assert main(["ablate", *FAST_ABLATE, "--out", str(out_c), "--only", "C"]) == 0
    assert enh_mod.instance_graph_build_count() == before

    # each variant differs from the full model in exactly its documented axis
    cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
    full_enh, full_clf = build_models(4, 3, cfg)
    for ablation, check in {
        "A": lambda e, c: (c.depth == 1 and e.use_instance_graph
                           and np.array_equal(enhancer_params(e), enhancer_params(full_enh))),
        "B": lambda e, c: (c.depth == 3 and e.use_instance_graph
                           and np.array_equal(enhancer_params(e), enhancer_params(full_enh))),
        "C": lambda e, c: (c.depth == full_clf.depth and not e.use_instance_graph
                           and np.array_equal(classifier_params(c), classifier_params(full_clf))),
    }.items():
        from dataclasses import replace
        enh, clf = build_models(4, 3, replace(cfg, ablation=ablation))
        assert check(enh, clf), f"variant {ablation} differs beyond its documented axis"


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_determinism(tmp_path):
    out = tmp_path / "run"
    argv = ["train", *FAST_ABLATE, "--epochs", "2", "--out", str(out)]
    artifacts = ("manifest.json", "enhancer.json", "classifier.json",
                 "history.csv", "report.json", "report.txt")
    assert main(argv) == 0
    first = {name: (out / name).read_bytes() for name in artifacts}
    assert main(argv) == 0   # same directory: identical config hash too
    for name in artifacts:
        assert (out / name).read_bytes() == first[name], f"{name} differs across runs"


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_reference_values_documented_not_asserted():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    text = open(readme, encoding="utf-8").read()
    # the published comparison numbers are context only...
    assert "0.1650" in text
    assert "not reproducible" in text.lower() or "non-reproducible" in text.lower()
    for knob in ("K", "δ", "β", "ρ", "γ", "epoch"):
        assert knob in text, f"README must note that {knob} is unpublished"
    # ...and no test in this repository asserts them as measured outcomes
    tests_dir = os.path.dirname(__file__)
    for fname in os.listdir(tests_dir):
        if not fname.endswith(".py"):
            continue
        needle = "approx(" + "0.1650"   # split so this file matches itself
        for line in open(os.path.join(tests_dir, fname), encoding="utf-8"):
            assert needle not in line, (
                f"{fname} asserts a published absolute value as an outcome")
