import numpy as np
import pytest

import glemiml.enhancer as enh_mod
import glemiml.training as tr_mod
from glemiml.classifier import (
    ClassifierModel,
    classifier_forward,
    classifier_params,
    init_classifier,
)
from glemiml.data import (
    Bag,
    MIMLDataset,
    SyntheticConfig,
    generate_synthetic,
    pack_bags,
    split_dataset,
    SplitSpec,
)
from glemiml.enhancer import EnhancerModel, enhancer_params, set_enhancer_params
from glemiml.errors import ConfigError, NumericError
from glemiml.losses import LossWeights
from glemiml.nets import DenseLayer, FeedForwardNet, grad_check
from glemiml.training import (
    ABLATIONS,
    LOSS_COLUMNS,
    TrainConfig,
    build_models,
    evaluate,
    run_ablation,
    train,
)


def small_dataset(num_bags=12, d=4, t=3, seed=0):
    cfg = SyntheticConfig(num_bags=num_bags, feature_dim=d, label_count=t,
                          instances_min=2, instances_max=4, seed=seed)
    ds, _ = generate_synthetic(cfg)
    return ds


def fast_cfg(**kw):
    defaults = dict(epochs=1, batch_size=6, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 50 and cfg.batch_size == 32
        assert cfg.learning_rate == 1e-3 and cfg.optimizer == "adam"
        assert cfg.classifier_depth == 2 and cfg.ablation == "full"

    @pytest.mark.parametrize("kw", [
        {"epochs": 0}, {"batch_size": 1}, {"learning_rate": 0.0},
        {"optimizer": "rmsprop"}, {"ablation": "D"}, {"instance_k": 0}, {"k_label": -2},
        {"embed_dim": 0}, {"classifier_depth": 0}, {"classifier_depth": 4}, {"sim_mode": "bogus"},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


class TestLoopAccounting:
    def test_one_epoch_one_record_all_columns(self):
        ds = small_dataset()
        _, _, hist = train(ds, None, fast_cfg(batch_size=32))
        assert len(hist.records) == 1
        for col in LOSS_COLUMNS:
            assert col in hist.records[0]
            assert np.isfinite(hist.records[0][col])

    def test_single_batch_one_step_each(self, monkeypatch):
        ds = small_dataset()
        calls = {"enh": 0, "clf": 0}
        orig_e, orig_c = tr_mod._enhancer_batch, tr_mod._classifier_batch

        def count_e(*a, **k):
            calls["enh"] += 1
            return orig_e(*a, **k)

        def count_c(*a, **k):
            calls["clf"] += 1
            return orig_c(*a, **k)

        monkeypatch.setattr(tr_mod, "_enhancer_batch", count_e)
        monkeypatch.setattr(tr_mod, "_classifier_batch", count_c)
        train(ds, None, fast_cfg(batch_size=32))
        assert calls == {"enh": 1, "clf": 1}

    def test_trailing_singleton_batch_dropped(self, monkeypatch):
        ds = small_dataset(num_bags=13)
        seen = []
        orig = tr_mod._enhancer_batch

        def spy(enh, bags, *a, **k):
            seen.append(len(bags))
            return orig(enh, bags, *a, **k)

        monkeypatch.setattr(tr_mod, "_enhancer_batch", spy)
        train(ds, None, fast_cfg(batch_size=6))
        # 13 bags in batches of 6 -> 6, 6, and the final singleton is skipped
        assert sorted(seen) == [6, 6]
        assert min(seen) >= 2

    def test_validation_metrics_recorded(self):
        ds = small_dataset()
        val = small_dataset(seed=1)
        _, _, hist = train(ds, val, fast_cfg())
        rec = hist.records[0]
        for key in ("val_hamming_loss", "val_ranking_loss",
                    "val_macro_avg_precision", "val_macro_f1"):
            assert key in rec

    def test_epoch_callback_called_per_epoch(self):
        ds = small_dataset()
        epochs_seen = []
        train(ds, None, fast_cfg(epochs=3),
              epoch_callback=lambda e, c, ep: epochs_seen.append(ep))
        assert epochs_seen == [1, 2, 3]

    def test_empty_train_split_rejected(self):
        from glemiml.errors import DataFormatError
        with pytest.raises(DataFormatError):
            MIMLDataset(bags=[], feature_dim=4, label_count=3)


class TestAlternation:
    def test_enhancer_step_leaves_classifier_untouched_and_vice_versa(self, monkeypatch):
        ds = small_dataset()
        cfg = fast_cfg(batch_size=32)
        enh, clf = build_models(ds.feature_dim, ds.label_count, cfg)
        snapshots = []
        orig = tr_mod._classifier_batch

        def spy(clf_model, *a, **k):
            # runs after the enhancer update: classifier must be unchanged
            snapshots.append(classifier_params(clf_model).copy())
            return orig(clf_model, *a, **k)

        monkeypatch.setattr(tr_mod, "_classifier_batch", spy)
        clf_before = classifier_params(clf).copy()
        enh_before = enhancer_params(enh).copy()
        enh2, clf2, _ = train(ds, None, cfg, enh=enh, clf=clf)
        np.testing.assert_array_equal(snapshots[0], clf_before)
        # both models did move over the whole batch step
        assert not np.array_equal(classifier_params(clf2), clf_before)
        assert not np.array_equal(enhancer_params(enh2), enh_before)

    def test_enhancer_grad_treats_classifier_probs_as_constant(self):
        # finite differences over enhancer parameters with fixed classifier
        # probabilities must match the analytic gradient of the enhancer loss
        ds = small_dataset(num_bags=4)
        cfg = fast_cfg()
        enh, _ = build_models(ds.feature_dim, ds.label_count, cfg)
        bags = pack_bags(ds.bags, bag_features=True)
        rng = np.random.default_rng(0)
        clf_probs = rng.uniform(0.1, 0.9, size=bags.logical.shape)

        def f(vec):
            set_enhancer_params(enh, vec)
            _, losses, grad = tr_mod._enhancer_batch(enh, bags, clf_probs, cfg)
            return losses["L_CLE"], grad

        assert grad_check(f, enhancer_params(enh), 1e-6) < 1e-4

    def test_classifier_grad_treats_distributions_as_constant(self):
        from glemiml.classifier import set_classifier_params
        ds = small_dataset(num_bags=4)
        cfg = fast_cfg()
        _, clf = build_models(ds.feature_dim, ds.label_count, cfg)
        bags = pack_bags(ds.bags, bag_features=True)
        rng = np.random.default_rng(1)
        dist = rng.dirichlet(np.ones(ds.label_count), size=len(bags))

        def f(vec):
            set_classifier_params(clf, vec)
            losses, grad = tr_mod._classifier_batch(clf, classifier_forward(clf, bags),
                                                    bags.logical, dist, cfg)
            return losses["L_C"], grad

        assert grad_check(f, classifier_params(clf), 1e-6) < 1e-4


class TestFlatRegion:
    def test_satisfied_threshold_gives_zero_loss_and_zero_gradient(self):
        # Recovered distributions already separate every positive label from
        # every negative one, so with all weight on the threshold term the
        # hinge is inactive: zero loss and zero gradient on every parameter.
        def zero_net(i, o):
            return FeedForwardNet([DenseLayer(np.zeros((o, i)), np.zeros(o), "identity")])

        def scaled_identity(dim, c):
            return FeedForwardNet([DenseLayer(c * np.eye(dim), np.zeros(dim), "identity")])

        enh = EnhancerModel(
            sigma_net=zero_net(2, 2), omega1_net=zero_net(2, 3),
            omega2_net=zero_net(2, 3), omega3_net=scaled_identity(3, 8.0),
        )
        rng = np.random.default_rng(0)
        patterns = ([1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1])
        bags = pack_bags([Bag(rng.normal(size=(2, 2)), np.array(p)) for p in patterns],
                         bag_features=True)
        logical = bags.logical
        cfg = fast_cfg(loss_weights=LossWeights(beta1=0.0, beta2=0.0, beta3=1.0))
        clf_probs = np.full(logical.shape, 0.5)

        batch, losses, grad = tr_mod._enhancer_batch(enh, bags, clf_probs, cfg)
        # precondition: min positive strictly above max negative in every bag
        for row, lab in zip(batch.distributions, logical):
            assert row[lab == 1].min() > row[lab == 0].max()
        assert losses["L_thr"] == 0.0
        assert losses["L_CLE"] == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(grad))


class TestDeterminism:
    def test_same_seed_bit_identical_models_and_history(self):
        ds = small_dataset()
        val = small_dataset(seed=1)
        cfg = fast_cfg(epochs=2)
        e1, c1, h1 = train(ds, val, cfg)
        e2, c2, h2 = train(ds, val, cfg)
        np.testing.assert_array_equal(enhancer_params(e1), enhancer_params(e2))
        np.testing.assert_array_equal(classifier_params(c1), classifier_params(c2))
        assert h1.records == h2.records

    def test_different_seed_differs(self):
        ds = small_dataset()
        e1, _, _ = train(ds, None, fast_cfg(seed=3))
        e2, _, _ = train(ds, None, fast_cfg(seed=4))
        assert not np.array_equal(enhancer_params(e1), enhancer_params(e2))


class TestLearningSignal:
    def test_enhancer_loss_decreases_on_synthetic(self):
        ds = small_dataset(num_bags=60, seed=5)
        _, _, hist = train(ds, None, TrainConfig(epochs=50, batch_size=32, seed=0))
        cle = hist.column("L_CLE")
        assert cle[-1] < cle[0]


class TestNumericGuard:
    def test_non_finite_loss_names_epoch_and_batch(self, monkeypatch):
        ds = small_dataset()
        monkeypatch.setattr(tr_mod, "asymmetric_interaction_loss",
                            lambda *a, **k: float("nan"))
        with pytest.raises(NumericError, match=r"epoch 1.*batch 0"):
            train(ds, None, fast_cfg(batch_size=32))


class TestEvaluate:
    def test_zero_classifier_hamming_equals_positive_density(self):
        # all-zero parameters give probabilities of exactly 0.5, the strict
        # threshold maps them to all-negative predictions, so the error rate
        # is exactly the fraction of positive entries in the truth
        ds = small_dataset()
        t = ds.label_count
        clf = ClassifierModel(
            depth=1, instance_net=None,
            head=FeedForwardNet([DenseLayer(np.zeros((t, ds.feature_dim)),
                                            np.zeros(t), "identity")]),
        )
        enh, _ = build_models(ds.feature_dim, ds.label_count, fast_cfg())
        report = evaluate(enh, clf, ds)
        density = ds.logical_matrix().mean()
        assert report.hamming_loss == pytest.approx(density, abs=1e-12)

    def test_evaluate_is_read_only(self):
        ds = small_dataset()
        cfg = fast_cfg()
        enh, clf = build_models(ds.feature_dim, ds.label_count, cfg)
        ev, cv = enhancer_params(enh).copy(), classifier_params(clf).copy()
        evaluate(enh, clf, ds)
        np.testing.assert_array_equal(enhancer_params(enh), ev)
        np.testing.assert_array_equal(classifier_params(clf), cv)


@pytest.fixture(scope="module")
def splits():
    ds = small_dataset(num_bags=40, seed=9)
    return split_dataset(ds, SplitSpec())


class TestAblationGrid:
    def test_variant_model_structure(self):
        cfg = fast_cfg()
        for ablation, depth, uses_graph in (
                ("full", 2, True), ("A", 1, True), ("B", 3, True), ("C", 2, False)):
            vcfg = TrainConfig(**{**cfg.__dict__, "ablation": ablation,
                                  "loss_weights": cfg.loss_weights})
            enh, clf = build_models(4, 3, vcfg)
            assert clf.depth == depth
            assert enh.use_instance_graph is uses_graph

    def test_full_grid_labels(self, splits):
        reports = run_ablation(splits, fast_cfg())
        assert set(reports) == {"GLEMIML", "GLEMIML-A", "GLEMIML-B", "GLEMIML-C"}
        for rep in reports.values():
            assert 0.0 <= rep.hamming_loss <= 1.0

    def test_only_single_variant(self, splits):
        reports = run_ablation(splits, fast_cfg(), only="A")
        assert set(reports) == {"GLEMIML-A"}

    def test_unknown_variant_rejected(self, splits):
        with pytest.raises(ConfigError):
            run_ablation(splits, fast_cfg(), only="Z")

    def test_variant_c_never_builds_instance_graph(self, splits):
        enh_mod.reset_instance_graph_build_count()
        run_ablation(splits, fast_cfg(), only="C")
        assert enh_mod.instance_graph_build_count() == 0

    def test_full_variant_builds_instance_graphs(self, splits):
        enh_mod.reset_instance_graph_build_count()
        run_ablation(splits, fast_cfg(), only="full")
        assert enh_mod.instance_graph_build_count() > 0


class TestOptimizers:
    def test_sgd_single_step_closed_form(self):
        opt = tr_mod._SGD(3, lr=0.1)
        p = np.array([1.0, 2.0, 3.0])
        g = np.array([1.0, -1.0, 0.0])
        np.testing.assert_allclose(opt.step(p, g), [0.9, 2.1, 3.0], atol=1e-15)

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        opt = tr_mod._Adam(2, lr=0.01)
        p = np.zeros(2)
        g = np.array([5.0, -0.001])
        out = opt.step(p, g)
        np.testing.assert_allclose(out, [-0.01 * 5.0 / (5.0 + 1e-8),
                                         0.01 * 0.001 / (0.001 + 1e-8)], atol=1e-12)

    def test_zero_gradient_is_fixed_point(self):
        for opt in (tr_mod._SGD(2, 0.1), tr_mod._Adam(2, 0.1)):
            p = np.array([1.0, -2.0])
            np.testing.assert_array_equal(opt.step(p.copy(), np.zeros(2)), p)

    def test_sgd_option_trains(self):
        ds = small_dataset()
        _, _, hist = train(ds, None, fast_cfg(optimizer="sgd"))
        assert np.isfinite(hist.records[0]["L_C"])


def test_ablation_constant_exported():
    assert ABLATIONS == ("full", "A", "B", "C")
