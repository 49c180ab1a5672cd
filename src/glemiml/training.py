"""Alternating enhancer/classifier training, ablation grid, and evaluation.

Each mini-batch does one enhancer step (classifier outputs held constant) and
then one classifier step (fresh enhancer outputs held constant), in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import (
    ClassifierModel,
    binarize,
    classifier_backward,
    classifier_forward,
    classifier_params,
    init_classifier,
    predict_dataset,
    set_classifier_params,
)
from .data import MIMLDataset, PackedBags, pack_bags
from .enhancer import (
    EnhancerModel,
    enhancer_backward,
    enhancer_forward,
    enhancer_params,
    freeze_label_graph,
    init_enhancer,
    set_enhancer_params,
)
from .errors import ConfigError, NumericError, check_finite, check_seed
from .losses import (
    SIM_MODES,
    LossWeights,
    asymmetric_interaction_loss,
    classifier_total_loss,
    distribution_loss,
    enhancer_total_loss,
    logical_bce_loss,
    similarity_loss,
    threshold_loss,
)
from .metrics import MetricsReport, compute_report
from .nets import softmax_rows_backward

ABLATIONS = ("full", "A", "B", "C")

LOSS_COLUMNS = ("L_CL", "L_Sim", "L_thr", "L_CLE", "L_LC", "L_DC", "L_C")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    loss_weights: LossWeights = field(default_factory=LossWeights)
    instance_k: int = 3
    k_label: int = 3
    embed_dim: int = 8
    classifier_depth: int = 2
    sim_mode: str = "mse"
    seed: int = 0
    ablation: str = "full"

    def __post_init__(self):
        check_finite(self)
        # init_enhancer derives seeds up to seed * 4 + 4
        check_seed("seed", self.seed, scale=4, offset=4)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (similarity loss needs pairs)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.instance_k < 1 or self.k_label < 1:
            raise ConfigError(
                f"instance_k and k_label must be >= 1, got {self.instance_k} and {self.k_label}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.classifier_depth not in (1, 2, 3):
            raise ConfigError(f"classifier_depth must be 1, 2 or 3, got {self.classifier_depth}")
        if self.sim_mode not in SIM_MODES:
            raise ConfigError(f"unknown sim_mode {self.sim_mode!r}, expected one of {SIM_MODES}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")


@dataclass
class TrainHistory:
    records: list[dict] = field(default_factory=list)


class _Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        m_hat = self.m / (1 - self.b1 ** self.t)
        v_hat = self.v / (1 - self.b2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.lr * grad


def _make_optimizer(cfg: TrainConfig, size: int):
    if cfg.optimizer == "adam":
        return _Adam(size, cfg.learning_rate)
    return _SGD(cfg.learning_rate)


def _sigmoid_backward(sig: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return grad * sig * (1.0 - sig)


def build_models(feature_dim: int, label_count: int, cfg: TrainConfig):
    depth = {"full": cfg.classifier_depth, "A": 1, "B": 3, "C": cfg.classifier_depth}[cfg.ablation]
    enh = init_enhancer(
        feature_dim, label_count,
        embed_dim=cfg.embed_dim, instance_k=cfg.instance_k, k_label=cfg.k_label,
        seed=cfg.seed, use_instance_graph=(cfg.ablation != "C"),
    )
    clf = init_classifier(feature_dim, label_count, depth=depth, seed=cfg.seed)
    return enh, clf


def _enhancer_batch(enh, bags: PackedBags, clf_probs, cfg):
    """Loss components + gradient on enhancer parameters.

    `bags` is the mini-batch packed with its bag features.
    """
    w = cfg.loss_weights
    logical = bags.logical
    batch, cache = enhancer_forward(enh, bags)
    d, p_star = batch.distributions, batch.confidences

    l_cl, g_pstar = asymmetric_interaction_loss(clf_probs, p_star, logical,
                                                w.gamma_pos, w.gamma_neg)
    l_sim, g_d_sim = similarity_loss(bags, d, cfg.sim_mode)
    l_thr, g_d_thr = threshold_loss(d, logical)
    l_cle = enhancer_total_loss(w, l_cl, l_sim, l_thr)

    grad_refined = (
        w.beta1 * _sigmoid_backward(p_star, g_pstar)
        + softmax_rows_backward(d, w.beta2 * g_d_sim + w.beta3 * g_d_thr)
    )
    grad = enhancer_backward(enh, cache, grad_refined)
    return {"L_CL": l_cl, "L_Sim": l_sim, "L_thr": l_thr, "L_CLE": l_cle}, grad


def _classifier_batch(clf, forward, logical, distributions, cfg):
    """Loss components + gradient on classifier parameters.

    `forward` is classifier_forward's (logits, probs, cache) for the batch at
    the current parameters. The enhancer distributions are constants here.
    """
    w = cfg.loss_weights
    s, p, cache = forward
    l_lc, g_p = logical_bce_loss(p, logical)
    l_dc, g_s_dc = distribution_loss(distributions, s)
    l_c = classifier_total_loss(w, l_lc, l_dc)
    grad_logits = w.rho * _sigmoid_backward(p, g_p) + (1.0 - w.rho) * g_s_dc
    grad = classifier_backward(clf, cache, grad_logits)
    return {"L_LC": l_lc, "L_DC": l_dc, "L_C": l_c}, grad


def train(train_ds: MIMLDataset, val_ds: MIMLDataset | None, cfg: TrainConfig,
          enh: EnhancerModel | None = None, clf: ClassifierModel | None = None,
          epoch_callback=None):
    """Alternating training. Returns (enhancer, classifier, history).

    Training's forwards build their label graph per batch. Once the last
    batch and its validation are done, the label graph of the whole training
    split is frozen on the enhancer (freeze_label_graph), before the last
    epoch's callback: so that callback sees the finished model, and the
    freeze's time falls within the last epoch. `enh` and `clf` are given
    together or not at all; a frozen graph on a given enhancer is dropped
    first.
    """
    if (enh is None) != (clf is None):
        raise ConfigError("train() takes both an enhancer and a classifier, or neither")
    if enh is None:
        enh, clf = build_models(train_ds.feature_dim, train_ds.label_count, cfg)
    enh.label_graph = None

    enh_vec = enhancer_params(enh)
    clf_vec = classifier_params(clf)
    enh_opt = _make_optimizer(cfg, enh_vec.size)
    clf_opt = _make_optimizer(cfg, clf_vec.size)
    rng = np.random.default_rng(np.uint64(cfg.seed))
    history = TrainHistory()
    # every mini-batch is gathered from this one pack of the split
    packed = pack_bags(train_ds.bags, bag_features=True)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_ds))
        sums = {k: 0.0 for k in LOSS_COLUMNS}
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                continue
            bags = packed.take(idx)

            # the enhancer step leaves the classifier unchanged, so its step
            # reuses this forward pass
            clf_out = classifier_forward(clf, bags)
            enh_losses, enh_grad = _enhancer_batch(enh, bags, clf_out[1], cfg)
            _check_finite(enh_losses, epoch, n_batches)
            enh_vec = enh_opt.step(enh_vec, enh_grad)
            set_enhancer_params(enh, enh_vec)

            # the classifier step needs no enhancer gradient: build forward only
            fresh = enhancer_forward(enh, bags, grad=False)[0]
            clf_losses, clf_grad = _classifier_batch(clf, clf_out, bags.logical,
                                                     fresh.distributions, cfg)
            _check_finite(clf_losses, epoch, n_batches)
            clf_vec = clf_opt.step(clf_vec, clf_grad)
            set_classifier_params(clf, clf_vec)

            for k, v in {**enh_losses, **clf_losses}.items():
                sums[k] += v
            n_batches += 1

        record = {"epoch": epoch}
        record.update({k: sums[k] / max(n_batches, 1) for k in LOSS_COLUMNS})
        if val_ds is not None:
            val_report = evaluate(enh, clf, val_ds)
            record.update({f"val_{k}": v for k, v in val_report.as_dict().items()
                           if isinstance(v, float)})
        history.records.append(record)
        if epoch == cfg.epochs:
            freeze_label_graph(enh, packed)
        if epoch_callback is not None:
            epoch_callback(enh, clf, epoch)
    return enh, clf, history


def _check_finite(losses: dict, epoch: int, batch: int) -> None:
    for k, v in losses.items():
        if not np.isfinite(v):
            raise NumericError(f"non-finite {k} at epoch {epoch}, batch {batch}")


def evaluate(enh: EnhancerModel, clf: ClassifierModel, ds: MIMLDataset) -> MetricsReport:
    """Classifier probabilities drive all four metrics (read-only)."""
    _, probs = predict_dataset(clf, ds)
    truth = ds.logical_matrix().astype(np.int64)
    return compute_report(probs, binarize(probs), truth)


def run_ablation(splits, base_cfg: TrainConfig, only: str | None = None) -> dict:
    """Train the full model and the A/B/C variants on identical seeds and data.

    Returns variant name -> MetricsReport on the test split.
    """
    train_ds, test_ds, val_ds = splits
    variants = [only] if only else list(ABLATIONS)
    reports = {}
    for variant in variants:
        if variant not in ABLATIONS:
            raise ConfigError(f"unknown ablation variant {variant!r}")
        cfg = replace(base_cfg, ablation=variant)
        enh, clf, _ = train(train_ds, val_ds, cfg)
        reports[_variant_label(variant)] = evaluate(enh, clf, test_ds)
    return reports


def _variant_label(variant: str) -> str:
    return "GLEMIML" if variant == "full" else f"GLEMIML-{variant}"
