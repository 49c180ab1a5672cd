"""Training objectives: enhancer losses and classifier losses, with gradients.

Each loss is one function that returns its value and its gradient with
respect to the input the trainer differentiates through; callers chain that
gradient through sigmoid/softmax and the nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PackedBags
from .errors import ConfigError, ShapeError, check_finite

PROB_CLAMP = 1e-7
SIM_MODES = ("mse", "eq9-literal")


@dataclass(frozen=True)
class LossWeights:
    beta1: float = 1.0 / 3.0
    beta2: float = 1.0 / 3.0
    beta3: float = 1.0 / 3.0
    rho: float = 0.5
    gamma_pos: float = 0.0
    gamma_neg: float = 4.0

    def __post_init__(self):
        check_finite(self)
        betas = (self.beta1, self.beta2, self.beta3)
        if any(b < 0 for b in betas):
            raise ConfigError("beta weights must be non-negative")
        if abs(sum(betas) - 1.0) > 1e-12:
            raise ConfigError(f"beta weights must sum to 1, got {sum(betas)!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho!r}")
        if self.gamma_pos < 0 or self.gamma_neg < 0:
            raise ConfigError("focusing exponents must be non-negative")


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _inside_clamp(p: np.ndarray) -> np.ndarray:
    """Where clamping is inactive; the clamped value has zero gradient elsewhere."""
    return (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)


def asymmetric_interaction_loss(p, p_star, labels, gamma_pos: float, gamma_neg: float):
    """Asymmetric focal interaction between classifier probs and enhancer confidences.

    Positive labels: (1-p)^g+ * log(p*); negative: p^g- * log(1-p*);
    negated and averaged over the label count. Returns (value, gradient wrt
    p_star); the classifier probs p are constants in the enhancer step.
    """
    p = _clamp(np.asarray(p, dtype=np.float64))
    ps_raw = np.asarray(p_star, dtype=np.float64)
    ps = _clamp(ps_raw)
    labels = np.asarray(labels)
    if p.shape != ps.shape or p.shape != labels.shape:
        raise ShapeError("p, p_star, labels must share a shape")
    pos = labels == 1
    focus_pos, focus_neg = (1.0 - p) ** gamma_pos, p ** gamma_neg
    terms = np.where(pos, focus_pos * np.log(ps), focus_neg * np.log(1.0 - ps))
    k = labels.shape[-1]
    batches = terms.size // k
    value = float(-terms.sum() / k / batches)
    g_ps = np.where(pos, focus_pos / ps, -focus_neg / (1.0 - ps)) * (-1.0 / (k * batches))
    return value, g_ps * _inside_clamp(ps_raw)


def _unit_rows(rows: np.ndarray):
    """(rows scaled to unit length, which rows are zero, the norms with 1 for zero rows)."""
    norms = np.linalg.norm(rows, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return rows / safe[:, None], zero, safe


def _zero_rows_and_cols(matrix: np.ndarray, zero: np.ndarray) -> np.ndarray:
    matrix[zero, :] = 0.0
    matrix[:, zero] = 0.0
    return matrix


def similarity_loss(batch: PackedBags, distributions: np.ndarray, mode: str = "mse"):
    """Deviation between bag-feature and label-distribution cosine similarities.

    The bag features are the means of a batch packed with its bag features; a
    zero row has cosine 0 with every row, itself included. Returns (value,
    gradient wrt the distribution rows); the bag features are constants.
    """
    if mode not in SIM_MODES:
        raise ConfigError(f"unknown similarity-loss mode {mode!r}")
    if len(batch) < 2:
        raise ShapeError("similarity needs at least two bags")
    if batch.means is None:
        raise ShapeError("similarity needs bags packed with their bag features")
    D = np.asarray(distributions, dtype=np.float64)
    if D.shape[0] != len(batch):
        raise ShapeError("distribution rows must match bag count")
    unit_z, zero_z, _ = _unit_rows(batch.means)
    Z = _zero_rows_and_cols(unit_z @ unit_z.T, zero_z)
    unit, zero, safe = _unit_rows(D)
    sims = unit @ unit.T  # the backward reads it unmasked
    dev = Z - _zero_rows_and_cols(sims.copy(), zero)
    b = Z.shape[0]
    if mode == "mse":
        value = float(np.sum(dev * dev) / (b * b))
        g = -2.0 * dev / (b * b)
    else:
        total = np.sum(dev)
        value = float((total / b) ** 2)
        g = np.full_like(dev, -2.0 * total / (b * b))

    # back through the cosine matrix to the rows
    _zero_rows_and_cols(g, zero)
    gs = g + g.T  # sims is used symmetrically; d sims[i,j]/d row_i mirrors [j,i]
    np.fill_diagonal(gs, np.diag(g))  # diagonal entries are single occurrences
    # d cos(x_i, x_j)/d x_i = (u_j - cos * u_i) / |x_i|
    grad_rows = (gs @ unit - (gs * sims).sum(axis=1)[:, None] * unit) / safe[:, None]
    grad_rows[zero, :] = 0.0
    return value, grad_rows


def _threshold_pairs(D: np.ndarray, L: np.ndarray):
    """Per row: eligibility, the first largest irrelevant and the first smallest relevant label.

    A row is eligible when it has both a positive and a negative label.
    """
    pos, neg = L == 1, L == 0
    eligible = pos.any(axis=1) & neg.any(axis=1)
    j_neg = np.argmax(np.where(neg, D, -np.inf), axis=1)
    j_pos = np.argmin(np.where(pos, D, np.inf), axis=1)
    return eligible, j_neg, j_pos


def threshold_loss(distributions: np.ndarray, logical: np.ndarray):
    """Mean hinge between the best irrelevant and worst relevant label value.

    Returns (value, gradient wrt the distributions), both zero for a batch
    where no bag has both a positive and a negative label.
    """
    D = np.asarray(distributions, dtype=np.float64)
    L = np.asarray(logical)
    if D.shape != L.shape:
        raise ShapeError("distributions and logical labels must share a shape")
    eligible, j_neg, j_pos = _threshold_pairs(D, L)
    m = eligible.sum()
    grad = np.zeros_like(D)
    if not m:
        return 0.0, grad
    rows = np.arange(D.shape[0])
    margin = D[rows, j_neg] - D[rows, j_pos]
    value = float(np.maximum(margin, 0.0)[eligible].sum() / m)
    rows = rows[eligible & (margin > 0.0)]
    grad[rows, j_neg[rows]] += 1.0 / m
    grad[rows, j_pos[rows]] -= 1.0 / m
    return value, grad


def enhancer_total_loss(weights: LossWeights, l_cl: float, l_sim: float, l_thr: float) -> float:
    return weights.beta1 * l_cl + weights.beta2 * l_sim + weights.beta3 * l_thr


def distribution_loss(d: np.ndarray, s: np.ndarray):
    """Generalized cross-entropy: mean over bags of sum_j d_j * (LSE(s) - s_j).

    Returns (value, gradient wrt the logits s); the distributions d are
    constants in the classifier step.
    """
    d = np.asarray(d, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if d.shape != s.shape:
        raise ShapeError("distribution and logit shapes differ")
    # an infinite logit makes inf - inf here, so the value is NaN, which the
    # trainer reports as a non-finite loss; the NaN is not warned about too
    with np.errstate(invalid="ignore"):
        shift = s.max(axis=1, keepdims=True)
        exp = np.exp(s - shift)
        total = exp.sum(axis=1)
        lse = shift[:, 0] + np.log(total)
        val = float(np.mean(np.sum(d * (lse[:, None] - s), axis=1)))
        g_s = (d.sum(axis=1, keepdims=True) * (exp / total[:, None]) - d) / d.shape[0]
    return val, g_s


def logical_bce_loss(p: np.ndarray, logical: np.ndarray):
    """Standard (negated, non-negative) binary cross-entropy over all cells.

    Returns (value, gradient wrt p).
    """
    p = np.asarray(p, dtype=np.float64)
    L = np.asarray(logical, dtype=np.float64)
    if p.shape != L.shape:
        raise ShapeError("probability and label shapes differ")
    pc = _clamp(p)
    value = float(-np.mean(L * np.log(pc) + (1.0 - L) * np.log(1.0 - pc)))
    grad = -(L / pc - (1.0 - L) / (1.0 - pc)) / p.size
    return value, grad * _inside_clamp(p)


def classifier_total_loss(weights: LossWeights, l_lc: float, l_dc: float) -> float:
    return weights.rho * l_lc + (1.0 - weights.rho) * l_dc
