"""Training objectives: enhancer losses and classifier losses, with gradients.

Every loss comes in a value form and a gradient form with respect to its
immediate inputs; callers chain those through sigmoid/softmax and the nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PackedBags
from .errors import ConfigError, DegenerateInputError, NumericError, ShapeError

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
        betas = (self.beta1, self.beta2, self.beta3)
        if any(b < 0 for b in betas):
            raise ConfigError("beta weights must be non-negative")
        if abs(sum(betas) - 1.0) > 1e-12:
            raise ConfigError(f"beta weights must sum to 1, got {sum(betas)!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho!r}")
        if self.gamma_pos < 0 or self.gamma_neg < 0:
            raise ConfigError("focusing exponents must be non-negative")


@dataclass(frozen=True)
class SimilarityPair:
    Z: np.ndarray  # (B, B) bag-feature cosine similarities
    A: np.ndarray  # (B, B) distribution cosine similarities


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def asymmetric_interaction_loss(p, p_star, labels, gamma_pos: float, gamma_neg: float) -> float:
    """Asymmetric focal interaction between classifier probs and enhancer confidences.

    Positive labels: (1-p)^g+ * log(p*); negative: p^g- * log(1-p*);
    negated and averaged over the label count.
    """
    p = _clamp(np.asarray(p, dtype=np.float64))
    p_star = _clamp(np.asarray(p_star, dtype=np.float64))
    labels = np.asarray(labels)
    if p.shape != p_star.shape or p.shape != labels.shape:
        raise ShapeError("p, p_star, labels must share a shape")
    pos = labels == 1
    terms = np.where(
        pos,
        (1.0 - p) ** gamma_pos * np.log(p_star),
        p ** gamma_neg * np.log(1.0 - p_star),
    )
    return float(-terms.sum() / labels.shape[-1] / (terms.size // labels.shape[-1]))


def asymmetric_interaction_loss_grad(p, p_star, labels, gamma_pos: float, gamma_neg: float):
    """Gradients wrt the clamped p and p_star (zero where clamping is active)."""
    p_raw = np.asarray(p, dtype=np.float64)
    ps_raw = np.asarray(p_star, dtype=np.float64)
    labels = np.asarray(labels)
    p, ps = _clamp(p_raw), _clamp(ps_raw)
    k = labels.shape[-1]
    batches = labels.size // k
    scale = -1.0 / (k * batches)
    pos = labels == 1

    g_ps = np.where(pos, (1.0 - p) ** gamma_pos / ps, -(p ** gamma_neg) / (1.0 - ps)) * scale
    if gamma_pos == 0.0:
        pos_p = np.zeros_like(p)
    else:
        pos_p = -gamma_pos * (1.0 - p) ** (gamma_pos - 1.0) * np.log(ps)
    if gamma_neg == 0.0:
        neg_p = np.zeros_like(p)
    else:
        neg_p = gamma_neg * p ** (gamma_neg - 1.0) * np.log(1.0 - ps)
    g_p = np.where(pos, pos_p, neg_p) * scale

    inside_p = (p_raw > PROB_CLAMP) & (p_raw < 1.0 - PROB_CLAMP)
    inside_ps = (ps_raw > PROB_CLAMP) & (ps_raw < 1.0 - PROB_CLAMP)
    return g_p * inside_p, g_ps * inside_ps


def _cosine_matrix(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = rows / safe[:, None]
    sims = unit @ unit.T
    zero = norms == 0.0
    sims[zero, :] = 0.0
    sims[:, zero] = 0.0
    return sims


def similarity_matrices(batch: PackedBags, distributions: np.ndarray) -> SimilarityPair:
    """Cosine similarity of mean-pooled bag features and of label distributions.

    The bag features are the means of a batch packed with its bag features.
    """
    if len(batch) < 2:
        raise ShapeError("similarity needs at least two bags")
    if batch.means is None:
        raise ShapeError("similarity needs bags packed with their bag features")
    D = np.asarray(distributions, dtype=np.float64)
    if D.shape[0] != len(batch):
        raise ShapeError("distribution rows must match bag count")
    return SimilarityPair(Z=_cosine_matrix(batch.means), A=_cosine_matrix(D))


def similarity_loss(sp: SimilarityPair, mode: str = "mse") -> float:
    dev = sp.Z - sp.A
    b = sp.Z.shape[0]
    if mode == "mse":
        return float(np.sum(dev * dev) / (b * b))
    if mode == "eq9-literal":
        return float((np.sum(dev) / b) ** 2)
    raise ConfigError(f"unknown similarity-loss mode {mode!r}")


def similarity_loss_grad(sp: SimilarityPair, mode: str = "mse") -> np.ndarray:
    """Gradient wrt the distribution-similarity matrix A."""
    dev = sp.Z - sp.A
    b = sp.Z.shape[0]
    if mode == "mse":
        return -2.0 * dev / (b * b)
    if mode == "eq9-literal":
        return np.full_like(dev, -2.0 * np.sum(dev) / (b * b))
    raise ConfigError(f"unknown similarity-loss mode {mode!r}")


def cosine_matrix_backward(rows: np.ndarray, grad_sims: np.ndarray) -> np.ndarray:
    """Pushes a gradient on the full cosine matrix back to the row vectors."""
    norms = np.linalg.norm(rows, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    unit = rows / safe[:, None]
    sims = unit @ unit.T
    g = grad_sims.copy()
    g[zero, :] = 0.0
    g[:, zero] = 0.0
    gs = g + g.T  # sims is used symmetrically; d sims[i,j]/d row_i mirrors [j,i]
    np.fill_diagonal(gs, np.diag(g))  # diagonal entries are single occurrences
    # d cos(x_i, x_j)/d x_i = (u_j - cos * u_i) / |x_i|
    grad_rows = (gs @ unit - (gs * sims).sum(axis=1)[:, None] * unit) / safe[:, None]
    grad_rows[zero, :] = 0.0
    return grad_rows


def _threshold_pairs(D: np.ndarray, L: np.ndarray):
    """Per row: eligibility, the first largest irrelevant and the first smallest relevant label.

    A row is eligible when it has both a positive and a negative label.
    """
    pos, neg = L == 1, L == 0
    eligible = pos.any(axis=1) & neg.any(axis=1)
    if not eligible.any():
        raise DegenerateInputError("no bag has both a positive and a negative label")
    j_neg = np.argmax(np.where(neg, D, -np.inf), axis=1)
    j_pos = np.argmin(np.where(pos, D, np.inf), axis=1)
    return eligible, j_neg, j_pos


def threshold_loss(distributions: np.ndarray, logical: np.ndarray) -> float:
    """Mean hinge between the best irrelevant and worst relevant label value."""
    D = np.asarray(distributions, dtype=np.float64)
    L = np.asarray(logical)
    if D.shape != L.shape:
        raise ShapeError("distributions and logical labels must share a shape")
    eligible, j_neg, j_pos = _threshold_pairs(D, L)
    rows = np.arange(D.shape[0])
    hinge = np.maximum(D[rows, j_neg] - D[rows, j_pos], 0.0)
    return float(hinge[eligible].sum() / eligible.sum())


def threshold_loss_grad(distributions: np.ndarray, logical: np.ndarray) -> np.ndarray:
    D = np.asarray(distributions, dtype=np.float64)
    L = np.asarray(logical)
    eligible, j_neg, j_pos = _threshold_pairs(D, L)
    m = eligible.sum()
    rows = np.arange(D.shape[0])
    rows = rows[eligible & (D[rows, j_neg] - D[rows, j_pos] > 0.0)]
    grad = np.zeros_like(D)
    grad[rows, j_neg[rows]] += 1.0 / m
    grad[rows, j_pos[rows]] -= 1.0 / m
    return grad


def enhancer_total_loss(weights: LossWeights, l_cl: float, l_sim: float, l_thr: float) -> float:
    return weights.beta1 * l_cl + weights.beta2 * l_sim + weights.beta3 * l_thr


def distribution_loss(d: np.ndarray, s: np.ndarray) -> float:
    """Generalized cross-entropy: mean over bags of sum_j d_j * (LSE(s) - s_j)."""
    d = np.asarray(d, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if d.shape != s.shape:
        raise ShapeError("distribution and logit shapes differ")
    shift = s.max(axis=1, keepdims=True)
    lse = shift[:, 0] + np.log(np.exp(s - shift).sum(axis=1))
    val = float(np.mean(np.sum(d * (lse[:, None] - s), axis=1)))
    if not np.isfinite(val):
        raise NumericError("distribution loss is non-finite")
    return val


def distribution_loss_grad(d: np.ndarray, s: np.ndarray):
    """Returns (grad wrt d, grad wrt s)."""
    d = np.asarray(d, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    b = d.shape[0]
    shift = s.max(axis=1, keepdims=True)
    exp = np.exp(s - shift)
    soft = exp / exp.sum(axis=1, keepdims=True)
    lse = shift[:, 0] + np.log(exp.sum(axis=1))
    g_d = (lse[:, None] - s) / b
    g_s = (d.sum(axis=1, keepdims=True) * soft - d) / b
    return g_d, g_s


def logical_bce_loss(p: np.ndarray, logical: np.ndarray) -> float:
    """Standard (negated, non-negative) binary cross-entropy over all cells."""
    p = np.asarray(p, dtype=np.float64)
    L = np.asarray(logical, dtype=np.float64)
    if p.shape != L.shape:
        raise ShapeError("probability and label shapes differ")
    pc = _clamp(p)
    return float(-np.mean(L * np.log(pc) + (1.0 - L) * np.log(1.0 - pc)))


def logical_bce_loss_grad(p: np.ndarray, logical: np.ndarray) -> np.ndarray:
    p_raw = np.asarray(p, dtype=np.float64)
    L = np.asarray(logical, dtype=np.float64)
    pc = _clamp(p_raw)
    grad = -(L / pc - (1.0 - L) / (1.0 - pc)) / p_raw.size
    inside = (p_raw > PROB_CLAMP) & (p_raw < 1.0 - PROB_CLAMP)
    return grad * inside


def classifier_total_loss(rho: float, l_lc: float, l_dc: float) -> float:
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"rho must lie in [0, 1], got {rho!r}")
    return rho * l_lc + (1.0 - rho) * l_dc
