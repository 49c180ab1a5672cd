"""Multi-label evaluation metrics and cross-method rank aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeError

METRIC_DIRECTIONS = {
    "hamming_loss": "lower",
    "ranking_loss": "lower",
    "macro_avg_precision": "higher",
    "macro_f1": "higher",
}

METRIC_LABELS = {
    "hamming_loss": "HL",
    "ranking_loss": "RL",
    "macro_avg_precision": "mAP",
    "macro_f1": "Ma-F1",
}


@dataclass
class MetricsReport:
    hamming_loss: float
    ranking_loss: float
    macro_avg_precision: float
    macro_f1: float

    def as_dict(self) -> dict:
        return {
            "hamming_loss": self.hamming_loss,
            "ranking_loss": self.ranking_loss,
            "macro_avg_precision": self.macro_avg_precision,
            "macro_f1": self.macro_f1,
            # the mAP reading behind every report: label-wise macro averaging
            "map_definition": "label-wise",
        }


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"expected matching 2-D shapes, got {a.shape} and {b.shape}")


def hamming_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of (bag, label) cells where prediction and truth disagree."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    _check_shapes(pred, truth)
    return float(np.mean(pred != truth))


def ranking_loss(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mean fraction of mis-ordered (positive, negative) label pairs per bag.

    Ties count as violations; bags without both a positive and a negative
    label are skipped.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    _check_shapes(scores, truth)
    pos, neg = truth == 1, truth == 0
    n_pairs = np.count_nonzero(pos, axis=1) * np.count_nonzero(neg, axis=1)
    eligible = n_pairs > 0
    if not eligible.any():
        raise DegenerateInputError("no bag has both positive and negative labels")
    # (bag, positive label, negative label) triples with the positive not above
    bad = (scores[:, :, None] <= scores[:, None, :]) & pos[:, :, None] & neg[:, None, :]
    violations = np.count_nonzero(bad, axis=(1, 2))
    return float(np.mean(violations[eligible] / n_pairs[eligible]))


def macro_average_precision(scores: np.ndarray, truth: np.ndarray) -> float:
    """Label-wise average precision over bag rankings, macro-averaged.

    Per label: bags ranked by score descending (ties broken by bag index
    ascending); AP is the mean over positive bags of precision at their rank.
    Labels without any positive bag are excluded.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    _check_shapes(scores, truth)
    # a stable sort keeps tied bags in index order
    order = np.argsort(-scores, axis=0, kind="stable")
    ranked_pos = np.take_along_axis(truth == 1, order, axis=0)
    precision = np.cumsum(ranked_pos, axis=0) / np.arange(1, scores.shape[0] + 1)[:, None]
    aps = [float(np.mean(prec[hits])) for prec, hits in zip(precision.T, ranked_pos.T)
           if hits.any()]
    if not aps:
        raise DegenerateInputError("no label has a positive bag")
    return float(np.mean(aps))


def macro_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """Per-label F1 (0/0 counts as 0), averaged over all labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    _check_shapes(pred, truth)
    tp = np.count_nonzero((pred == 1) & (truth == 1), axis=0)
    fp = np.count_nonzero((pred == 1) & (truth == 0), axis=0)
    fn = np.count_nonzero((pred == 0) & (truth == 1), axis=0)
    denom = 2 * tp + fp + fn
    f1s = np.divide(2 * tp, denom, out=np.zeros(denom.shape), where=denom > 0)
    return float(np.mean(f1s))


def compute_report(probs: np.ndarray, pred: np.ndarray, truth: np.ndarray) -> MetricsReport:
    return MetricsReport(
        hamming_loss=hamming_loss(pred, truth),
        ranking_loss=ranking_loss(probs, truth),
        macro_avg_precision=macro_average_precision(probs, truth),
        macro_f1=macro_f1(pred, truth),
    )


def _column_ranks(values: list, higher: bool) -> list[int]:
    """Rank of each score in one column: 1 is best (the highest score if
    `higher`, else the lowest), tied scores share the minimum rank and a
    missing score (None) takes the worst, len(values)."""
    present = [v for v in values if v is not None]
    return [len(values) if v is None else 1 + sum((o > v) if higher else (o < v) for o in present)
            for v in values]


def average_rank(table: dict, directions: dict) -> dict:
    """Mean rank per method over all (dataset, metric) columns.

    `table` maps method -> column -> score (None for missing cells) and
    `directions` maps column -> "higher" or "lower" (the default). Rank 1 is
    best; ties share the minimum rank and a missing cell takes the worst.
    """
    if not table:
        raise DegenerateInputError("empty score grid")
    methods = list(table.keys())
    columns = sorted({col for scores in table.values() for col in scores})
    if not columns:
        raise DegenerateInputError("score grid has no columns")
    ranks = [_column_ranks([table[m].get(col) for m in methods], directions.get(col) == "higher")
             for col in columns]
    return {m: sum(col[i] for col in ranks) / len(columns) for i, m in enumerate(methods)}


def format_report_table(reports: dict) -> str:
    """Aligned text table: metric rows with direction markers, one method per column.

    `reports` maps method name -> MetricsReport. Each value is followed by its
    rank in parentheses (_column_ranks) when more than one method is present;
    a missing value reads N/A with the worst rank.
    """
    methods = list(reports.keys())
    lines = [f"{'Metric':<10}" + "".join(f"{m:>18}" for m in methods)]
    for k, direction in METRIC_DIRECTIONS.items():
        row = f"{METRIC_LABELS[k] + ('v' if direction == 'lower' else '^'):<10}"
        values = [getattr(reports[m], k) for m in methods]
        for v, rank in zip(values, _column_ranks(values, direction == "higher")):
            cell = "N/A" if v is None else f"{v:.4f}"
            if v is None or len(methods) > 1:
                cell += f"({rank})"
            row += f"{cell:>18}"
        lines.append(row)
    return "\n".join(lines) + "\n"
