import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glemiml.errors import DegenerateInputError, ShapeError
from glemiml.metrics import (
    METRIC_DIRECTIONS,
    average_rank,
    format_report_table,
    hamming_loss,
    macro_average_precision,
    macro_f1,
    ranking_loss,
)


# Brute-force re-implementations, deliberately written differently from the
# library versions, used as oracles.

def brute_hamming(pred, truth):
    errors = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            if pred[i, j] != truth[i, j]:
                errors += 1
    return errors / pred.size


def brute_ranking(scores, truth):
    per_bag = []
    for i in range(scores.shape[0]):
        pos = [j for j in range(truth.shape[1]) if truth[i, j] == 1]
        neg = [j for j in range(truth.shape[1]) if truth[i, j] == 0]
        if not pos or not neg:
            continue
        bad = sum(1 for u in pos for v in neg if scores[i, u] <= scores[i, v])
        per_bag.append(bad / (len(pos) * len(neg)))
    return sum(per_bag) / len(per_bag)


def brute_map(scores, truth):
    aps = []
    for j in range(scores.shape[1]):
        pos = [i for i in range(scores.shape[0]) if truth[i, j] == 1]
        if not pos:
            continue
        order = sorted(range(scores.shape[0]), key=lambda i: (-scores[i, j], i))
        precisions = []
        for i in pos:
            rank = order.index(i) + 1
            hits = sum(1 for other in order[:rank] if truth[other, j] == 1)
            precisions.append(hits / rank)
        aps.append(sum(precisions) / len(precisions))
    return sum(aps) / len(aps)


def brute_macro_f1(pred, truth):
    f1s = []
    for j in range(pred.shape[1]):
        tp = sum(1 for i in range(pred.shape[0]) if pred[i, j] == 1 and truth[i, j] == 1)
        fp = sum(1 for i in range(pred.shape[0]) if pred[i, j] == 1 and truth[i, j] == 0)
        fn = sum(1 for i in range(pred.shape[0]) if pred[i, j] == 0 and truth[i, j] == 1)
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return sum(f1s) / len(f1s)


# The library's former row and label loops. The vectorised versions do the
# same arithmetic, so they must return the same bits.

def row_loop_ranking_loss(scores, truth):
    per_bag = []
    for i in range(scores.shape[0]):
        pos = np.flatnonzero(truth[i] == 1)
        neg = np.flatnonzero(truth[i] == 0)
        if pos.size == 0 or neg.size == 0:
            continue
        violations = np.sum(scores[i, pos][:, None] <= scores[i, neg][None, :])
        per_bag.append(violations / (pos.size * neg.size))
    if not per_bag:
        return None
    return float(np.mean(per_bag))


def label_loop_macro_average_precision(scores, truth):
    aps = []
    for j in range(scores.shape[1]):
        pos_mask = truth[:, j] == 1
        if not pos_mask.any():
            continue
        order = np.lexsort((np.arange(scores.shape[0]), -scores[:, j]))
        ranked_pos = pos_mask[order]
        cum_pos = np.cumsum(ranked_pos)
        ranks = np.arange(1, scores.shape[0] + 1)
        aps.append(float(np.mean((cum_pos / ranks)[ranked_pos])))
    if not aps:
        return None
    return float(np.mean(aps))


def label_loop_macro_f1(pred, truth):
    f1s = []
    for j in range(pred.shape[1]):
        tp = int(np.sum((pred[:, j] == 1) & (truth[:, j] == 1)))
        fp = int(np.sum((pred[:, j] == 1) & (truth[:, j] == 0)))
        fn = int(np.sum((pred[:, j] == 0) & (truth[:, j] == 1)))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s)), f1s


class TestHammingLoss:
    def test_perfect(self):
        t = np.array([[1, 0], [0, 1]])
        assert hamming_loss(t, t) == 0.0

    def test_mismatch_count(self):
        assert hamming_loss(np.array([[1, 0, 1]]), np.array([[1, 1, 0]])) == pytest.approx(2 / 3)

    def test_total_disagreement(self):
        t = np.array([[1, 0], [0, 1]])
        assert hamming_loss(1 - t, t) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hamming_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestRankingLoss:
    def test_no_violations(self):
        assert ranking_loss(np.array([[0.9, 0.2, 0.7]]), np.array([[1, 0, 0]])) == 0.0

    def test_single_violated_pair(self):
        assert ranking_loss(np.array([[0.3, 0.8]]), np.array([[1, 0]])) == 1.0

    def test_tie_counts_as_violation(self):
        assert ranking_loss(np.array([[0.5, 0.5]]), np.array([[1, 0]])) == 1.0

    def test_skips_degenerate_bags(self):
        scores = np.array([[0.9, 0.2], [0.4, 0.6]])
        truth = np.array([[1, 1], [1, 0]])
        assert ranking_loss(scores, truth) == 1.0  # only the second bag counts

    def test_all_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            ranking_loss(np.array([[0.5, 0.5]]), np.array([[1, 1]]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(8, 5))
        truth = rng.integers(0, 2, size=(8, 5))
        truth[:, 0], truth[:, 1] = 1, 0
        assert ranking_loss(scores, truth) == ranking_loss(np.exp(scores) * 3 + 1, truth)


class TestMacroAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([[0.9], [0.8], [0.1]])
        truth = np.array([[1], [1], [0]])
        assert macro_average_precision(scores, truth) == 1.0

    def test_hand_value(self):
        scores = np.array([[0.9], [0.8], [0.7]])
        truth = np.array([[1], [0], [1]])
        assert macro_average_precision(scores, truth) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_zero_positive_labels_excluded(self):
        scores = np.array([[0.9, 0.5], [0.1, 0.6]])
        truth = np.array([[1, 0], [0, 0]])
        assert macro_average_precision(scores, truth) == 1.0

    def test_no_positives_raises(self):
        with pytest.raises(DegenerateInputError):
            macro_average_precision(np.zeros((2, 2)), np.zeros((2, 2), dtype=int))

    def test_per_label_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(10, 3))
        truth = rng.integers(0, 2, size=(10, 3))
        truth[0] = 1
        transformed = scores.copy()
        transformed[:, 0] = 2 * scores[:, 0] + 1
        transformed[:, 1] = np.exp(scores[:, 1])
        assert macro_average_precision(scores, truth) == pytest.approx(
            macro_average_precision(transformed, truth), abs=1e-12)


class TestMacroF1:
    def test_perfect(self):
        t = np.array([[1, 0], [0, 1]])
        assert macro_f1(t, t) == 1.0

    def test_hand_value(self):
        pred = np.array([[1], [1], [0]])
        truth = np.array([[1], [0], [0]])
        assert macro_f1(pred, truth) == pytest.approx(2 / 3, abs=1e-10)

    def test_empty_label_contributes_zero(self):
        pred = np.array([[1, 0], [0, 0]])
        truth = np.array([[1, 0], [0, 0]])
        assert label_loop_macro_f1(pred, truth)[1] == [1.0, 0.0]
        assert macro_f1(pred, truth) == 0.5


class TestOracleEquivalence:
    def test_100_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            scores = rng.normal(size=(20, 6))
            probs = 1.0 / (1.0 + np.exp(-scores))
            truth = rng.integers(0, 2, size=(20, 6))
            truth[0] = [1, 0, 1, 0, 1, 0]  # keep every metric well defined
            pred = (probs > 0.5).astype(int)
            if rng.random() < 0.3:  # exercise tie handling
                scores[:, 0] = scores[:, 1]
            assert hamming_loss(pred, truth) == pytest.approx(
                brute_hamming(pred, truth), abs=1e-12)
            assert ranking_loss(scores, truth) == pytest.approx(
                brute_ranking(scores, truth), abs=1e-12)
            assert macro_average_precision(scores, truth) == pytest.approx(
                brute_map(scores, truth), abs=1e-12)
            assert macro_f1(pred, truth) == pytest.approx(
                brute_macro_f1(pred, truth), abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 60), t=st.integers(1, 12),
           ties=st.booleans(), positive_rate=st.sampled_from([0.05, 0.5, 0.95]))
    @settings(max_examples=100, deadline=None)
    def test_vectorised_equals_former_loops_bit_for_bit(self, seed, rows, t, ties,
                                                       positive_rate):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=(rows, t))
        if ties:
            scores = np.round(scores, 1)  # tied scores count as violations
        truth = (rng.uniform(size=(rows, t)) < positive_rate).astype(int)
        pred = (rng.uniform(size=(rows, t)) < 0.5).astype(int)
        expect = row_loop_ranking_loss(scores, truth)
        if expect is None:
            with pytest.raises(DegenerateInputError):
                ranking_loss(scores, truth)
        else:
            assert ranking_loss(scores, truth) == expect
        expect = label_loop_macro_average_precision(scores, truth)
        if expect is None:
            with pytest.raises(DegenerateInputError):
                macro_average_precision(scores, truth)
        else:
            assert macro_average_precision(scores, truth) == expect
        value = macro_f1(pred, truth)
        assert value == label_loop_macro_f1(pred, truth)[0]
        assert type(value) is float

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_ranges(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(6, 4))
        truth = rng.integers(0, 2, size=(6, 4))
        truth[0] = [1, 0, 1, 0]
        pred = rng.integers(0, 2, size=(6, 4))
        for val in (hamming_loss(pred, truth), ranking_loss(scores, truth),
                    macro_average_precision(scores, truth), macro_f1(pred, truth)):
            assert 0.0 <= val <= 1.0


class TestAverageRank:
    def test_singleton(self):
        ranks = average_rank({"only": {"a:hamming_loss": 0.1}},
                             {"a:hamming_loss": "lower"})
        assert ranks == {"only": 1.0}

    def test_two_methods_direction(self):
        ranks = average_rank(
            {"m1": {"hl": 0.1}, "m2": {"hl": 0.2}}, {"hl": "lower"})
        assert ranks == {"m1": 1.0, "m2": 2.0}

    def test_missing_cell_worst_rank(self):
        ranks = average_rank(
            {"m1": {"hl": 0.1}, "m2": {"hl": None}}, {"hl": "lower"})
        assert ranks == {"m1": 1.0, "m2": 2.0}

    def test_ties_share_minimum_rank(self):
        ranks = average_rank(
            {"m1": {"hl": 0.1}, "m2": {"hl": 0.1}, "m3": {"hl": 0.3}},
            {"hl": "lower"})
        assert ranks == {"m1": 1.0, "m2": 1.0, "m3": 3.0}

    def test_published_image_hl_column(self):
        # Image / Hamming-Loss column from the reference comparison table.
        scores = {
            "GLEMIML": 0.1650, "MI-FLEM": 0.2480, "MIMLNN": 0.2252,
            "MIMLSVM": 0.3408, "EnMIMLNN": 0.1736, "WEL": 0.3275, "KASIR": 0.1867,
        }
        ranks = average_rank({m: {"image:hl": v} for m, v in scores.items()},
                             {"image:hl": "lower"})
        assert ranks == {
            "GLEMIML": 1.0, "EnMIMLNN": 2.0, "KASIR": 3.0, "MIMLNN": 4.0,
            "MI-FLEM": 5.0, "WEL": 6.0, "MIMLSVM": 7.0,
        }

    def test_empty_grid(self):
        with pytest.raises(DegenerateInputError):
            average_rank({}, {})


def test_format_report_table_smoke():
    from glemiml.metrics import MetricsReport
    rep = MetricsReport(0.1, 0.2, 0.8, 0.7)
    out = format_report_table({"GLEMIML": rep, "other": rep})
    assert "HLv" in out and "mAP^" in out and "(1)" in out


def test_format_report_table_golden():
    """Ties share the minimum rank and a missing value reads N/A with the
    worst; a single method's table carries no ranks."""
    from glemiml.metrics import MetricsReport
    grid = {
        "GLEMIML": MetricsReport(0.1, 0.2, 0.8, 0.7),
        "tied": MetricsReport(0.1, 0.25, 0.8, 0.6),
        "gaps": MetricsReport(0.3, 0.2, None, 0.75),
    }
    assert format_report_table(grid) == (
        'Metric               GLEMIML              tied              gaps\n'
        'HLv                0.1000(1)         0.1000(1)         0.3000(3)\n'
        'RLv                0.2000(1)         0.2500(3)         0.2000(1)\n'
        'mAP^               0.8000(1)         0.8000(1)            N/A(3)\n'
        'Ma-F1^             0.7000(2)         0.6000(3)         0.7500(1)\n')
    assert format_report_table({"GLEMIML": grid["GLEMIML"]}) == (
        'Metric               GLEMIML\n'
        'HLv                   0.1000\n'
        'RLv                   0.2000\n'
        'mAP^                  0.8000\n'
        'Ma-F1^                0.7000\n')
