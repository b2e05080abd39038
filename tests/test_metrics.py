import re

import numpy as np
import pytest

from pclabel import (
    LabelField,
    UNLABELED,
    confidence_bins,
    confusion,
    labeled_rate,
    metrics_report,
    miou,
)
from pclabel.metrics import format_report

from conftest import unlabeled


def set_based_miou_oracle(pred, gt):
    """Independent per-class set-intersection implementation."""
    ious = []
    recalls = []
    scored = (pred.values != UNLABELED) & (gt.values != UNLABELED)
    for c in range(pred.num_classes):
        p = set(np.flatnonzero(scored & (pred.values == c)).tolist())
        g = set(np.flatnonzero(scored & (gt.values == c)).tolist())
        if not p and not g:
            continue
        ious.append(len(p & g) / len(p | g))
        if g:
            recalls.append(len(p & g) / len(g))
    return (float(np.mean(ious)),
            float(np.mean(recalls)) if recalls else float("nan"))


class TestConfusion:
    def test_perfect_prediction_diagonal(self, rng):
        values = rng.integers(0, 4, 50)
        field = LabelField(values, 4)
        cm = confusion(field, field)
        assert cm.dtype == np.int64 and cm.shape == (4, 4)
        assert np.array_equal(np.diag(cm), np.bincount(values, minlength=4))
        assert cm.sum() == 50

    def test_all_unlabeled_ignored(self, rng):
        pred = unlabeled(20, 3)
        gt = LabelField(rng.integers(0, 3, 20), 3)
        cm = confusion(pred, gt)
        assert cm.shape == (3, 3)
        assert cm.sum() == 0

    def test_totals_conserved(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 100))
            c = int(rng.integers(1, 6))
            pred = LabelField(rng.integers(-1, c, n), c)
            gt = LabelField(rng.integers(-1, c, n), c)
            both = int(((pred.values >= 0) & (gt.values >= 0)).sum())
            assert confusion(pred, gt).sum() == both

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(LabelField(np.zeros(2, dtype=np.int64), 2),
                      LabelField(np.zeros(3, dtype=np.int64), 2))


class TestMiou:
    def test_hand_counted_example(self):
        # pred [0,0,1] vs gt [0,1,1]: IoU of both classes is 1/2
        pred = LabelField(np.array([0, 0, 1]), 2)
        gt = LabelField(np.array([0, 1, 1]), 2)
        mean_iou, per_class, _ = miou(confusion(pred, gt))
        assert np.allclose(per_class, [0.5, 0.5])
        assert mean_iou == 0.5

    def test_diagonal_is_perfect(self, rng):
        field = LabelField(rng.integers(0, 3, 30), 3)
        mean_iou, _, macc = miou(confusion(field, field))
        assert mean_iou == 1.0 and macc == 1.0

    def test_matches_set_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 300))
            c = int(rng.integers(1, 7))
            pred = LabelField(rng.integers(-1, c, n), c)
            gt = LabelField(rng.integers(-1, c, n), c)
            cm = confusion(pred, gt)
            if cm.sum() == 0:
                with pytest.raises(ValueError):
                    miou(cm)
                continue
            mean_iou, per_class, macc = miou(cm)
            oracle_iou, oracle_macc = set_based_miou_oracle(pred, gt)
            assert np.isclose(mean_iou, oracle_iou)
            assert np.isclose(macc, oracle_macc, equal_nan=True)

    def test_absent_class_excluded(self):
        pred = LabelField(np.array([0, 0]), 3)
        gt = LabelField(np.array([0, 0]), 3)
        mean_iou, per_class, _ = miou(confusion(pred, gt))
        assert mean_iou == 1.0
        assert np.isnan(per_class[1]) and np.isnan(per_class[2])

    def test_iou_bounded_by_recall(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 200))
            c = 4
            pred = LabelField(rng.integers(0, c, n), c)
            gt = LabelField(rng.integers(0, c, n), c)
            cm = confusion(pred, gt)
            _, per_class, _ = miou(cm)
            tp = np.diag(cm)
            gt_tot = cm.sum(axis=1)
            for cls in range(c):
                if gt_tot[cls] > 0 and not np.isnan(per_class[cls]):
                    recall = tp[cls] / gt_tot[cls]
                    assert per_class[cls] <= recall + 1e-12

    def test_permutation_invariance(self, rng):
        n = 150
        pred = LabelField(rng.integers(-1, 4, n), 4)
        gt = LabelField(rng.integers(-1, 4, n), 4)
        perm = rng.permutation(n)
        a = miou(confusion(pred, gt))
        b = miou(confusion(LabelField(pred.values[perm], 4),
                           LabelField(gt.values[perm], 4)))
        assert a[0] == b[0] and a[2] == b[2]


class TestConfidenceBins:
    def test_all_correct(self, rng):
        values = rng.integers(0, 3, 40)
        field = LabelField(values, 3)
        bins = confidence_bins(field, rng.random(40), field, [0, 0.5, 1.0])
        for b in bins:
            if b.count:
                assert b.accuracy == 1.0

    def test_shares_sum_to_one(self, rng):
        labels = LabelField(rng.integers(-1, 3, 100), 3)
        gt = LabelField(rng.integers(0, 3, 100), 3)
        bins = confidence_bins(labels, rng.random(100), gt, [0, 0.25, 0.5, 0.75, 1.0])
        assert np.isclose(sum(b.share for b in bins), 1.0)

    def test_empty_bin_reports_absent(self):
        labels = LabelField(np.array([0, 1]), 2)
        gt = LabelField(np.array([0, 1]), 2)
        bins = confidence_bins(labels, np.array([0.9, 0.95]), gt, [0, 0.5, 1.0])
        assert bins[0].count == 0 and bins[0].accuracy is None and bins[0].share == 0.0
        assert bins[1].accuracy == 1.0

    def test_edges_validated(self, rng):
        field = LabelField(np.zeros(3, dtype=np.int64), 1)
        conf = np.full(3, 0.5)
        with pytest.raises(ValueError):
            confidence_bins(field, conf, field, [0.0, 0.5, 0.4, 1.0])
        with pytest.raises(ValueError):
            confidence_bins(field, conf, field, [0.1, 0.5, 1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.25, 1.5])
    def test_confidence_outside_the_unit_interval_is_refused(self, value):
        # An unlabeled point's confidence is checked too.
        field = LabelField(np.array([0, -1, 0]), 1)
        conf = np.array([0.5, value, 0.5])
        with pytest.raises(ValueError, match=re.escape(
                f"confidence at point 1 is {value}, outside [0, 1]")):
            confidence_bins(field, conf, field, [0.0, 0.5, 1.0])

    def test_boundary_value_in_last_bin(self):
        field = LabelField(np.array([0]), 1)
        bins = confidence_bins(field, np.array([1.0]), field, [0, 0.5, 1.0])
        assert bins[1].count == 1


class TestLabeledRate:
    def test_full(self):
        assert labeled_rate(LabelField(np.zeros(5, dtype=np.int64), 1)) == 1.0

    def test_empty(self):
        assert labeled_rate(unlabeled(5, 2)) == 0.0

    def test_partial(self):
        values = np.full(10, UNLABELED)
        values[:3] = 0
        assert labeled_rate(LabelField(values, 1)) == 0.3

    def test_zero_points(self):
        assert labeled_rate(LabelField(np.empty(0, dtype=np.int64), 1)) == 0.0


class TestReport:
    def test_report_fields(self, rng):
        pred = LabelField(rng.integers(-1, 3, 40), 3)
        gt = LabelField(rng.integers(-1, 3, 40), 3)
        report = metrics_report(pred, gt, ["a", "b", "c"])
        assert set(report) == {"miou", "macc", "per_class_iou", "ignored",
                               "total", "labeled_rate"}
        # ignored counts the points unlabeled on either side
        assert report["ignored"] == int(((pred.values < 0) | (gt.values < 0)).sum())
        assert report["total"] == 40
        text = format_report(report)
        assert "mIoU" in text and "a" in text
