import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pclabel import (
    LabelField,
    RefineParams,
    SuperpointPartition,
    UNLABELED,
    calr,
    galr,
    refine_pipeline,
)

from conftest import segment_members


def literal_calr_oracle(labels: LabelField, confidence: np.ndarray,
                        top_v: float) -> np.ndarray:
    """Per-class loop, transcribing the selection rule literally: each class
    keeps its ceil(V * n_c / 100) most confident points, ties to the lower
    point index."""
    out = np.full(len(labels), UNLABELED, dtype=np.int64)
    for c in range(labels.num_classes):
        members = [i for i in range(len(labels)) if labels.values[i] == c]
        ranked = sorted(members, key=lambda i: (-confidence[i], i))
        for i in ranked[:math.ceil(top_v * len(members) / 100.0)]:
            out[i] = c
    return out


@st.composite
def calr_instances(draw):
    c = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(-1, c - 1), max_size=40))
    # A few distinct confidences, so ties at the cutoff are common.
    conf = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0])
                         | st.floats(0.0, 1.0),
                         min_size=len(values), max_size=len(values)))
    top_v = draw(st.floats(0.0, 100.0, exclude_min=True))
    return LabelField(np.array(values, dtype=np.int64), c), np.array(conf), top_v


def literal_galr_oracle(labels: LabelField, partition: SuperpointPartition,
                        alpha: float) -> np.ndarray:
    """Brute-force per-block tally, transcribing the voting rules literally."""
    out = np.full(len(labels), UNLABELED, dtype=np.int64)
    for block in range(partition.segment_count):
        members = [i for i in range(len(labels))
                   if partition.assignment[i] == block]
        overlap = [int(labels.values[i]) for i in members
                   if labels.values[i] != UNLABELED]
        if not overlap:
            continue
        counts = Counter(overlap)
        best = max(counts.values())
        winner = min(c for c, v in counts.items() if v == best)
        r = best / sum(counts.values())
        if r > alpha:
            for i in members:
                out[i] = winner
    return out


def random_instance(rng, n_max=200, c_max=5, u_max=20):
    n = int(rng.integers(1, n_max + 1))
    c = int(rng.integers(1, c_max + 1))
    u = int(rng.integers(1, min(u_max, n) + 1))
    assignment = rng.integers(0, u, n)
    assignment[:u] = np.arange(u)
    values = rng.integers(-1, c, n)
    return LabelField(values, c), SuperpointPartition(assignment)


class TestCalr:
    def test_non_finite_confidence_names_point(self):
        labels = LabelField(np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError, match="^confidence of point 1 is not finite$"):
            calr(labels, np.array([0.5, np.nan, np.inf]), 50.0)

    @pytest.mark.parametrize("value", [1.5, -0.25, np.inf])
    def test_confidence_outside_unit_interval_names_point(self, value):
        labels = LabelField(np.array([0, 1, 0]), 2)
        message = (f"confidence at point 1 is {value}, outside [0, 1]" if np.isfinite(value)
                   else "confidence of point 1 is not finite")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calr(labels, np.array([1.0, value, 0.0]), 50.0)

    def test_paper_thirty_percent(self, rng):
        # 10 points of one class at V=30: exactly 3 kept, and every kept
        # confidence is at least every dropped one
        conf = rng.random(10)
        labels = LabelField(np.zeros(10, dtype=np.int64), 1)
        out = calr(labels, conf, 30.0)
        kept = out.values == 0
        assert kept.sum() == 3
        assert conf[kept].min() >= conf[~kept].max()

    def test_full_percentage_is_identity(self, rng):
        labels = LabelField(rng.integers(0, 4, 50), 4)
        out = calr(labels, rng.random(50), 100.0)
        assert np.array_equal(out.values, labels.values)

    def test_small_class_survives(self, rng):
        # per-class ceil keeps 30 of 100 and 2 of 4; a global top-30% could
        # have starved the small class entirely
        values = np.concatenate([np.zeros(100, dtype=np.int64),
                                 np.ones(4, dtype=np.int64)])
        conf = np.concatenate([rng.uniform(0.5, 1.0, 100),
                               rng.uniform(0.0, 0.2, 4)])
        out = calr(LabelField(values, 2), conf, 30.0)
        assert (out.values == 0).sum() == 30
        assert (out.values == 1).sum() == 2

    def test_cardinality_exact(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 300))
            c = int(rng.integers(1, 6))
            labels = LabelField(rng.integers(-1, c, n), c)
            conf = rng.random(n)
            top_v = float(rng.uniform(0.5, 100.0))
            out = calr(labels, conf, top_v)
            for cls in range(c):
                n_c = int((labels.values == cls).sum())
                kept = int((out.values == cls).sum())
                assert kept == min(n_c, math.ceil(top_v * n_c / 100.0))

    def test_confidence_dominance(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 200))
            c = int(rng.integers(1, 5))
            labels = LabelField(rng.integers(-1, c, n), c)
            conf = rng.random(n)
            out = calr(labels, conf, 25.0)
            for cls in range(c):
                kept = (out.values == cls)
                dropped = (labels.values == cls) & (out.values == UNLABELED)
                if kept.any() and dropped.any():
                    assert conf[kept].min() >= conf[dropped].max()

    def test_never_relabels(self, rng):
        labels = LabelField(rng.integers(-1, 3, 100), 3)
        out = calr(labels, rng.random(100), 40.0)
        changed = out.values != labels.values
        assert np.all(out.values[changed] == UNLABELED)

    def test_unlabeled_stays_unlabeled(self, rng):
        labels = LabelField(np.full(10, UNLABELED), 3)
        out = calr(labels, rng.random(10), 50.0)
        assert np.all(out.values == UNLABELED)

    def test_tie_prefers_lower_index(self):
        labels = LabelField(np.zeros(4, dtype=np.int64), 1)
        conf = np.array([0.5, 0.5, 0.5, 0.5])
        out = calr(labels, conf, 50.0)
        assert out.values.tolist() == [0, 0, UNLABELED, UNLABELED]

    @given(calr_instances())
    @example((LabelField(np.zeros(4, dtype=np.int64), 1), np.full(4, 0.5), 50.0))
    def test_matches_literal_oracle(self, instance):
        labels, conf, top_v = instance
        assert np.array_equal(calr(labels, conf, top_v).values,
                              literal_calr_oracle(labels, conf, top_v))

    def test_permutation_equivariance(self, rng):
        n = 120
        labels = LabelField(rng.integers(-1, 4, n), 4)
        conf = rng.random(n)  # distinct values, so ties play no role
        perm = rng.permutation(n)
        direct = calr(labels, conf, 35.0).values[perm]
        permuted = calr(LabelField(labels.values[perm], 4), conf[perm], 35.0).values
        assert np.array_equal(direct, permuted)


class TestGalr:
    def test_paper_dominant_block(self):
        # counts {class0: 3, class1: 1} at alpha 0.5: r = 0.75 wins the block
        labels = LabelField(np.array([0, 0, 0, 1, UNLABELED]), 2)
        partition = SuperpointPartition(np.zeros(5, dtype=np.int64))
        out = galr(labels, partition, 0.5)
        assert np.all(out.values == 0)

    def test_strict_inequality_tie(self):
        # counts {2, 2} at alpha 0.5: r == alpha fails the strict test
        labels = LabelField(np.array([0, 0, 1, 1]), 2)
        partition = SuperpointPartition(np.zeros(4, dtype=np.int64))
        out = galr(labels, partition, 0.5)
        assert np.all(out.values == UNLABELED)

    def test_empty_block_unlabeled(self):
        labels = LabelField(np.array([0, UNLABELED, UNLABELED]), 2)
        partition = SuperpointPartition(np.array([0, 1, 1]))
        out = galr(labels, partition, 0.0)
        assert out.values.tolist() == [0, UNLABELED, UNLABELED]

    def test_empty_partition(self):
        labels = LabelField(np.empty(0, dtype=np.int64), 3)
        out = galr(labels, SuperpointPartition(np.empty(0, dtype=np.int64)), 0.5)
        assert (out.values.shape, out.values.dtype, out.num_classes) == ((0,), np.int64, 3)

    def test_matches_literal_oracle(self, rng):
        # 100 seeded instances across the alpha grid, bit-equal output
        for trial in range(100):
            labels, partition = random_instance(rng)
            alpha = [0.0, 0.3, 0.5, 0.9][trial % 4]
            out = galr(labels, partition, alpha)
            oracle = literal_galr_oracle(labels, partition, alpha)
            assert np.array_equal(out.values, oracle)

    def test_alpha_zero_full_block_coverage(self, rng):
        for _ in range(20):
            labels, partition = random_instance(rng)
            out = galr(labels, partition, 0.0)
            for members in segment_members(partition):
                if (labels.values[members] != UNLABELED).any():
                    assert np.all(out.values[members] != UNLABELED)

    def test_block_constancy(self, rng):
        for _ in range(50):
            labels, partition = random_instance(rng)
            out = galr(labels, partition, float(rng.uniform(0, 1)))
            for members in segment_members(partition):
                assert len(np.unique(out.values[members])) == 1

    def test_idempotent(self, rng):
        for _ in range(50):
            labels, partition = random_instance(rng)
            alpha = float(rng.choice([0.0, 0.3, 0.5, 0.9]))
            once = galr(labels, partition, alpha)
            twice = galr(once, partition, alpha)
            assert np.array_equal(once.values, twice.values)

    def test_count_tie_prefers_lower_class(self):
        labels = LabelField(np.array([2, 2, 1, 1, UNLABELED]), 3)
        partition = SuperpointPartition(np.zeros(5, dtype=np.int64))
        out = galr(labels, partition, 0.3)
        assert np.all(out.values == 1)

    def test_permutation_equivariance(self, rng):
        labels, partition = random_instance(rng, n_max=150)
        alpha = 0.4
        perm = rng.permutation(len(labels))
        direct = galr(labels, partition, alpha).values[perm]
        permuted = galr(
            LabelField(labels.values[perm], labels.num_classes),
            SuperpointPartition(partition.assignment[perm]),
            alpha,
        ).values
        assert np.array_equal(direct, permuted)


class TestPipeline:
    def test_identity_path(self):
        labels = LabelField(np.ones(10, dtype=np.int64), 2)
        partition = SuperpointPartition(np.zeros(10, dtype=np.int64))
        out = refine_pipeline(labels, np.full(10, 0.7), partition,
                              RefineParams(top_v=100.0, alpha=0.5))
        assert np.array_equal(out.values, labels.values)

    def test_alpha_one_erases_everything(self, rng):
        labels = LabelField(rng.integers(0, 3, 60), 3)
        partition = SuperpointPartition(rng.integers(0, 4, 60) % 4)
        out = refine_pipeline(labels, rng.random(60), partition,
                              RefineParams(top_v=50.0, alpha=1.0))
        assert np.all(out.values == UNLABELED)

    def test_noise_cleanup_improves_accuracy(self):
        # 20% label noise on a block-structured ground truth: the refined
        # labeled subset must beat the raw labels
        rng = np.random.default_rng(7)
        n, blocks = 2000, 40
        assignment = np.repeat(np.arange(blocks), n // blocks)
        gt = assignment % 4
        noisy = gt.copy()
        flip = rng.random(n) < 0.2
        noisy[flip] = (gt[flip] + 1 + rng.integers(0, 3, int(flip.sum()))) % 4
        conf = np.where(flip, rng.uniform(0, 0.6, n), rng.uniform(0.4, 1.0, n))
        labels = LabelField(noisy, 4)
        refined = refine_pipeline(labels, conf, SuperpointPartition(assignment),
                                  RefineParams(top_v=30.0, alpha=0.5))
        raw_acc = float((noisy == gt).mean())
        kept = refined.values != UNLABELED
        refined_acc = float((refined.values[kept] == gt[kept]).mean())
        assert refined_acc > raw_acc

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RefineParams(top_v=0.0)
        with pytest.raises(ValueError):
            RefineParams(alpha=1.5)
