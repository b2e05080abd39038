import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclabel import (
    KnnClassifier,
    LabelField,
    PointCloud,
    RefineParams,
    SceneSpec,
    StlpConfig,
    SuperpointParams,
    SuperpointPartition,
    UNLABELED,
    calr,
    galr,
    generate_scene,
    infer,
    label_update,
    stlp_round,
    stlp_run,
)

from pclabel import stlp
from pclabel.superpoint import partition_cloud

from conftest import force_blocks, make_cloud, shuffled_lattice, unlabeled


def literal_full_round(cloud, prev, partition, classifier, refine, scene_mask):
    """Literal oracle of one round: predict every point, let the gaps adopt
    the per-class-filtered predictions of mask classes, then vote."""
    classifier.fit(cloud, prev)
    pred, conf = classifier.predict(cloud)
    gaps = ~prev.labeled_mask
    candidates = np.where(gaps & scene_mask[pred.values], pred.values, UNLABELED)
    filtered = calr(prev.with_values(candidates), conf, refine.top_v)
    merged = prev.with_values(np.where(gaps, filtered.values, prev.values))
    return galr(merged, partition, refine.alpha)


def literal_knn_vote(fit_cloud, labels, queries, config):
    """Literal oracle of KnnClassifier.predict: for each query, every
    labeled exemplar's distance in the classifier's feature space, sorted by
    (distance, index); the first k vote with weight 1/(distance + smoothing),
    added per class in that order; the heaviest class wins, the lowest id
    among equals; confidence is its share of the votes damped by
    exp(-nearest distance / scale)."""
    def features(cloud):
        return np.hstack([cloud.positions, config.color_weight * (cloud.colors / 255.0)])

    keep = labels.labeled_mask
    exemplars, classes = features(fit_cloud)[keep], labels.values[keep]
    k = min(config.knn_k, len(exemplars))
    winners, confidence = [], []
    for query in features(queries):
        dist = np.sqrt(((exemplars - query) ** 2).sum(axis=1))
        voters = np.lexsort((np.arange(len(exemplars)), dist))[:k]
        votes = [0.0] * labels.num_classes
        for j in voters:
            votes[classes[j]] += 1.0 / (dist[j] + config.knn_smoothing + 1e-12)
        best = max(range(labels.num_classes), key=lambda c: (votes[c], -c))
        winners.append(best)
        confidence.append(votes[best] / sum(votes)
                          * np.exp(-dist[voters[0]] / config.knn_confidence_scale))
    return np.array(winners, dtype=np.int64), np.array(confidence)


# The eight corners of the RGB cube: a color feature is 0 or color_weight.
CUBE_CORNERS = ((np.arange(8)[:, None] >> np.arange(3)) & 1).astype(np.uint8) * 255


@st.composite
def tie_lattices(draw):
    """A labeled cloud on a shuffled integer lattice with repeated points,
    colored from a few corners of the RGB cube, a query cloud (the same
    cloud, or another lattice shifted by half a step) and a configuration.
    Positions and colors tie exactly and every feature is a multiple of
    1/2, so each squared distance is added up exactly, by the tree and by
    the oracle alike."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(2, 4))
    palette = CUBE_CORNERS[:draw(st.integers(1, 8))]

    def colored_lattice(shift):
        pos = shuffled_lattice(rng, side, int(rng.integers(0, 3 * side))) + shift
        return PointCloud(pos, palette[rng.integers(0, len(palette), len(pos))])

    cloud = colored_lattice(0.0)
    classes = draw(st.integers(1, 5))
    values = rng.integers(-1, classes, cloud.count)
    values[rng.integers(0, cloud.count)] = rng.integers(0, classes)
    queries = cloud if draw(st.booleans()) else colored_lattice(0.5)
    config = StlpConfig(knn_k=draw(st.integers(1, 40)),
                        color_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                        knn_smoothing=draw(st.sampled_from([0.0, 0.05, 0.5])),
                        knn_confidence_scale=draw(st.sampled_from([0.1, 1.0])))
    return cloud, LabelField(values, classes), queries, config


class EchoClassifier:
    """Reproduces its training labels; unlabeled points get class 0."""

    def fit(self, cloud, labels):
        self._labels = labels
        return self

    def predict(self, cloud):
        values = np.where(self._labels.values == UNLABELED, 0, self._labels.values)
        return (LabelField(values, self._labels.num_classes),
                np.ones(len(self._labels)))


class TestKnnClassifier:
    def test_reproduces_training_labels_with_k1(self, rng):
        cloud = make_cloud(rng, 80)
        labels = LabelField(rng.integers(0, 4, 80), 4)
        clf = KnnClassifier(StlpConfig(knn_k=1)).fit(cloud, labels)
        pred, conf = clf.predict(cloud)
        assert np.array_equal(pred.values, labels.values)
        assert np.all((conf >= 0) & (conf <= 1))

    def test_fit_ignores_unlabeled(self, rng):
        cloud = make_cloud(rng, 40)
        values = rng.integers(0, 2, 40)
        values[10:] = UNLABELED
        clf = KnnClassifier(StlpConfig(knn_k=3)).fit(cloud, LabelField(values, 2))
        pred, _ = clf.predict(cloud)
        assert np.all(pred.values != UNLABELED)

    def test_unfitted_predict_raises(self, rng):
        with pytest.raises(RuntimeError, match="not fitted"):
            KnnClassifier().predict(make_cloud(rng, 3))

    def test_fully_unlabeled_fit_raises(self, rng):
        cloud = make_cloud(rng, 5)
        with pytest.raises(ValueError):
            KnnClassifier().fit(cloud, unlabeled(5, 2))

    def test_deterministic(self, rng):
        cloud = make_cloud(rng, 60)
        labels = LabelField(rng.integers(0, 3, 60), 3)
        clf = KnnClassifier(StlpConfig(knn_k=5))
        a = clf.fit(cloud, labels).predict(cloud)
        b = clf.fit(cloud, labels).predict(cloud)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1], b[1])

    def test_confidence_decays_with_distance(self):
        # a far query cannot be more confident than the identical near one
        pos = np.array([[0.0, 0, 0], [0.1, 0, 0], [5.0, 0, 0]])
        cloud = PointCloud(pos, np.zeros((3, 3), dtype=np.uint8))
        train = PointCloud(pos[:2], np.zeros((2, 3), dtype=np.uint8))
        clf = KnnClassifier(StlpConfig(knn_k=2)).fit(train, LabelField(np.array([1, 1]), 2))
        _, conf = clf.predict(cloud)
        assert conf[2] < conf[0]

    @pytest.mark.parametrize("block", [1, 7, 40, 10**9])
    def test_block_size_does_not_change_predictions(self, block, rng, monkeypatch):
        # Each row is voted on its own: blocks of `block` rows on 1, 2 and
        # 7 workers give the bytes of one worker's single block.
        cloud = make_cloud(rng, 300)
        values = rng.integers(0, 3, 300)
        values[::4] = UNLABELED
        clf = KnnClassifier(StlpConfig(knn_k=7)).fit(cloud, LabelField(values, 3))
        force_blocks(monkeypatch, 1)
        want = clf.predict(cloud)
        for workers in (1, 2, 7):
            force_blocks(monkeypatch, workers, block, 7)
            got = clf.predict(cloud)
            assert got[0].values.tobytes() == want[0].values.tobytes(), workers
            assert got[1].tobytes() == want[1].tobytes(), workers

    def test_peak_memory_does_not_grow_with_k(self, rng, monkeypatch):
        # k is clamped to the labeled count, so a k past it queries every
        # exemplar for every point: 1200 x 1200 entries, about 11 MiB per
        # array in one block; the blocks in flight share 2 MiB per array,
        # however many workers run them.
        cloud = make_cloud(rng, 1200)
        labels = LabelField(rng.integers(0, 5, 1200), 5)
        clf = KnnClassifier(StlpConfig(knn_k=10**20)).fit(cloud, labels)
        for workers in (1, 8):
            force_blocks(monkeypatch, workers)
            tracemalloc.start()
            try:
                clf.predict(cloud)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, workers

    def test_matches_literal_vote_on_tie_lattices(self):
        # Most rows tie at the k-th distance, where cKDTree alone keeps the
        # tied exemplars its search meets first; the vote keeps the lowest
        # indices, as the oracle does.
        kth_ties = []

        @settings(max_examples=300)
        @given(tie_lattices())
        def check(case):
            cloud, labels, queries, config = case
            clf = KnnClassifier(config).fit(cloud, labels)
            pred, conf = clf.predict(queries)
            want, want_conf = literal_knn_vote(cloud, labels, queries, config)
            assert pred.values.tobytes() == want.tobytes()
            assert np.allclose(conf, want_conf, rtol=1e-12, atol=0.0)
            k = config.knn_k
            if k < labels.labeled_mask.sum():
                d = clf._tree.query(clf._features(queries), k=k + 1)[0]
                kth_ties.append(int((d[:, k - 1] == d[:, k]).sum()))

        check()
        assert sum(kth_ties) > 0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 8),
           st.integers(1, 40), st.sampled_from([0.0, 1e-9, 0.05, 10.0]),
           st.floats(1e-6, 1e6))
    def test_confidence_lies_in_the_unit_interval(self, seed, n, classes, k,
                                                  smoothing, scale):
        # predict clips nothing. The winner's share is at most 1, since a
        # rounded sum of non-negative weights is never below any of them,
        # and exp(-d / scale) is at most 1. Queries on exemplars (distance
        # 0, a unanimous vote gives exactly 1), among them and far off.
        rng = np.random.default_rng(seed)
        cloud = make_cloud(rng, n)
        values = rng.integers(-1, classes, n)
        values[0] = rng.integers(0, classes)
        clf = KnnClassifier(StlpConfig(knn_k=k, knn_smoothing=smoothing,
                                       knn_confidence_scale=scale)).fit(
            cloud, LabelField(values, classes))
        queries = make_cloud(rng, 30)
        far = PointCloud(queries.positions * 1e3, queries.colors)
        for q in (cloud, queries, far):
            conf = clf.predict(q)[1]
            assert np.all((conf >= 0.0) & (conf <= 1.0))


class TestLabelUpdate:
    def test_fully_labeled_prev_unchanged(self, rng):
        prev = LabelField(rng.integers(0, 3, 30), 3)
        pred = LabelField(np.zeros(0, dtype=np.int64), 3)
        out = label_update(prev, pred, np.zeros(0), np.ones(3, bool), 50.0)
        assert np.array_equal(out.values, prev.values)

    def test_all_unlabeled_prev_full_pass_through(self, rng):
        prev = unlabeled(25, 3)
        pred = LabelField(rng.integers(0, 3, 25), 3)
        out = label_update(prev, pred, rng.random(25), np.ones(3, bool), 100.0)
        assert np.array_equal(out.values, pred.values)

    def test_hand_simulated_trace(self):
        # prev [c0, β, β, β]; gap predictions all c1 with confidences
        # (0.9, 0.5, 0.1); V=34 keeps ceil(0.34*3)=2 of the gap pool
        prev = LabelField(np.array([0, UNLABELED, UNLABELED, UNLABELED]), 2)
        pred = LabelField(np.array([1, 1, 1]), 2)
        conf = np.array([0.9, 0.5, 0.1])
        out = label_update(prev, pred, conf, np.ones(2, bool), 34.0)
        assert out.values.tolist() == [0, 1, 1, UNLABELED]

    def test_masked_out_classes_discarded(self, rng):
        prev = unlabeled(20, 3)
        pred = LabelField(np.full(20, 2), 3)
        mask = np.array([True, True, False])
        out = label_update(prev, pred, rng.random(20), mask, 100.0)
        assert np.all(out.values == UNLABELED)

    def test_monotone_retention(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 100))
            c = int(rng.integers(2, 5))
            prev = LabelField(rng.integers(-1, c, n), c)
            gaps = int((~prev.labeled_mask).sum())
            pred = LabelField(rng.integers(0, c, gaps), c)
            mask = rng.random(c) < 0.8
            if not mask.any():
                mask[0] = True
            out = label_update(prev, pred, rng.random(gaps), mask, 40.0)
            was = prev.labeled_mask
            assert np.array_equal(out.values[was], prev.values[was])
            assert out.labeled_mask.sum() >= was.sum()

    def test_rejects_unlabeled_predictions(self, rng):
        prev = LabelField(np.array([0, 1, UNLABELED, 0, 1]), 2)
        pred = LabelField(np.array([UNLABELED]), 2)
        with pytest.raises(ValueError, match="every gap"):
            label_update(prev, pred, np.ones(1) * 0.5, np.ones(2, bool), 50.0)

    def test_rejects_predictions_not_covering_the_gaps(self):
        prev = LabelField(np.array([0, UNLABELED, UNLABELED, 1]), 2)
        full = LabelField(np.array([0, 1, 1, 1]), 2)
        with pytest.raises(ValueError, match="4 predictions for 2 gaps"):
            label_update(prev, full, np.ones(4), np.ones(2, bool), 50.0)
        with pytest.raises(ValueError, match="does not match 2 gaps"):
            label_update(prev, LabelField(np.array([1, 1]), 2), np.ones(4),
                         np.ones(2, bool), 50.0)

    @settings(max_examples=300)
    @given(st.data())
    def test_retention_and_gap_only_reads(self, data):
        n = data.draw(st.integers(0, 30))
        c = data.draw(st.integers(1, 4))

        def ints(lo, size):
            return st.lists(st.integers(lo, c - 1), min_size=size, max_size=size)

        prev = LabelField(np.array(data.draw(ints(UNLABELED, n)), dtype=np.int64), c)
        was = prev.labeled_mask
        gaps = int((~was).sum())
        pred = np.array(data.draw(ints(0, gaps)), dtype=np.int64)
        conf = np.array(data.draw(st.lists(st.floats(0.0, 1.0),
                                           min_size=gaps, max_size=gaps)))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=c, max_size=c)),
                        dtype=bool)
        top_v = data.draw(st.floats(0.0, 100.0, exclude_min=True))
        out = label_update(prev, prev.with_values(pred), conf, mask, top_v)

        assert np.array_equal(out.values[was], prev.values[was])
        adopted = out.labeled_mask[~was]
        assert np.array_equal(out.values[~was][adopted], pred[adopted])
        assert mask[pred[adopted]].all()


class TestStlpRound:
    def test_self_consistent_classifier_fixed_point(self, rng):
        # a classifier echoing unanimous blocks makes galr(prev) a fixed point
        n, blocks = 60, 6
        assignment = np.repeat(np.arange(blocks), n // blocks)
        values = assignment % 3
        prev = LabelField(values, 3)
        partition = SuperpointPartition(assignment)
        refine = RefineParams(top_v=100.0, alpha=0.5)
        out, _ = stlp_round(make_cloud(rng, n), prev, partition,
                            EchoClassifier(), refine, np.ones(3, bool))
        expected = galr(prev, partition, 0.5)
        assert np.array_equal(out.values, expected.values)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_prediction_round(self, seed):
        rng = np.random.default_rng(seed)
        n, c = 300, 4
        cloud = make_cloud(rng, n)
        assignment = rng.integers(0, 15, n)
        assignment[:15] = np.arange(15)
        partition = SuperpointPartition(assignment)
        values = (assignment + (rng.random(n) < 0.2)) % c
        values[rng.random(n) < rng.uniform(0.2, 0.9)] = UNLABELED
        values[0] = 0
        prev = LabelField(values, c)
        mask = rng.random(c) < 0.8
        mask[0] = True
        refine = RefineParams(top_v=float(rng.uniform(10, 100)),
                              alpha=float(rng.uniform(0, 1)))
        for _ in range(2):  # the second round starts from the first's gaps
            want = literal_full_round(cloud, prev, partition, KnnClassifier(StlpConfig(knn_k=7)),
                                      refine, mask)
            got, _ = stlp_round(cloud, prev, partition, KnnClassifier(StlpConfig(knn_k=7)),
                                refine, mask)
            assert np.array_equal(got.values, want.values)
            if not got.labeled_mask.any():
                break
            prev = got

    def test_matches_full_prediction_round_on_scene(self):
        cloud, gt, mask, normals = generate_scene(SceneSpec(density=120.0, seed=4))
        partition = partition_cloud(cloud, SuperpointParams(min_size=4), normals)
        values = gt.values.copy()
        values[np.random.default_rng(0).random(len(values)) < 0.85] = UNLABELED
        prev = gt.with_values(values)
        refine = RefineParams(top_v=30.0, alpha=0.5)
        want = literal_full_round(cloud, prev, partition, KnnClassifier(), refine, mask)
        got, _ = stlp_round(cloud, prev, partition, KnnClassifier(), refine, mask)
        assert np.array_equal(got.values, want.values)

    def test_no_gaps_skips_predict(self, rng, monkeypatch):
        class FitOnly(KnnClassifier):
            def predict(self, cloud):
                raise AssertionError("predict called without gaps")

        def no_update(*args):
            raise AssertionError("label_update called without gaps")

        monkeypatch.setattr(stlp, "label_update", no_update)
        n = 50
        cloud = make_cloud(rng, n)
        partition = SuperpointPartition(np.arange(n) // 10)
        prev = LabelField(rng.integers(0, 3, n), 3)
        refine = RefineParams(alpha=0.3)
        mask = np.ones(3, bool)
        want = literal_full_round(cloud, prev, partition, KnnClassifier(), refine, mask)
        got, _ = stlp_round(cloud, prev, partition, FitOnly(), refine, mask)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.values, galr(prev, partition, 0.3).values)

    def test_entirely_unlabeled_prev_rejected(self, rng):
        cloud = make_cloud(rng, 10)
        partition = SuperpointPartition(np.zeros(10, dtype=np.int64))
        with pytest.raises(ValueError, match="fully unlabeled"):
            stlp_round(cloud, unlabeled(10, 2), partition,
                       KnnClassifier(), RefineParams(), np.ones(2, bool))


class TestStlpRun:
    def _setup(self, rng, n=240):
        cloud = make_cloud(rng, n)
        blocks = 12
        assignment = rng.integers(0, blocks, n)
        assignment[:blocks] = np.arange(blocks)
        partition = SuperpointPartition(assignment)
        gt = LabelField(assignment % 4, 4)
        sparse = gt.values.copy()
        drop = rng.random(n) < 0.7
        sparse[drop] = UNLABELED
        if not (sparse != UNLABELED).any():
            sparse[0] = gt.values[0]
        return cloud, LabelField(sparse, 4), partition, gt

    def test_zero_rounds_untouched(self, rng):
        cloud, y0, partition, gt = self._setup(rng)
        final, report = stlp_run(cloud, y0, partition, StlpConfig(rounds=0),
                                 RefineParams(), np.ones(4, bool))
        assert final is y0
        assert report == []
        # nothing is fitted, so an empty field passes through as well
        empty = unlabeled(cloud.count, 4)
        final, report = stlp_run(cloud, empty, partition, StlpConfig(rounds=0),
                                 RefineParams(), np.ones(4, bool))
        assert final is empty and report == []

    def test_report_rows_match_rounds(self, rng):
        cloud, y0, partition, gt = self._setup(rng)
        _, report = stlp_run(cloud, y0, partition, StlpConfig(rounds=3),
                             RefineParams(), np.ones(4, bool), gt=gt)
        assert [row["round"] for row in report] == [1, 2, 3]
        assert all("miou" in row and "labeled_rate" in row for row in report)

    def test_labeled_rate_grows_from_sparse_seeds(self, rng):
        cloud, y0, partition, gt = self._setup(rng)
        _, report = stlp_run(cloud, y0, partition, StlpConfig(rounds=1),
                             RefineParams(), np.ones(4, bool))
        before = float((y0.values != UNLABELED).mean())
        assert report[0]["labeled_rate"] > before

    def test_mask_safety_every_round(self, rng):
        cloud, y0, partition, gt = self._setup(rng)
        mask = np.array([True, True, True, False])
        values = np.where(y0.values == 3, UNLABELED, y0.values)
        y0 = LabelField(values, 4)
        final, _ = stlp_run(cloud, y0, partition, StlpConfig(rounds=2),
                            RefineParams(), mask)
        labeled = final.values != UNLABELED
        assert mask[final.values[labeled]].all()

    def test_determinism(self, rng):
        cloud, y0, partition, gt = self._setup(rng)
        a = stlp_run(cloud, y0, partition, StlpConfig(rounds=2), RefineParams(),
                     np.ones(4, bool))
        b = stlp_run(cloud, y0, partition, StlpConfig(rounds=2), RefineParams(),
                     np.ones(4, bool))
        assert np.array_equal(a[0].values, b[0].values)


class TestInfer:
    def test_unanimous_block_identity(self, rng):
        cloud = make_cloud(rng, 30)
        labels = LabelField(np.ones(30, dtype=np.int64), 2)
        pred, _ = KnnClassifier(StlpConfig(knn_k=3)).fit(cloud, labels).predict(cloud)
        partition = SuperpointPartition(np.zeros(30, dtype=np.int64))
        out = infer(pred, partition, 0.5)
        assert np.all(out.values == 1)

    def test_majority_block_vote(self, rng):
        # 60/40 split at alpha 0.5: whole block goes to the majority
        partition = SuperpointPartition(np.zeros(10, dtype=np.int64))
        pred = LabelField(np.array([0] * 6 + [1] * 4), 2)
        out = infer(pred, partition, 0.5)
        assert np.all(out.values == 0)

    def test_rejected_blocks_keep_raw_predictions(self, rng):
        partition = SuperpointPartition(np.zeros(8, dtype=np.int64))
        pred = LabelField(np.array([0, 1] * 4), 2)
        out = infer(pred, partition, 0.5)
        assert out.values.tolist() == [0, 1] * 4
        assert np.all(galr(pred, partition, 0.5).values == UNLABELED)

    def test_output_labels_every_point(self, rng):
        cloud = make_cloud(rng, 100)
        values = rng.integers(0, 3, 100)
        values[50:] = UNLABELED
        pred, _ = KnnClassifier(StlpConfig(knn_k=5)).fit(cloud, LabelField(values, 3)).predict(cloud)
        partition = SuperpointPartition(rng.integers(0, 5, 100) % 5)
        out = infer(pred, partition, 0.5)
        assert np.all(out.values != UNLABELED)
