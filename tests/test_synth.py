import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from pclabel import (
    LabelField,
    LogitNoiseSpec,
    PointCloud,
    SceneSpec,
    ViewRingSpec,
    aggregate_views,
    confidence_bins,
    corrupt_logits,
    generate_scene,
    pseudo_labels_from_logits,
    render_views,
)
from pclabel import synth
from pclabel.benchmark import ROOM_SMALL

from conftest import record_queries, shuffled_lattice


def literal_corrupt_logits(gt, cloud, spec):
    """Literal oracle: corrupt_logits with one unbounded query per class, in
    ascending class order, by all labeled points of other classes. A class
    replaces the one held only when strictly closer, so among equally near
    classes the lowest id stays."""
    rng = np.random.default_rng(spec.seed)
    n = cloud.count
    c = gt.num_classes
    logits = rng.random((n, c)) * spec.confusion_temperature
    correct = rng.normal(spec.correct_mean, spec.correct_sigma, n)
    labeled = np.flatnonzero(gt.labeled_mask)

    if spec.boundary_blur > 0 and labeled.size:
        flip_draw = rng.random(n)
        other_dist = np.full(n, np.inf)
        other_class = np.zeros(n, dtype=np.int64)
        for cls in np.unique(gt.values[labeled]):
            rows = np.flatnonzero(gt.labeled_mask & (gt.values != cls))
            d = cKDTree(cloud.positions[gt.values == cls]).query(
                cloud.positions[rows], k=1)[0]
            closer = d < other_dist[rows]
            other_dist[rows[closer]] = d[closer]
            other_class[rows[closer]] = cls
        closeness = np.clip(1.0 - other_dist / spec.boundary_blur, 0.0, 1.0)
        flipped = gt.labeled_mask & (flip_draw < 0.5 * closeness)
        target = np.where(flipped, other_class, gt.values)
        logits[labeled, target[labeled]] = correct[labeled]
        # Confidence dips toward the midpoint of the competing pair.
        band = np.flatnonzero(gt.labeled_mask & (closeness > 0))
        pull = 0.5 * closeness[band]
        first = target[band]
        second = np.where(flipped[band], gt.values[band], other_class[band])
        a = logits[band, first]
        b = logits[band, second]
        logits[band, first] = (1.0 - pull) * a + pull * b
        logits[band, second] = (1.0 - pull) * b + pull * a
    else:
        logits[labeled, gt.values[labeled]] = correct[labeled]
    return logits


@st.composite
def tie_prone_scenes(draw):
    """A small cloud with repeated points and unlabeled points, 1-5 classes,
    and a tiny, moderate or huge blur radius. Half-integer coordinates make
    exact distance ties common."""
    coord = st.one_of(st.integers(-6, 6).map(lambda v: v / 2), st.floats(-3, 3))
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=30))
    pos = np.array(points + draw(st.lists(st.sampled_from(points), max_size=10)))
    classes = draw(st.integers(1, 5))
    values = draw(st.lists(st.integers(-1, classes - 1),
                           min_size=len(pos), max_size=len(pos)))
    blur = draw(st.one_of(st.floats(1e-12, 1e-9), st.floats(0.1, 2.0),
                          st.floats(1e3, 1e12)))
    cloud = PointCloud(pos, np.zeros(pos.shape, dtype=np.uint8))
    return cloud, LabelField(np.array(values), classes), blur


class TestGenerateScene:
    def test_deterministic(self):
        spec = SceneSpec(seed=42)
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert np.array_equal(a[0].positions, b[0].positions)
        assert np.array_equal(a[0].colors, b[0].colors)
        assert np.array_equal(a[1].values, b[1].values)
        assert np.array_equal(a[2], b[2])
        assert np.array_equal(a[3], b[3])

    def test_zero_objects_mask(self):
        spec = SceneSpec(object_count=(0, 0), seed=1)
        _, gt, mask, _ = generate_scene(spec)
        names = spec.class_names
        assert mask[names.index("floor")] and mask[names.index("wall")]
        assert mask.sum() == 2
        placed = np.unique(gt.values)
        assert set(placed.tolist()) <= {names.index("floor"), names.index("wall")}

    def test_floor_density(self):
        # Poisson-count oracle: 1000 points/m^2 on a 2x2 floor stays within
        # +-5% of 4000 on the committed seeds.
        for seed in range(5):
            spec = SceneSpec(extents=(2.0, 2.0, 1.0), object_count=(0, 0),
                             density=1000.0, seed=seed)
            _, gt, _, _ = generate_scene(spec)
            floor_id = spec.class_names.index("floor")
            count = int((gt.values == floor_id).sum())
            assert abs(count - 4000) <= 200

    def test_palette_too_small(self):
        spec = SceneSpec(class_names=("floor", "wall", "box"),
                         object_count=(2, 2), seed=0)
        with pytest.raises(ValueError, match="too small"):
            generate_scene(spec)

    def test_normals_are_analytic_units(self):
        cloud, _, _, normals = generate_scene(SceneSpec(seed=3))
        assert normals.shape == (cloud.count, 3)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)

    def test_gt_covers_everything_by_default(self):
        _, gt, _, _ = generate_scene(SceneSpec(seed=5))
        assert gt.labeled_mask.all()

    def test_rescan_same_layout_new_sampling(self):
        spec = SceneSpec(seed=9)
        a_cloud, a_gt, a_mask, _ = generate_scene(spec)
        b_cloud, b_gt, b_mask, _ = generate_scene(spec.rescan(1))
        assert np.array_equal(a_mask, b_mask)  # same rooms, same classes
        assert a_cloud.count != b_cloud.count or not np.array_equal(
            a_cloud.positions, b_cloud.positions)
        # class populations stay comparable across scans of one layout
        ca = np.bincount(a_gt.values, minlength=a_gt.num_classes)
        cb = np.bincount(b_gt.values, minlength=b_gt.num_classes)
        present = ca > 0
        assert np.all(np.abs(ca[present] - cb[present]) < 0.25 * ca[present] + 50)


class TestCorruptLogits:
    def test_noiseless_limit_recovers_gt(self):
        spec = SceneSpec(seed=2)
        cloud, gt, _, _ = generate_scene(spec)
        logits = corrupt_logits(gt, cloud, LogitNoiseSpec(
            correct_mean=3.0, correct_sigma=0.0, confusion_temperature=1.0,
            boundary_blur=0.0, seed=0))
        assert np.array_equal(logits.argmax(axis=1), gt.values)

    def test_deterministic(self):
        cloud, gt, _, _ = generate_scene(SceneSpec(seed=2))
        spec = LogitNoiseSpec(seed=11)
        assert np.array_equal(corrupt_logits(gt, cloud, spec),
                              corrupt_logits(gt, cloud, spec))

    def test_class_count_preserved(self):
        cloud, gt, _, _ = generate_scene(SceneSpec(seed=2))
        logits = corrupt_logits(gt, cloud, LogitNoiseSpec(seed=0))
        assert logits.shape == (cloud.count, gt.num_classes)

    def test_confidence_correlates_with_correctness(self):
        # calibration preset property: quartile-bin accuracy is weakly
        # increasing (low-confidence predictions are the unreliable ones)
        cloud, gt, mask, _ = generate_scene(SceneSpec(seed=0))
        logits = corrupt_logits(gt, cloud, LogitNoiseSpec(seed=100))
        labels, conf = pseudo_labels_from_logits(logits, mask)
        bins = confidence_bins(labels, conf, gt, [0, 0.25, 0.5, 0.75, 1.0])
        accs = [b.accuracy for b in bins if b.accuracy is not None]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_unbounded_query(self, seed):
        cloud, gt, _, _ = generate_scene(SceneSpec(seed=seed))
        values = gt.values.copy()
        values[np.random.default_rng(seed).random(len(values)) < 0.1] = -1
        for labels in (gt, gt.with_values(values)):
            for spec in (LogitNoiseSpec(seed=seed), ROOM_SMALL.noise_for(seed),
                         LogitNoiseSpec(boundary_blur=0.013, seed=seed)):
                assert np.array_equal(corrupt_logits(labels, cloud, spec),
                                      literal_corrupt_logits(labels, cloud, spec))

    @pytest.mark.parametrize("blur", [0.12, 0.16, 0.1, 1 / 3, 0.7])
    def test_points_at_the_blur_radius(self, blur):
        # Class 1 points sit on the x axis at distances just below, at and
        # just above the blur radius from the one class 0 point, at the
        # origin. Clutter of 1e20 makes the pull of even a barely-in-band
        # point visible in its own-class logit, which is otherwise 0.
        below, above = np.nextafter(blur, 0.0), np.nextafter(blur, np.inf)
        x = np.array([0.0, blur / 2, below, blur, above, 2 * blur])
        cloud = PointCloud(np.column_stack([x, np.zeros((6, 2))]),
                           np.zeros((6, 3), dtype=np.uint8))
        gt = LabelField(np.array([0, 1, 1, 1, 1, 1]), 2)
        for seed in range(5):
            spec = LogitNoiseSpec(correct_mean=0.0, correct_sigma=0.0,
                                  confusion_temperature=1e20,
                                  boundary_blur=blur, seed=seed)
            got = corrupt_logits(gt, cloud, spec)
            assert np.array_equal(got, literal_corrupt_logits(gt, cloud, spec))
            in_band = got[np.arange(6), gt.values] != 0
            assert in_band.tolist() == [True, True, True, False, False, False]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_class_trees_on_lattice_ties(self, seed, monkeypatch):
        # Integer lattices with repeated points of other classes: class
        # boundaries hold exact distance ties between classes, zero
        # distances, and points at exactly each blur radius. Each call
        # queries one tree per class present, ties or not.
        rng = np.random.default_rng(seed)
        calls = record_queries(monkeypatch, synth)
        ties = 0
        for side in (3, 4, 6):
            pos = shuffled_lattice(rng, side, int(rng.integers(1, 3 * side)))
            cloud = PointCloud(pos, np.zeros(pos.shape, dtype=np.uint8))
            classes = int(rng.integers(2, 5))
            gt = LabelField(rng.integers(-1, classes, len(pos)), classes)
            present = np.unique(gt.values[gt.labeled_mask])
            dist = np.array([np.where(gt.values == cls, np.inf,
                                      cKDTree(pos[gt.values == cls]).query(pos)[0])
                             for cls in present])
            nearest = dist.min(axis=0)
            ties += int((gt.labeled_mask & (nearest < np.inf)
                         & ((dist == nearest).sum(axis=0) > 1)).sum())
            for blur in (0.5, 1.0, np.sqrt(2.0), 1.5, 2.0, 10.0):
                spec = LogitNoiseSpec(boundary_blur=blur, seed=seed)
                before = len(calls)
                assert np.array_equal(corrupt_logits(gt, cloud, spec),
                                      literal_corrupt_logits(gt, cloud, spec))
                assert len(calls) - before == present.size
        assert ties

    def test_far_apart_groups_build_small_trees(self, monkeypatch):
        # Two tight two-class clusters 100 blur radii apart: each class's
        # tree holds only its own points, and only the other-class points
        # of its own cluster query it.
        pos = np.array([[0.0, 0, 0], [0.05, 0, 0], [10.0, 0, 0], [10.05, 0, 0],
                        [0.0, 0.05, 0], [10.0, 0.05, 0]])
        cloud = PointCloud(pos, np.zeros(pos.shape, dtype=np.uint8))
        gt = LabelField(np.array([0, 1, 2, 3, 0, 2]), 4)
        spec = LogitNoiseSpec(boundary_blur=0.1, seed=3)
        calls = record_queries(monkeypatch, synth)
        got = corrupt_logits(gt, cloud, spec)
        assert np.array_equal(got, literal_corrupt_logits(gt, cloud, spec))
        assert [(c["rows"], c["points"]) for c in calls] == [(1, 2), (2, 1), (1, 2), (2, 1)]

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_between_classes_goes_to_the_lowest_id(self, seed, monkeypatch):
        # Point 0 lies exactly 0.05 from a class-2 and a class-1 point, so
        # two classes tie as its nearest; the lower id, 1, is its other
        # class. One tree per class present answers.
        pos = np.array([[0.0, 0, 0], [0.05, 0, 0], [-0.05, 0, 0], [0.0, 0.5, 0]])
        cloud = PointCloud(pos, np.zeros(pos.shape, dtype=np.uint8))
        gt = LabelField(np.array([0, 2, 1, 1]), 3)
        spec = LogitNoiseSpec(boundary_blur=0.1, confusion_temperature=0.0, seed=seed)
        calls = record_queries(monkeypatch, synth)
        got = corrupt_logits(gt, cloud, spec)
        assert np.array_equal(got, literal_corrupt_logits(gt, cloud, spec))
        assert len(calls) == 3
        assert np.flatnonzero(got[0]).tolist() == [0, 1]

    @settings(max_examples=300)
    @given(tie_prone_scenes(), st.integers(0, 1000))
    def test_matches_literal_oracle(self, scene, seed):
        cloud, gt, blur = scene
        spec = LogitNoiseSpec(boundary_blur=blur, seed=seed)
        assert np.array_equal(corrupt_logits(gt, cloud, spec),
                              literal_corrupt_logits(gt, cloud, spec))

    def test_mismatched_cloud_rejected(self):
        cloud, gt, _, _ = generate_scene(SceneSpec(seed=2))
        short = generate_scene(SceneSpec(seed=2, density=100.0))[0]
        with pytest.raises(ValueError):
            corrupt_logits(gt, short, LogitNoiseSpec())


class TestRenderViews:
    def test_zero_cameras_rejected(self):
        with pytest.raises(ValueError, match="camera"):
            ViewRingSpec(num_cameras=0)

    def test_zero_focal_rejected(self):
        with pytest.raises(ValueError, match="focal"):
            ViewRingSpec(focal=0.0)

    def test_single_point_on_axis(self):
        from pclabel import PointCloud
        cloud = PointCloud(np.array([[0.5, 0.5, 0.5]]),
                           np.zeros((1, 3), dtype=np.uint8))
        payload = np.array([[1.0, 2.0]])
        views = render_views(cloud, payload, ViewRingSpec(num_cameras=1,
                                                          width=8, height=8,
                                                          focal=5.0))
        # the only point is the look-at target: it lands on the principal
        # pixel with its payload verbatim
        view = views[0]
        assert np.allclose(view.pixel_logits[4, 4], [1.0, 2.0])

    def test_back_projection_recovers_payload(self):
        # round trip: rendered views re-aggregated give each visible point
        # its own payload back; coverage is high on a dense ring
        cloud, gt, _, _ = generate_scene(SceneSpec(seed=1, density=200.0))
        payload = np.eye(gt.num_classes)[gt.values]
        ring = ViewRingSpec(num_cameras=8, width=160, height=120, focal=90.0,
                            radius_frac=0.8, height_frac=0.7)
        views = render_views(cloud, payload, ring)
        agg, hits = aggregate_views(cloud, views)
        seen = hits > 0
        assert seen.mean() >= 0.9
        recovered = agg[seen].argmax(axis=1)
        agreement = (recovered == gt.values[seen]).mean()
        assert agreement >= 0.9

    def test_empty_pixels_zero(self):
        from pclabel import PointCloud
        cloud = PointCloud(np.array([[0.5, 0.5, 0.5]]),
                           np.zeros((1, 3), dtype=np.uint8))
        views = render_views(cloud, np.ones((1, 3)), ViewRingSpec(
            num_cameras=1, width=8, height=8, focal=4.0))
        payload = views[0].pixel_logits
        assert (np.abs(payload).sum(axis=2) > 0).sum() == 1
        assert np.allclose(payload[0, 0], 0.0)

    def test_empty_cloud_is_refused(self):
        cloud = PointCloud(np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="^cannot place views around a cloud with no points$"):
            render_views(cloud, np.empty((0, 3)), ViewRingSpec())

    def test_payload_shape_validated(self):
        cloud, _, _, _ = generate_scene(SceneSpec(seed=1, density=100.0))
        with pytest.raises(ValueError):
            render_views(cloud, np.ones((3, 2)), ViewRingSpec())
