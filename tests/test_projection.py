import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pclabel import (
    CameraView,
    LabelField,
    PointCloud,
    UNLABELED,
    aggregate_views,
    project,
    pseudo_labels_from_logits,
    pseudo_labels_from_views,
)
from pclabel.projection import MIN_DEPTH, nearest_pixel, project_to_pixels

from conftest import make_cloud

# Oracle: the scene-mask and ranking steps as two passes joined by a
# sentinel logit, the form they had before pseudo_labels_from_logits fused
# them into one masked softmax.
MASKED_LOGIT = float(np.finfo(np.float64).min)

# The scene mask of a two-class test that masks nothing.
ALL_TWO = np.ones(2, dtype=bool)


def literal_mask_then_rank(logits, mask):
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.ndim != 2 or mask.shape != (logits.shape[1],):
        raise ValueError(
            f"mask of {mask.shape} does not fit logits of {logits.shape}"
        )
    if not mask.any():
        raise ValueError("scene mask excludes every class")
    out = logits.copy()
    out[:, ~mask] = MASKED_LOGIT

    filtered = np.asarray(out, dtype=np.float64)
    if filtered.ndim != 2 or filtered.shape[1] == 0:
        raise ValueError(f"expected (N, C) logits, got {filtered.shape}")
    unmasked = filtered != MASKED_LOGIT
    dead = ~unmasked.any(axis=1)
    if dead.any():
        raise ValueError(f"row {int(np.flatnonzero(dead)[0])} is fully masked")
    scores = np.where(unmasked, filtered, -np.inf)
    rowmax = scores.max(axis=1, keepdims=True)
    weights = np.exp(scores - rowmax)
    probs = weights / weights.sum(axis=1, keepdims=True)
    labels = np.argmax(scores, axis=1)
    confidence = probs[np.arange(filtered.shape[0]), labels]
    return LabelField(labels, filtered.shape[1]), confidence


def literal_project_point(p, view):
    """Oracle: one world point through the pinhole model; None when it lies
    at or behind the camera, else (u, v, depth)."""
    q = view.rotation @ np.asarray(p, dtype=np.float64).reshape(3) + view.translation
    if q[2] <= MIN_DEPTH:
        return None
    h = view.intrinsics @ q
    return float(h[0] / h[2]), float(h[1] / h[2]), float(q[2])


def project_view(points, view):
    return project(np.asarray(points, dtype=np.float64).reshape(-1, 3),
                   view.intrinsics, view.rotation, view.translation)


@st.composite
def masked_logits(draw):
    """(logits, mask): the mask keeps one class, some classes or all of
    them; small-integer logits make ties common."""
    n = draw(st.integers(0, 12))
    c = draw(st.integers(1, 7))
    value = st.integers(-3, 3).map(float) | st.floats(-1e100, 1e100)
    logits = np.array(draw(st.lists(value, min_size=n * c, max_size=n * c)),
                       dtype=np.float64).reshape(n, c)
    kind = draw(st.sampled_from(["one", "some", "all"]))
    if kind == "all":
        mask = np.ones(c, dtype=bool)
    elif kind == "one":
        mask = np.zeros(c, dtype=bool)
        mask[draw(st.integers(0, c - 1))] = True
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)),
                        dtype=bool)
        mask[draw(st.integers(0, c - 1))] = True
    return logits, mask


def identity_view(width=8, height=8, payload=None, fx=1.0, cx=0.0, cy=0.0):
    if payload is None:
        payload = np.zeros((height, width, 2), dtype=np.float32)
    return CameraView(
        intrinsics=np.array([[fx, 0, cx], [0, fx, cy], [0, 0, 1.0]]),
        rotation=np.eye(3),
        translation=np.zeros(3),
        width=width,
        height=height,
        pixel_logits=payload,
    )


def random_view(rng, width, height, channels):
    # random orthonormal rotation via QR
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    fx, fy = rng.uniform(50, 500, 2)
    return CameraView(
        intrinsics=np.array([
            [fx, 0, width / 2], [0, fy, height / 2], [0, 0, 1.0],
        ]),
        rotation=q,
        translation=rng.uniform(-1, 1, 3),
        width=width,
        height=height,
        pixel_logits=rng.standard_normal((height, width, channels)).astype(np.float32),
    )


class TestCameraView:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CameraView(np.eye(3), np.eye(3) * 1.1, np.zeros(3), 4, 4,
                       pixel_logits=np.zeros((4, 4, 1)))

    def test_rejects_negative_focal(self):
        k = np.array([[-1.0, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="focal"):
            CameraView(k, np.eye(3), np.zeros(3), 4, 4,
                       pixel_logits=np.zeros((4, 4, 1)))


class TestProjectPoint:
    def test_optical_axis(self):
        uv, depth = project_view([0.0, 0.0, 2.0], identity_view())
        assert uv.tolist() == [[0.0, 0.0]] and depth.tolist() == [2.0]

    def test_similar_triangles(self):
        uv, depth = project_view([2.0, 0.0, 2.0], identity_view())
        assert uv.tolist() == [[1.0, 0.0]] and depth.tolist() == [2.0]

    def test_behind_camera_absent(self):
        view = identity_view()
        points = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
        _, depth = project_view(points, view)
        assert (depth <= MIN_DEPTH).all()
        *_, valid = project_to_pixels(points, view.intrinsics, view.rotation,
                                      view.translation, view.width, view.height)
        assert not valid.any()

    def test_round_trip_through_depth(self, rng):
        # Reconstructing the camera-frame point from (u, v, depth) recovers
        # rotation @ p + translation within 1e-6.
        for _ in range(200):
            view = random_view(rng, 32, 24, 1)
            p = rng.uniform(-3, 3, 3)
            uv, depth = project_view(p, view)
            q = view.rotation @ p + view.translation
            if q[2] <= 1e-9:
                assert depth[0] <= MIN_DEPTH
                continue
            (u, v), depth = uv[0], depth[0]
            recon = np.linalg.inv(view.intrinsics) @ np.array([u, v, 1.0]) * depth
            assert np.allclose(recon, q, atol=1e-6)


class TestAggregate:
    def test_single_correspondence(self):
        payload = np.zeros((8, 8, 2), dtype=np.float32)
        payload[4, 3] = [7.0, -1.0]
        view = identity_view(payload=payload, fx=1.0, cx=0.0, cy=0.0)
        # point projecting exactly to pixel (u=3, v=4)
        cloud = PointCloud(np.array([[3.0, 4.0, 1.0]]),
                           np.zeros((1, 3), dtype=np.uint8))
        agg, hits = aggregate_views(cloud, [view])
        assert hits.tolist() == [1]
        assert np.allclose(agg[0], [7.0, -1.0])

    def test_two_view_mean(self):
        a = np.full((4, 4, 1), 2.0, dtype=np.float32)
        b = np.full((4, 4, 1), 6.0, dtype=np.float32)
        views = [identity_view(4, 4, a), identity_view(4, 4, b)]
        cloud = PointCloud(np.array([[1.0, 1.0, 1.0]]),
                           np.zeros((1, 3), dtype=np.uint8))
        agg, hits = aggregate_views(cloud, views)
        assert hits.tolist() == [2]
        assert np.allclose(agg[0], [4.0])

    def test_matches_brute_force(self, rng):
        # Randomized scenes against a per-point python loop over all views.
        for _ in range(50):
            cloud = make_cloud(rng, 50)
            views = [random_view(rng, 16, 12, 3) for _ in range(4)]
            agg, hits = aggregate_views(cloud, views)
            for n in range(cloud.count):
                total = np.zeros(3)
                count = 0
                for view in views:
                    result = literal_project_point(cloud.positions[n], view)
                    if result is None:
                        continue
                    u, v, _ = result
                    col = int(nearest_pixel(np.array(u)))
                    row = int(nearest_pixel(np.array(v)))
                    if 0 <= col < view.width and 0 <= row < view.height:
                        total += view.pixel_logits[row, col]
                        count += 1
                assert hits[n] == count
                expected = total / count if count else np.zeros(3)
                assert np.allclose(agg[n], expected, atol=1e-9)

    def test_view_order_invariance(self, rng):
        cloud = make_cloud(rng, 80)
        views = [random_view(rng, 16, 12, 2) for _ in range(5)]
        a, ha = aggregate_views(cloud, views)
        b, hb = aggregate_views(cloud, views[::-1])
        assert np.array_equal(ha, hb)
        assert np.allclose(a, b, atol=1e-9)

    def test_occlusion_tolerance(self):
        # two points on the same ray; with the depth test only the front
        # one contributes
        payload = np.zeros((4, 4, 1), dtype=np.float32)
        payload[0, 0] = 5.0
        view = identity_view(4, 4, payload)
        cloud = PointCloud(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]]),
                           np.zeros((2, 3), dtype=np.uint8))
        _, hits_off = aggregate_views(cloud, [view])
        assert hits_off.tolist() == [1, 1]
        _, hits_on = aggregate_views(cloud, [view], occlusion_tolerance=0.02)
        assert hits_on.tolist() == [1, 0]
        _, hits_zero = aggregate_views(cloud, [view], occlusion_tolerance=0.0)
        assert hits_zero.tolist() == [1, 0]

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_occlusion_tolerance_outside_domain(self, tolerance):
        view = identity_view(4, 4, np.zeros((4, 4, 1), dtype=np.float32))
        cloud = PointCloud(np.array([[0.0, 0.0, 1.0]]), np.zeros((1, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="occlusion_tolerance must be finite and >= 0"):
            aggregate_views(cloud, [view], occlusion_tolerance=tolerance)


class TestSceneMask:
    def test_all_true_is_identity(self, rng):
        # An all-true mask is the plain softmax over every class.
        logits = rng.standard_normal((6, 4))
        labels, conf = pseudo_labels_from_logits(logits, np.ones(4, dtype=bool))
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.array_equal(labels.values, np.argmax(logits, axis=1))
        assert np.allclose(conf, 1.0 / weights.sum(axis=1), atol=1e-12)

    def test_single_class_forces_winner(self, rng):
        logits = rng.standard_normal((20, 5))
        mask = np.zeros(5, dtype=bool)
        mask[2] = True
        labels, conf = pseudo_labels_from_logits(logits, mask)
        assert np.all(labels.values == 2)
        assert np.all(conf == 1.0)

    def test_all_false_rejected(self, rng):
        with pytest.raises(ValueError, match="scene mask excludes every class"):
            pseudo_labels_from_logits(rng.standard_normal((3, 3)), np.zeros(3, dtype=bool))

    def test_mask_of_another_length_rejected(self, rng):
        with pytest.raises(ValueError, match=r"mask of \(2,\) does not fit logits of \(3, 3\)"):
            pseudo_labels_from_logits(rng.standard_normal((3, 3)), np.ones(2, dtype=bool))

    def test_masked_classes_never_selected(self, rng):
        for _ in range(100):
            c = int(rng.integers(2, 8))
            logits = rng.standard_normal((30, c)) * 10
            mask = rng.random(c) < 0.5
            if not mask.any():
                mask[int(rng.integers(c))] = True
            labels, _ = pseudo_labels_from_logits(logits, mask)
            assert mask[labels.values].all()


class TestRank:
    def test_uniform_tie(self):
        labels, conf = pseudo_labels_from_logits(np.array([[0.0, 0.0]]), ALL_TWO)
        assert labels.values.tolist() == [0]
        assert np.allclose(conf, [0.5])

    def test_hand_evaluated_softmax(self):
        # logits (ln 9, 0): softmax gives 9/(9+1) = 0.9 for class 0
        labels, conf = pseudo_labels_from_logits(np.array([[np.log(9.0), 0.0]]), ALL_TWO)
        assert labels.values.tolist() == [0]
        assert np.allclose(conf, [0.9])

    def test_confidence_lower_bound(self, rng):
        for _ in range(50):
            c = int(rng.integers(2, 10))
            logits = rng.standard_normal((40, c))
            _, conf = pseudo_labels_from_logits(logits, np.ones(c, dtype=bool))
            assert np.all(conf >= 1.0 / c - 1e-12)
            assert np.all(conf <= 1.0)
            assert np.all(conf > 0.0)

    def test_probabilities_sum_to_one(self, rng):
        # The softmax runs over the mask's classes alone: masked classes
        # carry no probability.
        logits = rng.standard_normal((30, 6)) * 5
        mask = np.array([True, False, True, True, False, True])
        _, conf = pseudo_labels_from_logits(logits, mask)
        kept = logits[:, mask]
        weights = np.exp(kept - kept.max(axis=1, keepdims=True))
        assert np.allclose(conf, 1.0 / weights.sum(axis=1), atol=1e-12)

    def test_non_finite_logits_name_first_row(self):
        logits = np.array([[1.0, 2.0], [np.nan, 0.0], [0.5, np.inf]])
        with pytest.raises(ValueError, match="row 1 is not finite"):
            pseudo_labels_from_logits(logits, ALL_TWO)

    def test_far_apart_finite_logits(self):
        # The shifted losing score overflows to -inf; its weight is exactly 0.
        labels, conf = pseudo_labels_from_logits(np.array([[1e308, -1e308]]), ALL_TWO)
        assert labels.values.tolist() == [0]
        assert conf.tolist() == [1.0]

    @settings(max_examples=400)
    @given(masked_logits())
    @example((np.zeros((2, 3)), np.array([True, True, True])))
    @example((np.array([[5.0, 1.0, 1.0]]), np.array([False, True, True])))
    @example((np.array([[2.0, 7.0, 2.0]]), np.array([True, False, True])))
    def test_matches_literal_mask_then_rank(self, case):
        logits, mask = case
        labels, conf = pseudo_labels_from_logits(logits, mask)
        want_labels, want_conf = literal_mask_then_rank(logits, mask)
        assert labels.num_classes == want_labels.num_classes
        assert labels.values.tobytes() == want_labels.values.tobytes()
        assert conf.tobytes() == want_conf.tobytes()


class TestViewPipeline:
    def test_no_correspondence_is_unlabeled(self):
        payload = np.ones((4, 4, 2), dtype=np.float32)
        view = identity_view(4, 4, payload)
        cloud = PointCloud(
            np.array([[1.0, 1.0, 1.0], [0.0, 0.0, -5.0]]),
            np.zeros((2, 3), dtype=np.uint8),
        )
        labels, conf, hits = pseudo_labels_from_views(cloud, [view], ALL_TWO)
        assert hits.tolist() == [1, 0]
        assert labels.values[1] == UNLABELED
        assert conf[1] == 0.0
