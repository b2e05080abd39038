import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pclabel import (
    CameraView,
    LabelField,
    PointCloud,
    SceneSpec,
    UNLABELED,
    ViewRingSpec,
    aggregate_views,
    generate_scene,
    project,
    pseudo_labels_from_logits,
    pseudo_labels_from_views,
    render_views,
)
from pclabel.projection import (
    MIN_DEPTH,
    nearest_pixel,
    pixel_owners,
    project_to_pixels,
)

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


# Oracles: the pixel path as it was before rendering and back-projection
# shared one, each decision made where it was used.
def literal_project_to_pixels(positions, intrinsics, rotation, translation,
                              width, height):
    """(rows, cols, depth, valid) over every point; rows/cols of points
    behind the camera are 0."""
    uv, depth = project(positions, intrinsics, rotation, translation)
    in_front = depth > MIN_DEPTH
    n = positions.shape[0]
    cols = np.zeros(n, dtype=np.int64)
    rows = np.zeros(n, dtype=np.int64)
    cols[in_front] = np.trunc(uv[in_front, 0] + np.copysign(0.5, uv[in_front, 0])).astype(np.int64)
    rows[in_front] = np.trunc(uv[in_front, 1] + np.copysign(0.5, uv[in_front, 1])).astype(np.int64)
    valid = (
        in_front
        & (cols >= 0) & (cols < width)
        & (rows >= 0) & (rows < height)
    )
    return rows, cols, depth, valid


def literal_aggregate(cloud, views, occlusion_tolerance=None):
    n = cloud.count
    c = views[0].channels
    acc = np.zeros((n, c), dtype=np.float64)
    hits = np.zeros(n, dtype=np.int64)
    for view in views:
        rows, cols, depth, valid = literal_project_to_pixels(
            cloud.positions, view.intrinsics, view.rotation, view.translation,
            view.width, view.height,
        )
        if occlusion_tolerance is not None:
            zbuf = np.full((view.height, view.width), np.inf)
            np.minimum.at(zbuf, (rows[valid], cols[valid]), depth[valid])
            visible = np.zeros(n, dtype=bool)
            visible[valid] = depth[valid] <= zbuf[rows[valid], cols[valid]] + occlusion_tolerance
            valid = visible
        acc[valid] += view.pixel_logits[rows[valid], cols[valid]]
        hits[valid] += 1
    seen = hits > 0
    acc[seen] /= hits[seen, None]
    return acc, hits


def literal_raster(positions, payload, intrinsics, rotation, translation,
                   width, height):
    """A view's pixel map: the nearest point's payload, ties to the lowest
    point index, zero where no point lands."""
    rows, cols, depth, valid = literal_project_to_pixels(
        positions, intrinsics, rotation, translation, width, height
    )
    which = np.flatnonzero(valid)
    pix = rows[which] * width + cols[which]
    order = np.lexsort((which, depth[which], pix))
    pix_sorted = pix[order]
    first = np.ones(pix_sorted.size, dtype=bool)
    first[1:] = pix_sorted[1:] != pix_sorted[:-1]
    image = np.zeros((height * width, payload.shape[1]), dtype=np.float32)
    image[pix_sorted[first]] = payload[which[order[first]]]
    return image.reshape(height, width, payload.shape[1])


def raster(positions, payload, view):
    """The same map through the shared pixel path."""
    pixels, owners = pixel_owners(positions, view.intrinsics, view.rotation,
                                  view.translation, view.width, view.height)
    image = np.zeros((view.height * view.width, payload.shape[1]), dtype=np.float32)
    image[pixels] = payload[owners]
    return image.reshape(view.height, view.width, payload.shape[1])


def assert_same_pixels(positions, view):
    """project_to_pixels keeps exactly the oracle's valid points, in order,
    with their pixels and depths."""
    args = (positions, view.intrinsics, view.rotation, view.translation,
            view.width, view.height)
    points, rows, cols, depth = project_to_pixels(*args)
    want_rows, want_cols, want_depth, valid = literal_project_to_pixels(*args)
    assert points.tobytes() == np.flatnonzero(valid).tobytes()
    assert rows.tobytes() == want_rows[valid].tobytes()
    assert cols.tobytes() == want_cols[valid].tobytes()
    assert depth.tobytes() == want_depth[valid].tobytes()


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


    @pytest.mark.parametrize("row, entry", [(2, 2), (2, 1), (1, 0), (2, 0)])
    def test_rejects_other_than_pinhole_bottom_rows(self, row, entry):
        k = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]])
        k[row, entry] = 0.5 if k[row, entry] == 0 else 0.0
        with pytest.raises(ValueError, match=r"\[0, 0, 1\]\]"):
            CameraView(k, np.eye(3), np.zeros(3), 4, 4,
                       pixel_logits=np.zeros((4, 4, 1)))

    @pytest.mark.parametrize("name, size, message", [
        ("width", 16.0, "width must be an integer, got 16.0"),
        ("height", True, "height must be an integer, got True"),
        ("width", 0, "width must be >= 1, got 0"),
        ("height", -3, "height must be >= 1, got -3"),
    ])
    def test_grid_sizes_are_positive_integers(self, name, size, message):
        sizes = {"width": 4, "height": 4, name: size}
        with pytest.raises(ValueError, match=message):
            CameraView(np.eye(3), np.eye(3), np.zeros(3), **sizes,
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
        hit, *_ = project_to_pixels(points, view.intrinsics, view.rotation,
                                    view.translation, view.width, view.height)
        assert hit.size == 0

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


class TestPixelPath:
    """project_to_pixels, the depth buffer and pixel ownership against the
    literal per-use code they replaced, byte for byte."""

    def test_random_views_match_literal(self, rng):
        for _ in range(30):
            cloud = make_cloud(rng, 300)
            views = [random_view(rng, 16, 12, 3) for _ in range(4)]
            for view in views:
                assert_same_pixels(cloud.positions, view)
                payload = rng.standard_normal((cloud.count, 3))
                want = literal_raster(cloud.positions, payload, view.intrinsics,
                                      view.rotation, view.translation,
                                      view.width, view.height)
                assert raster(cloud.positions, payload, view).tobytes() == want.tobytes()
            for tolerance in (None, 0.0, 0.05, 1.0):
                got = aggregate_views(cloud, views, tolerance)
                want = literal_aggregate(cloud, views, tolerance)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    def test_depth_ties_on_one_pixel(self, rng):
        # Five points on pixel (row 4, col 3): three tie for the front at
        # depth 1, in shuffled order, behind a point at depth 2 listed first.
        view = identity_view(8, 8, np.zeros((8, 8, 2), dtype=np.float32))
        base = np.array([[6.2, 8.0, 2.0], [3.1, 4.0, 1.0], [2.9, 4.2, 1.0],
                         [3.0, 3.9, 1.0], [6.0, 8.0, 2.0]])
        for _ in range(20):
            positions = base[rng.permutation(len(base))]
            payload = rng.standard_normal((len(base), 2))
            pixels, owners = pixel_owners(positions, view.intrinsics, view.rotation,
                                          view.translation, 8, 8)
            assert pixels.tolist() == [4 * 8 + 3]
            front = np.flatnonzero(positions[:, 2] == 1.0)
            assert owners.tolist() == [front[0]]
            want = literal_raster(positions, payload, view.intrinsics,
                                  view.rotation, view.translation, 8, 8)
            assert raster(positions, payload, view).tobytes() == want.tobytes()
            for tolerance in (None, 0.0, 0.5, 1.0):
                cloud = PointCloud(positions, np.zeros((len(base), 3), dtype=np.uint8))
                got = aggregate_views(cloud, [view], tolerance)
                want = literal_aggregate(cloud, [view], tolerance)
                assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 160])
    def test_grid_edges(self, width):
        # With unit focal length and the principal point at 0, u is x.
        # Rounding half away from zero puts -0.5 on col -1 and width - 0.5
        # on col width; just inside them, x + 0.5 may itself round up.
        view = identity_view(width, 3, np.zeros((3, width, 1), dtype=np.float32))
        edge = float(width) - 0.5
        xs = [-0.5, np.nextafter(-0.5, 0.0), 0.0, edge, np.nextafter(edge, 0.0),
              np.nextafter(edge, np.inf), width - 1.0, float(width)]
        positions = np.array([[x, 1.0, 1.0] for x in xs])
        assert_same_pixels(positions, view)
        points, _, cols, _ = project_to_pixels(
            positions, view.intrinsics, view.rotation, view.translation, width, 3)
        assert 0 not in points.tolist() and 3 not in points.tolist()
        assert ((cols >= 0) & (cols < width)).all()
        # At width 1, 0.5 - 2**-54 rounds to 1.0 when 0.5 is added.
        assert (4 in points.tolist()) == (width > 1)

    def test_rendered_views_match_literal(self):
        cloud, gt, _, _ = generate_scene(SceneSpec(seed=3, density=150.0))
        payload = np.eye(gt.num_classes)[gt.values] + 0.25 * gt.values[:, None]
        ring = ViewRingSpec(num_cameras=4, width=40, height=30, focal=25.0)
        for view in render_views(cloud, payload, ring):
            want = literal_raster(cloud.positions, payload, view.intrinsics,
                                  view.rotation, view.translation,
                                  view.width, view.height)
            assert view.pixel_logits.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry, value", [
        ("fx", 1e308), ("cx", 1e308), ("tx", 1e300), ("tx", 1.797e308),
    ])
    def test_overflowing_camera_sees_nothing(self, rng, entry, value):
        # The pytest configuration turns RuntimeWarnings into errors, so
        # the projection must neither warn on overflow nor cast it.
        k = np.array([[100.0, 0, 8], [0, 100, 6], [0, 0, 1]])
        t = np.array([0.0, 0.0, 5.0])
        target = {"fx": (k, (0, 0)), "cx": (k, (0, 2)), "tx": (t, 0)}
        array, where = target[entry]
        array[where] = value
        cloud = make_cloud(rng, 200)
        view = CameraView(k, np.eye(3), t, 16, 12,
                          pixel_logits=np.ones((12, 16, 2), dtype=np.float32))
        points, *_ = project_to_pixels(cloud.positions, k, np.eye(3), t, 16, 12)
        assert points.size == 0
        for tolerance in (None, 0.02):
            _, hits = aggregate_views(cloud, [view], tolerance)
            assert not hits.any()


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
