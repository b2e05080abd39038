import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pclabel import (
    PointCloud,
    SuperpointPartition,
    build_index,
    oversegment,
    partition_stats,
)
from pclabel.superpoint import (
    _distinct,
    _first_occurrence_relabel,
    _merge_small_segments,
    load_partition_json,
    save_partition_json,
)

from conftest import make_cloud


def plane_cloud(rng, n=200):
    pos = np.zeros((n, 3))
    pos[:, :2] = rng.random((n, 2))
    return PointCloud(pos, np.zeros((n, 3), dtype=np.uint8))


def assert_valid_partition(partition, n):
    assert len(partition) == n
    u = partition.segment_count
    ids = np.unique(partition.assignment)
    assert np.array_equal(ids, np.arange(u))
    sizes = np.array([len(s) for s in partition.segments()])
    assert sizes.sum() == n


class TestPartitionType:
    def test_rejects_sparse_ids(self):
        with pytest.raises(ValueError, match="dense"):
            SuperpointPartition(np.array([0, 2, 2]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SuperpointPartition(np.array([-1, 0]))

    @settings(max_examples=300)
    @given(st.lists(st.integers(-3, 8), max_size=12))
    @example([])
    @example([0])
    @example([2**40, 0])
    @example([0, 1, 2**63 - 1])
    def test_accepts_exactly_the_dense_assignments(self, values):
        a = np.array(values, dtype=np.int64)
        ids = np.unique(a)
        dense = ids.size == 0 or (ids[0] >= 0 and np.array_equal(ids, np.arange(ids.size)))
        if dense:
            assert np.array_equal(SuperpointPartition(a).assignment, a)
        else:
            with pytest.raises(ValueError, match=r"dense in \[0, U\)"):
                SuperpointPartition(a)

    def test_segments_cover(self):
        p = SuperpointPartition(np.array([0, 1, 0, 2, 1]))
        segs = p.segments()
        assert [s.tolist() for s in segs] == [[0, 2], [1, 4], [3]]


class TestOversegment:
    def test_single_plane_one_segment(self, rng):
        cloud = plane_cloud(rng)
        normals = np.tile([0.0, 0.0, 1.0], (cloud.count, 1))
        part = oversegment(cloud, normals, build_index(cloud), 10.0, 8, 1)
        assert part.segment_count == 1

    def test_two_perpendicular_planes(self):
        # grid on z=0 for x in (0.05..1) and grid on x=0 for z in (0.05..1);
        # 10 degree threshold separates them exactly.
        ticks = np.arange(0.05, 1.0, 0.05)
        ys = np.arange(0.0, 1.0, 0.05)
        fx, fy = np.meshgrid(ticks, ys)
        floor = np.stack([fx.ravel(), fy.ravel(), np.zeros(fx.size)], axis=1)
        wz, wy = np.meshgrid(ticks, ys)
        wall = np.stack([np.zeros(wz.size), wy.ravel(), wz.ravel()], axis=1)
        pos = np.vstack([floor, wall])
        normals = np.vstack([
            np.tile([0.0, 0.0, 1.0], (len(floor), 1)),
            np.tile([1.0, 0.0, 0.0], (len(wall), 1)),
        ])
        cloud = PointCloud(pos, np.zeros((len(pos), 3), dtype=np.uint8))
        part = oversegment(cloud, normals, build_index(cloud), 10.0, 8, 1)
        assert part.segment_count == 2
        floor_ids = part.assignment[: len(floor)]
        wall_ids = part.assignment[len(floor):]
        assert len(np.unique(floor_ids)) == 1
        assert len(np.unique(wall_ids)) == 1
        assert floor_ids[0] != wall_ids[0]

    def test_threshold_180_floods_connected_graph(self, rng):
        cloud = plane_cloud(rng, 100)
        normals = rng.standard_normal((100, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        part = oversegment(cloud, normals, build_index(cloud), 180.0, 8, 1)
        assert part.segment_count == 1

    def test_deterministic(self, rng):
        cloud = make_cloud(rng, 300)
        normals = rng.standard_normal((300, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        index = build_index(cloud)
        a = oversegment(cloud, normals, index, 25.0, 8, 5)
        b = oversegment(cloud, normals, index, 25.0, 8, 5)
        assert np.array_equal(a.assignment, b.assignment)

    def test_always_valid_partition(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 200))
            cloud = make_cloud(rng, n)
            normals = rng.standard_normal((n, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            thr = float(rng.uniform(1, 180))
            part = oversegment(cloud, normals, build_index(cloud), thr, 6,
                               int(rng.integers(1, 10)))
            assert_valid_partition(part, n)

    def test_threshold_monotonicity(self, rng):
        # with min_size=1 (no merging), a larger angle floods a superset of
        # edges, so the segment count never increases
        for _ in range(50):
            n = int(rng.integers(20, 150))
            cloud = make_cloud(rng, n)
            normals = rng.standard_normal((n, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            index = build_index(cloud)
            counts = [
                oversegment(cloud, normals, index, thr, 6, 1).segment_count
                for thr in (5.0, 20.0, 60.0, 180.0)
            ]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rigid_motion_invariance(self, rng):
        cloud, gt, mask, normals = _small_scene(rng)
        index = build_index(cloud)
        base = oversegment(cloud, normals, index, 15.0, 8, 5)
        theta = 0.7
        rot = np.array([
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1.0],
        ])
        moved = PointCloud(cloud.positions @ rot.T + 3.0, cloud.colors)
        moved_part = oversegment(moved, normals @ rot.T, build_index(moved),
                                 15.0, 8, 5)
        assert np.array_equal(base.assignment, moved_part.assignment)

    def test_min_size_merging(self, rng):
        cloud = make_cloud(rng, 400)
        normals = rng.standard_normal((400, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        part = oversegment(cloud, normals, build_index(cloud), 20.0, 8, 25)
        sizes = np.bincount(part.assignment)
        # any remaining under-sized segment must have no graph neighbor,
        # which cannot happen in a connected kNN graph of this density
        assert sizes.min() >= 25 or part.segment_count == 1

    def test_angle_range_validated(self, rng):
        cloud = make_cloud(rng, 10)
        normals = np.tile([0.0, 0.0, 1.0], (10, 1))
        with pytest.raises(ValueError):
            oversegment(cloud, normals, build_index(cloud), 0.0, 4, 1)
        with pytest.raises(ValueError):
            oversegment(cloud, normals, build_index(cloud), 181.0, 4, 1)

    def test_mismatched_normals(self, rng):
        cloud = make_cloud(rng, 10)
        with pytest.raises(ValueError, match="match"):
            oversegment(cloud, np.zeros((5, 3)), build_index(cloud), 10.0, 4, 1)


def literal_merge_oracle(labels, src, dst, min_size):
    """The quadratic merge loop: re-sort the sizes after every merge and take
    the lowest undersized segment that still has a neighbor."""
    count = int(labels.max()) + 1 if labels.size else 0
    if count == 0 or min_size <= 1:
        return labels
    sizes = {
        s: int(c) for s, c in enumerate(np.bincount(labels, minlength=count))
    }
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    edges = np.unique(lo[keep] * labels.size + hi[keep])
    a = labels[edges // labels.size]
    b = labels[edges % labels.size]
    adj = {s: {} for s in range(count)}
    inter = a != b
    for sa, sb in zip(a[inter].tolist(), b[inter].tolist()):
        adj[sa][sb] = adj[sa].get(sb, 0) + 1
        adj[sb][sa] = adj[sb].get(sa, 0) + 1

    alias = {s: s for s in range(count)}
    while True:
        candidates = [
            s for s in sorted(sizes) if 0 < sizes[s] < min_size and adj[s]
        ]
        if not candidates:
            break
        s = candidates[0]
        target = max(adj[s].items(), key=lambda kv: (kv[1], -kv[0]))[0]
        for other, c in list(adj[s].items()):
            if other == target:
                continue
            adj[other][target] = adj[other].get(target, 0) + c
            del adj[other][s]
            adj[target][other] = adj[target].get(other, 0) + c
        del adj[target][s]
        del adj[s]
        sizes[target] += sizes[s]
        del sizes[s]
        alias[s] = target
    resolve = np.arange(count)
    for s in range(count):
        root = s
        while alias[root] != root:
            root = alias[root]
        resolve[s] = root
    merged = resolve[labels]
    survivors = np.unique(merged)
    dense = np.empty(count, dtype=np.int64)
    dense[survivors] = np.arange(survivors.size)
    return _first_occurrence_relabel(dense[merged], survivors.size)


def _merge_case(raw_labels, edges):
    """Dense first-occurrence segment ids (as oversegment passes them) and
    the point edge arrays."""
    _, inverse = np.unique(np.asarray(raw_labels, dtype=np.int64),
                           return_inverse=True)
    labels = _first_occurrence_relabel(inverse.astype(np.int64),
                                       int(inverse.max()) + 1)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return labels, pairs[:, 0], pairs[:, 1]


@st.composite
def merge_cases(draw):
    n = draw(st.integers(1, 40))
    segments = draw(st.integers(1, n))
    raw_labels = draw(st.lists(st.integers(0, segments - 1),
                               min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    return raw_labels, edges, draw(st.integers(1, 6))


# Segment 0 = {0}, 1 = {1}, 2 = {2, 3}, 3 = {4, 5, 6}, 4 = {7} isolated.
_ISOLATED = ([0, 1, 2, 2, 3, 3, 3, 4], [(0, 1), (1, 2), (2, 4), (3, 5)], 3)
# Segment 0 shares one edge with 1 and one with 2: the tie goes to 1.
_TIED = ([0, 1, 1, 2, 2], [(0, 1), (0, 3), (1, 2), (3, 4)], 2)
# 0 folds into 1, and 0+1 (size 2) is still undersized and folds into 2.
_CHAINED = ([0, 1, 2, 2, 2], [(0, 1), (1, 2), (2, 3), (3, 4)], 3)


class TestMergeSmallSegments:
    @settings(max_examples=300)
    @given(merge_cases())
    @example(_ISOLATED)
    @example(_TIED)
    @example(_CHAINED)
    def test_matches_literal_oracle(self, case):
        raw_labels, edges, min_size = case
        labels, src, dst = _merge_case(raw_labels, edges)
        got = _merge_small_segments(labels, src, dst, min_size)
        want = literal_merge_oracle(labels, src, dst, min_size)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("case, expected", [
        (_ISOLATED, [0, 0, 0, 0, 1, 1, 1, 2]),
        (_TIED, [0, 0, 0, 1, 1]),
        (_CHAINED, [0, 0, 0, 0, 0]),
    ])
    def test_hand_checked_cases(self, case, expected):
        raw_labels, edges, min_size = case
        labels, src, dst = _merge_case(raw_labels, edges)
        got = _merge_small_segments(labels, src, dst, min_size)
        assert got.tolist() == expected


class TestDistinct:
    @settings(max_examples=300)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=50)
           | st.lists(st.integers(-3, 3), max_size=50))
    @example([])
    @example([7])
    @example([4, 4, 4, 4])
    def test_matches_np_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        want, want_counts = np.unique(keys, return_counts=True)
        got = _distinct(keys)
        got_values, got_counts = _distinct(keys, return_counts=True)
        for array, expected in ((got, want), (got_values, want), (got_counts, want_counts)):
            assert array.dtype == expected.dtype
            assert np.array_equal(array, expected)


def _small_scene(rng):
    from pclabel import SceneSpec, generate_scene
    return generate_scene(SceneSpec(density=120.0, seed=int(rng.integers(100))))


class TestStats:
    def test_single_segment(self):
        p = SuperpointPartition(np.zeros(7, dtype=np.int64))
        stats = partition_stats(p)
        assert stats["segment_count"] == 1
        assert stats["size_histogram"] == {7: 1}

    def test_median(self):
        p = SuperpointPartition(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2]))
        assert partition_stats(p)["median_size"] == 3.0

    def test_sizes_sum_to_n(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 100))
            u = int(rng.integers(1, n + 1))
            assignment = rng.integers(0, u, n)
            assignment[:u] = np.arange(u)  # keep ids dense
            p = SuperpointPartition(assignment)
            stats = partition_stats(p)
            total = sum(size * count for size, count in stats["size_histogram"].items())
            assert total == n


class TestPartitionIO:
    def test_round_trip(self, tmp_path, rng):
        p = SuperpointPartition(rng.integers(0, 3, 20) % 3)
        path = tmp_path / "p.json"
        save_partition_json(p, path)
        back = load_partition_json(path)
        assert np.array_equal(back.assignment, p.assignment)

    def test_inconsistent_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 5, "u": 1, "assignment": [0, 0, 0]}')
        with pytest.raises(ValueError, match="inconsistent"):
            load_partition_json(path)

    @pytest.mark.parametrize("key", ["assignment", "n", "u"])
    def test_missing_key_named(self, tmp_path, key):
        path = tmp_path / "bad.json"
        payload = {"n": 3, "u": 1, "assignment": [0, 0, 0]}
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"bad.json has no '{key}' key"):
            load_partition_json(path)

    @pytest.mark.parametrize("assignment, entry", [
        ([0.5, 0.2, 0.9], "entry 0 is not an integer: 0.5"),
        ([True, False], "entry 0 is not an integer: True"),
        ([0, 10**23], "entry 1 is out of the int64 range: 100000000000000000000000"),
        (5, "is not a list: 5"),
    ])
    def test_non_integer_entry_named(self, tmp_path, assignment, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "u": 1, "assignment": assignment}))
        with pytest.raises(ValueError, match=f"bad.json: assignment {entry}"):
            load_partition_json(path)

    def test_empty_assignment_loads(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0, "u": 0, "assignment": []}')
        assert len(load_partition_json(path)) == 0
