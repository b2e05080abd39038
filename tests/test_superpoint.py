import json
import re
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from pclabel import (
    PointCloud,
    SceneSpec,
    SpatialIndex,
    SuperpointParams,
    SuperpointPartition,
    build_index,
    estimate_normals,
    generate_scene,
    oversegment,
    partition_stats,
)
from pclabel import pointcloud, superpoint
from pclabel.superpoint import (
    EDGE_LENGTH_PERCENTILE,
    _components,
    _distinct,
    _merge_small_segments,
    load_partition_json,
    partition_cloud,
    save_partition_json,
)

from conftest import (
    MISMATCHED_INDEX,
    block_oracle_clouds,
    force_blocks,
    make_cloud,
    record_queries,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def plane_cloud(rng, n=200):
    pos = np.zeros((n, 3))
    pos[:, :2] = rng.random((n, 2))
    return PointCloud(pos, np.zeros((n, 3), dtype=np.uint8))


def assert_valid_partition(partition, n):
    assert len(partition) == n
    u = partition.segment_count
    ids = np.unique(partition.assignment)
    assert np.array_equal(ids, np.arange(u))
    assert np.bincount(partition.assignment, minlength=u).sum() == n


class TestPartitionType:
    def test_rejects_sparse_ids(self):
        with pytest.raises(ValueError, match="dense"):
            SuperpointPartition(np.array([0, 2, 2]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SuperpointPartition(np.array([-1, 0]))

    @pytest.mark.parametrize("values, fault", [
        ([0, 0, -1], "point 2 has id -1, outside [0, 3)"),
        ([0, 3, 1], "point 1 has id 3, outside [0, 3)"),
        ([2, 0, 2], "id 1 has no point"),
    ])
    def test_names_its_fault(self, values, fault):
        with pytest.raises(ValueError) as raised:
            SuperpointPartition(np.array(values))
        assert str(raised.value) == f"segment ids must be dense in [0, U), but {fault}"

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

    @pytest.mark.parametrize("min_size", [0, -3, 2.5, float("nan"), True])
    def test_min_size_validated(self, rng, min_size):
        cloud = make_cloud(rng, 10)
        normals = np.tile([0.0, 0.0, 1.0], (10, 1))
        with pytest.raises(ValueError, match="^min_size must "):
            oversegment(cloud, normals, build_index(cloud), 10.0, 4, min_size)

    def test_mismatched_normals(self, rng):
        cloud = make_cloud(rng, 10)
        with pytest.raises(ValueError, match="match"):
            oversegment(cloud, np.zeros((5, 3)), build_index(cloud), 10.0, 4, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_normals_are_refused(self, rng, value):
        cloud = make_cloud(rng, 50)
        normals = np.tile([0.0, 0.0, 1.0], (50, 1))
        normals[7:, 0] = value
        with pytest.raises(ValueError, match="^normal of point 7 is not finite$"):
            oversegment(cloud, normals, build_index(cloud), 10.0, 4, 1)

    @pytest.mark.parametrize("cloud_n, index_n, shift", MISMATCHED_INDEX)
    def test_index_over_other_points_refused(self, rng, cloud_n, index_n, shift):
        full = make_cloud(rng, 400)
        cloud = PointCloud(full.positions[:cloud_n], full.colors[:cloud_n])
        normals = estimate_normals(cloud, build_index(cloud), 16)
        index = SpatialIndex(full.positions[:index_n] + shift)
        with pytest.raises(ValueError, match=f"built over {index_n} points, "
                                             f"not over this cloud of {cloud_n} points"):
            oversegment(cloud, normals, index, 10.0, 8, 1)


def _first_occurrence_relabel(labels, count):
    """Oracle helper, the relabel the merge once ended with: segment ids in
    the order in which each segment's first point appears."""
    first = np.full(count, labels.size, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(labels.size))
    remap = np.empty(count, dtype=np.int64)
    remap[np.argsort(first, kind="stable")] = np.arange(count)
    return remap[labels]


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


def _chain(rng):
    """200 segments of one to three points along a line, ids in line order.
    min_size exceeds the point count, so each fold leaves a group the pass
    reaches again, and the last group holds every segment."""
    raw = np.repeat(np.arange(200), rng.integers(1, 4, 200))
    line = np.arange(raw.size)
    return raw, np.stack([line[:-1], line[1:]], axis=1), raw.size + 1


def _star(hub_size):
    """60 one-point leaves around a hub whose id lies between theirs. Each
    leaf has one edge to the hub and one to each ring neighbor, so leaves tie
    between the hub and other leaves."""
    hub = 30 + np.arange(hub_size)
    leaves = np.concatenate([np.arange(30), 30 + hub_size + np.arange(30)])
    raw = np.concatenate([np.arange(30), np.full(hub_size, 30), np.arange(31, 61)])
    spokes = np.stack([leaves, hub[np.arange(60) % hub_size]], axis=1)
    ring = np.stack([leaves, np.roll(leaves, -1)], axis=1)
    return raw, np.concatenate([spokes, ring]), 3


def _lattice(points, raw, min_size):
    """A 24 x 24 grid with 4-neighbor edges; `points` numbers its nodes and
    `raw` gives each point's segment."""
    ids = points.reshape(24, 24)
    edges = np.concatenate([np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
                            np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1)])
    return raw, edges, min_size


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

    @pytest.mark.parametrize("case", [
        pytest.param(_chain(np.random.default_rng(0)), id="chain"),
        pytest.param(_star(1), id="star-undersized-hub"),
        pytest.param(_star(40), id="star"),
        pytest.param(_lattice(np.arange(576), np.arange(576), 4), id="lattice"),
        pytest.param(_lattice(np.random.default_rng(1).permutation(576), np.arange(576), 4),
                     id="lattice-shuffled-ids"),
        pytest.param(_lattice(np.arange(576), np.random.default_rng(2).integers(0, 150, 576),
                              6), id="lattice-scattered-segments"),
    ])
    def test_structured_graphs_match_literal_oracle(self, case):
        raw_labels, edges, min_size = case
        labels, src, dst = _merge_case(raw_labels, edges)
        got = _merge_small_segments(labels, src, dst, min_size)
        assert np.array_equal(got, literal_merge_oracle(labels, src, dst, min_size))

    def test_merge_peak_memory(self, monkeypatch):
        # The inputs oversegment passes the merge for a 64,155-point room
        # under room-small's training partition: 45,519 components. With a
        # segment-pair table and a dict per segment the merge peaked at
        # 51 MiB; reading the rows of undersized segments only, 18 MiB.
        captured = []
        merge = superpoint._merge_small_segments
        monkeypatch.setattr(superpoint, "_merge_small_segments",
                            lambda *args: captured.append(args) or args[0])
        cloud = generate_scene(SceneSpec(noise_sigma=0.02, density=1500.0))[0]
        partition_cloud(cloud, SuperpointParams(angle_threshold=5.5, min_size=4))
        (args,) = captured
        assert (args[0].size, int(args[0].max()) + 1) == (64_155, 45_519)
        tracemalloc.start()
        try:
            merge(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_int32_edges_past_the_key_range(self):
        # The merge keys an edge as point * point count + point. On ~50,000
        # points that passes 2**31 from point 42,950 on, so int32 edges, as
        # oversegment passes them, must give the answer of int64 ones.
        rng = np.random.default_rng(3)
        raw = np.repeat(np.arange(20_000), rng.integers(1, 5, 20_000))
        line = np.arange(raw.size)
        edges = np.concatenate([np.stack([line[:-1], line[1:]], axis=1),
                                rng.integers(0, raw.size, (raw.size, 2))])
        labels, src, dst = _merge_case(raw, edges)
        assert labels.size > 46_341
        want = _merge_small_segments(labels, src, dst, 4)
        assert want.max() < labels.max()  # segments merged
        got = _merge_small_segments(labels, src.astype(np.int32), dst.astype(np.int32), 4)
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


def literal_oversegment(cloud, normals, index, angle_threshold, adjacency_k, min_size):
    """oversegment as it read before its edges were blocked: the angle gate
    over every edge at once. Kept literally as the byte oracle, with the
    merge replaced by its own oracle."""
    n = cloud.count
    idx, dist = index.neighbors(cloud.positions, min(adjacency_k + 1, n))
    not_self = idx != np.arange(n)[:, None]
    keep = np.cumsum(not_self, axis=1) <= adjacency_k
    take = not_self & keep
    src = np.repeat(np.arange(n), take.sum(axis=1))
    dst = idx[take]
    length = dist[take]

    max_len = np.percentile(length, EDGE_LENGTH_PERCENTILE)
    cos = np.einsum("ij,ij->i", normals[src], normals[dst])
    angle = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    passes = (angle <= angle_threshold) & (length <= max_len)

    graph = csr_matrix(
        (np.ones(int(passes.sum()), dtype=np.int8), (src[passes], dst[passes])),
        shape=(n, n),
    )
    _, labels = connected_components(graph, directed=False)
    return literal_merge_oracle(labels.astype(np.int64), src, dst, min_size)


class TestEdgeBlocks:
    @staticmethod
    def check(rng, monkeypatch, workers, edges, min_size, angle):
        for name, cloud in block_oracle_clouds(rng).items():
            # Axis normals meet at exactly 0 or 90 degrees, on the gate.
            for normals in (estimate_normals(cloud, build_index(cloud), 16),
                            np.eye(3)[rng.integers(0, 3, cloud.count)]):
                want = literal_oversegment(cloud, normals, build_index(cloud),
                                           angle, 10, min_size)
                force_blocks(monkeypatch, workers, edges, 3)
                got = oversegment(cloud, normals, build_index(cloud), angle, 10,
                                  min_size)
                monkeypatch.undo()
                assert got.assignment.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("edges", [1, 7, 40, 10**9])
    @pytest.mark.parametrize("min_size", [1, 4, 20])
    @pytest.mark.parametrize("angle", [15.0, 90.0])
    def test_block_size_does_not_change_partition(self, rng, monkeypatch, edges,
                                                   min_size, angle):
        self.check(rng, monkeypatch, 1, edges, min_size, angle)

    @pytest.mark.parametrize("workers", [1, 2, 7])
    @pytest.mark.parametrize("angle", [15.0, 90.0])
    def test_worker_count_does_not_change_partition(self, rng, monkeypatch, workers, angle):
        self.check(rng, monkeypatch, workers, 7, 4, angle)

    def test_peak_memory_does_not_grow_with_edge_gathers(self, monkeypatch):
        # A 42,616-point room, its normals estimated and neighbors queried.
        # Gathering both ends' normals for every edge at once, with every
        # per-edge array alive through the merge, peaked at 42 MiB; in
        # blocks it is 19 MiB, most of it scipy's copies of the graph,
        # however many workers share the blocks.
        cloud = generate_scene(SceneSpec(density=1000.0))[0]
        index = build_index(cloud)
        normals = estimate_normals(cloud, index, 16)
        for workers in (1, 8):
            force_blocks(monkeypatch, workers)
            index.neighbors(cloud.positions, 16)  # the query oversegment releases
            tracemalloc.start()
            try:
                oversegment(cloud, normals, index, 15.0, 10, 4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20 * 2**20, workers


class TestSharedQuery:
    """Normals (k=16) and the graph (k=11) read one k-d query of the cloud,
    which oversegment releases once its edges are cut. A query for k asks
    cKDTree for k + 1 neighbours (`pclabel.pointcloud.k_nearest`); the
    random clouds here hold no distance ties, so none asks again."""

    def test_one_query_per_cloud(self, rng, monkeypatch):
        cloud = make_cloud(rng, 400)
        calls = record_queries(monkeypatch, pointcloud)
        partition_cloud(cloud, SuperpointParams(min_size=4))
        assert [(c["k"], c["rows"]) for c in calls] == [(17, 400)]

    def test_traced_component_count_queries_again(self, rng, monkeypatch):
        # The benchmark's trace counts components with a second
        # oversegment(min_size=1) call on the same index, after the first
        # has released the cached query.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import spans

        cloud = make_cloud(rng, 400)
        calls = record_queries(monkeypatch, pointcloud)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = partition_cloud(cloud, SuperpointParams(min_size=4))
        assert [(c["k"], c["rows"]) for c in calls] == [(17, 400), (12, 400)]
        table = tracer.layer_table()
        assert table["trace.components"]["calls"] == 1
        counts = table["superpoint.oversegment"]["counts"]
        assert counts["components"] > counts["segments"] == traced.segment_count
        untraced = partition_cloud(cloud, SuperpointParams(min_size=4))
        assert np.array_equal(traced.assignment, untraced.assignment)

    def test_cache_is_gone_before_the_merge(self, rng, monkeypatch):
        cloud = make_cloud(rng, 400)
        index = build_index(cloud)
        normals = estimate_normals(cloud, index, 16)
        # The arrays that own the memory of the index's cached query.
        cached = [weakref.ref(a if a.base is None else a.base) for a in index._own[1:]]
        alive = []
        merge = superpoint._merge_small_segments

        def spy(*args):
            alive.extend(ref() is not None for ref in cached)
            return merge(*args)

        monkeypatch.setattr(superpoint, "_merge_small_segments", spy)
        oversegment(cloud, normals, index, 15.0, 10, 4)
        assert alive == [False, False]

    def test_partition_peak_memory(self):
        # A 42,616-point room. The cached k=16 query (10 MiB) is released
        # once oversegment has cut its edges, and answers are views of it:
        # 20 MiB. Held through the merge, with each answer a copy, the
        # stage peaked at 30 MiB.
        cloud = generate_scene(SceneSpec(density=1000.0))[0]
        tracemalloc.start()
        try:
            partition_cloud(cloud, SuperpointParams(min_size=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_oversegment_peak_memory(self):
        # oversegment alone on the same room, given its analytic normals and
        # an index built beforehand: the k=11 query, the edges and scipy's
        # component labeling. With int64 edges copied into a COO graph,
        # which scipy sorted into CSR and cast to float64, it peaked at
        # 18.2 MiB; with int32 CSR rows that scipy shares, 13.1 MiB.
        cloud, _, _, normals = generate_scene(SceneSpec(density=1000.0))
        index = build_index(cloud)
        tracemalloc.start()
        try:
            oversegment(cloud, normals, index, 15.0, 10, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20


class TestComponentOrder:
    """oversegment passes scipy's component labels to the merge unchanged,
    relying on scipy numbering components in order of their lowest node.
    `_components` hands scipy CSR rows, which must label as the COO graph
    of the same edges does."""

    @settings(max_examples=300)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=2 * n))))
    @example((5, []))
    @example((4, [(3, 0), (2, 1)]))
    def test_components_are_numbered_by_first_occurrence(self, case):
        n, edges = case
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        graph = csr_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                           shape=(n, n))
        count, labels = connected_components(graph, directed=False)
        labels = labels.astype(np.int64)
        assert np.array_equal(labels, _first_occurrence_relabel(labels, count))

    @settings(max_examples=300)
    @given(st.integers(1, 40).flatmap(lambda n: st.one_of(
        st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n),
        # The merge's last labeling: one edge per row, segment s to owner[s].
        st.lists(st.integers(0, n - 1).map(lambda owner: [owner]), min_size=n, max_size=n))),
        st.sampled_from([np.int32, np.int64]))
    @example([[], [], []], np.int32)  # no edges
    @example([[1, 1], [0], [2, 2, 2], []], np.int32)  # duplicates, self-loops
    @example([[0], [0], [1], [3]], np.int32)
    def test_csr_rows_match_scipy_coo_labels(self, rows, dtype):
        # Row i lists the far ends of node i's edges.
        n = len(rows)
        indices = np.array([far for row in rows for far in row], dtype=dtype)
        indptr = np.concatenate([[0], np.cumsum([len(row) for row in rows])]).astype(dtype)
        got = _components(indices, indptr, n)
        src = np.repeat(np.arange(n), np.diff(indptr))
        graph = csr_matrix((np.ones(indices.size, dtype=np.int8),
                            (src, indices.astype(np.int64))), shape=(n, n))
        want = connected_components(graph, directed=False)[1]
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestDistinct:
    @settings(max_examples=300)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=50)
           | st.lists(st.integers(-3, 3), max_size=50))
    @example([])
    @example([7])
    @example([4, 4, 4, 4])
    def test_matches_np_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        want = np.unique(keys)
        got = _distinct(keys)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


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

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 40), max_size=40))
    @example([])
    @example(list(range(40)))
    def test_save_writes_sorted_key_json(self, ids):
        # np.unique's inverse makes the drawn ids dense; distinct ids give u = n.
        p = SuperpointPartition(np.unique(np.asarray(ids, dtype=np.int64),
                                          return_inverse=True)[1])
        payload = {"n": len(p), "u": p.segment_count, "assignment": p.assignment.tolist()}
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/p.json"
            save_partition_json(p, path)
            with open(path, "rb") as f:
                assert f.read() == (json.dumps(payload, sort_keys=True) + "\n").encode("ascii")

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
        with pytest.raises(ValueError) as raised:
            load_partition_json(path)
        assert str(raised.value) == f"{path}: no '{key}' key"

    @pytest.mark.parametrize("payload, message", [
        ({"n": 3, "u": 2, "assignment": [0, 2, 2]},
         "segment ids must be dense in [0, U), but id 1 has no point"),
        ({"n": 3.0, "u": 1, "assignment": [0, 0, 0]}, "n must be an integer, got 3.0"),
        ({"n": 3, "u": True, "assignment": [0, 0, 0]}, "u must be an integer, got True"),
        ({"n": 3, "u": float("nan"), "assignment": [0, 0, 0]}, "u must be an integer, got nan"),
        ({"n": 10**20, "u": 1, "assignment": [0, 0, 0]},
         f"n={10**20} is inconsistent with the assignment, which has n=3"),
    ])
    def test_every_rule_names_the_file(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as raised:
            load_partition_json(path)
        assert str(raised.value) == f"{path}: {message}"

    @pytest.mark.parametrize("assignment, entry", [
        pytest.param([0.5, 0.2, 0.9], "entry 0 must be an integer in [0, 3), got 0.5",
                     id="assignment0-entry 0 is not an integer: 0.5"),
        pytest.param([True, False], "entry 0 must be an integer in [0, 2), got True",
                     id="assignment1-entry 0 is not an integer: True"),
        pytest.param([0, 10**23],
                     "entry 1 must be an integer in [0, 2), got 100000000000000000000000",
                     id="assignment2-entry 1 is out of the int64 range: "
                        "100000000000000000000000"),
        pytest.param([0, -1], "entry 1 must be an integer in [0, 2), got -1",
                     id="entry-below-zero"),
        (5, "is not a list: 5"),
    ])
    def test_non_integer_entry_named(self, tmp_path, assignment, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "u": 1, "assignment": assignment}))
        with pytest.raises(ValueError, match=re.escape(f"bad.json: assignment {entry}")):
            load_partition_json(path)

    @pytest.mark.parametrize("bad, shown", [("true", "True"), ("0.5", "0.5"), ("-1", "-1"),
                                            ("7", "7")])
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_first_bad_entry_named(self, tmp_path, bad, shown, position):
        # Seven entries, so 7 is the first id out of range; a later bad
        # entry of another kind must not be the one named.
        entries = ["0", "1", "2", "0", "1", "2", "0"]
        entries[position] = bad
        if position < 6:
            entries[6] = "false"
        path = tmp_path / "bad.json"
        path.write_text('{"n": 7, "u": 3, "assignment": [' + ", ".join(entries) + "]}")
        with pytest.raises(ValueError) as raised:
            load_partition_json(path)
        assert str(raised.value) == (f"{path}: assignment entry {position} must be an "
                                     f"integer in [0, 7), got {shown}")

    def test_empty_assignment_loads(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0, "u": 0, "assignment": []}')
        assert len(load_partition_json(path)) == 0
