import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from pclabel import (
    KnnClassifier,
    LogitNoiseSpec,
    PointCloud,
    SceneSpec,
    SpatialIndex,
    StlpConfig,
    build_index,
    corrupt_logits,
    estimate_normals,
    generate_scene,
)
from pclabel import domain, pointcloud, stlp, synth
from pclabel.pointcloud import DEGENERATE_EIGENGAP

from conftest import (
    MISMATCHED_INDEX,
    assert_knn_rows,
    block_oracle_clouds,
    brute_force_knn,
    force_blocks,
    lattice_cloud,
    make_cloud,
    record_queries,
    shuffled_lattice,
)


class TestPointCloud:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)), np.zeros((3, 3), dtype=np.uint8))

    def test_rejects_nan(self):
        pos = np.zeros((2, 3))
        pos[1, 1] = np.nan
        with pytest.raises(ValueError, match="position of point 1 is not finite"):
            PointCloud(pos, np.zeros((2, 3), dtype=np.uint8))

    def test_rejects_out_of_range_colors(self):
        with pytest.raises(ValueError, match="color"):
            PointCloud(np.zeros((1, 3)), np.array([[0, 0, 300]]))

    def test_count(self, rng):
        assert make_cloud(rng, 17).count == 17


class TestSpatialIndex:
    def test_collinear_endpoint(self):
        # 3-point collinear cloud, k=2: each endpoint's row holds no tie.
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        idx, dist = SpatialIndex(pos).neighbors(pos, 2)
        assert idx[[0, 2]].tolist() == [[0, 1], [2, 1]]
        assert idx[0].tolist() == brute_force_knn(pos, pos[0], 2).tolist()
        assert np.allclose(dist[[0, 2]], [[0.0, 1.0], [0.0, 1.0]])

    def test_k_equals_n_is_permutation(self, rng):
        cloud = make_cloud(rng, 40)
        idx, dist = build_index(cloud).neighbors(cloud.positions, 40)
        assert all(sorted(row) == list(range(40)) for row in idx.tolist())
        assert_knn_rows(cloud.positions, idx, dist)

    def test_k_zero_empty(self, rng):
        cloud = make_cloud(rng, 5)
        idx, dist = build_index(cloud).neighbors(cloud.positions, 0)
        assert idx.shape == (5, 0) and dist.shape == (5, 0)

    def test_matches_brute_force(self, rng):
        # Randomized oracle check over full distance sorts.
        for _ in range(100):
            n = int(rng.integers(1, 500))
            pos = rng.random((n, 3)) * 10
            k = int(rng.integers(1, n + 1))
            got, dist = SpatialIndex(pos).neighbors(pos, k)
            for row in rng.integers(0, n, 5):
                assert got[row].tolist() == brute_force_knn(pos, pos[row], k).tolist()
            assert np.all(np.diff(dist, axis=1) >= 0)

    def test_batch_matches_full_lexsort_on_lattice(self, rng):
        # A shuffled integer lattice has exact distance ties in most rows.
        # Where they fall at the k-th distance, cKDTree alone keeps the tied
        # points its search meets first; the index keeps the lowest indices,
        # as a full (distance, index) sort does.
        g = np.arange(5, dtype=np.float64)
        pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        pos = pos[rng.permutation(len(pos))]
        index = SpatialIndex(pos)
        picked_otherwise = 0
        for k in (1, 2, 7, 16, 27):
            got_i, got_d = index.neighbors(pos, k)
            for row, point in enumerate(pos):
                want = brute_force_knn(pos, point, k)
                assert got_i[row].tolist() == want.tolist()
                assert np.array_equal(got_d[row], np.sqrt(((pos[want] - point) ** 2).sum(axis=1)))
            tree_i = cKDTree(pos).query(pos, k=k)[1].reshape(len(pos), k)
            picked_otherwise += int((np.sort(tree_i, axis=1) != np.sort(got_i, axis=1))
                                    .any(axis=1).sum())
        assert picked_otherwise > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_overflowing_distances_are_refused(self, k):
        # The squared distance between 1e200 and -1e200 is inf, which
        # cKDTree answers as a missing neighbour, index 4 of 4 points.
        pos = np.array([[0.0, 0, 0], [1e200, 0, 0], [-1e200, 0, 0], [0, 1e200, 0]])
        index = SpatialIndex(pos)
        with pytest.raises(ValueError, match=f"of its {k} nearest points overflows float64"):
            index.neighbors(pos, k)
        assert index.neighbors(pos, 1)[0].tolist() == [[0], [1], [2], [3]]


    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_positions_are_refused(self, value):
        pos = np.zeros((4, 3))
        pos[2, 1] = value
        with pytest.raises(ValueError, match="^position of point 2 is not finite$"):
            SpatialIndex(pos)


class TestSharedQuery:
    """A query of the index's own points is served from its largest earlier one."""

    def test_smaller_k_matches_fresh_query(self):
        # The smaller answer is the prefix of the cached one. Only in rows
        # whose k-th and (k+1)-th distances tie could a tree's own pick at k
        # differ from it; on a lattice with duplicate points many rows do.
        tied_at_k = []

        @given(st.integers(2, 5), st.integers(0, 12), st.integers(0, 2**32 - 1),
               st.integers(2, 40).flatmap(
                   lambda k1: st.tuples(st.just(k1), st.integers(1, k1 - 1))))
        def check(side, duplicates, seed, ks):
            pos = shuffled_lattice(np.random.default_rng(seed), side, duplicates)
            k1, k2 = ks
            index = SpatialIndex(pos)
            i1, d1 = index.neighbors(pos, k1)
            # An equal copy of the points is the same cloud.
            got_i, got_d = index.neighbors(pos.copy(), k2)
            want_i, want_d = SpatialIndex(pos).neighbors(pos, k2)
            assert np.array_equal(got_i, want_i) and np.array_equal(got_d, want_d)
            assert np.array_equal(index.neighbors(pos, k1)[0], i1)
            k1, k2 = min(k1, len(pos)), min(k2, len(pos))
            if k2 < k1:
                tied_at_k.append(int((d1[:, k2 - 1] == d1[:, k2]).sum()))

        check()
        assert sum(tied_at_k) > 0

    def test_larger_k_replaces_the_cached_answer(self, rng):
        pos = shuffled_lattice(rng, 4, 6)
        index = SpatialIndex(pos)
        for k in (3, 9, 5, 20, 20, 1):
            got_i, got_d = index.neighbors(pos, k)
            want_i, want_d = SpatialIndex(pos).neighbors(pos, k)
            assert np.array_equal(got_i, want_i) and np.array_equal(got_d, want_d)

    def test_answers_are_read_only(self, rng):
        # Every return path: empty rows, the cached answer itself and a
        # prefix of it, with no ties at k=4 (random points) and with some
        # (the lattice).
        lattice = shuffled_lattice(rng, 3, 2)
        scattered = make_cloud(rng, 30).positions
        for pos, k, ties in ((lattice, 0, None), (lattice, 6, None),
                             (scattered, 4, False), (lattice, 4, True)):
            index = SpatialIndex(pos)
            d = index.neighbors(pos, 6)[1]
            if ties is not None:
                assert (d[:, k - 1] == d[:, k]).any() == ties
            want = [a.copy() for a in index.neighbors(pos, k)]
            for answer in index.neighbors(pos, k):
                with pytest.raises(ValueError, match="read-only"):
                    answer[...] = -1
            got = index.neighbors(pos, k)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("k", [2.5, True, "3", float("nan")])
    def test_k_must_be_an_integer(self, k):
        pos = make_cloud(np.random.default_rng(0), 10).positions
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
            SpatialIndex(pos).neighbors(pos, k)


class TestTreeLayout:
    """The index and the classifier build sliding-midpoint trees; synth keeps
    scipy's median split. Under the (distance, index) rule no answer
    depends on the layout."""

    def test_each_site_builds_its_layout(self, monkeypatch):
        # Measured on a scene-100k room (108,700 points) on a shared 2-vCPU
        # machine, one thread, build plus query, median of 9 interleaved
        # runs, scipy's default build against sliding-midpoint: the index's
        # k = 16 self-query 0.321 against 0.307 s; the classifier's k = 15
        # query of the room's rescan 0.392 against 0.366 s, its 6-D tree's
        # build alone 0.034 against 0.022 s. synth's bounded k = 1 queries,
        # one tree per class, took 0.096 against 0.117 s, so its trees keep
        # the default.
        cloud, labels = lattice_cloud(0)
        index_calls = record_queries(monkeypatch, pointcloud)
        knn_calls = record_queries(monkeypatch, stlp)
        synth_calls = record_queries(monkeypatch, synth)
        SpatialIndex(cloud.positions).neighbors(cloud.positions, 9)
        KnnClassifier(StlpConfig(knn_k=9)).fit(cloud, labels).predict(cloud)
        corrupt_logits(labels, cloud, LogitNoiseSpec(boundary_blur=1.0, seed=0))
        sliding = {(("balanced_tree", False),)}
        assert {tuple(c["build"].items()) for c in index_calls} == sliding
        assert {tuple(c["build"].items()) for c in knn_calls} == sliding
        assert {tuple(c["build"].items()) for c in synth_calls} == {()}

    @staticmethod
    def answers(cloud, labels):
        pos = cloud.positions
        index = SpatialIndex(pos)
        # A fresh query at each k, then the prefixes of the k = 27 answer.
        out = [a for k in (1, 4, 9, 27) for a in SpatialIndex(pos).neighbors(pos, k)]
        out += [a for k in (27, 9, 4, 1) for a in index.neighbors(pos, k)]
        for k in (1, 6, 15):
            pred, conf = KnnClassifier(StlpConfig(knn_k=k)).fit(cloud, labels).predict(cloud)
            out += [pred.values, conf]
        return out

    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("compact", [True, False])
    def test_answers_do_not_depend_on_the_layout(self, monkeypatch, balanced, compact):
        cloud, labels = lattice_cloud(3)
        want = self.answers(cloud, labels)
        for leafsize in range(1, 33):
            with monkeypatch.context() as m:
                record_queries(m, pointcloud, stlp, build=dict(
                    balanced_tree=balanced, compact_nodes=compact, leafsize=leafsize))
                got = self.answers(cloud, labels)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), leafsize


class TestEstimateNormals:
    def test_flat_plane(self, rng):
        pos = np.zeros((100, 3))
        pos[:, :2] = rng.random((100, 2))
        cloud = PointCloud(pos, np.zeros((100, 3), dtype=np.uint8))
        normals = estimate_normals(cloud, build_index(cloud), 16)
        assert np.allclose(normals, [0.0, 0.0, 1.0], atol=1e-9)

    def test_diagonal_plane_sign(self, rng):
        # Points on x + y = const: the analytic normal is (±1/√2, ±1/√2, 0)
        # and the sign rule selects the positive-leading-component one.
        t = rng.random((200, 2))
        pos = np.stack([t[:, 0], -t[:, 0], t[:, 1]], axis=1)
        cloud = PointCloud(pos, np.zeros((200, 3), dtype=np.uint8))
        normals = estimate_normals(cloud, build_index(cloud), 16)
        expected = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert np.allclose(normals, expected, atol=1e-6)

    def test_noisy_plane_angular_error(self):
        # Monte-Carlo oracle over 20 seeds: sigma=0.01 jitter at 0.1 spacing
        # keeps the aggregate angular error well under 5 degrees.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            xy = np.stack(np.meshgrid(np.arange(20) * 0.1, np.arange(20) * 0.1),
                          axis=-1).reshape(-1, 2)
            pos = np.concatenate([xy, rng.normal(0, 0.01, (len(xy), 1))], axis=1)
            cloud = PointCloud(pos, np.zeros((len(xy), 3), dtype=np.uint8))
            normals = estimate_normals(cloud, build_index(cloud), 16)
            dots = np.clip(np.abs(normals[:, 2]), -1, 1)
            angles = np.degrees(np.arccos(dots))
            assert angles.mean() < 5.0
            assert np.percentile(angles, 95) < 5.0

    def test_rigid_motion_equivariance(self, rng):
        cloud = make_cloud(rng, 300)
        index = build_index(cloud)
        normals = estimate_normals(cloud, index, 12)
        theta = 0.35
        rot = np.array([
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, 1.0],
        ])
        moved = PointCloud(cloud.positions @ rot.T + np.array([5.0, -2.0, 1.0]),
                           cloud.colors)
        moved_normals = estimate_normals(moved, build_index(moved), 12)
        expected = normals @ rot.T
        # compare up to the per-point sign rule
        agree = np.abs(np.einsum("ij,ij->i", moved_normals, expected))
        assert np.allclose(agree, 1.0, atol=1e-6)

    def test_unit_length(self, rng):
        cloud = make_cloud(rng, 120)
        normals = estimate_normals(cloud, build_index(cloud), 8)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-6)

    def test_k_validation(self, rng):
        cloud = make_cloud(rng, 10)
        index = build_index(cloud)
        with pytest.raises(ValueError):
            estimate_normals(cloud, index, 2)
        with pytest.raises(ValueError):
            estimate_normals(cloud, index, 11)

    def test_k_beyond_the_neighbourhood_bound(self, rng):
        # k = n would hold an n-by-n neighbour table; the bound caps k
        # below the point count of any real scan.
        cloud = make_cloud(rng, 100)
        with pytest.raises(ValueError, match=r"^k must lie in \[3, 64\], got 65$"):
            estimate_normals(cloud, build_index(cloud), 65)
        assert estimate_normals(cloud, build_index(cloud), 64).shape == (100, 3)

    @pytest.mark.parametrize("cloud_n, index_n, shift", MISMATCHED_INDEX)
    def test_index_over_other_points_refused(self, rng, cloud_n, index_n, shift):
        full = make_cloud(rng, 400)
        cloud = PointCloud(full.positions[:cloud_n], full.colors[:cloud_n])
        index = SpatialIndex(full.positions[:index_n] + shift)
        with pytest.raises(ValueError, match=f"built over {index_n} points, "
                                             f"not over this cloud of {cloud_n} points"):
            estimate_normals(cloud, index, 16)

    def test_degenerate_line_is_deterministic(self):
        # Collinear points: two smallest eigenvalues tie; the tie rule picks
        # one deterministic normal.
        pos = np.zeros((10, 3))
        pos[:, 0] = np.arange(10) * 0.1
        cloud = PointCloud(pos, np.zeros((10, 3), dtype=np.uint8))
        a = estimate_normals(cloud, build_index(cloud), 5)
        b = estimate_normals(cloud, build_index(cloud), 5)
        assert np.array_equal(a, b)
        assert np.allclose(np.abs(a[:, 0]), 0.0, atol=1e-9)


def literal_estimate_normals(cloud, index, k):
    """estimate_normals as it read before its rows were blocked: the whole
    (n, k, 3) neighborhood at once. Kept literally as the byte oracle."""
    n = cloud.count
    idx, _ = index.neighbors(cloud.positions, k)
    nb = cloud.positions[idx]
    centered = nb - nb.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    vals, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0].copy()

    gap = vals[:, 1] - vals[:, 0]
    for row in np.flatnonzero(gap <= DEGENERATE_EIGENGAP):
        cand = np.flatnonzero(vals[row] <= vals[row, 0] + DEGENERATE_EIGENGAP)
        best = max(cand, key=lambda c: tuple(np.abs(vecs[row, :, c])))
        normals[row] = vecs[row, :, best]

    lead = np.argmax(np.abs(normals), axis=1)
    flip = normals[np.arange(n), lead] < 0
    normals[flip] *= -1.0
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    return normals / norms


class TestRowBlocks:
    @staticmethod
    def check(rng, monkeypatch, workers, rows, k):
        for name, cloud in block_oracle_clouds(rng).items():
            want = literal_estimate_normals(cloud, build_index(cloud), k)
            force_blocks(monkeypatch, workers, rows, 3 * k)
            got = estimate_normals(cloud, build_index(cloud), k)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("rows", [1, 7, 40, 10**9])
    @pytest.mark.parametrize("k", [4, 16])
    def test_block_size_does_not_change_normals(self, rng, monkeypatch, rows, k):
        self.check(rng, monkeypatch, 1, rows, k)

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_worker_count_does_not_change_normals(self, rng, monkeypatch, workers):
        self.check(rng, monkeypatch, workers, 7, 16)

    def test_cores_counted_where_affinity_is_unknown(self, rng, monkeypatch):
        # Off Linux, os has no sched_getaffinity; the machine's cores count.
        for name, cloud in block_oracle_clouds(rng).items():
            want = literal_estimate_normals(cloud, build_index(cloud), 16)
            monkeypatch.delattr(domain.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(domain.os, "cpu_count", lambda: 3)
            monkeypatch.setattr(domain, "BLOCK_ENTRIES", 7 * 48 * 3)
            got = estimate_normals(cloud, build_index(cloud), 16)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes(), name

    def test_peak_memory_does_not_grow_with_n_times_k(self, monkeypatch):
        # A 42,616-point room at k=16, its neighbors already queried. The
        # whole (n, k, 3) neighborhood and its centered copy peaked at
        # 52 MiB; in blocks it is the neighbor rows plus about 2 MiB per
        # block array, 16 MiB in all, however many workers share them.
        cloud = generate_scene(SceneSpec(density=1000.0))[0]
        index = build_index(cloud)
        index.neighbors(cloud.positions, 16)
        for workers in (1, 8):
            force_blocks(monkeypatch, workers)
            tracemalloc.start()
            try:
                estimate_normals(cloud, index, 16)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20 * 2**20, workers
