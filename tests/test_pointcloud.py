import numpy as np
import pytest
from scipy.spatial import cKDTree

from pclabel import PointCloud, SpatialIndex, build_index, estimate_normals

from conftest import make_cloud


def brute_force_knn(positions, query, k):
    """Independent oracle: full distance sort with (distance, index) ties."""
    d2 = ((positions - query) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(positions)), d2))
    return order[:k]


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
        # 3-point collinear cloud, k=2, query at an endpoint.
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        idx, dist = SpatialIndex(pos).k_nearest([0.0, 0.0, 0.0], 2)
        assert idx.tolist() == [0, 1]
        assert np.allclose(dist, [0.0, 1.0])

    def test_k_equals_n_is_permutation(self, rng):
        cloud = make_cloud(rng, 40)
        idx, _ = build_index(cloud).k_nearest(rng.random(3), 40)
        assert sorted(idx.tolist()) == list(range(40))

    def test_k_zero_empty(self, rng):
        cloud = make_cloud(rng, 5)
        idx, dist = build_index(cloud).k_nearest(np.zeros(3), 0)
        assert idx.size == 0 and dist.size == 0

    def test_matches_brute_force(self, rng):
        # Randomized oracle check over full distance sorts.
        for _ in range(100):
            n = int(rng.integers(1, 500))
            pos = rng.random((n, 3)) * 10
            index = SpatialIndex(pos)
            query = rng.random(3) * 10
            k = int(rng.integers(1, n + 1))
            got, dist = index.k_nearest(query, k)
            expected = brute_force_knn(pos, query, k)
            assert got.tolist() == expected.tolist()
            assert np.all(np.diff(dist) >= 0)

    def test_tie_break_prefers_lower_index(self):
        # Four points equidistant from the origin; ties resolve by index.
        pos = np.array([
            [1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
        ])
        idx, _ = SpatialIndex(pos).k_nearest(np.zeros(3), 2)
        assert idx.tolist() == [0, 1]

    def test_batch_matches_single(self, rng):
        pos = rng.random((200, 3))
        index = SpatialIndex(pos)
        queries = rng.random((20, 3))
        bidx, bdist = index.k_nearest_batch(queries, 5)
        for row, q in enumerate(queries):
            sidx, sdist = index.k_nearest(q, 5)
            assert bidx[row].tolist() == sidx.tolist()
            assert np.allclose(bdist[row], sdist)

    def test_batch_matches_full_lexsort_on_lattice(self, rng):
        # A shuffled integer lattice has exact distance ties in most rows,
        # which cKDTree returns in no particular index order; off-lattice
        # queries give rows without ties.
        g = np.arange(5, dtype=np.float64)
        pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        pos = pos[rng.permutation(len(pos))]
        queries = np.vstack([pos, pos[:40] + 0.5, rng.random((40, 3)) * 4])
        index = SpatialIndex(pos)
        reordered = 0
        for k in (1, 2, 7, 16, 27):
            d, i = cKDTree(pos).query(queries, k=k)
            d = d.reshape(len(queries), k)
            i = i.reshape(len(queries), k).astype(np.int64)
            order = np.lexsort((i, d), axis=-1)
            want_i = np.take_along_axis(i, order, axis=1)
            want_d = np.take_along_axis(d, order, axis=1)
            got_i, got_d = index.k_nearest_batch(queries, k)
            assert np.array_equal(got_i, want_i)
            assert np.array_equal(got_d, want_d)
            reordered += int((want_i != i).any(axis=1).sum())
        assert reordered > 0


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
