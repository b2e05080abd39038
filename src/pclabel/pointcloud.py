"""Point-cloud container, exact spatial index, and surface-normal estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


@dataclass(frozen=True)
class PointCloud:
    """N points with positions (meters) and 8-bit RGB colors.

    Immutable after construction; all arrays are copied/validated up front so
    downstream stages can share one instance across threads.
    """

    positions: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        finite = np.isfinite(pos)
        if not finite.all():
            bad = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise ValueError(f"position of point {bad} is not finite")
        col = np.asarray(self.colors)
        if col.shape != pos.shape:
            raise ValueError(f"colors must match positions shape, got {col.shape}")
        if col.dtype != np.uint8:
            if col.size and (col.min() < 0 or col.max() > 255):
                raise ValueError("color channels must lie in [0, 255]")
            col = col.astype(np.uint8)
        col = np.ascontiguousarray(col)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col)

    @property
    def count(self) -> int:
        return int(self.positions.shape[0])

    def __len__(self) -> int:
        return self.count


class SpatialIndex:
    """Exact nearest-neighbor queries over a fixed set of points.

    Query results are ordered by (distance, index): non-decreasing distance
    with ties resolved toward the lower point index, so every caller sees one
    deterministic answer. Read-only queries are safe from multiple threads.
    """

    def __init__(self, positions: np.ndarray):
        pos = np.ascontiguousarray(np.asarray(positions, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        self._positions = pos
        self._tree = cKDTree(pos) if pos.shape[0] else None

    @property
    def size(self) -> int:
        return int(self._positions.shape[0])

    def k_nearest(self, query, k: int):
        """Indices and distances of the k nearest points to one query point.

        k is clamped to the index size; k <= 0 returns empty arrays.
        """
        q = np.asarray(query, dtype=np.float64).reshape(3)
        n = self.size
        k = min(int(k), n)
        if k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        d, _ = self._tree.query(q, k=k)
        d_k = float(np.max(np.atleast_1d(d)))
        # Superset of candidates out to the kth distance (inflated past fp
        # rounding), then exact ordering recomputed in plain arithmetic.
        cand = np.asarray(
            self._tree.query_ball_point(q, d_k * (1.0 + 1e-12)), dtype=np.int64
        )
        delta = self._positions[cand] - q
        d2 = np.einsum("ij,ij->i", delta, delta)
        order = np.lexsort((cand, d2))[:k]
        return cand[order], np.sqrt(d2[order])

    def k_nearest_batch(self, queries: np.ndarray, k: int):
        """Per-row k nearest for many query points at once.

        Rows are ordered by (distance, index) among the returned neighbors;
        exact tie resolution across the k-th boundary is only guaranteed by
        the single-point `k_nearest`.
        """
        q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        n = self.size
        k = min(int(k), n)
        if k <= 0 or q.shape[0] == 0:
            m = q.shape[0]
            return (
                np.empty((m, 0), dtype=np.int64),
                np.empty((m, 0), dtype=np.float64),
            )
        d, i = self._tree.query(q, k=k)
        d = d.reshape(q.shape[0], k)
        i = i.reshape(q.shape[0], k).astype(np.int64)
        # cKDTree rows come in distance order, so only a row holding a tied
        # distance can be out of (distance, index) order.
        tied = np.flatnonzero((d[:, 1:] == d[:, :-1]).any(axis=1))
        if tied.size:
            order = np.lexsort((i[tied], d[tied]), axis=-1)
            i[tied] = np.take_along_axis(i[tied], order, axis=1)
            d[tied] = np.take_along_axis(d[tied], order, axis=1)
        return i, d


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Exact spatial index over a cloud's positions."""
    return SpatialIndex(cloud.positions)


# Two smallest covariance eigenvalues closer than this are treated as a
# degenerate (line / isotropic) neighborhood and resolved by the tie rule.
DEGENERATE_EIGENGAP = 1e-12


def estimate_normals(cloud: PointCloud, index: SpatialIndex, k: int = 16) -> np.ndarray:
    """Per-point unit normals from the k-nearest neighborhood of each point.

    The normal is the eigenvector of the smallest eigenvalue of the
    neighborhood covariance (the query point counts as its own neighbor).
    Signs are fixed so the component of largest magnitude is positive.
    Degenerate neighborhoods (smallest two eigenvalues within
    DEGENERATE_EIGENGAP) pick the candidate eigenvector whose
    (|x|, |y|, |z|) tuple is lexicographically largest.
    """
    n = cloud.count
    if k < 3:
        raise ValueError(f"neighborhood size k must be >= 3, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    idx, _ = index.k_nearest_batch(cloud.positions, k)
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
