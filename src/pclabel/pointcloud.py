"""Point-cloud container, exact spatial index, and surface-normal estimation.

`SpatialIndex.k_nearest_batch` is the one neighbor query: normals and the
over-segmentation graph both read it. Both ask about the index's own points,
so the index keeps that one answer and computes it once per point set (see
`SpatialIndex`). Queries run on every core; each row is answered on its own,
so the rows do not depend on the thread count.
"""

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


class SpatialIndex:
    """Exact nearest-neighbor queries over a fixed set of points.

    The index remembers one answer: its own points' nearest neighbors at
    the largest k asked so far. Normals and the over-segmentation graph
    both query the index's own points, at different k, so the second
    query is served from the first. A smaller k is the row prefix, except
    in rows where the k-th and (k+1)-th distances tie; those rows are
    queried again at k, so every answer is the one a fresh query gives.
    Concurrent callers may each compute and store that answer; the stored
    value is replaced in one assignment and every stored answer is exact,
    so each caller gets the same rows whichever one it reads.
    """

    def __init__(self, positions: np.ndarray):
        pos = np.ascontiguousarray(np.asarray(positions, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        self._size = int(pos.shape[0])
        self._tree = cKDTree(pos) if self._size else None
        self._own = None  # (k, indices, distances) for the tree's own points

    @property
    def size(self) -> int:
        return self._size

    def k_nearest_batch(self, queries: np.ndarray, k: int):
        """Per-row k nearest for many query points at once.

        k is clamped to the index size; k <= 0 returns empty rows. Each row
        is ordered by (distance, index) among the neighbors returned. Where
        several points tie at the k-th distance, cKDTree chooses which of
        them make up the row.
        """
        q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        k = min(int(k), self.size)
        if k <= 0 or q.shape[0] == 0:
            m = q.shape[0]
            return (
                np.empty((m, 0), dtype=np.int64),
                np.empty((m, 0), dtype=np.float64),
            )
        if q.shape[0] != self.size or not np.array_equal(q, self._tree.data):
            return self._query(q, k)
        own = self._own
        if own is None or own[0] < k:
            own = (k, *self._query(q, k))
            self._own = own
        i = own[1][:, :k].copy()
        d = own[2][:, :k].copy()
        if k < own[0]:
            # The prefix holds the k nearest unless the k-th distance ties
            # with the next; there cKDTree's pick at k may differ.
            tied = np.flatnonzero(own[2][:, k - 1] == own[2][:, k])
            if tied.size:
                i[tied], d[tied] = self._query(q[tied], k)
        return i, d

    def _query(self, q: np.ndarray, k: int):
        d, i = self._tree.query(q, k=k, workers=-1)
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


def estimate_normals(cloud: PointCloud, index: SpatialIndex, k: int) -> np.ndarray:
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
