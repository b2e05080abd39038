"""Point-cloud container, exact spatial index, and surface-normal estimation.

`SpatialIndex.neighbors` is the one neighbor query. It answers only for the
points the index was built over, which is all that normals and the
over-segmentation graph ask. Queries run on every core; each row is answered
on its own, so the rows do not depend on the thread count. Answers are
read-only views of one cached query, which `SpatialIndex.release` drops.

`estimate_normals` gathers, centers, decomposes and orients the
neighborhoods in blocks of at most BLOCK_ENTRIES // 3k points
(`pclabel.domain.BLOCK_ENTRIES` entries, shared by the blocks that run at
once), one block per core at a time (`pclabel.domain.for_blocks`), so
beyond the (n, k) neighbor table and its (n, 3) output its memory does not
grow with n. Each point's normal is computed on its own, so no bit depends
on the block size or the core count.

Every k-d tree of the package, here and in `stlp` and `synth`, is built by
this module's `cKDTree`, which imports `scipy.spatial` at the first tree
built rather than with the package: a command that builds no tree never
loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import MAX_NEIGHBORS, for_blocks, require


def cKDTree(*args, **kwargs):
    """A `scipy.spatial.cKDTree`, with scipy imported at the first tree
    built rather than with the package."""
    from scipy.spatial import cKDTree

    return cKDTree(*args, **kwargs)


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
    """Exact k nearest neighbors of a fixed point set among its own points.

    Normals and the over-segmentation graph both ask for them, at different
    k, so the index keeps its answer at the largest k asked and serves a
    smaller k as a read-only view of the row prefix. Rows whose k-th and
    (k+1)-th distances tie are queried again at k, into a read-only copy of
    the prefix, so every answer is the one a fresh query gives. `release`
    drops the cached answer; it lives on only in the answers still held.
    Concurrent callers may each compute and store that answer; it is
    replaced in one assignment and every stored answer is exact, so each
    caller gets the same rows whichever one it reads.
    """

    def __init__(self, positions: np.ndarray):
        pos = np.ascontiguousarray(np.asarray(positions, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        self._points = pos
        self._tree = cKDTree(pos) if pos.shape[0] else None
        self._own = None  # (k, indices, distances)

    @property
    def size(self) -> int:
        return int(self._points.shape[0])

    def neighbors(self, points: np.ndarray, k: int):
        """(indices, distances) of each indexed point's k nearest indexed points.

        `points` must be the positions the index was built over; another
        cloud is a ValueError. k must be an integer; it is clamped to the
        index size, and k <= 0 gives empty rows. Rows are ordered by
        (distance, index); where points tie at the k-th distance, cKDTree
        picks which of them make up the row. Both arrays are read-only.
        """
        q = np.asarray(points, dtype=np.float64)
        if q.shape != self._points.shape or not np.array_equal(q, self._points):
            raise ValueError(f"the index was built over {self.size} points, "
                             f"not over this cloud of {len(q)} points")
        require("k", k, integer=True)
        k = min(int(k), self.size)
        if k <= 0:
            return _read_only(np.empty((self.size, 0), dtype=np.int64),
                              np.empty((self.size, 0), dtype=np.float64))
        own = self._own
        if own is None or own[0] < k:
            own = (k, *_read_only(*self._query(self._points, k)))
            self._own = own
        i, d = own[1][:, :k], own[2][:, :k]
        if k < own[0]:
            # The prefix holds the k nearest unless the k-th distance ties
            # with the next; there cKDTree's pick at k may differ.
            tied = np.flatnonzero(own[2][:, k - 1] == own[2][:, k])
            if tied.size:
                i, d = i.copy(), d.copy()
                i[tied], d[tied] = self._query(self._points[tied], k)
                _read_only(i, d)
        return i, d

    def release(self) -> None:
        """Drop the cached answer; the next query is asked afresh.

        Answers already handed out stay valid, and hold its memory until
        they are dropped too.
        """
        self._own = None

    def _query(self, q: np.ndarray, k: int):
        d, i = self._tree.query(q, k=k, workers=-1)
        d = d.reshape(q.shape[0], k)
        i = i.reshape(q.shape[0], k).astype(np.int64, copy=False)
        # cKDTree rows come in distance order, so only a row holding a tied
        # distance can be out of (distance, index) order.
        tied = np.flatnonzero((d[:, 1:] == d[:, :-1]).any(axis=1))
        if tied.size:
            order = np.lexsort((i[tied], d[tied]), axis=-1)
            i[tied] = np.take_along_axis(i[tied], order, axis=1)
            d[tied] = np.take_along_axis(d[tied], order, axis=1)
        return i, d


def _read_only(*arrays: np.ndarray):
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    (|x|, |y|, |z|) tuple is lexicographically largest. k lies in
    [3, min(n, MAX_NEIGHBORS)].
    """
    n = cloud.count
    require("k", k, 3, min(n, MAX_NEIGHBORS), integer=True)
    idx = index.neighbors(cloud.positions, k)[0]
    out = np.empty((n, 3))

    def block(rows: slice) -> None:
        nb = cloud.positions[idx[rows]]
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
        flip = normals[np.arange(len(normals)), lead] < 0
        normals[flip] *= -1.0
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        out[rows] = normals / norms

    # A (rows, k, 3) gather holds 3k entries per row.
    for_blocks(n, 3 * k, block)
    return out
