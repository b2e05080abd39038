"""Point-cloud container, exact spatial index, and surface-normal estimation.

Every k-NN answer of the package, `SpatialIndex.neighbors` here and
`KnnClassifier.predict` in `stlp`, follows one rule (`k_nearest`): a row
holds the k nearest points by (distance, index), so where points tie at the
k-th distance the lowest indices are in, and a row is ordered by (distance,
index). No answer then depends on the tree's layout or leaf size or on the
thread count, and the first k' of a k answer are the k' answer.

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
loads scipy. The factory keeps scipy's build defaults. `SpatialIndex` and
`KnnClassifier` ask for sliding-midpoint trees (`balanced_tree=False`),
which answered their k-NN queries faster on the benchmark scenes (the
classifier's 6-D tree also builds in about 2/3 of the time); synth's
per-class trees keep the median split, under which their bounded k = 1
queries of a 108,700-point room ran in 0.096 s rather than 0.117 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import MAX_NEIGHBORS, for_blocks, require, require_finite, whole_numbers


def cKDTree(*args, **kwargs):
    """A `scipy.spatial.cKDTree`, with scipy imported at the first tree
    built rather than with the package."""
    from scipy.spatial import cKDTree

    return cKDTree(*args, **kwargs)


def _positions(values) -> np.ndarray:
    """values as contiguous float64 (N, 3) positions, each one finite."""
    pos = np.asarray(values)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {pos.shape}")
    require_finite("position", pos)
    return np.ascontiguousarray(pos, dtype=np.float64)


@dataclass(frozen=True)
class PointCloud:
    """N points with positions (meters) and 8-bit RGB colors.

    Immutable after construction; all arrays are copied/validated up front so
    downstream stages can share one instance across threads.
    """

    positions: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        pos = _positions(self.positions)
        col = np.asarray(self.colors)
        if col.shape != pos.shape:
            raise ValueError(f"colors must match positions shape, got {col.shape}")
        if col.dtype != np.uint8:
            require_finite("color", whole_numbers("colors", col), 0, 255)
            col = col.astype(np.uint8)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", np.ascontiguousarray(col))

    @property
    def count(self) -> int:
        return int(self.positions.shape[0])


def k_nearest(tree, points: np.ndarray, k: int, workers: int):
    """(indices, distances) of the k nearest tree points of each row of
    `points` by (distance, index), each (rows, k) and ordered that way.

    k lies in [1, tree.n]. Each row asks for k + 1 neighbours (k where that
    is the whole tree). Only a row whose k-th and (k+1)-th distances tie can
    hold a tie that runs on past them: those rows are asked again, twice as
    wide each time, until the tie ends or the tree is used up, and keep the
    first k of the wider answer by (distance, index). Every distance comes
    from the tree's own arithmetic, which gives a pair of points one value
    whatever the tree's shape, so no row depends on the layout. The arrays
    are views of (rows, k + 1) ones. `workers` is cKDTree's.

    A squared distance beyond float64 reads as inf, which cKDTree answers
    as a missing neighbour (index tree.n). A row whose k-th distance is inf
    is refused with a ValueError; a wider query keeps a row's first k
    distances, so the check on the first answer covers every row.
    """
    width = min(k + 1, tree.n)
    i, d = _query(tree, points, width, workers)
    overflow = np.flatnonzero(d[:, k - 1] == np.inf)
    if overflow.size:
        raise ValueError(f"the squared distance from {points[overflow[0]].tolist()} to one "
                         f"of its {k} nearest points overflows float64, so they cannot "
                         "be ranked")
    tied = np.flatnonzero(d[:, k - 1] == d[:, k]) if width > k else np.empty(0, np.int64)
    while tied.size:
        width = min(2 * width, tree.n)
        wide_i, wide_d = _query(tree, points[tied], width, workers)
        # cKDTree returns every point nearer than a row's last distance, so
        # a tie that stops short of it is whole.
        done = (wide_d[:, -1] > wide_d[:, k - 1]) | (width == tree.n)
        order = np.lexsort((wide_i[done], wide_d[done]), axis=-1)[:, :k]
        i[tied[done], :k] = np.take_along_axis(wide_i[done], order, axis=1)
        d[tied[done], :k] = np.take_along_axis(wide_d[done], order, axis=1)
        tied = tied[~done]
    i, d = i[:, :k], d[:, :k]
    # cKDTree rows come in distance order, so only a row holding a tied
    # distance can be out of (distance, index) order.
    tied = np.flatnonzero((d[:, 1:] == d[:, :-1]).any(axis=1))
    if tied.size:
        order = np.lexsort((i[tied], d[tied]), axis=-1)
        i[tied] = np.take_along_axis(i[tied], order, axis=1)
        d[tied] = np.take_along_axis(d[tied], order, axis=1)
    return i, d


def _query(tree, points: np.ndarray, k: int, workers: int):
    d, i = tree.query(points, k=k, workers=workers)
    rows = points.shape[0]
    return i.reshape(rows, k).astype(np.int64, copy=False), d.reshape(rows, k)


class SpatialIndex:
    """Exact k nearest neighbors of a fixed point set among its own points.

    Normals and the over-segmentation graph both ask for them, at different
    k, so the index keeps its answer at the largest k asked and serves a
    smaller k as a read-only view of the row prefix, which under the
    (distance, index) rule is the answer a fresh query gives. The tree is
    built sliding-midpoint (`balanced_tree=False`); see the module
    docstring. Positions must be finite. `release` drops the cached answer;
    it lives on only in the answers still held. Concurrent callers may each
    compute and store that answer; it is replaced in one assignment and
    every stored answer is exact, so each caller gets the same rows
    whichever one it reads.
    """

    def __init__(self, positions: np.ndarray):
        self._points = _positions(positions)
        self._tree = cKDTree(self._points, balanced_tree=False) if self.size else None
        self._own = None  # (k, indices, distances)

    @property
    def size(self) -> int:
        return int(self._points.shape[0])

    def neighbors(self, points: np.ndarray, k: int):
        """(indices, distances) of each indexed point's k nearest indexed points.

        `points` must be the positions the index was built over; another
        cloud is a ValueError. k must be an integer; it is clamped to the
        index size, and k <= 0 gives empty rows. Rows are the k nearest by
        (distance, index) (`k_nearest`), which refuses points so far apart
        that their squared distance overflows float64. Both arrays are
        read-only.
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
            own = (k, *_read_only(*k_nearest(self._tree, self._points, k, workers=-1)))
            self._own = own
        return own[1][:, :k], own[2][:, :k]

    def release(self) -> None:
        """Drop the cached answer; the next query is asked afresh.

        Answers already handed out stay valid, and hold its memory until
        they are dropped too.
        """
        self._own = None


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
