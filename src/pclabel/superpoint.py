"""Geometric over-segmentation: region growing on the k-NN graph.

An edge of the neighbor graph is floodable when its endpoint normals agree
within the angle threshold and the edge is no longer than the 95th percentile
of all k-NN edge lengths (which keeps floods from jumping gaps between
parallel surfaces). Segments are the connected components of the floodable
graph, seeded in ascending point-index order; undersized segments merge into
the adjacent segment sharing the most graph edges, in one ascending pass that
reads the edges of each undersized segment as it reaches it.

The angle gate runs over blocks of at most BLOCK_ENTRIES // 3 edges
(`pclabel.domain.BLOCK_ENTRIES` entries, shared by the blocks that run at
once), one block per core at a time (`pclabel.domain.for_blocks`), and each
per-edge array is dropped once its last reader has run. Each edge is gated
on its own, so no bit depends on the block size or the core count. The
index's cached neighbor query is released once the edges are cut, before
the merge.

The graph is kept as CSR rows of int32 point ids (int64 only where an
edge count could pass 2**31 - 1, `_index_type`). The edges come in k-NN
rows, which is CSR order, so the floodable graph is each row cut to its
passing edges, and scipy labels it on those arrays without copying them.
The merge keys a point edge as point * point count + point, which passes
2**31 past 46,341 points, so it widens its cross-segment edges, a small
share of the graph, to int64 before it forms them.

Both component labelings, of the floodable graph and of the merged groups,
go through `_components`, which imports `scipy.sparse.csgraph` at its first
call rather than with the package: loading a partition file never loads
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import MAX_NEIGHBORS, for_blocks, require, require_finite
from .pointcloud import PointCloud, SpatialIndex, build_index, estimate_normals
from .tensorio import id_strings, read_text, reading

EDGE_LENGTH_PERCENTILE = 95.0


@dataclass(frozen=True)
class SuperpointParams:
    """Arguments of the over-segmentation stage."""

    angle_threshold: float = 15.0
    adjacency_k: int = 10
    min_size: int = 20
    normals_k: int = 16

    def __post_init__(self):
        require("angle_threshold", self.angle_threshold, 0, 180, open_low=True)
        require("adjacency_k", self.adjacency_k, 1, MAX_NEIGHBORS, integer=True)
        require("min_size", self.min_size, 1, integer=True)  # 1 merges nothing
        require("normals_k", self.normals_k, 3, MAX_NEIGHBORS, integer=True)


@dataclass(frozen=True)
class SuperpointPartition:
    """Disjoint cover of point indices by segment ids dense in [0, U)."""

    assignment: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.assignment, dtype=np.int64))
        if a.ndim != 1:
            raise ValueError("assignment must be a 1-D id array")
        # Dense ids are all below the point count, which also bounds the
        # bincount's allocation.
        if a.size and (
            a.min() < 0 or a.max() >= a.size or not np.bincount(a).all()
        ):
            raise ValueError("segment ids must be dense in [0, U)")
        object.__setattr__(self, "assignment", a)

    def __len__(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def segment_count(self) -> int:
        return int(self.assignment.max()) + 1 if self.assignment.size else 0


def _distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D integer array by sorting.

    numpy's hash-based unique is far slower on a million int64 keys than a
    sort plus a comparison of neighbors.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _index_type(largest: int):
    """int32, scipy's own sparse index type, where every id and count up to
    `largest` fits in it; int64 beyond."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def _components(indices: np.ndarray, indptr: np.ndarray, n: int) -> np.ndarray:
    """int64 component label of each of n nodes of the undirected graph
    whose CSR rows are `indptr` into `indices` (node i is joined to
    indices[indptr[i]:indptr[i + 1]]), numbered in order of each
    component's lowest node, as scipy numbers them. Duplicate edges and
    self-loops are allowed. With int32 arrays the graph shares them and its
    float64 weights are the ones scipy's validation asks for, so nothing is
    copied before scipy transposes the graph. scipy is imported at the first
    call; the graph dies when this returns."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    graph = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    labels = connected_components(graph, directed=False)[1]
    del graph
    return labels.astype(np.int64)


def _merge_small_segments(
    labels: np.ndarray, src: np.ndarray, dst: np.ndarray, min_size: int
) -> np.ndarray:
    """Fold segments below min_size into their best graph neighbor.

    "Best" is the adjacent segment sharing the most (undirected, un-gated)
    k-NN graph edges, ties to the lower segment id. The rule: while some
    segment is undersized and has a neighbor, merge the lowest-id such
    segment (a candidate) into its best neighbor, whose id the group keeps.

    One ascending pass does exactly that. Sizes only grow and a segment left
    with no neighbor never gains one, so a segment that is not a candidate
    when the pass reaches it never becomes one, and a target still undersized
    has a higher id: the pass reaches it later.

    The pass keeps no segment graph. At a candidate it counts the far ends
    of its members' unique cross-segment point edges, each by the group
    `owner` holds for it now. Members were undersized from the start, so
    only such segments get a row, and a candidate has under min_size of them.

    Precondition: labels are dense ids in order of each segment's first
    point, as scipy numbers components; the output keeps that order.
    """
    count = int(labels.max()) + 1 if labels.size else 0
    if count == 0 or min_size <= 1:
        return labels
    sizes = np.bincount(labels, minlength=count).tolist()
    # Unique undirected point edges between segments; an edge within a
    # segment, or a self-loop, is read by no fold, so it goes before the
    # dedupe. The keys below pass 2**31 past 46,341 points, so these few
    # edges are widened to int64 first, whatever the graph's index type.
    cross = labels[src] != labels[dst]
    src = src[cross].astype(np.int64, copy=False)
    dst = dst[cross].astype(np.int64, copy=False)
    del cross
    edges = np.minimum(src, dst)
    edges *= labels.size
    edges += np.maximum(src, dst)
    del src, dst
    edges = _distinct(edges)
    a = labels[edges // labels.size]
    b = labels[edges % labels.size]
    del edges
    # The rows, as keys segment * count + far end sorted by segment.
    small = np.less(sizes, min_size)
    rows = np.concatenate([a[small[a]] * count + b[small[a]],
                           b[small[b]] * count + a[small[b]]])
    del a, b
    rows.sort()
    offsets = np.searchsorted(rows, np.arange(count + 1) * count).tolist()
    rows %= count
    owner = list(range(count))  # the group each segment lies in now
    groups = {}  # undersized group -> its members, once one has folded in
    for s in range(count):
        if sizes[s] >= min_size:
            continue
        members = groups.pop(s, [s])
        shared = {}
        for m in members:
            for far in rows[offsets[m]:offsets[m + 1]].tolist():
                shared[owner[far]] = shared.get(owner[far], 0) + 1
        shared.pop(s, None)
        if not shared:
            continue
        target = max(shared.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        for m in members:
            owner[m] = target
        sizes[target] += sizes[s]
        if sizes[target] < min_size:
            groups.setdefault(target, [target]).extend(members)
    # Groups are numbered by their lowest member, which holds their first
    # point. Segment s has one edge, to owner[s], so its CSR row is entry s.
    itype = _index_type(count)
    return _components(np.asarray(owner, dtype=itype),
                       np.arange(count + 1, dtype=itype), count)[labels]


def oversegment(
    cloud: PointCloud,
    normals: np.ndarray,
    index: SpatialIndex,
    angle_threshold: float,
    adjacency_k: int,
    min_size: int,
) -> SuperpointPartition:
    """Partition a cloud into geometrically coherent segments.

    normals must be finite. angle_threshold is in degrees (0, 180];
    adjacency_k neighbors, at most MAX_NEIGHBORS, define the graph; segments
    smaller than min_size are folded into neighbors. Deterministic:
    identical inputs give identical partitions.
    """
    n = cloud.count
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != (n, 3):
        raise ValueError(f"normals of {normals.shape} do not match cloud of {n}")
    require_finite("normal", normals)
    require("angle_threshold", angle_threshold, 0, 180, open_low=True)
    require("adjacency_k", adjacency_k, 1, MAX_NEIGHBORS, integer=True)
    require("min_size", min_size, 1, integer=True)
    if n == 0:
        return SuperpointPartition(np.empty(0, dtype=np.int64))
    if n == 1:
        return SuperpointPartition(np.zeros(1, dtype=np.int64))

    idx, dist = index.neighbors(cloud.positions, min(adjacency_k + 1, n))
    not_self = idx != np.arange(n)[:, None]
    # Keep at most adjacency_k non-self neighbors per point; a row holds at
    # most MAX_NEIGHBORS + 1 entries, so the count fits in int8.
    take = not_self & (np.cumsum(not_self, axis=1, dtype=np.int8) <= adjacency_k)
    del not_self
    # Point ids and edge counts are at most n * adjacency_k.
    itype = _index_type(n * adjacency_k)
    dst = idx[take].astype(itype)
    length = dist[take]
    # The answer is a view of the index's cached query: dropping both lets
    # that query's memory go before the rest of the stage runs.
    del idx, dist
    index.release()
    # The edges come in k-NN rows: row i's run from bounds[i] to bounds[i + 1].
    bounds = np.zeros(n + 1, dtype=itype)
    np.cumsum(take.sum(axis=1), out=bounds[1:])
    del take
    src = np.repeat(np.arange(n, dtype=itype), np.diff(bounds))

    passes = length <= np.percentile(length, EDGE_LENGTH_PERCENTILE)
    del length

    def gate(edges: slice) -> None:
        cos = np.einsum("ij,ij->i", normals[src[edges]], normals[dst[edges]])
        angle = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
        passes[edges] &= angle <= angle_threshold

    # An (edges, 3) gather holds 3 entries per edge.
    for_blocks(src.size, 3, gate)

    # The floodable graph's CSR rows are the k-NN rows cut to their passing
    # edges: row i ends where the running count of passing edges stands at
    # bounds[i + 1]. Components are numbered in order of their lowest point
    # index, which is the ascending-seed order the merge relies on.
    passed = np.zeros(src.size + 1, dtype=itype)
    np.cumsum(passes, dtype=itype, out=passed[1:])
    indptr = passed[bounds]
    del passed, bounds
    labels = _components(dst[passes], indptr, n)
    del passes, indptr
    labels = _merge_small_segments(labels, src, dst, min_size)
    return SuperpointPartition(labels)


def partition_cloud(
    cloud: PointCloud, params: SuperpointParams, normals: Optional[np.ndarray] = None
) -> SuperpointPartition:
    """Over-segment a cloud on its own k-d index.

    Normals are estimated from params.normals_k neighbors unless given
    (e.g. the analytic normals of a synthetic scan).
    """
    index = build_index(cloud)
    if normals is None:
        require("normals_k", params.normals_k, 3, min(cloud.count, MAX_NEIGHBORS),
                integer=True)
        normals = estimate_normals(cloud, index, params.normals_k)
    return oversegment(
        cloud, normals, index,
        params.angle_threshold, params.adjacency_k, params.min_size,
    )


def partition_stats(partition: SuperpointPartition) -> dict:
    """Segment count plus size histogram and min/median/max size."""
    u = partition.segment_count
    if u == 0:
        return {"segment_count": 0, "size_histogram": {}, "min_size": 0,
                "median_size": 0.0, "max_size": 0}
    sizes = np.bincount(partition.assignment, minlength=u)
    values, counts = np.unique(sizes, return_counts=True)
    return {
        "segment_count": u,
        "size_histogram": {int(v): int(c) for v, c in zip(values, counts)},
        "min_size": int(sizes.min()),
        "median_size": float(np.median(sizes)),
        "max_size": int(sizes.max()),
    }


def save_partition_json(partition: SuperpointPartition, path) -> None:
    """Write the {"n", "u", "assignment"} JSON form: the bytes of
    json.dumps(payload, sort_keys=True) + "\n", with the ids through
    id_strings (dense ids, so its table always applies)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f'{{"assignment": [{", ".join(id_strings(partition.assignment))}], '
                f'"n": {len(partition)}, "u": {partition.segment_count}}}\n')


def load_partition_json(path) -> SuperpointPartition:
    """Read the {"n", "u", "assignment"} JSON form; every check names the file."""
    payload = read_text(path, "ascii")
    with reading(path):
        for key in ("assignment", "n", "u"):
            if not isinstance(payload, dict) or key not in payload:
                raise ValueError(f"no {key!r} key")
        entries = payload["assignment"]
        if not isinstance(entries, list):
            raise ValueError(f"assignment is not a list: {entries!r}")
        n = len(entries)
        # type() rather than isinstance: JSON true/false must not pass as 1/0.
        # Only a list that fails the whole-list check is searched for its
        # first bad entry; an int beyond int64 fails the conversion.
        try:
            assignment = (np.asarray(entries, dtype=np.int64)
                          if set(map(type, entries)) <= {int} else None)
        except OverflowError:
            assignment = None
        if assignment is None or (n and not (assignment.min() >= 0 and assignment.max() < n)):
            bad = next(i for i, v in enumerate(entries) if type(v) is not int or not 0 <= v < n)
            raise ValueError(
                f"assignment entry {bad} must be an integer in [0, {n}), got {entries[bad]!r}"
            )
        partition = SuperpointPartition(assignment)
        for key, found in (("n", n), ("u", partition.segment_count)):
            if type(payload[key]) is not int:
                raise ValueError(f"{key} must be an integer, got {payload[key]!r}")
            if payload[key] != found:
                raise ValueError(f"{key}={payload[key]} is inconsistent with the "
                                 f"assignment, which has {key}={found}")
    return partition
