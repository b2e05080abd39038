"""Geometric over-segmentation: region growing on the k-NN graph.

An edge of the neighbor graph is floodable when its endpoint normals agree
within the angle threshold and the edge is no longer than the 95th percentile
of all k-NN edge lengths (which keeps floods from jumping gaps between
parallel surfaces). Segments are the connected components of the floodable
graph, seeded in ascending point-index order; undersized segments merge into
the adjacent segment sharing the most graph edges.

The angle gate runs over blocks of at most BLOCK_ENTRIES // 3 edges
(`pclabel.domain.BLOCK_ENTRIES` entries), and each per-edge array is dropped
once its last reader has run. The index's cached neighbor query is released
once the edges are cut, so the merge holds only the labels and the edge
ends, and it dedupes only the edges that cross segments. Each edge is gated
on its own, so no bit depends on the block size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .domain import BLOCK_ENTRIES, MAX_NEIGHBORS, require
from .pointcloud import PointCloud, SpatialIndex, build_index, estimate_normals
from .tensorio import read_text

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


def _merge_small_segments(
    labels: np.ndarray, src: np.ndarray, dst: np.ndarray, min_size: int
) -> np.ndarray:
    """Fold segments below min_size into their best graph neighbor.

    "Best" is the adjacent segment sharing the most (undirected, un-gated)
    k-NN graph edges, ties to the lower segment id. The rule is: while some
    segment is undersized and still has a neighbor, merge the lowest-id such
    segment into its best neighbor; a merge product that is still undersized
    gets reconsidered.

    One ascending pass over segment ids carries out exactly that sequence of
    merges. Sizes only grow, and a segment left with no neighbor never gains
    one (adjacency is only handed on from a neighbor), so a segment that is
    not a candidate when the pass reaches it never becomes one, and the
    lowest candidate id never decreases. A merge target that is still
    undersized therefore has a higher id than the segment folded into it,
    and the pass reaches it later.

    Precondition: labels are dense ids numbered in order of each segment's
    first point, as scipy numbers components. The output keeps that order,
    compacted over the merged groups.
    """
    count = int(labels.max()) + 1 if labels.size else 0
    if count == 0 or min_size <= 1:
        return labels
    sizes = np.bincount(labels, minlength=count).tolist()
    # Unique undirected point edges between segments, then per-segment-pair
    # counts. Edges within a segment, self-loops among them, count for no
    # pair, so they go before the dedupe.
    cross = labels[src] != labels[dst]
    src, dst = src[cross], dst[cross]
    del cross
    edges = np.minimum(src, dst)
    edges *= labels.size
    edges += np.maximum(src, dst)
    del src, dst
    edges = _distinct(edges)
    a = labels[edges // labels.size]
    b = labels[edges % labels.size]
    del edges
    # With counts asked for, np.unique sorts, as fast as _distinct here.
    pairs, shared = np.unique(np.minimum(a, b) * count + np.maximum(a, b),
                              return_counts=True)
    del a, b
    adj: List[Dict[int, int]] = [{} for _ in range(count)]
    for key, c in zip(pairs.tolist(), shared.tolist()):
        sa, sb = divmod(key, count)
        adj[sa][sb] = c
        adj[sb][sa] = c

    sources, targets = [], []
    for s in range(count):
        neighbors = adj[s]
        if sizes[s] >= min_size or not neighbors:
            continue
        target = max(neighbors.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        del neighbors[target]
        del adj[target][s]
        for other, c in neighbors.items():
            del adj[other][s]
            adj[other][target] = adj[other].get(target, 0) + c
            adj[target][other] = adj[target].get(other, 0) + c
        adj[s] = {}
        sizes[target] += sizes[s]
        sources.append(s)
        targets.append(target)
    # Each merged group is numbered by its lowest member, whose first point
    # is the group's first point.
    merged = csr_matrix((np.ones(len(sources), dtype=np.int8), (sources, targets)),
                        shape=(count, count))
    return connected_components(merged, directed=False)[1].astype(np.int64)[labels]


def oversegment(
    cloud: PointCloud,
    normals: np.ndarray,
    index: SpatialIndex,
    angle_threshold: float,
    adjacency_k: int,
    min_size: int,
) -> SuperpointPartition:
    """Partition a cloud into geometrically coherent segments.

    angle_threshold is in degrees (0, 180]; adjacency_k neighbors, at most
    MAX_NEIGHBORS, define the graph; segments smaller than min_size are
    folded into neighbors. Deterministic: identical inputs give identical
    partitions.
    """
    n = cloud.count
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != (n, 3):
        raise ValueError(f"normals of {normals.shape} do not match cloud of {n}")
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
    dst = idx[take]
    length = dist[take]
    # The answer is a view of the index's cached query: dropping both lets
    # that query's memory go before the rest of the stage runs.
    del idx, dist
    index.release()
    src = np.repeat(np.arange(n), take.sum(axis=1))
    del take

    passes = length <= np.percentile(length, EDGE_LENGTH_PERCENTILE)
    del length
    # An (edges, 3) gather holds 3 entries per edge.
    step = BLOCK_ENTRIES // 3
    for start in range(0, src.size, step):
        edges = slice(start, start + step)
        cos = np.einsum("ij,ij->i", normals[src[edges]], normals[dst[edges]])
        angle = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
        passes[edges] &= angle <= angle_threshold

    graph = csr_matrix(
        (np.ones(int(passes.sum()), dtype=np.int8), (src[passes], dst[passes])),
        shape=(n, n),
    )
    del passes
    # scipy numbers the components in order of their lowest point index,
    # which is the ascending-seed order the merge relies on.
    _, labels = connected_components(graph, directed=False)
    del graph
    labels = _merge_small_segments(labels.astype(np.int64), src, dst, min_size)
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
        if params.normals_k > cloud.count:
            raise ValueError(
                f"normals_k={params.normals_k} exceeds point count {cloud.count}"
            )
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
    """Write the {"n", "u", "assignment"} JSON form."""
    payload = {
        "n": len(partition),
        "u": partition.segment_count,
        "assignment": partition.assignment.tolist(),
    }
    with open(path, "w", encoding="ascii") as f:
        # json.dumps runs the C encoder; json.dump streams through the pure-Python one.
        f.write(json.dumps(payload, sort_keys=True) + "\n")


def load_partition_json(path) -> SuperpointPartition:
    """Read the {"n", "u", "assignment"} JSON form; every check names the file."""
    payload = read_text(path, "ascii")
    try:
        for key in ("assignment", "n", "u"):
            if not isinstance(payload, dict) or key not in payload:
                raise ValueError(f"no {key!r} key")
        entries = payload["assignment"]
        if not isinstance(entries, list):
            raise ValueError(f"assignment is not a list: {entries!r}")
        n = len(entries)
        # type() rather than isinstance: JSON true/false must not pass as 1/0.
        bad = next((i for i, v in enumerate(entries) if type(v) is not int or not 0 <= v < n),
                   None)
        if bad is not None:
            raise ValueError(
                f"assignment entry {bad} must be an integer in [0, {n}), got {entries[bad]!r}"
            )
        partition = SuperpointPartition(np.asarray(entries, dtype=np.int64))
        for key, found in (("n", n), ("u", partition.segment_count)):
            if type(payload[key]) is not int:
                raise ValueError(f"{key} must be an integer, got {payload[key]!r}")
            if payload[key] != found:
                raise ValueError(f"{key}={payload[key]} is inconsistent with the "
                                 f"assignment, which has {key}={found}")
    except ValueError as e:
        raise ValueError(f"partition file {path}: {e}") from None
    return partition
