import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.spatial import cKDTree

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from pclabel import UNLABELED, LabelField, PointCloud  # noqa: E402
from pclabel import domain  # noqa: E402

# Property tests replay the same examples on every run, without a time limit.
settings.register_profile("pclabel", derandomize=True, deadline=None)
settings.load_profile("pclabel")


# An ascii PLY header of the vertex layout, without labels, for {n} vertices.
ASCII_HEADER = """ply
format ascii 1.0
comment generated fixture
element vertex {n}
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
"""


def make_cloud(rng: np.random.Generator, n: int) -> PointCloud:
    """Random float32-valued cloud (so PLY round trips are bit-exact)."""
    positions = (rng.random((n, 3)) * 4.0 - 2.0).astype(np.float32).astype(np.float64)
    colors = rng.integers(0, 256, (n, 3), dtype=np.uint8)
    return PointCloud(positions, colors)


def shuffled_lattice(rng: np.random.Generator, side: int, duplicates: int) -> np.ndarray:
    """The integer lattice [0, side)^3 plus `duplicates` repeated lattice
    points, shuffled: exact distance ties in nearly every neighborhood."""
    g = np.arange(side, dtype=np.float64)
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    pos = np.vstack([pos, pos[rng.integers(0, len(pos), duplicates)]])
    return pos[rng.permutation(len(pos))]


def block_oracle_clouds(rng: np.random.Generator) -> dict:
    """The clouds the row-blocked passes are checked on: random points, a
    shuffled lattice (exact distance ties, degenerate neighborhoods) and
    random points with repeats."""
    repeated = rng.random((250, 3))
    repeated = np.vstack([repeated, repeated[rng.integers(0, 250, 80)]])
    return {
        name: PointCloud(pos, np.zeros((len(pos), 3), dtype=np.uint8))
        for name, pos in (("random", make_cloud(rng, 300).positions),
                          ("lattice", shuffled_lattice(rng, 6, 0)),
                          ("repeated", repeated[rng.permutation(len(repeated))]))
    }


def brute_force_knn(positions, query, k):
    """Independent oracle: full distance sort with (distance, index) ties."""
    d2 = ((positions - query) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(positions)), d2))
    return order[:k]


def assert_knn_rows(positions, idx, dist):
    """Each point's row of a k-NN answer over its own cloud against
    brute_force_knn: the same distances, and the same indices in every row
    where no other point ties with the row's k-th distance."""
    k = idx.shape[1]
    for row, point in enumerate(positions):
        want = brute_force_knn(positions, point, k + 1)
        want_d = np.sqrt(((positions[want] - point) ** 2).sum(axis=1))
        assert np.allclose(dist[row], want_d[:k], rtol=0.0, atol=1e-12)
        if len(want) == k or want_d[k] != want_d[k - 1]:
            assert idx[row].tolist() == want[:k].tolist()


# (cloud points, index points, shift of the index's points): an index
# built over a subset of the cloud, over a superset, and over the same
# number of points moved elsewhere.
MISMATCHED_INDEX = [(400, 300, 0.0), (300, 400, 0.0), (400, 400, 0.5)]


def force_blocks(monkeypatch, workers: int, rows: int | None = None,
                 entries_per_row: int = 1) -> None:
    """Have pclabel.domain.for_blocks see `workers` cores and, with `rows`,
    cut blocks of exactly that many rows of `entries_per_row` entries."""
    monkeypatch.setattr(domain.os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    if rows is not None:
        monkeypatch.setattr(domain, "BLOCK_ENTRIES", rows * entries_per_row * workers)


def record_queries(monkeypatch, *modules, workers=None) -> list:
    """Swap each module's cKDTree for a subclass that logs the keywords of
    every query, plus "rows" (query count) and "points" (tree size), into
    the returned list. A `workers` value given here replaces the caller's."""
    calls = []

    class RecordingTree(cKDTree):
        def query(self, x, **kwargs):
            calls.append(dict(kwargs, rows=len(x), points=self.n))
            if workers is not None:
                kwargs["workers"] = workers
            return super().query(x, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "cKDTree", RecordingTree)
    return calls


def segment_members(partition) -> list:
    """Member point indices of each segment id, ascending."""
    return [np.flatnonzero(partition.assignment == s)
            for s in range(partition.segment_count)]


def unlabeled(n: int, num_classes: int) -> LabelField:
    """A label field with every point unlabeled."""
    return LabelField(np.full(n, UNLABELED, dtype=np.int64), num_classes)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
