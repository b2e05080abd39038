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

# Property tests replay the same examples on every run, without a time limit.
settings.register_profile("pclabel", derandomize=True, deadline=None)
settings.load_profile("pclabel")


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
