import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from pclabel import PointCloud  # noqa: E402

# Property tests replay the same examples on every run, without a time limit.
settings.register_profile("pclabel", derandomize=True, deadline=None)
settings.load_profile("pclabel")


def make_cloud(rng: np.random.Generator, n: int) -> PointCloud:
    """Random float32-valued cloud (so PLY round trips are bit-exact)."""
    positions = (rng.random((n, 3)) * 4.0 - 2.0).astype(np.float32).astype(np.float64)
    colors = rng.integers(0, 256, (n, 3), dtype=np.uint8)
    return PointCloud(positions, colors)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
