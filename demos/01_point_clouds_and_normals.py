"""Point-cloud basics: PLY round trips, exact neighbor queries, normals.

Run from the repository root:  PYTHONPATH=src python demos/01_point_clouds_and_normals.py
"""

import tempfile

import numpy as np

from pclabel import (
    PointCloud,
    build_index,
    estimate_normals,
    load_labeled_ply,
    save_ply,
    LabelField,
)

rng = np.random.default_rng(7)

# A tilted plane with a little sensor jitter. Sensor data is 32-bit; keeping
# coordinates float32-valued makes the PLY round trip below bit-exact.
n = 2000
uv = rng.random((n, 2)) * 2.0
positions = np.stack([uv[:, 0], uv[:, 1], 0.5 * uv[:, 0]], axis=1)
positions += rng.normal(0, 0.004, positions.shape)
positions = positions.astype(np.float32).astype(np.float64)
colors = rng.integers(90, 160, (n, 3))
cloud = PointCloud(positions, colors)
print(f"cloud: {cloud.count} points")

# Exact neighbor queries of the cloud's own points: one row per point, the
# point itself first, each sorted by (distance, index). The index answers
# only for the cloud it was built over.
index = build_index(cloud)
idx, dist = index.neighbors(cloud.positions, 5)
print(f"5 nearest of point 0: {idx[0].tolist()} at distances {np.round(dist[0], 4).tolist()}")

# Normals from neighborhood covariances. The plane z = x/2 has normal
# proportional to (-1, 0, 2); the sign rule makes the largest component
# positive.
normals = estimate_normals(cloud, index, k=16)
expected = np.array([-1.0, 0.0, 2.0]) / np.sqrt(5.0)
agreement = np.abs(normals @ expected)
print(f"normal agreement with the analytic plane: mean {agreement.mean():.5f}")

# Binary PLY round trip, with a label channel.
labels = LabelField(rng.integers(0, 3, n), 3)
with tempfile.NamedTemporaryFile(suffix=".ply") as f:
    save_ply(cloud, f.name, labels=labels)
    back, back_labels = load_labeled_ply(f.name)
    print(f"round trip exact: positions {np.array_equal(back.positions, cloud.positions)}, "
          f"labels {np.array_equal(back_labels, labels.values)}")
