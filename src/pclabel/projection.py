"""Multi-view back-projection of pixel logits onto points and initial labels.

A posed view carries a per-pixel class-logit map. Points are projected
through the pinhole model z*[u,v,1]^T = K*(R*p+t), the one projection
`project` computes; logits sampled at the nearest pixel are averaged over
all views that see a point, and a softmax over the classes of the
scene-level mask ranks them into the initial per-point labels with
confidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .domain import require
from .labels import UNLABELED, LabelField
from .pointcloud import PointCloud

# Camera-frame depths at or below this are "behind" the camera.
MIN_DEPTH = 1e-9


@dataclass(frozen=True)
class CameraView:
    """Posed pinhole camera plus its per-pixel class logits (H, W, C).

    rotation/translation map world points into the camera frame.
    """

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    width: int
    height: int
    pixel_logits: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=np.float64)
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if k.shape != (3, 3) or r.shape != (3, 3):
            raise ValueError("intrinsics and rotation must be 3x3")
        for name, array in (("intrinsics", k), ("rotation", r), ("translation", t)):
            if not np.isfinite(array).all():
                raise ValueError(f"{name} is not finite")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-6:
            raise ValueError("rotation is not orthonormal within 1e-6")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("intrinsics must have positive focal entries")
        if k[1, 0] != 0 or (k[2] != (0, 0, 1)).any():
            raise ValueError("intrinsics must be [[fx, s, cx], [0, fy, cy], [0, 0, 1]]")
        require("width", self.width, 1, integer=True)
        require("height", self.height, 1, integer=True)
        logits = np.asarray(self.pixel_logits)
        if logits.ndim != 3 or logits.shape[:2] != (self.height, self.width):
            raise ValueError(
                f"pixel_logits must be (H={self.height}, W={self.width}, C), "
                f"got {logits.shape}"
            )
        bad = np.argwhere(~np.isfinite(logits).all(axis=2))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"pixel_logits at row {row}, col {col} are not finite")
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "pixel_logits", logits)

    @property
    def channels(self) -> int:
        return int(self.pixel_logits.shape[2])


def project(
    positions: np.ndarray,
    intrinsics: np.ndarray,
    rotation: np.ndarray,
    translation: np.ndarray,
):
    """Pinhole projection of world points: z*[u,v,1]^T = K*(R*p+t).

    Returns (uv (N, 2), depth (N,)): continuous pixel coordinates and the
    camera-frame depth. uv is meaningful only where depth > MIN_DEPTH. A
    coordinate that overflows comes out infinite or NaN, which no grid holds.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = positions @ np.asarray(rotation).T + np.asarray(translation).reshape(3)
        h = q @ np.asarray(intrinsics).T
        uv = h[:, :2] / h[:, 2:3]
    return uv, q[:, 2]


def nearest_pixel(x: np.ndarray) -> np.ndarray:
    """Continuous pixel coordinate to its nearest index, as a float; halves
    round away from zero."""
    return np.trunc(x + np.copysign(0.5, x))


def project_to_pixels(
    positions: np.ndarray,
    intrinsics: np.ndarray,
    rotation: np.ndarray,
    translation: np.ndarray,
    width: int,
    height: int,
):
    """Vectorized nearest-pixel projection through a posed pinhole camera.

    Returns (points, rows, cols, depth) for the points in front of the
    camera whose rounded pixel lies on the width x height grid, in
    ascending point order. Pixel indices are cast to int64 only after the
    grid test, so NaN, infinite and huge coordinates fall off the grid.
    """
    uv, depth = project(positions, intrinsics, rotation, translation)
    cols = nearest_pixel(uv[:, 0])
    rows = nearest_pixel(uv[:, 1])
    points = np.flatnonzero((depth > MIN_DEPTH) & (cols >= 0) & (cols < width)
                            & (rows >= 0) & (rows < height))
    return (points, rows[points].astype(np.int64), cols[points].astype(np.int64),
            depth[points])


def front_depth(rows, cols, depth, width: int, height: int) -> np.ndarray:
    """The depth buffer: each pixel's nearest point depth, inf where none lands."""
    zbuf = np.full((height, width), np.inf)
    np.minimum.at(zbuf, (rows, cols), depth)
    return zbuf


def pixel_owners(positions, intrinsics, rotation, translation, width: int, height: int):
    """Row-major indices of the pixels points reach, ascending, and the point
    owning each: the nearest, ties to the lowest point index."""
    points, rows, cols, depth = project_to_pixels(
        positions, intrinsics, rotation, translation, width, height
    )
    nearest = depth == front_depth(rows, cols, depth, width, height)[rows, cols]
    # return_index gives each pixel's first entry, and points ascend.
    pixels, first = np.unique(rows[nearest] * width + cols[nearest], return_index=True)
    return pixels, points[nearest][first]


def aggregate_views(
    cloud: PointCloud,
    views: Sequence[CameraView],
    occlusion_tolerance: Optional[float] = None,
):
    """Average each point's pixel logits over every view that sees it.

    Sampling is nearest-pixel; a point contributes in a view only when it is
    in front of the camera and its rounded pixel lies on the grid. With
    `occlusion_tolerance` set, a per-view depth buffer built from the cloud
    drops points deeper than the front surface by more than the tolerance
    (meters). Returns (aggregate (N, channels), hit_count (N,)); points with
    no correspondence get a zero row and hit_count 0.
    """
    if not views:
        raise ValueError("at least one view is required")
    if occlusion_tolerance is not None:
        require("occlusion_tolerance", occlusion_tolerance, 0)
    channels = {v.channels for v in views}
    if len(channels) != 1:
        raise ValueError(f"views disagree on channel count: {sorted(channels)}")
    n = cloud.count
    c = channels.pop()
    acc = np.zeros((n, c), dtype=np.float64)
    hits = np.zeros(n, dtype=np.int64)
    for view in views:
        points, rows, cols, depth = project_to_pixels(
            cloud.positions, view.intrinsics, view.rotation, view.translation,
            view.width, view.height,
        )
        if occlusion_tolerance is not None:
            zbuf = front_depth(rows, cols, depth, view.width, view.height)
            visible = depth <= zbuf[rows, cols] + occlusion_tolerance
            points, rows, cols = points[visible], rows[visible], cols[visible]
        acc[points] += view.pixel_logits[rows, cols]
        hits[points] += 1
    seen = hits > 0
    acc[seen] /= hits[seen, None]
    return acc, hits


def pseudo_labels_from_logits(
    logits: np.ndarray, mask: np.ndarray
) -> Tuple[LabelField, np.ndarray]:
    """Per-row softmax over the scene mask's classes: argmax label + its probability.

    A masked class scores -inf, so its probability is exactly zero. Ties go
    to the lowest class id. Rejects logits holding NaN or infinity, naming
    the first such row.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"expected (N, C) logits, got {logits.shape}")
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
    if bad.size:
        raise ValueError(f"logits row {int(bad[0])} is not finite")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (logits.shape[1],):
        raise ValueError(f"mask of {mask.shape} does not fit logits of {logits.shape}")
    if not mask.any():
        raise ValueError("scene mask excludes every class")
    scores = np.where(mask, logits, -np.inf)
    # Finite logits far apart overflow to -inf here, whose weight exp(-inf)
    # is exactly 0.
    with np.errstate(over="ignore"):
        shifted = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    labels = np.argmax(scores, axis=1)
    confidence = weights[np.arange(logits.shape[0]), labels] / weights.sum(axis=1)
    return LabelField(labels, logits.shape[1]), confidence


def pseudo_labels_from_views(
    cloud: PointCloud,
    views: Sequence[CameraView],
    mask: np.ndarray,
    occlusion_tolerance: Optional[float] = None,
):
    """Full initial-label path: aggregate, then masked softmax ranking.

    Points with no view correspondence come back UNLABELED with confidence 0.
    Returns (labels, confidence, hit_count).
    """
    logits, hits = aggregate_views(cloud, views, occlusion_tolerance)
    labels, confidence = pseudo_labels_from_logits(logits, mask)
    values = labels.values.copy()
    values[hits == 0] = UNLABELED
    confidence = confidence.copy()
    confidence[hits == 0] = 0.0
    return labels.with_values(values), confidence, hits
