"""Deterministic synthetic rooms, noisy logits, and rendered views.

Scenes are a floor, four walls, and axis-aligned boxes on a placement grid,
sampled at a target density with Gaussian jitter; ground truth and analytic
normals come straight from the generating surfaces. corrupt_logits fabricates
per-point class scores whose confidence correlates with correctness and which
blur across class boundaries, so refinement and self-training have realistic
work to do; a point's nearest point of another class comes from one k-d tree
per class, built over that class's own points. render_views turns per-point
payloads into posed per-pixel maps for the back-projection path.

All randomness flows from one seeded generator per operation; the draw order
is fixed by the implementation, so equal specs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from .domain import require
from .labels import LabelField
from .pointcloud import PointCloud, cKDTree
from .projection import CameraView, pixel_owners

# Base colors per class id (cycled); chosen to be mutually distinguishable
# since the desk-scale classifier leans on color.
_CLASS_COLORS = np.array([
    [168, 168, 168],
    [222, 184, 135],
    [205, 92, 92],
    [70, 130, 180],
    [60, 179, 113],
    [218, 165, 32],
    [147, 112, 219],
    [255, 140, 0],
    [0, 139, 139],
    [199, 21, 133],
], dtype=np.float64)

_COLOR_NOISE_SIGMA = 10.0
_BOX_SIZE_RANGE = (0.35, 0.75)
_BOX_HEIGHT_RANGE = (0.5, 0.9)
_PLACEMENT_GRID = 3  # boxes go into distinct cells of a grid x grid floor layout


@dataclass(frozen=True)
class SceneSpec:
    """Room geometry, class palette, sampling density, jitter, and seed.

    The seed fixes the room layout; sample_index selects one scan of that
    layout (fresh surface sampling and jitter), so a layout can be rescanned
    for held-out evaluation.
    """

    extents: Tuple[float, float, float] = (3.2, 3.2, 1.8)
    object_count: Tuple[int, int] = (3, 5)
    class_names: Tuple[str, ...] = (
        "floor", "wall", "box", "crate", "shelf", "lamp", "bin", "plant",
    )
    density: float = 450.0
    noise_sigma: float = 0.006
    seed: int = 0
    sample_index: int = 0

    def __post_init__(self):
        for name, size in (("extents", 3), ("object_count", 2)):
            if len(getattr(self, name)) != size:
                raise ValueError(f"{name} must hold {size} values, got {getattr(self, name)!r}")
        for i, size in enumerate(self.extents):
            require(f"extents[{i}]", size, 0, open_low=True)
        require("object_count[0]", self.object_count[0], 0, integer=True)
        require("object_count[1]", self.object_count[1], self.object_count[0], integer=True)
        if "floor" not in self.class_names or "wall" not in self.class_names:
            raise ValueError("palette must include 'floor' and 'wall'")
        require("density", self.density, 0, open_low=True)
        require("noise_sigma", self.noise_sigma, 0)
        require("seed", self.seed, 0, integer=True)
        require("sample_index", self.sample_index, 0, integer=True)

    def rescan(self, sample_index: int) -> "SceneSpec":
        """Same room layout, different scan of it."""
        return replace(self, sample_index=sample_index)


@dataclass(frozen=True)
class LogitNoiseSpec:
    """Shape of the fabricated logits: signal strength, clutter, boundary blur."""

    correct_mean: float = 3.0
    correct_sigma: float = 1.8
    confusion_temperature: float = 1.0
    boundary_blur: float = 0.12
    seed: int = 0

    def __post_init__(self):
        require("correct_mean", self.correct_mean)
        require("correct_sigma", self.correct_sigma, 0)
        require("confusion_temperature", self.confusion_temperature, 0)
        require("boundary_blur", self.boundary_blur, 0)
        require("seed", self.seed, 0, integer=True)


@dataclass(frozen=True)
class ViewRingSpec:
    """Cameras on a ring inside the room, all facing the room center.

    radius_frac in (0, 1] scales the ring to the room's half-width.
    height_frac in [0, 1] places the ring vertically; target_height_frac in
    [0, 1] sets the height of the aim point on the room's central axis, so
    rings can pitch down toward the floor (partial coverage leaves regions
    for label propagation to fill).
    """

    num_cameras: int = 8
    width: int = 160
    height: int = 120
    focal: float = 110.0
    radius_frac: float = 0.8
    height_frac: float = 0.7
    target_height_frac: float = 0.5

    def __post_init__(self):
        require("num_cameras", self.num_cameras, 1, integer=True)
        require("width", self.width, 1, integer=True)
        require("height", self.height, 1, integer=True)
        require("focal", self.focal, 0, open_low=True)
        require("radius_frac", self.radius_frac, 0, 1, open_low=True)
        require("height_frac", self.height_frac, 0, 1)
        require("target_height_frac", self.target_height_frac, 0, 1)


class _SurfacePatch:
    """Rectangle origin + edge vectors with a fixed outward normal and class."""

    def __init__(self, origin, edge_u, edge_v, normal, class_id):
        self.origin = np.asarray(origin, dtype=np.float64)
        self.edge_u = np.asarray(edge_u, dtype=np.float64)
        self.edge_v = np.asarray(edge_v, dtype=np.float64)
        self.normal = np.asarray(normal, dtype=np.float64)
        self.class_id = class_id

    @property
    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.edge_u, self.edge_v)))


def _box_patches(cx, cy, sx, sy, sz, class_id) -> List[_SurfacePatch]:
    x0, x1 = cx - sx / 2, cx + sx / 2
    y0, y1 = cy - sy / 2, cy + sy / 2
    return [
        _SurfacePatch((x0, y0, sz), (sx, 0, 0), (0, sy, 0), (0, 0, 1), class_id),
        _SurfacePatch((x0, y0, 0), (0, sy, 0), (0, 0, sz), (-1, 0, 0), class_id),
        _SurfacePatch((x1, y0, 0), (0, sy, 0), (0, 0, sz), (1, 0, 0), class_id),
        _SurfacePatch((x0, y0, 0), (sx, 0, 0), (0, 0, sz), (0, -1, 0), class_id),
        _SurfacePatch((x0, y1, 0), (sx, 0, 0), (0, 0, sz), (0, 1, 0), class_id),
    ]


def generate_scene(spec: SceneSpec):
    """Sample a room; returns (cloud, ground truth, scene mask, normals)."""
    rng_layout = np.random.default_rng([spec.seed, 0])
    rng = np.random.default_rng([spec.seed, 1000 + spec.sample_index])
    ex, ey, ez = spec.extents
    names = spec.class_names
    floor_id = names.index("floor")
    wall_id = names.index("wall")
    object_ids = [i for i in range(len(names)) if i not in (floor_id, wall_id)]

    n_objects = int(rng_layout.integers(spec.object_count[0], spec.object_count[1] + 1))
    max_slots = _PLACEMENT_GRID * _PLACEMENT_GRID
    if n_objects > len(object_ids) or n_objects > max_slots:
        raise ValueError(
            f"palette/placement too small for {n_objects} requested objects "
            f"({len(object_ids)} object classes, {max_slots} slots)"
        )
    chosen = rng_layout.choice(len(object_ids), size=n_objects, replace=False)
    cells = rng_layout.choice(max_slots, size=n_objects, replace=False)

    patches = [
        _SurfacePatch((0, 0, 0), (ex, 0, 0), (0, ey, 0), (0, 0, 1), floor_id),
        _SurfacePatch((0, 0, 0), (0, ey, 0), (0, 0, ez), (1, 0, 0), wall_id),
        _SurfacePatch((ex, 0, 0), (0, ey, 0), (0, 0, ez), (-1, 0, 0), wall_id),
        _SurfacePatch((0, 0, 0), (ex, 0, 0), (0, 0, ez), (0, 1, 0), wall_id),
        _SurfacePatch((0, ey, 0), (ex, 0, 0), (0, 0, ez), (0, -1, 0), wall_id),
    ]
    cell_x = ex / _PLACEMENT_GRID
    cell_y = ey / _PLACEMENT_GRID
    for which, cell in zip(chosen, cells):
        class_id = object_ids[int(which)]
        sx = rng_layout.uniform(*_BOX_SIZE_RANGE) * min(1.0, cell_x / _BOX_SIZE_RANGE[1])
        sy = rng_layout.uniform(*_BOX_SIZE_RANGE) * min(1.0, cell_y / _BOX_SIZE_RANGE[1])
        sz = rng_layout.uniform(*_BOX_HEIGHT_RANGE) * min(1.0, ez / _BOX_HEIGHT_RANGE[1])
        gx = (int(cell) % _PLACEMENT_GRID + 0.5) * cell_x
        gy = (int(cell) // _PLACEMENT_GRID + 0.5) * cell_y
        cx = gx + rng_layout.uniform(-0.5, 0.5) * max(cell_x - sx, 0.0) * 0.9
        cy = gy + rng_layout.uniform(-0.5, 0.5) * max(cell_y - sy, 0.0) * 0.9
        patches.extend(_box_patches(cx, cy, sx, sy, sz, class_id))

    positions, colors, labels, normals = [], [], [], []
    for patch in patches:
        count = int(rng.poisson(patch.area * spec.density))
        if count == 0:
            continue
        uv = rng.random((count, 2))
        pts = (
            patch.origin
            + uv[:, :1] * patch.edge_u
            + uv[:, 1:] * patch.edge_v
            + rng.normal(0.0, spec.noise_sigma, (count, 3))
        )
        base = _CLASS_COLORS[patch.class_id % len(_CLASS_COLORS)]
        col = np.clip(
            base + rng.normal(0.0, _COLOR_NOISE_SIGMA, (count, 3)), 0, 255
        )
        positions.append(pts)
        colors.append(col.astype(np.uint8))
        labels.append(np.full(count, patch.class_id, dtype=np.int64))
        normals.append(np.tile(patch.normal, (count, 1)))

    pos = np.vstack(positions)
    col = np.vstack(colors)
    lab = np.concatenate(labels)
    nrm = np.vstack(normals)
    mask = np.bincount(lab, minlength=len(names)) > 0
    return (
        PointCloud(pos, col),
        LabelField(lab, len(names)),
        mask,
        nrm,
    )


def _nearest_other_class(positions: np.ndarray, gt: LabelField, reach: float):
    """Distance to, and class of, each labeled point's nearest labeled point
    of another class that lies closer than `reach`; inf and 0 where none does.

    Each class present gets one tree over its own points, queried by the
    labeled other-class points in the class's bounding box grown by `reach`,
    which holds every point within reach. A point's nearest other class is
    the one at the least distance; where several classes tie there, the
    lowest class id among them.
    """
    labeled = gt.labeled_mask
    classes = np.flatnonzero(np.bincount(gt.values[labeled], minlength=gt.num_classes))
    dist = np.full((classes.size, positions.shape[0]), np.inf)
    for row, cls in zip(dist, classes):
        own = positions[gt.values == cls]
        near = labeled & (gt.values != cls)
        for axis, lo, hi in zip(positions.T, own.min(axis=0), own.max(axis=0)):
            # Even rounded, this gap never exceeds the query's distance to any class point.
            near &= np.maximum(lo - axis, axis - hi) <= reach
        row[near] = cKDTree(own).query(
            positions[near], k=1, distance_upper_bound=reach, workers=-1
        )[0]
    other_dist = dist.min(axis=0)
    # argmin takes the first of tied rows, and rows ascend by class id.
    return other_dist, np.where(other_dist < np.inf, classes[dist.argmin(axis=0)], 0)


def corrupt_logits(gt: LabelField, cloud: PointCloud, spec: LogitNoiseSpec) -> np.ndarray:
    """Fabricate (N, C) logits around the ground truth.

    The true class draws from N(correct_mean, correct_sigma); other classes
    draw uniformly in [0, confusion_temperature). Inside the blur radius of a
    class boundary a point's signal lands on its nearest other class instead
    (the lowest class id among equally near ones) with probability rising
    to 1/2 at the boundary, and the two competing logits are pulled toward
    their midpoint, so both accuracy and confidence fade toward boundaries.
    Unlabeled ground-truth rows get clutter only.
    """
    if len(gt) != cloud.count:
        raise ValueError(f"{len(gt)} ground-truth labels for {cloud.count} points")
    rng = np.random.default_rng(spec.seed)
    n = cloud.count
    c = gt.num_classes
    logits = rng.random((n, c)) * spec.confusion_temperature
    correct = rng.normal(spec.correct_mean, spec.correct_sigma, n)
    labeled = np.flatnonzero(gt.labeled_mask)

    if spec.boundary_blur > 0 and labeled.size:
        flip_draw = rng.random(n)
        # Only distances below the blur radius move a logit. The bound sits
        # one ulp past it so that every such distance is still found; a
        # miss keeps an infinite distance.
        other_dist, other_class = _nearest_other_class(
            cloud.positions, gt, np.nextafter(spec.boundary_blur, np.inf)
        )
        closeness = np.clip(1.0 - other_dist / spec.boundary_blur, 0.0, 1.0)
        flipped = gt.labeled_mask & (flip_draw < 0.5 * closeness)
        target = np.where(flipped, other_class, gt.values)
        logits[labeled, target[labeled]] = correct[labeled]
        # Confidence dips toward the midpoint of the competing pair.
        band = np.flatnonzero(gt.labeled_mask & (closeness > 0))
        pull = 0.5 * closeness[band]
        first = target[band]
        second = np.where(flipped[band], gt.values[band], other_class[band])
        a = logits[band, first]
        b = logits[band, second]
        logits[band, first] = (1.0 - pull) * a + pull * b
        logits[band, second] = (1.0 - pull) * b + pull * a
    else:
        logits[labeled, gt.values[labeled]] = correct[labeled]
    return logits


def _look_at(eye: np.ndarray, target: np.ndarray):
    forward = target - eye
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward])
    return rotation, -rotation @ eye


def render_views(
    cloud: PointCloud, payload: np.ndarray, spec: ViewRingSpec
) -> List[CameraView]:
    """Rasterize a per-point payload into per-pixel logit maps on a camera ring.

    Each pixel takes the payload of the nearest projected point, ties to the
    lowest point index; pixels no point reaches stay zero. The ring is
    placed around the cloud's bounding box, so the cloud must hold points.
    """
    if cloud.count == 0:
        raise ValueError("cannot place views around a cloud with no points")
    payload = np.asarray(payload, dtype=np.float64)
    if payload.ndim != 2 or payload.shape[0] != cloud.count:
        raise ValueError(
            f"payload must be (N={cloud.count}, C), got {payload.shape}"
        )
    pos = cloud.positions
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    center = (lo + hi) / 2
    center = np.array([
        center[0], center[1], lo[2] + spec.target_height_frac * (hi[2] - lo[2])
    ])
    radius = spec.radius_frac * min(hi[0] - lo[0], hi[1] - lo[1]) / 2
    if radius <= 0:
        radius = 1.0  # degenerate bbox: stand the ring off by a meter
    cam_z = lo[2] + spec.height_frac * (hi[2] - lo[2])
    k = np.array([
        [spec.focal, 0.0, spec.width / 2],
        [0.0, spec.focal, spec.height / 2],
        [0.0, 0.0, 1.0],
    ])
    views = []
    for i in range(spec.num_cameras):
        theta = 2.0 * np.pi * i / spec.num_cameras
        eye = np.array([
            center[0] + radius * np.cos(theta),
            center[1] + radius * np.sin(theta),
            cam_z,
        ])
        rotation, translation = _look_at(eye, center)
        pixels, owners = pixel_owners(pos, k, rotation, translation, spec.width, spec.height)
        image = np.zeros((spec.height * spec.width, payload.shape[1]), dtype=np.float32)
        image[pixels] = payload[owners]
        views.append(CameraView(
            intrinsics=k,
            rotation=rotation,
            translation=translation,
            width=spec.width,
            height=spec.height,
            pixel_logits=image.reshape(spec.height, spec.width, payload.shape[1]),
        ))
    return views


