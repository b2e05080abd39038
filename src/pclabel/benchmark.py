"""The committed desk-scale benchmark protocol.

One run covers a seeded room: scan A is labeled through the full pipeline
(render views, back-project, rank, refine, self-train) and a held-out rescan
B of the same room is used for full-coverage evaluation, with the reference
partition of B serving as the inference-time geometric prior. `label_scan`
builds scan A up to its refined labels, `eval_scan` builds B, and
`run_benchmark` self-trains on the one and evaluates on the other. Fixture
parameters live in the preset and are version-pinned: calibration headroom
(raw quality band, refinement gain, propagation gain) was established by the
committed runs over STANDARD_SEEDS.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .labels import LabelField
from .metrics import labeled_rate, metrics_report
from .pointcloud import PointCloud
from .projection import pseudo_labels_from_views
from .refine import RefineParams, refine_pipeline
from .stlp import KnnClassifier, StlpConfig, infer, stlp_run
from .superpoint import SuperpointParams, SuperpointPartition, partition_cloud
from .synth import (
    LogitNoiseSpec,
    SceneSpec,
    ViewRingSpec,
    corrupt_logits,
    generate_scene,
    render_views,
)

# Seeds the committed calibration runs iterate over.
STANDARD_SEEDS = (0, 1, 2, 3, 4)

# Scene `seed` draws its logit noise from seed + NOISE_SEED_OFFSET, a
# random stream apart from the scene's own.
NOISE_SEED_OFFSET = 10_000


@dataclass(frozen=True)
class BenchmarkPreset:
    """Version-pinned fixture: scene family plus every pipeline parameter."""

    scene: SceneSpec
    noise: LogitNoiseSpec
    ring: ViewRingSpec
    occlusion_tolerance: Optional[float]
    train_superpoints: SuperpointParams
    eval_superpoints: SuperpointParams
    refine: RefineParams = field(default_factory=RefineParams)
    stlp: StlpConfig = field(default_factory=StlpConfig)

    def scene_for(self, seed: int) -> SceneSpec:
        return replace(self.scene, seed=seed)

    def noise_for(self, seed: int) -> LogitNoiseSpec:
        return replace(self.noise, seed=seed + NOISE_SEED_OFFSET)


# "room-small": a furnished synthetic room scanned by a ring of eight
# narrow-field cameras pitched toward the floor center, so roughly a quarter
# of each scan has image evidence and the rest must come from geometry and
# label propagation. Raw pseudo-label quality is calibrated into the
# [0.45, 0.65] mIoU band over STANDARD_SEEDS.
ROOM_SMALL = BenchmarkPreset(
    scene=SceneSpec(noise_sigma=0.02),
    noise=LogitNoiseSpec(
        correct_mean=3.0,
        correct_sigma=1.3,
        confusion_temperature=1.0,
        boundary_blur=0.16,
    ),
    ring=ViewRingSpec(
        num_cameras=8,
        width=64,
        height=48,
        focal=140.0,
        radius_frac=0.85,
        height_frac=0.55,
        target_height_frac=0.18,
    ),
    occlusion_tolerance=0.02,
    # Propagation runs on the scan's own fine estimated-normal partition;
    # deployment post-processing uses the coarser reference partition that
    # ships with the scan product (mirrors using dataset superpoints).
    train_superpoints=SuperpointParams(
        angle_threshold=5.5, adjacency_k=10, min_size=4, normals_k=16
    ),
    eval_superpoints=SuperpointParams(
        angle_threshold=10.0, adjacency_k=10, min_size=20
    ),
    refine=RefineParams(top_v=30.0, alpha=0.5),
    stlp=StlpConfig(
        rounds=2, knn_k=15, color_weight=0.5,
        knn_smoothing=0.03, knn_confidence_scale=0.08,
    ),
)

BENCHMARK_PRESETS = {"room-small": ROOM_SMALL}


def get_benchmark(name: str) -> BenchmarkPreset:
    try:
        return BENCHMARK_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark preset {name!r}; available: "
            f"{sorted(BENCHMARK_PRESETS)}"
        ) from None


@dataclass
class LabelingRun:
    """Scan-A products of the pipeline up to the refined initial labels."""

    cloud: PointCloud
    gt: LabelField
    scene_mask: np.ndarray
    partition: SuperpointPartition
    raw_labels: LabelField
    raw_confidence: np.ndarray
    refined: LabelField


@dataclass
class EvalScan:
    """Held-out rescan with its reference partition."""

    cloud: PointCloud
    gt: LabelField
    partition: SuperpointPartition


def label_scan(preset: BenchmarkPreset, seed: int) -> LabelingRun:
    """Scan A end to end: synthesize, back-project, rank, refine."""
    cloud, gt, scene_mask, _ = generate_scene(preset.scene_for(seed))
    partition = partition_cloud(cloud, preset.train_superpoints)
    logits = corrupt_logits(gt, cloud, preset.noise_for(seed))
    views = render_views(cloud, logits, preset.ring)
    raw_labels, raw_confidence, _ = pseudo_labels_from_views(
        cloud, views, scene_mask, occlusion_tolerance=preset.occlusion_tolerance
    )
    refined = refine_pipeline(raw_labels, raw_confidence, partition, preset.refine)
    return LabelingRun(
        cloud=cloud,
        gt=gt,
        scene_mask=scene_mask,
        partition=partition,
        raw_labels=raw_labels,
        raw_confidence=raw_confidence,
        refined=refined,
    )


def eval_scan(preset: BenchmarkPreset, seed: int) -> EvalScan:
    """Held-out rescan of the same room with its reference partition."""
    cloud, gt, _, normals = generate_scene(preset.scene_for(seed).rescan(1))
    partition = partition_cloud(cloud, preset.eval_superpoints, normals)
    return EvalScan(cloud=cloud, gt=gt, partition=partition)


def run_benchmark(
    preset: BenchmarkPreset,
    seed: int,
    rounds: Optional[int] = None,
    *,
    run: LabelingRun,
    held_out: EvalScan,
) -> dict:
    """Self-train on `run`, evaluate on `held_out`; returns the metric record.

    `run` and `held_out` come from `label_scan` and `eval_scan` for the same
    preset and seed, so a sweep builds them once; a V or alpha sweep passes
    `run` with `refined` recomputed.
    """
    config = preset.stlp if rounds is None else replace(preset.stlp, rounds=rounds)
    final_labels, report = stlp_run(
        run.cloud, run.refined, run.partition, config, preset.refine,
        run.scene_mask, gt=run.gt,
    )
    classifier = KnnClassifier(config).fit(run.cloud, final_labels)
    raw_predicted, _ = classifier.predict(held_out.cloud)
    predicted = infer(raw_predicted, held_out.partition, preset.refine.alpha)
    val = metrics_report(predicted, held_out.gt)
    val_raw = metrics_report(raw_predicted, held_out.gt)
    return {
        "seed": seed,
        "rounds": config.rounds,
        "raw_miou": metrics_report(run.raw_labels, run.gt)["miou"],
        "refined_miou": metrics_report(run.refined, run.gt)["miou"],
        "refined_labeled_rate": labeled_rate(run.refined),
        "final_labeled_rate": labeled_rate(final_labels),
        "val_miou": val["miou"],
        "val_macc": val["macc"],
        "val_miou_without_galr": val_raw["miou"],
        "round_report": report,
    }
