"""Point-cloud pseudo-label toolkit.

Multi-view logit back-projection, class-aware and geometry-aware label
refinement, iterative self-training label propagation, segmentation metrics,
and a deterministic synthetic-scene substrate for desk-scale verification.
"""

from .labels import UNLABELED, LabelField
from .metrics import (
    ConfidenceBin,
    confidence_bins,
    confusion,
    labeled_rate,
    metrics_report,
    miou,
)
from .ply import load_labeled_ply, load_ply, save_ply
from .pointcloud import PointCloud, SpatialIndex, build_index, estimate_normals
from .projection import (
    CameraView,
    aggregate_views,
    project,
    pseudo_labels_from_logits,
    pseudo_labels_from_views,
)
from .refine import RefineParams, calr, galr, refine_pipeline
from .stlp import (
    KnnClassifier,
    StlpConfig,
    infer,
    label_update,
    stlp_round,
    stlp_run,
)
from .superpoint import (
    SuperpointParams,
    SuperpointPartition,
    oversegment,
    partition_stats,
)
from .synth import (
    LogitNoiseSpec,
    SceneSpec,
    ViewRingSpec,
    corrupt_logits,
    generate_scene,
    render_views,
)
from .benchmark import (
    BENCHMARK_PRESETS,
    STANDARD_SEEDS,
    BenchmarkPreset,
    eval_scan,
    get_benchmark,
    label_scan,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "UNLABELED", "LabelField",
    "PointCloud", "SpatialIndex", "build_index", "estimate_normals",
    "load_ply", "load_labeled_ply", "save_ply",
    "CameraView", "project", "aggregate_views",
    "pseudo_labels_from_logits", "pseudo_labels_from_views",
    "SuperpointParams", "SuperpointPartition", "oversegment", "partition_stats",
    "RefineParams", "calr", "galr", "refine_pipeline",
    "KnnClassifier", "StlpConfig",
    "label_update", "stlp_round", "stlp_run", "infer",
    "ConfidenceBin", "confusion", "miou",
    "confidence_bins", "labeled_rate", "metrics_report",
    "SceneSpec", "LogitNoiseSpec", "ViewRingSpec",
    "generate_scene", "corrupt_logits", "render_views",
    "BenchmarkPreset", "BENCHMARK_PRESETS",
    "STANDARD_SEEDS", "get_benchmark", "label_scan", "eval_scan",
    "run_benchmark",
    "__version__",
]
