import numpy as np

import pclabel

# The public API, pinned: adding or dropping a name shows up here.
PUBLIC_NAMES = [
    "BENCHMARK_PRESETS", "BenchmarkPreset", "CameraView", "ConfidenceBin",
    "KnnClassifier", "LabelField", "LogitNoiseSpec", "PointCloud",
    "RefineParams", "STANDARD_SEEDS", "SceneSpec", "SpatialIndex",
    "StlpConfig", "SuperpointParams", "SuperpointPartition", "UNLABELED",
    "ViewRingSpec", "__version__", "aggregate_views", "build_index", "calr",
    "confidence_bins", "confusion", "corrupt_logits", "estimate_normals",
    "eval_scan", "galr", "generate_scene", "get_benchmark", "infer",
    "label_scan", "label_update", "labeled_rate", "load_labeled_ply",
    "load_ply", "metrics_report", "miou", "oversegment", "partition_stats",
    "project", "pseudo_labels_from_logits", "pseudo_labels_from_views",
    "refine_pipeline", "render_views", "run_benchmark", "save_ply",
    "stlp_round", "stlp_run",
]

# The public attributes of the core types, pinned the same way, with
# `__len__` counted as public.
PUBLIC_ATTRIBUTES = {
    "CameraView": ["channels", "height", "intrinsics", "pixel_logits",
                   "rotation", "translation", "width"],
    "KnnClassifier": ["config", "fit", "predict"],
    "LabelField": ["__len__", "labeled_mask", "num_classes", "values", "with_values"],
    "PointCloud": ["colors", "count", "positions"],
    "SpatialIndex": ["neighbors", "release", "size"],
    "SuperpointPartition": ["__len__", "assignment", "segment_count"],
}


def _instances():
    return [
        pclabel.CameraView(np.eye(3), np.eye(3), np.zeros(3), 1, 1, np.zeros((1, 1, 1))),
        pclabel.KnnClassifier(),
        pclabel.LabelField(np.zeros(1), 1),
        pclabel.PointCloud(np.zeros((1, 3)), np.zeros((1, 3), dtype=np.uint8)),
        pclabel.SpatialIndex(np.zeros((1, 3))),
        pclabel.SuperpointPartition(np.zeros(1)),
    ]


def test_star_import_binds_every_exported_name():
    # A stale string in __all__ breaks `from pclabel import *` but not
    # `import pclabel`.
    namespace = {}
    exec("from pclabel import *", namespace)
    assert [n for n in pclabel.__all__ if n not in namespace] == []


def test_public_names_are_pinned():
    assert sorted(pclabel.__all__) == PUBLIC_NAMES


def test_public_attributes_are_pinned():
    found = {type(obj).__name__: sorted(n for n in dir(obj)
                                        if not n.startswith("_") or n == "__len__")
             for obj in _instances()}
    assert found == PUBLIC_ATTRIBUTES
