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
    "project_point", "pseudo_labels_from_logits", "pseudo_labels_from_views",
    "refine_pipeline", "render_views", "run_benchmark", "save_ply",
    "stlp_round", "stlp_run",
]


def test_star_import_binds_every_exported_name():
    # A stale string in __all__ breaks `from pclabel import *` but not
    # `import pclabel`.
    namespace = {}
    exec("from pclabel import *", namespace)
    assert [n for n in pclabel.__all__ if n not in namespace] == []


def test_public_names_are_pinned():
    assert sorted(pclabel.__all__) == PUBLIC_NAMES
