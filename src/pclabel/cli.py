"""Command-line surface: synth | pseudo | refine | stlp | infer | eval | sweep.

Commands read a JSON config file (--config) and/or flags; a flag wins over
the config file, which wins over the parameter's default. Relative paths in
a config file resolve against the file's directory, and a key that no
command reads is a data error. --seed selects the scene of synth and sweep;
pseudo, refine, stlp and infer ignore it, and eval does not take it. stlp
reads one --top-v/--alpha pair in the initial refinement and in every
self-training round. sweep's grid values share one scan and re-run only
refinement and self-training. Exit codes: 0 success, 1 usage error, 2 data
error. With --json the only stdout output
is machine-readable JSON; informational messages always go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from typing import List, Optional

import numpy as np

from . import benchmark as bench
from .labels import LabelField
from .metrics import format_report, labeled_rate, metrics_report
from .ply import load_labeled_ply, load_ply, save_ply
from .projection import pseudo_labels_from_logits, pseudo_labels_from_views
from .refine import RefineParams, refine_pipeline
from .stlp import KnnClassifier, StlpConfig, infer, stlp_run
from .superpoint import (
    SuperpointParams,
    load_partition_json,
    partition_cloud,
    save_partition_json,
)
from .synth import corrupt_logits, generate_scene, render_views
from . import tensorio


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit code 1.
    def error(self, message):
        raise UsageError(message)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: dict, as_json: bool, text: Optional[str] = None) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    elif text is not None:
        print(text)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    config = tensorio.read_text(path)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    for key, value in list(config.items()):
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: config key {key!r} is not read by any command")
        if key in _PATH_KEYS and isinstance(value, str):
            config[key] = os.path.join(base, value)
    return config


_PATH_KEYS = {
    "cloud", "logits", "views", "mask", "classes", "partition", "gt",
    "labels", "confidence", "pred",
}
# Every key some command reads through _setting or _params.
_CONFIG_KEYS = _PATH_KEYS | {"occlusion_tolerance", "seed"} | {
    f.name for cls in (SuperpointParams, RefineParams, StlpConfig) for f in fields(cls)
}


def _setting(args, config: dict, key: str, kind=str, required: bool = False):
    """Flag, then config file, coerced to `kind`; None when neither sets the key.

    A value that does not coerce is a data error naming the key; so are a
    JSON boolean for a number and a fraction for an int (`int()` would
    truncate it).
    """
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        if required:
            raise UsageError(f"missing required input --{key.replace('_', '-')}")
        return None
    try:
        if (isinstance(value, bool) and kind is not str
                or kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: float() of a huge int
        raise ValueError(
            f"config key {key!r}: cannot read {value!r} as {kind.__name__}"
        ) from None


def _params(cls, args, config: dict):
    """A parameter dataclass filled from flags, then config, then its defaults.

    Each value set by a flag or the config file is coerced to the type of
    the field's default.
    """
    values = {}
    for f in fields(cls):
        value = _setting(args, config, f.name, kind=type(f.default))
        if value is not None:
            values[f.name] = value
    return cls(**values)


def _load_cloud_and_classes(args, config):
    cloud_path = _setting(args, config, "cloud", required=True)
    classes_path = _setting(args, config, "classes", required=True)
    cloud = load_ply(cloud_path)
    class_names = tensorio.load_class_names(classes_path)
    return cloud, class_names


def _load_mask(args, config, class_names):
    mask_path = _setting(args, config, "mask")
    if mask_path is None:
        return np.ones(len(class_names), dtype=bool)
    return tensorio.load_scene_mask(mask_path, class_names)


def _load_labels(args, config, key, class_names, count) -> LabelField:
    """A label listing that must cover `count` points."""
    path = _setting(args, config, key, required=True)
    labels = tensorio.load_labels_text(path, len(class_names))
    if len(labels) != count:
        raise ValueError(f"{path}: {len(labels)} labels for {count} points")
    return labels


def _load_gt(path, class_names) -> LabelField:
    """Ground truth from a PLY with a label channel or a text listing."""
    if not path.endswith(".ply"):
        return tensorio.load_labels_text(path, len(class_names))
    _, values = load_labeled_ply(path)
    if values is None:
        raise ValueError(f"{path} has no label channel")
    try:
        return LabelField(values, len(class_names))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _partition_for(args, config, cloud):
    part_path = _setting(args, config, "partition")
    if part_path is None:
        return partition_cloud(cloud, _params(SuperpointParams, args, config))
    partition = load_partition_json(part_path)
    if len(partition) != cloud.count:
        raise ValueError(
            f"{part_path}: partition covers {len(partition)} points, cloud has {cloud.count}"
        )
    return partition


def _pseudo_labels(args, config, cloud, class_names, mask):
    """Initial labels from a point-logit tensor or a view manifest."""
    logits_path = _setting(args, config, "logits")
    views_path = _setting(args, config, "views")
    if (logits_path is None) == (views_path is None):
        raise UsageError("exactly one of --logits / --views is required")
    if logits_path is not None:
        logits = tensorio.load_tensor(logits_path)
        if logits.shape[0] != cloud.count:
            raise ValueError(f"{logits_path}: logits cover {logits.shape[0]} points, "
                             f"cloud has {cloud.count}")
        if logits.shape[1] != len(class_names):
            raise ValueError(f"{logits_path}: logits have {logits.shape[1]} classes, "
                             f"class list has {len(class_names)}")
        labels, confidence = pseudo_labels_from_logits(logits, mask)
        return labels, confidence, None
    views = tensorio.load_views(views_path)
    wrong = {v.channels for v in views} - {len(class_names)}
    if wrong:
        raise ValueError(f"{views_path}: views have {min(wrong)} classes, "
                         f"class list has {len(class_names)}")
    occl = _setting(args, config, "occlusion_tolerance", kind=float)
    return pseudo_labels_from_views(cloud, views, mask, occlusion_tolerance=occl)


def cmd_synth(args, config) -> int:
    preset = bench.get_benchmark(args.preset)
    seed = _setting(args, config, "seed", kind=int) or 0
    scene = preset.scene_for(seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    cloud, gt, mask, _ = generate_scene(scene)
    logits = corrupt_logits(gt, cloud, preset.noise_for(seed))
    views = render_views(cloud, logits, preset.ring)
    save_ply(cloud, os.path.join(out, "cloud.ply"))
    save_ply(cloud, os.path.join(out, "gt.ply"), labels=gt)
    tensorio.save_scene_mask(os.path.join(out, "mask.json"), mask, scene.class_names)
    tensorio.save_class_names(os.path.join(out, "classes.json"), scene.class_names)
    tensorio.save_tensor(os.path.join(out, "logits.lf01"), logits)
    tensorio.save_views(os.path.join(out, "views"), views)
    _info(f"wrote scene fixtures for seed {seed} to {out}")
    _emit({"out": out, "points": cloud.count, "seed": seed}, args.json)
    return 0


def cmd_pseudo(args, config) -> int:
    cloud, class_names = _load_cloud_and_classes(args, config)
    mask = _load_mask(args, config, class_names)
    labels, confidence, hits = _pseudo_labels(args, config, cloud, class_names, mask)
    os.makedirs(args.out, exist_ok=True)
    tensorio.save_labels_text(os.path.join(args.out, "labels.txt"), labels)
    tensorio.save_confidence(os.path.join(args.out, "confidence.lf01"), confidence)
    record = {"out": args.out, "labeled_rate": labeled_rate(labels),
              "points": cloud.count}
    if hits is not None:
        record["hit_rate"] = float((hits > 0).mean())
    _info(f"pseudo labels written to {args.out} (labeled rate {record['labeled_rate']:.4f})")
    _emit(record, args.json)
    return 0


def cmd_refine(args, config) -> int:
    cloud, class_names = _load_cloud_and_classes(args, config)
    labels = _load_labels(args, config, "labels", class_names, cloud.count)
    confidence_path = _setting(args, config, "confidence", required=True)
    confidence = tensorio.load_confidence(confidence_path)
    if confidence.shape != (cloud.count,):
        raise ValueError(f"{confidence_path}: confidence of {confidence.shape} "
                         f"does not match {cloud.count} labels")
    params = _params(RefineParams, args, config)
    partition = _partition_for(args, config, cloud)
    refined = refine_pipeline(labels, confidence, partition, params)
    os.makedirs(args.out, exist_ok=True)
    tensorio.save_labels_text(os.path.join(args.out, "refined_labels.txt"), refined)
    save_partition_json(partition, os.path.join(args.out, "partition.json"))
    record = {"out": args.out, "labeled_rate": labeled_rate(refined),
              "segments": partition.segment_count}
    _info(f"refined labels written to {args.out} (labeled rate {record['labeled_rate']:.4f})")
    _emit(record, args.json)
    return 0


def cmd_stlp(args, config) -> int:
    cloud, class_names = _load_cloud_and_classes(args, config)
    params = _params(RefineParams, args, config)
    stlp_config = _params(StlpConfig, args, config)
    mask = _load_mask(args, config, class_names)
    labels, confidence, _ = _pseudo_labels(args, config, cloud, class_names, mask)
    partition = _partition_for(args, config, cloud)
    refined = refine_pipeline(labels, confidence, partition, params)
    gt_path = _setting(args, config, "gt")
    gt = None if gt_path is None else _load_gt(gt_path, class_names)
    final, report = stlp_run(cloud, refined, partition, stlp_config, params, mask, gt=gt)
    os.makedirs(args.out, exist_ok=True)
    tensorio.save_labels_text(os.path.join(args.out, "labels.txt"), final)
    tensorio.save_report_jsonl(os.path.join(args.out, "report.jsonl"), report)
    record = {"out": args.out, "rounds": stlp_config.rounds,
              "labeled_rate": labeled_rate(final)}
    _info(f"self-training finished: {stlp_config.rounds} rounds, "
          f"labeled rate {record['labeled_rate']:.4f}")
    _emit(record, args.json)
    return 0


def cmd_infer(args, config) -> int:
    cloud, class_names = _load_cloud_and_classes(args, config)
    labels = _load_labels(args, config, "labels", class_names, cloud.count)
    params = _params(RefineParams, args, config)
    classifier = KnnClassifier(_params(StlpConfig, args, config))
    partition = _partition_for(args, config, cloud)
    pred, _ = classifier.fit(cloud, labels).predict(cloud)
    predicted = infer(pred, partition, params.alpha,
                      keep_rejected=not args.emit_unlabeled)
    os.makedirs(args.out, exist_ok=True)
    tensorio.save_labels_text(os.path.join(args.out, "pred_labels.txt"), predicted)
    record = {"out": args.out, "labeled_rate": labeled_rate(predicted)}
    _info(f"predictions written to {args.out}")
    _emit(record, args.json)
    return 0


def cmd_eval(args, config) -> int:
    class_names = tensorio.load_class_names(
        _setting(args, config, "classes", required=True)
    )
    gt = _load_gt(_setting(args, config, "gt", required=True), class_names)
    pred = _load_labels(args, config, "pred", class_names, len(gt))
    report = metrics_report(pred, gt, class_names)
    _emit(report, args.json, text=format_report(report))
    return 0


def cmd_sweep(args, config) -> int:
    seed = _setting(args, config, "seed", kind=int) or 0
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad grid {args.grid!r}: expected comma-separated numbers")
    if not grid:
        raise UsageError("empty sweep grid")
    if args.param == "T" and not all(v.is_integer() for v in grid):
        raise UsageError(f"bad grid {args.grid!r}: round counts must be whole numbers")
    section, key, kind = {"V": ("refine", "top_v", float), "alpha": ("refine", "alpha", float),
                          "T": ("stlp", "rounds", int)}[args.param]
    grid = [kind(v) for v in grid]
    preset = bench.get_benchmark(args.preset)
    # Every variant is built, and so checked, before the scans all of them share.
    variants = [replace(preset, **{section: replace(getattr(preset, section), **{key: v})})
                for v in grid]
    run, held_out = bench.label_scan(preset, seed), bench.eval_scan(preset, seed)
    lines = [f"{key},miou,macc,labeled_rate"]
    for value, p in zip(grid, variants):
        refined = refine_pipeline(run.raw_labels, run.raw_confidence, run.partition, p.refine)
        r = bench.run_benchmark(p, seed, run=replace(run, refined=refined), held_out=held_out)
        lines.append(f"{value},{r['val_miou']:.6f},{r['val_macc']:.6f},"
                     f"{r['final_labeled_rate']:.6f}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(csv_text)
        _info(f"sweep written to {args.out}")
        _emit({"out": args.out, "rows": len(grid)}, args.json)
    else:
        print(csv_text, end="")
    return 0


# Flag groups: each command declares only the groups it reads.

def _add_config_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable JSON on stdout")


def _add_common(sub, out: str = "required"):
    """--config/--json, --seed, and --out (required unless `out` is "optional")."""
    _add_config_flags(sub)
    sub.add_argument("--seed", type=int, help="scene seed (synth, sweep)")
    sub.add_argument("--out", help="output directory", required=out == "required")


def _add_scan_flags(sub):
    sub.add_argument("--cloud", help="input cloud (PLY)")
    sub.add_argument("--classes", help="class list JSON")
    sub.add_argument("--partition", help="precomputed partition JSON")


def _add_refine_flags(sub):
    """RefineParams, and the SuperpointParams used when --partition is absent."""
    sub.add_argument("--top-v", dest="top_v", type=float, help="CALR percentage kept per class")
    sub.add_argument("--alpha", type=float, help="GALR overlap threshold")
    sub.add_argument("--angle-threshold", dest="angle_threshold", type=float,
                     help="over-segmentation angle in degrees")
    sub.add_argument("--adjacency-k", dest="adjacency_k", type=int)
    sub.add_argument("--min-size", dest="min_size", type=int)
    sub.add_argument("--normals-k", dest="normals_k", type=int)


def _add_source_flags(sub):
    sub.add_argument("--mask", help="scene mask JSON (class names present)")
    sub.add_argument("--logits", help="point logits (LF01)")
    sub.add_argument("--views", help="view manifest JSON")
    sub.add_argument("--occlusion-tolerance", dest="occlusion_tolerance", type=float)


def _add_knn_flags(sub):
    sub.add_argument("--knn-k", dest="knn_k", type=int)
    sub.add_argument("--color-weight", dest="color_weight", type=float)
    sub.add_argument("--knn-smoothing", dest="knn_smoothing", type=float)
    sub.add_argument("--knn-confidence-scale", dest="knn_confidence_scale", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="pclabel", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="generate a synthetic scene fixture")
    p.add_argument("--preset", default="room-small")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("pseudo", help="initial labels from logits or views")
    _add_scan_flags(p)
    _add_source_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_pseudo)

    p = commands.add_parser("refine", help="class-aware + geometry-aware refinement")
    _add_scan_flags(p)
    _add_refine_flags(p)
    p.add_argument("--labels", help="label listing (text)")
    p.add_argument("--confidence", help="confidence tensor (LF01, one column)")
    _add_common(p)
    p.set_defaults(func=cmd_refine)

    p = commands.add_parser("stlp", help="full pipeline + self-training rounds")
    _add_scan_flags(p)
    _add_refine_flags(p)
    _add_source_flags(p)
    p.add_argument("--gt", help="ground-truth PLY with label channel (for the report)")
    p.add_argument("--rounds", type=int, help="self-training rounds")
    _add_knn_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_stlp)

    p = commands.add_parser("infer", help="fit on labels, predict everywhere, GALR post-process")
    _add_scan_flags(p)
    _add_refine_flags(p)
    p.add_argument("--labels", help="training label listing (text)")
    _add_knn_flags(p)
    p.add_argument("--emit-unlabeled", action="store_true",
                   help="leave blocks failing the vote unlabeled")
    _add_common(p)
    p.set_defaults(func=cmd_infer)

    p = commands.add_parser("eval", help="metric report for predictions vs ground truth")
    p.add_argument("--pred", help="predicted label listing (text)")
    p.add_argument("--gt", help="ground truth (label PLY or text listing)")
    p.add_argument("--classes", help="class list JSON")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("sweep", help="hyperparameter sweep on the benchmark preset")
    p.add_argument("--param", choices=("V", "alpha", "T"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--preset", default="room-small")
    _add_common(p, out="optional")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, _load_config(args.config))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
