"""Command-line surface: synth | pseudo | refine | stlp | infer | eval | sweep.

Each setting is declared once, in _SETTINGS, with the type its value is
read as. It is a flag (--top-v) on the commands that read it and a key
(top_v) of the JSON config file given by --config; a flag wins over the
config file, which wins over the parameter's default. A str setting is a
path and must be a JSON string in the config file, where a relative path
resolves against the file's directory. The config file is checked whole
when it loads: an unread key, a null, a value of another type, a path
holding a NUL character and a setting out of its domain are data errors
naming the file. --seed
selects the scene of synth and sweep; pseudo, refine, stlp and infer
ignore it, and eval does not take it. stlp reads one --top-v/--alpha pair
in the initial refinement and in every self-training round. sweep's grid
values share one scan and re-run only refinement and self-training. Exit
codes: 0 success, 1 usage error, 2 data error; every data error in a
file's content begins with the file's path. With --json the only stdout
output is machine-readable JSON; informational messages always go to
stderr."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from typing import List, Optional

import numpy as np

from . import benchmark as bench
from .domain import require
from .labels import LabelField
from .metrics import format_report, labeled_rate, metrics_report
from .ply import load_labeled_ply, load_ply, save_ply
from .projection import pseudo_labels_from_logits, pseudo_labels_from_views
from .refine import RefineParams, galr, refine_pipeline
from .stlp import KnnClassifier, StlpConfig, infer, stlp_run
from .superpoint import (
    SuperpointParams,
    load_partition_json,
    partition_cloud,
    save_partition_json,
)
from .synth import SceneSpec, corrupt_logits, generate_scene, render_views
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
    """The settings of a config file, each read as its type in _SETTINGS and
    checked whole, whatever flags override it; every error names the file."""
    if path is None:
        return {}
    config = tensorio.read_text(path)
    base = os.path.dirname(os.path.abspath(path))
    with tensorio.reading(path):
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        for key, value in config.items():
            if key not in _SETTINGS:
                raise ValueError(f"config key {key!r} is not read by any command")
            if value is None:  # else read as "not set"
                raise ValueError(f"config key {key!r} is null")
            kind = _SETTINGS[key]
            # A JSON boolean is no number, and int() would truncate a fraction.
            try:
                if (isinstance(value, str) != (kind is str) or isinstance(value, bool)
                        or kind is int and isinstance(value, float) and not value.is_integer()):
                    raise ValueError
                config[key] = os.path.join(base, value) if kind is str else kind(value)
            except (TypeError, ValueError, OverflowError):  # int(inf), float(10**400)
                raise ValueError(f"config key {key!r}: cannot read {value!r} "
                                 f"as {kind.__name__}") from None
            if kind is str and "\0" in value:  # open() would refuse it naming neither
                raise ValueError(f"config key {key!r}: a path cannot hold a NUL character")
        if "occlusion_tolerance" in config:
            require("occlusion_tolerance", config["occlusion_tolerance"], 0)
        # Of SceneSpec's fields only seed is a setting.
        for cls in (SuperpointParams, RefineParams, StlpConfig, SceneSpec):
            cls(**{f.name: config[f.name] for f in fields(cls) if f.name in config})
    return config


# Every setting some command reads, with the type its value is read as; a
# str setting is a path. Each is a config key and, on the commands that
# read it, a flag: --top-v for top_v.
_SETTINGS = {
    **dict.fromkeys(("cloud", "logits", "views", "mask", "classes", "partition", "gt",
                     "labels", "confidence", "pred"), str),
    "occlusion_tolerance": float,
    "seed": int,
    **{f.name: type(f.default)
       for cls in (SuperpointParams, RefineParams, StlpConfig) for f in fields(cls)},
}
_HELP = {
    "cloud": "input cloud (PLY)",
    "classes": "class list JSON",
    "partition": "precomputed partition JSON",
    "mask": "scene mask JSON (class names present)",
    "logits": "point logits (LF01)",
    "views": "view manifest JSON",
    "labels": "labels (label PLY or text listing)",
    "confidence": "confidence tensor (LF01, one column)",
    "gt": "ground truth (label PLY or text listing)",
    "pred": "predicted labels (label PLY or text listing)",
    "seed": "scene seed (synth, sweep)",
    "top_v": "CALR percentage kept per class",
    "alpha": "GALR overlap threshold",
    "angle_threshold": "over-segmentation angle in degrees",
    "rounds": "self-training rounds",
}


def _setting(args, key: str, required: bool = False):
    """The flag or config value of a setting; None when neither sets it."""
    value = getattr(args, key, None)
    if value is None and required:
        raise UsageError(f"missing required input --{key.replace('_', '-')}")
    return value


def _params(cls, args):
    """A parameter dataclass from the settings given, then its defaults."""
    values = {f.name: _setting(args, f.name) for f in fields(cls)}
    return cls(**{name: value for name, value in values.items() if value is not None})


def _load_cloud_and_classes(args):
    cloud_path = _setting(args, "cloud", required=True)
    classes_path = _setting(args, "classes", required=True)
    return load_ply(cloud_path), tensorio.load_class_names(classes_path)


def _load_mask(args, class_names):
    mask_path = _setting(args, "mask")
    if mask_path is None:
        return np.ones(len(class_names), dtype=bool)
    return tensorio.load_scene_mask(mask_path, class_names)


def _fits(path, got: int, want: int, what: str, of: str = "points") -> None:
    """Refuse an input of `got` items where `want` are needed, naming its file."""
    if got != want:
        raise ValueError(f"{path}: {got} {what} for {want} {of}")


def _load_labels(args, key, class_names, count=None, of="points") -> LabelField:
    """The labels of setting `key`: the label channel of a .ply path, else a
    text listing; with `count`, they must cover that many points (`of`
    says which, in the error)."""
    path = _setting(args, key, required=True)
    if not path.endswith(".ply"):
        labels = tensorio.load_labels_text(path, len(class_names))
    else:
        values = load_labeled_ply(path)[1]
        with tensorio.reading(path):
            if values is None:
                raise ValueError("no label channel")
            labels = LabelField(values, len(class_names))
    if count is not None:
        _fits(path, len(labels), count, "labels", of)
    return labels


def _partition_for(args, cloud):
    part_path = _setting(args, "partition")
    if part_path is None:
        return partition_cloud(cloud, _params(SuperpointParams, args))
    partition = load_partition_json(part_path)
    _fits(part_path, len(partition), cloud.count, "assignment entries")
    return partition


def _pseudo_labels(args, cloud, class_names, mask):
    """Initial labels from a point-logit tensor or a view manifest."""
    logits_path = _setting(args, "logits")
    views_path = _setting(args, "views")
    if (logits_path is None) == (views_path is None):
        raise UsageError("exactly one of --logits / --views is required")
    if logits_path is not None:
        logits = tensorio.load_tensor(logits_path)
        _fits(logits_path, logits.shape[0], cloud.count, "logit rows")
        _fits(logits_path, logits.shape[1], len(class_names), "logit columns", "classes")
        labels, confidence = pseudo_labels_from_logits(logits, mask)
        return labels, confidence, None
    views = tensorio.load_views(views_path)
    for i, view in enumerate(views):
        _fits(f"{views_path}: view {i}", view.channels, len(class_names),
              "logit channels", "classes")
    return pseudo_labels_from_views(cloud, views, mask,
                                    occlusion_tolerance=_setting(args, "occlusion_tolerance"))


def cmd_synth(args) -> int:
    preset = bench.get_benchmark(args.preset)
    seed = _setting(args, "seed") or 0
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


def cmd_pseudo(args) -> int:
    cloud, class_names = _load_cloud_and_classes(args)
    mask = _load_mask(args, class_names)
    labels, confidence, hits = _pseudo_labels(args, cloud, class_names, mask)
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


def cmd_refine(args) -> int:
    cloud, class_names = _load_cloud_and_classes(args)
    labels = _load_labels(args, "labels", class_names, cloud.count)
    confidence_path = _setting(args, "confidence", required=True)
    confidence = tensorio.load_confidence(confidence_path)
    _fits(confidence_path, len(confidence), cloud.count, "confidences")
    params = _params(RefineParams, args)
    partition = _partition_for(args, cloud)
    refined = refine_pipeline(labels, confidence, partition, params)
    os.makedirs(args.out, exist_ok=True)
    tensorio.save_labels_text(os.path.join(args.out, "refined_labels.txt"), refined)
    save_partition_json(partition, os.path.join(args.out, "partition.json"))
    record = {"out": args.out, "labeled_rate": labeled_rate(refined),
              "segments": partition.segment_count}
    _info(f"refined labels written to {args.out} (labeled rate {record['labeled_rate']:.4f})")
    _emit(record, args.json)
    return 0


def cmd_stlp(args) -> int:
    cloud, class_names = _load_cloud_and_classes(args)
    params = _params(RefineParams, args)
    stlp_config = _params(StlpConfig, args)
    mask = _load_mask(args, class_names)
    gt = (None if _setting(args, "gt") is None
          else _load_labels(args, "gt", class_names, cloud.count))
    labels, confidence, _ = _pseudo_labels(args, cloud, class_names, mask)
    partition = _partition_for(args, cloud)
    refined = refine_pipeline(labels, confidence, partition, params)
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


def cmd_infer(args) -> int:
    cloud, class_names = _load_cloud_and_classes(args)
    labels = _load_labels(args, "labels", class_names, cloud.count)
    if not labels.labeled_mask.any():
        raise ValueError(f"{_setting(args, 'labels')}: no labeled point to fit on")
    params = _params(RefineParams, args)
    classifier = KnnClassifier(_params(StlpConfig, args))
    partition = _partition_for(args, cloud)
    pred, _ = classifier.fit(cloud, labels).predict(cloud)
    predicted = (galr if args.emit_unlabeled else infer)(pred, partition, params.alpha)
    os.makedirs(args.out, exist_ok=True)
    tensorio.save_labels_text(os.path.join(args.out, "pred_labels.txt"), predicted)
    record = {"out": args.out, "labeled_rate": labeled_rate(predicted)}
    _info(f"predictions written to {args.out}")
    _emit(record, args.json)
    return 0


def cmd_eval(args) -> int:
    class_names = tensorio.load_class_names(_setting(args, "classes", required=True))
    gt = _load_labels(args, "gt", class_names)
    pred = _load_labels(args, "pred", class_names, len(gt),
                        of=f"points of {_setting(args, 'gt')}")
    report = metrics_report(pred, gt, class_names)
    _emit(report, args.json, text=format_report(report))
    return 0


def cmd_sweep(args) -> int:
    seed = _setting(args, "seed") or 0
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad grid {args.grid!r}: expected comma-separated numbers")
    if not grid:
        raise UsageError("empty sweep grid")
    if args.param == "T" and not all(v.is_integer() for v in grid):
        raise UsageError(f"bad grid {args.grid!r}: round counts must be whole numbers")
    section, key = {"V": ("refine", "top_v"), "alpha": ("refine", "alpha"),
                    "T": ("stlp", "rounds")}[args.param]
    grid = [_SETTINGS[key](v) for v in grid]
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


# The settings each group of commands reads.
_SCAN = "cloud classes partition"
_SOURCE = "mask logits views occlusion_tolerance"
_REFINE = "top_v alpha angle_threshold adjacency_k min_size normals_k"
_KNN = "knn_k color_weight knn_smoothing knn_confidence_scale"


def _add_command(commands, func, help: str, settings: str, out: bool = True):
    """The subcommand of cmd_<name>: a flag per named setting, --config and
    --json, and a required --out directory if `out`."""
    sub = commands.add_parser(func.__name__[len("cmd_"):], help=help)
    for key in settings.split():
        sub.add_argument("--" + key.replace("_", "-"), type=_SETTINGS[key],
                         help=_HELP.get(key))
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--json", action="store_true", help="machine-readable JSON on stdout")
    if out:
        sub.add_argument("--out", help="output directory", required=True)
    sub.set_defaults(func=func)
    return sub


def build_parser() -> _Parser:
    parser = _Parser(prog="pclabel", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    p = _add_command(commands, cmd_synth, "generate a synthetic scene fixture", "seed")
    p.add_argument("--preset", default="room-small")
    _add_command(commands, cmd_pseudo, "initial labels from logits or views",
                 f"{_SCAN} {_SOURCE} seed")
    _add_command(commands, cmd_refine, "class-aware + geometry-aware refinement",
                 f"{_SCAN} {_REFINE} labels confidence seed")
    _add_command(commands, cmd_stlp, "full pipeline + self-training rounds",
                 f"{_SCAN} {_REFINE} {_SOURCE} gt rounds {_KNN} seed")
    p = _add_command(commands, cmd_infer, "fit on labels, predict everywhere, GALR post-process",
                     f"{_SCAN} {_REFINE} labels {_KNN} seed")
    p.add_argument("--emit-unlabeled", action="store_true",
                   help="leave blocks failing the vote unlabeled")
    _add_command(commands, cmd_eval, "metric report for predictions vs ground truth",
                 "pred gt classes", out=False)
    p = _add_command(commands, cmd_sweep, "hyperparameter sweep on the benchmark preset",
                     "seed", out=False)
    p.add_argument("--out", help="CSV file (stdout without it)")
    p.add_argument("--param", choices=("V", "alpha", "T"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--preset", default="room-small")
    return parser


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """The parsed flags, with each setting they leave unset taken from --config."""
    args = build_parser().parse_args(argv)
    for key, value in _load_config(args.config).items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
