"""In-memory span trace around calls into pclabel's public functions.

The tracer wraps each layer function named in LAYERS at every place the
package refers to it (module globals and class attributes), so a call made
anywhere inside pclabel opens a span. Spans hold (id, name, start, end,
parent) plus counts taken from the call's arguments and result. Nothing is
written until `write` is called, after the measured work has finished.

Wrappers only observe: they pass arguments and results through unchanged,
which the benchmark checks by comparing traced and untraced labels.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager


def _size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _labeled(field):
    return int(field.labeled_mask.sum())


# Count extractors: (call, result) -> {count name: value}, where call holds
# the tracer, the unwrapped function and the call's arguments.
def _index_points(call, result):
    return {"points": int(call.args[0].count)}


def _partition_counts(call, result):
    # Components are the segments before small ones are merged: the same
    # call with min_size 1. The extra call is traced run only, in a span of
    # its own so it adds to no layer's self time.
    bound = inspect.signature(call.original).bind(*call.args, **call.kwargs)
    bound.arguments["min_size"] = 1
    with call.tracer.span("trace.components"):
        components = call.original(*bound.args, **bound.kwargs).segment_count
    return {"segments": int(result.segment_count), "components": int(components)}


def _back_project_counts(call, result):
    hits = result[2]
    return {"hit": int((hits > 0).sum()), "points": int(hits.shape[0])}


def _calr_counts(call, result):
    return {"kept": _labeled(result), "offered": _labeled(call.args[0])}


def _galr_counts(call, result):
    return {"labeled": _labeled(result), "points": len(result)}


def _round_counts(call, result):
    return {"adopted": _labeled(result[0]) - _labeled(call.args[1])}


def _read_counts(call, result):
    return {"bytes_read": _size(call.args[0])}


def _write_counts(call, result):
    return {"bytes_written": _size(call.args[0])}


def _ply_written(call, result):
    return {"bytes_written": _size(call.args[1])}


def _views_written(call, result):
    # Payload tensors are counted by the nested save_tensor spans; the
    # manifest is the only file save_views writes itself.
    return {"bytes_written": _size(result)}


# (span name, module, attribute, count extractor). A dotted attribute names
# a method on a class. load_confidence/save_confidence delegate their file
# to load_tensor/save_tensor, which count its bytes.
LAYERS = [
    ("synth.generate_scene", "pclabel.synth", "generate_scene", None),
    ("synth.corrupt_logits", "pclabel.synth", "corrupt_logits", None),
    ("synth.render_views", "pclabel.synth", "render_views", None),
    ("pointcloud.build_index", "pclabel.pointcloud", "build_index", _index_points),
    ("pointcloud.estimate_normals", "pclabel.pointcloud", "estimate_normals", None),
    ("superpoint.oversegment", "pclabel.superpoint", "oversegment", _partition_counts),
    ("superpoint.load_partition", "pclabel.superpoint", "load_partition_json", None),
    ("superpoint.save_partition", "pclabel.superpoint", "save_partition_json", None),
    ("projection.back_project", "pclabel.projection", "pseudo_labels_from_views",
     _back_project_counts),
    ("refine.calr", "pclabel.refine", "calr", _calr_counts),
    ("refine.galr", "pclabel.refine", "galr", _galr_counts),
    ("stlp.fit", "pclabel.stlp", "KnnClassifier.fit", None),
    ("stlp.predict", "pclabel.stlp", "KnnClassifier.predict", None),
    ("stlp.round", "pclabel.stlp", "stlp_round", _round_counts),
    ("stlp.run", "pclabel.stlp", "stlp_run", None),
    ("stlp.infer", "pclabel.stlp", "infer", None),
    ("metrics.report", "pclabel.metrics", "metrics_report", None),
    ("ply.load", "pclabel.ply", "load_ply", _read_counts),
    ("ply.load", "pclabel.ply", "load_labeled_ply", _read_counts),
    ("ply.save", "pclabel.ply", "save_ply", _ply_written),
    ("tensorio.load", "pclabel.tensorio", "load_tensor", _read_counts),
    ("tensorio.load", "pclabel.tensorio", "load_confidence", None),
    ("tensorio.load", "pclabel.tensorio", "load_views", _read_counts),
    ("tensorio.load", "pclabel.tensorio", "load_class_names", _read_counts),
    ("tensorio.load", "pclabel.tensorio", "load_scene_mask", _read_counts),
    ("tensorio.load", "pclabel.tensorio", "load_labels_text", _read_counts),
    ("tensorio.save", "pclabel.tensorio", "save_tensor", _write_counts),
    ("tensorio.save", "pclabel.tensorio", "save_confidence", None),
    ("tensorio.save", "pclabel.tensorio", "save_views", _views_written),
    ("tensorio.save", "pclabel.tensorio", "save_class_names", _write_counts),
    ("tensorio.save", "pclabel.tensorio", "save_scene_mask", _write_counts),
    ("tensorio.save", "pclabel.tensorio", "save_labels_text", _write_counts),
    ("tensorio.save", "pclabel.tensorio", "save_report_jsonl", _write_counts),
]


_Call = namedtuple("_Call", "tracer original args kwargs")


class Tracer:
    """Records spans in memory; `installed()` wraps the layer functions."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, counts]
        self._stack = []

    @contextmanager
    def span(self, name):
        """Open a span; yields its counts dict for the caller to fill."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, name, time.perf_counter(), None, parent, {}]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record[5]
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(_Call(self, fn, args, kwargs), result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every LAYERS function wherever pclabel binds it; undo on exit."""
        undo = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pclabel" or name.startswith("pclabel.")]
        try:
            for name, module_name, attr, count in LAYERS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original, count))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, count)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def layer_table(self, roots=None):
        """Per span name: calls, inclusive and self seconds, summed counts.

        Self time is a span's duration minus the time its child spans cover.
        Spans run on one thread and nest, so children never overlap and
        their durations add. `roots` restricts the table to the subtrees
        under the given span ids.
        """
        keep = None
        if roots is not None:
            keep = set(roots)
            for span_id, _, _, _, parent, _ in self.spans:
                if parent in keep:
                    keep.add(span_id)
        child_time = defaultdict(float)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = {}
        for span_id, name, start, end, parent, counts in self.spans:
            if keep is not None and span_id not in keep:
                continue
            row = table.setdefault(
                name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "counts": {}})
            row["calls"] += 1
            row["inclusive_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
            for key, value in counts.items():
                row["counts"][key] = row["counts"].get(key, 0) + value
        return table

    def write(self, path, header):
        """Write the header, every span, then the per-layer table as JSONL."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for span_id, name, start, end, parent, counts in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "counts": counts}, sort_keys=True) + "\n")
            f.write(json.dumps({"layers": self.layer_table()}, sort_keys=True) + "\n")
