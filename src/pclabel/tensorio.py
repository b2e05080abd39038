"""On-disk formats besides PLY: LF01 tensors, view manifests, masks, labels.

LF01 is the logit/confidence tensor file: 4-byte magic "LF01", then two
little-endian int32 (rows, columns), then row-major float32 data. View
manifests are JSON arrays of posed views whose class logits live in sibling
LF01 files (one row per pixel, row-major). Scene masks are JSON arrays of the
class names present; label listings are newline-delimited ints with -1 for
unlabeled, read by numpy's parser; a line loop names the first bad line of
any listing it refuses. Full layouts in docs/formats.md.

Every error in a file's content begins "<path>: ": each loader raises bare
messages inside one `with reading(path):`, which adds the path, and calls
another loader of the same file outside that block, so the path is named
once.
"""

from __future__ import annotations

import io
import json
import os
import struct
import warnings
from contextlib import contextmanager
from typing import List, Sequence

import numpy as np

from .domain import require
from .labels import UNLABELED, LabelField
from .projection import CameraView

LF01_MAGIC = b"LF01"


@contextmanager
def reading(source):
    """Name `source` in any ValueError raised inside, and in the JSON
    decoder's RecursionError: both come out as ValueError("<source>: ...")."""
    try:
        yield
    except (ValueError, RecursionError) as e:
        raise ValueError(f"{source}: {e}") from None


def read_text(path, encoding: str = "utf-8", parse=json.loads):
    """parse(contents) of a text file; a bad byte, a parse error or nesting
    too deep to parse names the file."""
    with open(path, "r", encoding=encoding) as f, reading(path):
        return parse(f.read())


def save_tensor(path, array: np.ndarray) -> None:
    """Write a 2-D array as an LF01 file (float32, row-major)."""
    a = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    if a.ndim != 2:
        raise ValueError(f"LF01 stores 2-D tensors, got shape {a.shape}")
    with open(path, "wb") as f:
        f.write(LF01_MAGIC)
        f.write(struct.pack("<ii", a.shape[0], a.shape[1]))
        f.write(a.tobytes())


def load_tensor(path) -> np.ndarray:
    """Read an LF01 file back as a float32 (rows, columns) array."""
    with open(path, "rb") as f, reading(path):
        magic = f.read(4)
        if magic != LF01_MAGIC:
            raise ValueError(f"bad magic {magic!r} at byte 0 (want b'LF01')")
        header = f.read(8)
        if len(header) != 8:
            raise ValueError(f"truncated header at byte {4 + len(header)}")
        rows, cols = struct.unpack("<ii", header)
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimensions ({rows}, {cols})")
        expected = rows * cols * 4
        found = os.fstat(f.fileno()).st_size - 12
        if found < expected:
            raise ValueError(f"truncated body at byte {12 + found}: "
                             f"expected {expected} data bytes for ({rows}, {cols})")
        if found > expected:
            raise ValueError(f"{found - expected} bytes past the ({rows}, {cols}) data, "
                             f"from byte {12 + expected}")
        data = f.read(expected)
    return np.frombuffer(data, dtype="<f4").reshape(rows, cols).copy()


def save_confidence(path, confidence: np.ndarray) -> None:
    """Confidence vector as an LF01 tensor with one column."""
    save_tensor(path, np.asarray(confidence, dtype=np.float64).reshape(-1, 1))


def load_confidence(path) -> np.ndarray:
    """A confidence vector: one column of values in [0, 1]."""
    t = load_tensor(path)
    with reading(path):
        if t.shape[1] != 1:
            raise ValueError(f"confidence tensors have 1 column, got {t.shape[1]}")
        confidence = t[:, 0].astype(np.float64)
        bad = np.flatnonzero(~((confidence >= 0) & (confidence <= 1)))  # NaN fails both
        if bad.size:
            raise ValueError(f"confidence at row {bad[0]} is "
                             f"{confidence[bad[0]]}, outside [0, 1]")
    return confidence


def save_views(directory, views: Sequence[CameraView]) -> str:
    """Write payload_###.lf01 logit files plus manifest.json into a directory.

    Returns the manifest path. Tensor rows are pixels in row-major order.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for i, view in enumerate(views):
        payload_name = f"payload_{i:03d}.lf01"
        flat = view.pixel_logits.reshape(view.height * view.width, view.channels)
        save_tensor(os.path.join(directory, payload_name), flat)
        manifest.append({
            "intrinsics": view.intrinsics.tolist(),
            "rotation": view.rotation.tolist(),
            "translation": view.translation.tolist(),
            "width": view.width,
            "height": view.height,
            "payload_path": payload_name,
        })
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="ascii") as f:
        json.dump(manifest, f, sort_keys=True)
        f.write("\n")
    return manifest_path


def _numbers(entry, key) -> np.ndarray:
    """entry[key] as float64; it must nest JSON numbers only, so that no
    string or boolean reads as one."""
    stack = [entry[key]]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(reversed(value))
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must hold JSON numbers, got {value!r}")
    return np.asarray(entry[key], dtype=np.float64)


def load_views(manifest_path) -> List[CameraView]:
    """Read a view manifest and its per-pixel logit tensors."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    manifest = read_text(manifest_path, "ascii")
    views = []
    with reading(manifest_path):
        if not isinstance(manifest, list) or not manifest:
            raise ValueError("manifest must be a non-empty JSON array")
        for i, entry in enumerate(manifest):
            if not isinstance(entry, dict):
                raise ValueError(f"view {i} is not an object: {entry!r}")
            try:
                width, height = entry["width"], entry["height"]
                # CameraView's rule, applied before the reshape needs it.
                require("width", width, 1, integer=True)
                require("height", height, 1, integer=True)
                flat = load_tensor(os.path.join(base, entry["payload_path"]))
                if flat.shape[0] != width * height:
                    raise ValueError(f"payload has {flat.shape[0]} rows for a "
                                     f"{width}x{height} grid")
                views.append(CameraView(
                    intrinsics=_numbers(entry, "intrinsics"),
                    rotation=_numbers(entry, "rotation"),
                    translation=_numbers(entry, "translation"),
                    width=width,
                    height=height,
                    pixel_logits=flat.reshape(height, width, flat.shape[1]),
                ))
            except KeyError as e:
                raise ValueError(f"view {i} is missing {e}") from None
            except (TypeError, ValueError, OverflowError, OSError) as e:
                # OverflowError: an integer beyond float64; OSError: the payload
                raise ValueError(f"view {i}: {e}") from None
    return views


def save_class_names(path, class_names: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(list(class_names), f)
        f.write("\n")


def load_class_names(path) -> List[str]:
    names = read_text(path)
    with reading(path):
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValueError("class list must be a JSON array of strings")
        if not names:
            raise ValueError("class list is empty")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
    return names


def save_scene_mask(path, mask: np.ndarray, class_names: Sequence[str]) -> None:
    """Scene mask on disk is the list of class names present."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(class_names),):
        raise ValueError(f"mask of {mask.shape} does not fit {len(class_names)} classes")
    present = [name for name, bit in zip(class_names, mask) if bit]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(present, f)
        f.write("\n")


def load_scene_mask(path, class_names: Sequence[str]) -> np.ndarray:
    present = read_text(path)
    lookup = {name: i for i, name in enumerate(class_names)}
    mask = np.zeros(len(class_names), dtype=bool)
    with reading(path):
        if not isinstance(present, list):
            raise ValueError("scene mask must be a JSON array of class names")
        if not present:
            raise ValueError("scene mask names no class")
        for name in present:
            if not isinstance(name, str) or name not in lookup:
                raise ValueError(f"class {name!r} is not in the class list")
            mask[lookup[name]] = True
    return mask


def id_strings(values: np.ndarray) -> list:
    """[str(v) for v in values] of an int64 array, by indexing a table of
    str(low) ... str(high); an array with a wider spread than its length
    converts value by value, so no input costs more than that."""
    if not values.size:
        return []
    low, high = int(values.min()), int(values.max())
    if high - low >= values.size:
        return list(map(str, values.tolist()))
    table = np.array(list(map(str, range(low, high + 1))), dtype=object)
    return table[values - low].tolist()


def save_labels_text(path, labels: LabelField) -> None:
    """One label id per line, -1 for unlabeled."""
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(id_strings(labels.values)))
        if len(labels):
            f.write("\n")


def load_labels_text(path, num_classes: int) -> LabelField:
    text = read_text(path, "ascii", parse=str)
    # numpy's parser reads a well-formed listing; only a listing it refuses,
    # or one with a value out of range, runs the line loop below, which
    # names its first bad line. Warnings are errors: loadtxt warns on an
    # empty listing, and numpy < 2 reads "1.0" into an int column with one.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):
        values = None
    if (values is not None and values.shape[1:] == (1,)
            and UNLABELED <= values.min() and values.max() < num_classes):
        return LabelField(values[:, 0], num_classes)
    values = []
    with reading(path):
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {line!r}") from None
            if not UNLABELED <= value < num_classes:
                raise ValueError(f"line {lineno}: label {value} outside "
                                 f"[0, {num_classes}) and not UNLABELED")
            values.append(value)
    return LabelField(np.asarray(values, dtype=np.int64), num_classes)


def save_report_jsonl(path, rows: Sequence[dict]) -> None:
    """Round report: one JSON object per line, keys sorted for stable bytes."""
    with open(path, "w", encoding="ascii") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True))
            f.write("\n")
