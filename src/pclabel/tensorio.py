"""On-disk formats besides PLY: LF01 tensors, view manifests, masks, labels.

LF01 is the logit/confidence tensor file: 4-byte magic "LF01", then two
little-endian int32 (rows, columns), then row-major float32 data. View
manifests are JSON arrays of posed views whose class logits live in sibling
LF01 files (one row per pixel, row-major). Scene masks are JSON arrays of the
class names present; label listings are newline-delimited ints with -1 for
unlabeled. Full layouts in docs/formats.md.
"""

from __future__ import annotations

import json
import os
import struct
from typing import List, Sequence

import numpy as np

from .labels import LabelField
from .projection import CameraView

LF01_MAGIC = b"LF01"


def read_text(path, encoding: str = "utf-8", parse=json.loads):
    """parse(contents) of a text file; a bad byte or a parse error names the file."""
    try:
        with open(path, "r", encoding=encoding) as f:
            return parse(f.read())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


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
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != LF01_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r} at byte 0 (want b'LF01')")
        header = f.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header at byte {4 + len(header)}")
        rows, cols = struct.unpack("<ii", header)
        if rows < 0 or cols < 0:
            raise ValueError(f"{path}: negative dimensions ({rows}, {cols})")
        expected = rows * cols * 4
        found = os.fstat(f.fileno()).st_size - 12
        if found < expected:
            raise ValueError(
                f"{path}: truncated body at byte {12 + found}: "
                f"expected {expected} data bytes for ({rows}, {cols})"
            )
        data = f.read(expected)
    return np.frombuffer(data, dtype="<f4").reshape(rows, cols).copy()


def save_confidence(path, confidence: np.ndarray) -> None:
    """Confidence vector as an LF01 tensor with one column."""
    save_tensor(path, np.asarray(confidence, dtype=np.float64).reshape(-1, 1))


def load_confidence(path) -> np.ndarray:
    t = load_tensor(path)
    if t.shape[1] != 1:
        raise ValueError(f"{path}: confidence tensors have 1 column, got {t.shape[1]}")
    return t[:, 0].astype(np.float64)


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


def load_views(manifest_path) -> List[CameraView]:
    """Read a view manifest and its per-pixel logit tensors."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    manifest = read_text(manifest_path, "ascii")
    if not isinstance(manifest, list):
        raise ValueError(f"{manifest_path}: manifest must be a JSON array")
    views = []
    for i, entry in enumerate(manifest):
        if not isinstance(entry, dict):
            raise ValueError(f"{manifest_path}: view {i} is not an object: {entry!r}")
        try:
            width = int(entry["width"])
            height = int(entry["height"])
            flat = load_tensor(os.path.join(base, entry["payload_path"]))
            if flat.shape[0] != width * height:
                raise ValueError(
                    f"payload has {flat.shape[0]} rows for a "
                    f"{width}x{height} grid"
                )
            views.append(CameraView(
                intrinsics=np.asarray(entry["intrinsics"], dtype=np.float64),
                rotation=np.asarray(entry["rotation"], dtype=np.float64),
                translation=np.asarray(entry["translation"], dtype=np.float64),
                width=width,
                height=height,
                pixel_logits=flat.reshape(height, width, flat.shape[1]),
            ))
        except KeyError as e:
            raise ValueError(f"{manifest_path}: view {i} is missing {e}") from None
        except (TypeError, ValueError) as e:
            raise ValueError(f"{manifest_path}: view {i}: {e}") from None
    return views


def save_class_names(path, class_names: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(list(class_names), f)
        f.write("\n")


def load_class_names(path) -> List[str]:
    names = read_text(path)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{path}: class list must be a JSON array of strings")
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: class names must be unique")
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
    if not isinstance(present, list):
        raise ValueError(f"{path}: scene mask must be a JSON array of class names")
    lookup = {name: i for i, name in enumerate(class_names)}
    mask = np.zeros(len(class_names), dtype=bool)
    for name in present:
        if not isinstance(name, str) or name not in lookup:
            raise ValueError(f"{path}: class {name!r} is not in the class list")
        mask[lookup[name]] = True
    return mask


def save_labels_text(path, labels: LabelField) -> None:
    """One label id per line, -1 for unlabeled."""
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(str(int(v)) for v in labels.values))
        if len(labels):
            f.write("\n")


def load_labels_text(path, num_classes: int) -> LabelField:
    values = []
    lines = read_text(path, "ascii", parse=str).split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise ValueError(f"{path} line {lineno}: bad label {line!r}") from None
        if not -2**63 <= value < 2**63:
            raise ValueError(f"{path} line {lineno}: label {line!r} is out of the int64 range")
        values.append(value)
    return LabelField(np.asarray(values, dtype=np.int64), num_classes)


def save_report_jsonl(path, rows: Sequence[dict]) -> None:
    """Round report: one JSON object per line, keys sorted for stable bytes."""
    with open(path, "w", encoding="ascii") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True))
            f.write("\n")


def load_report_jsonl(path) -> List[dict]:
    return read_text(path, "ascii", parse=lambda text: [
        json.loads(line) for line in text.split("\n") if line.strip()])
