"""PLY point-cloud files: ascii and binary-little-endian, single vertex element.

Readable properties are the scalar PLY types; the writer always emits
binary_little_endian with float x/y/z, uchar red/green/blue and, when labels
are given, a ushort `label` channel (UNLABELED encoded as 65535). The header
grammar accepted here is written out in docs/formats.md.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from .labels import UNLABELED, LabelField
from .pointcloud import PointCloud

LABEL_SENTINEL_U16 = 65535

_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


class PlyError(ValueError):
    """Malformed or unsupported PLY content, located by line or byte."""


def _header_error(lineno: int, message: str) -> PlyError:
    return PlyError(f"header line {lineno}: {message}")


def _parse_header(f):
    """Returns (format, vertex_count, [(name, numpy type)], body_offset, lines)."""
    lineno = 0

    def next_line() -> str:
        nonlocal lineno
        raw = f.readline()
        if not raw:
            raise _header_error(lineno + 1, "unexpected end of file inside header")
        lineno += 1
        return raw.decode("ascii", errors="replace").rstrip("\r\n")

    if next_line() != "ply":
        raise _header_error(1, "missing 'ply' magic")
    fmt = None
    vertex_count = None
    props: list = []
    in_vertex = False
    while True:
        line = next_line()
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) != 3 or tokens[2] != "1.0":
                raise _header_error(lineno, f"unsupported format line {line!r}")
            if tokens[1] not in ("ascii", "binary_little_endian"):
                raise _header_error(
                    lineno, f"unsupported format {tokens[1]!r} "
                    "(expected ascii or binary_little_endian)"
                )
            fmt = tokens[1]
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise _header_error(lineno, f"malformed element line {line!r}")
            if tokens[1] != "vertex":
                raise _header_error(
                    lineno, f"unsupported element {tokens[1]!r} (only vertex)"
                )
            if vertex_count is not None:
                raise _header_error(lineno, "duplicate vertex element")
            try:
                vertex_count = int(tokens[2])
            except ValueError:
                raise _header_error(lineno, f"bad vertex count {tokens[2]!r}") from None
            if vertex_count < 0:
                raise _header_error(lineno, "negative vertex count")
            in_vertex = True
        elif tokens[0] == "property":
            if not in_vertex:
                raise _header_error(lineno, "property outside the vertex element")
            if len(tokens) >= 2 and tokens[1] == "list":
                raise _header_error(lineno, "list properties are not supported")
            if len(tokens) != 3:
                raise _header_error(lineno, f"malformed property line {line!r}")
            if tokens[1] not in _SCALAR_TYPES:
                raise _header_error(lineno, f"unsupported property type {tokens[1]!r}")
            props.append((tokens[2], _SCALAR_TYPES[tokens[1]]))
        elif tokens[0] == "end_header":
            break
        else:
            raise _header_error(lineno, f"unrecognized header line {line!r}")
    if fmt is None:
        raise _header_error(lineno, "missing format line")
    if vertex_count is None:
        raise _header_error(lineno, "missing vertex element")
    names = [name for name, _ in props]
    for required, required_type in (
        ("x", "f4"), ("y", "f4"), ("z", "f4"),
        ("red", "u1"), ("green", "u1"), ("blue", "u1"),
    ):
        if required not in names:
            raise _header_error(lineno, f"missing required property {required!r}")
        declared = dict(props)[required]
        if declared != required_type:
            raise _header_error(
                lineno,
                f"property {required!r} must be "
                f"{'float' if required_type == 'f4' else 'uchar'}",
            )
    if len(set(names)) != len(names):
        raise _header_error(lineno, "duplicate property names")
    return fmt, vertex_count, props, f.tell(), lineno


def _body_bytes(f, body_offset) -> int:
    return os.fstat(f.fileno()).st_size - body_offset


def _read_body_binary(f, vertex_count, props, body_offset):
    dtype = np.dtype([(name, "<" + code) for name, code in props])
    expected = vertex_count * dtype.itemsize
    found = _body_bytes(f, body_offset)
    if found < expected:
        raise PlyError(
            f"truncated body at byte {body_offset + found}: "
            f"expected {expected} payload bytes, found {found}"
        )
    return np.frombuffer(f.read(expected), dtype=dtype, count=vertex_count)


# The ascii body grammar is that of str.split() and str.splitlines() on the
# body decoded as ascii: tokens are separated by 0x09-0x0D and 0x1C-0x20,
# lines end at 0x0A-0x0D and 0x1C-0x1E with "\r\n" one break, and a byte
# >= 0x80 is part of a token (and never a number). bytes.split() splits on
# the other six separators itself.
_SEPARATORS_TO_SPACE = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
# Rows converted per pass; bounds the token lists held at once.
_BLOCK_ROWS = 1 << 14


def _in_range(b, lo, hi):
    return b - np.uint8(lo) <= hi - lo  # uint8 wraps below lo


def _ascii_layout(body: bytes):
    """(line index of each non-blank line, its value count, each value's start byte)."""
    b = np.frombuffer(body, dtype=np.uint8)
    breaks = np.flatnonzero(_in_range(b, 0x0A, 0x0D) | _in_range(b, 0x1C, 0x1E))
    crlf = (b[breaks] == 0x0A) & (breaks > 0) & (b[breaks - 1] == 0x0D)
    breaks = breaks[~crlf]
    space = _in_range(b, 0x09, 0x0D) | _in_range(b, 0x1C, 0x20)
    start = ~space
    start[1:] &= space[:-1]
    del space
    starts = np.flatnonzero(start)
    del start
    counts = np.diff(np.searchsorted(starts, breaks), prepend=0, append=len(starts))
    lines = np.flatnonzero(counts)
    return lines, counts[lines], starts


def _convert(tokens, code):
    """tokens as `code` by float()/int(), or None when one does not fit."""
    try:
        if code in ("f4", "f8"):
            with np.errstate(over="ignore"):  # beyond float32 is inf; PointCloud rejects it
                return np.array(tokens, dtype=np.float64).astype(code)
        values = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    info = np.iinfo(code)
    if values.min() < info.min or values.max() > info.max:
        return None
    return values.astype(code)


def _read_body_ascii(f, vertex_count, props, header_lines, body_offset):
    dtype = np.dtype([(name, "<" + code) for name, code in props])
    # Each data row holds at least one value and, but for the last, a line
    # break: a header declaring more rows than that cannot be honest.
    found = _body_bytes(f, body_offset)
    if 2 * vertex_count - 1 > found:
        raise PlyError(
            f"truncated body at byte {body_offset + found}: "
            f"{found} bytes cannot hold the {vertex_count} declared vertices"
        )
    rows = np.zeros(vertex_count, dtype=dtype)
    body = f.read()
    lines, counts, starts = _ascii_layout(body)
    width = len(props)

    def lineno(row):
        return header_lines + 1 + int(lines[row])

    # Non-blank line i is row i. Errors are reported at the first line that
    # has one: a bad value, a wrong value count, or a row past the count.
    wrong = np.flatnonzero(counts[:vertex_count] != width)
    parsed = int(wrong[0]) if len(wrong) else min(len(lines), vertex_count)
    # Rows [0, parsed) hold `width` values each; block k spans body bytes
    # cuts[k]:cuts[k + 1], from its first value to the next row's.
    cuts = [int(starts[i]) if i < len(starts) else len(body)
            for i in width * np.append(np.arange(0, parsed, _BLOCK_ROWS), parsed)]
    del starts
    for block, lo in enumerate(range(0, parsed, _BLOCK_ROWS)):
        tokens = body[cuts[block]:cuts[block + 1]].translate(_SEPARATORS_TO_SPACE).split()
        columns = [_convert(tokens[j::width], code) for j, (_, code) in enumerate(props)]
        if any(column is None for column in columns):
            for i, token in enumerate(tokens):
                name, code = props[i % width]
                if _convert([token], code) is None:
                    text = token.decode("ascii", errors="replace")
                    raise PlyError(
                        f"line {lineno(lo + i // width)}: bad value {text!r} for {name!r}"
                    )
        for (name, _), column in zip(props, columns):
            rows[name][lo:lo + len(column)] = column
    if len(wrong):
        raise PlyError(
            f"line {lineno(parsed)}: expected {width} values, found {counts[parsed]}"
        )
    if len(lines) > vertex_count:
        raise PlyError(f"line {lineno(vertex_count)}: more data rows than declared vertices")
    if len(lines) < vertex_count:
        raise PlyError(
            f"truncated body: declared {vertex_count} vertices, found {len(lines)} rows"
        )
    return rows


def _load(path) -> Tuple[PointCloud, Optional[np.ndarray]]:
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such PLY file: {path}")
    with open(path, "rb") as f:
        try:
            fmt, vertex_count, props, body_offset, header_lines = _parse_header(f)
            if fmt == "binary_little_endian":
                rows = _read_body_binary(f, vertex_count, props, body_offset)
            else:
                rows = _read_body_ascii(
                    f, vertex_count, props, header_lines, body_offset
                )
            positions = np.stack(
                [rows["x"].astype(np.float64), rows["y"].astype(np.float64),
                 rows["z"].astype(np.float64)], axis=1,
            ) if vertex_count else np.empty((0, 3))
            colors = np.stack(
                [rows["red"], rows["green"], rows["blue"]], axis=1
            ) if vertex_count else np.empty((0, 3), dtype=np.uint8)
            cloud = PointCloud(positions, colors)
        except ValueError as e:  # PlyError, or a PointCloud check
            raise PlyError(f"{path}: {e}") from None
    labels = None
    if any(name == "label" for name, _ in props):
        raw = rows["label"].astype(np.int64) if vertex_count else np.empty(0, np.int64)
        labels = np.where(raw == LABEL_SENTINEL_U16, UNLABELED, raw)
    return cloud, labels


def load_ply(path) -> PointCloud:
    """Read a PLY point cloud (positions + colors)."""
    return _load(path)[0]


def load_labeled_ply(path) -> Tuple[PointCloud, Optional[np.ndarray]]:
    """Read a PLY point cloud plus its `label` channel when one is present.

    Labels come back as int64 with 65535 decoded to UNLABELED; callers wrap
    them in a LabelField once the class count is known.
    """
    return _load(path)


def save_ply(cloud: PointCloud, path, labels: Optional[LabelField] = None) -> None:
    """Write a binary-little-endian PLY, optionally with a ushort label channel."""
    n = cloud.count
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
              ("red", "u1"), ("green", "u1"), ("blue", "u1")]
    label_values = None
    if labels is not None:
        label_values = labels.values if isinstance(labels, LabelField) else np.asarray(labels)
        if label_values.shape != (n,):
            raise ValueError(f"labels must have length {n}, got {label_values.shape}")
        in_range = (label_values == UNLABELED) | (
            (label_values >= 0) & (label_values < LABEL_SENTINEL_U16)
        )
        if not in_range.all():
            raise ValueError("labels must fit a 16-bit channel (0..65534 or UNLABELED)")
        fields.append(("label", "<u2"))
    rows = np.zeros(n, dtype=np.dtype(fields))
    rows["x"] = cloud.positions[:, 0].astype(np.float32)
    rows["y"] = cloud.positions[:, 1].astype(np.float32)
    rows["z"] = cloud.positions[:, 2].astype(np.float32)
    rows["red"] = cloud.colors[:, 0]
    rows["green"] = cloud.colors[:, 1]
    rows["blue"] = cloud.colors[:, 2]
    if label_values is not None:
        rows["label"] = np.where(
            label_values == UNLABELED, LABEL_SENTINEL_U16, label_values
        ).astype(np.uint16)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}",
              "property float x", "property float y", "property float z",
              "property uchar red", "property uchar green", "property uchar blue"]
    if label_values is not None:
        header.append("property ushort label")
    header.append("end_header")
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(rows.tobytes())
