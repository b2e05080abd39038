"""PLY point-cloud files: ascii and binary-little-endian, single vertex element.

Readable properties are the scalar PLY types. One vertex layout, _LAYOUT,
serves both ways: the reader requires its types, and the writer (always
binary_little_endian) emits exactly it, with the `label` channel
(UNLABELED encoded as 65535) only when labels are given. The header grammar
accepted here is written out in docs/formats.md. Malformed or unsupported
content is a ValueError that begins with the path and locates the fault by
header line, data line or byte. Every well-formed ascii body is read by
numpy's loadtxt, to the same bits as float()/int(), once its line breaks
are all "\n" (LF and CRLF bodies as they are); a body it refuses, and every
fault, is read line by line through float()/int() in _read_lines.
"""

from __future__ import annotations

import io
import os
import warnings
from typing import Optional, Tuple

import numpy as np

from .domain import require_finite, whole_numbers
from .labels import UNLABELED, LabelField
from .pointcloud import PointCloud
from .tensorio import reading

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
# The vertex layout: the reader requires these types, and the writer emits
# these properties in this order. `label` alone is optional.
_LAYOUT = {"x": "float", "y": "float", "z": "float",
           "red": "uchar", "green": "uchar", "blue": "uchar", "label": "ushort"}
_POSITION, _COLOR = ("x", "y", "z"), ("red", "green", "blue")


def _header_error(lineno: int, message: str) -> ValueError:
    return ValueError(f"header line {lineno}: {message}")


def _parse_header(f):
    """Returns (format, vertex_count, [(name, numpy type)], body_offset, lines)."""
    fmt = vertex_count = None
    props: list = []
    lineno = 0
    for lineno, raw in enumerate(iter(f.readline, b""), start=1):
        line = raw.decode("ascii", errors="replace").rstrip("\r\n")
        tokens = line.split()
        if lineno == 1:
            if line != "ply":
                raise _header_error(1, "missing 'ply' magic")
        elif not tokens or tokens[0] == "comment":
            continue
        elif tokens[0] == "format":
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
        elif tokens[0] == "property":
            if vertex_count is None:
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
    else:
        raise _header_error(lineno + 1, "unexpected end of file inside header")
    if fmt is None:
        raise _header_error(lineno, "missing format line")
    if vertex_count is None:
        raise _header_error(lineno, "missing vertex element")
    declared = dict(props)
    for name, kind in _LAYOUT.items():
        if name not in declared and name != "label":
            raise _header_error(lineno, f"missing required property {name!r}")
        if declared.get(name, _SCALAR_TYPES[kind]) != _SCALAR_TYPES[kind]:
            raise _header_error(lineno, f"property {name!r} must be {kind}")
    if len(declared) != len(props):
        raise _header_error(lineno, "duplicate property names")
    return fmt, vertex_count, props, f.tell(), lineno


def _row_dtype(props) -> np.dtype:
    """The packed little-endian row of [(name, numpy type)]."""
    return np.dtype([(name, "<" + code) for name, code in props])


def _body_bytes(f, body_offset) -> int:
    return os.fstat(f.fileno()).st_size - body_offset


def _read_body_binary(f, vertex_count, props, body_offset):
    dtype = _row_dtype(props)
    expected = vertex_count * dtype.itemsize
    found = _body_bytes(f, body_offset)
    if found < expected:
        raise ValueError(f"truncated body at byte {body_offset + found}: "
                         f"expected {expected} payload bytes, found {found}")
    if found > expected:
        raise ValueError(f"{found - expected} bytes past the {vertex_count} declared "
                         f"vertices, from byte {body_offset + expected}")
    return np.frombuffer(f.read(expected), dtype=dtype, count=vertex_count)


# The ascii body grammar is that of str.split() and str.splitlines() on the
# body decoded as ascii: values are separated by 0x09-0x0D and 0x1C-0x20,
# lines end at 0x0A-0x0D and 0x1C-0x1E with "\r\n" one break, and a byte
# >= 0x80 is part of a value (and never a number). Rewriting "\r\n" and
# each other break as "\n", and 0x1F as a space, keeps every line, value
# and line number; io.BytesIO then splits the lines, and bytes.split() the
# values, as the grammar does.
_ONE_BREAK = bytes.maketrans(b"\r\v\f\x1c\x1d\x1e\x1f", b"\n\n\n\n\n\n ")
# The bytes of a plain body, whose lines and values numpy's loadtxt splits
# as the grammar does once each line ends in "\n" or "\r\n" (it refuses a
# lone "\r"). It refuses some values that float()/int() read ("1_0", "-0"
# as unsigned): those bodies, and every fault, go to _read_lines.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def _read_lines(text, vertex_count, props, header_lines):
    """The rows of a body whose lines end in "\n", read with float()/int()
    line by line. Raises at the first line with a bad value (the first in
    declared order), a wrong value count or a row past `vertex_count`."""
    rows = np.zeros(vertex_count, dtype=_row_dtype(props))
    reads = [float if code in ("f4", "f8") else int for _, code in props]
    seen = 0
    # An integer outside its type raises OverflowError (numpy >= 2) or warns
    # and wraps (numpy 1.24 to 1.26): a bad value either way. Beyond float32
    # is inf, which PointCloud rejects.
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        for lineno, line in enumerate(io.BytesIO(text), start=header_lines + 1):
            tokens = line.split()
            if not tokens:
                continue
            if seen == vertex_count:
                raise ValueError(f"line {lineno}: more data rows than declared vertices")
            if len(tokens) != len(props):
                raise ValueError(f"line {lineno}: expected {len(props)} values, "
                                 f"found {len(tokens)}")
            try:
                rows[seen] = tuple([read(token) for read, token in zip(reads, tokens)])
            except (ValueError, OverflowError, Warning):
                for (name, _), read, token in zip(props, reads, tokens):
                    try:
                        rows[name][seen] = read(token)
                    except (ValueError, OverflowError, Warning):
                        value = token.decode("ascii", errors="replace")
                        raise ValueError(
                            f"line {lineno}: bad value {value!r} for {name!r}") from None
            seen += 1
    if seen < vertex_count:
        raise ValueError(f"truncated body: declared {vertex_count} vertices, "
                         f"found {seen} rows")
    return rows


def _read_body_ascii(f, vertex_count, props, header_lines, body_offset):
    # Each data row holds at least one value and, but for the last, a line
    # break: a header declaring more rows than that cannot be honest.
    found = _body_bytes(f, body_offset)
    if 2 * vertex_count - 1 > found:
        raise ValueError(f"truncated body at byte {body_offset + found}: "
                         f"{found} bytes cannot hold the {vertex_count} declared vertices")
    # numpy's C parser reads a plain body as it is, so an LF or CRLF body
    # costs one pass before the parse. A body that is not plain, or that it
    # refuses, is rewritten with "\n" breaks, and read again only if a break
    # other than "\r\n" changed. Its rows are kept only when loadtxt raises
    # nothing, warns nothing (numpy 1.23 to 1.26 warn as they read a float
    # into an integer column) and reads `vertex_count` rows; they are then
    # the values float()/int() read. Anything else is walked by _read_lines.
    text = f.read()
    while True:
        if not text.translate(None, _PLAIN):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = np.loadtxt(io.BytesIO(text), dtype=_row_dtype(props),
                                      comments=None, ndmin=1, encoding="ascii")
                if len(rows) == vertex_count:
                    return rows
            except (ValueError, Warning):
                pass
        text = text.replace(b"\r\n", b"\n")
        lines = text.translate(_ONE_BREAK)
        if lines == text:
            return _read_lines(text, vertex_count, props, header_lines)
        text = lines


def _load(path) -> Tuple[PointCloud, Optional[np.ndarray]]:
    with open(path, "rb") as f, reading(path):
        fmt, vertex_count, props, body_offset, header_lines = _parse_header(f)
        if fmt == "binary_little_endian":
            rows = _read_body_binary(f, vertex_count, props, body_offset)
        else:
            rows = _read_body_ascii(f, vertex_count, props, header_lines, body_offset)
        positions = np.stack([rows[name].astype(np.float64) for name in _POSITION], axis=1)
        cloud = PointCloud(positions, np.stack([rows[name] for name in _COLOR], axis=1))
    labels = None
    if "label" in rows.dtype.names:
        raw = rows["label"].astype(np.int64)
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
    """Write a binary-little-endian PLY of _LAYOUT, with the label channel
    only when labels are given."""
    n = cloud.count
    layout = [(name, kind) for name, kind in _LAYOUT.items()
              if labels is not None or name != "label"]
    rows = np.zeros(n, dtype=_row_dtype([(name, _SCALAR_TYPES[kind]) for name, kind in layout]))
    for j, name in enumerate(_POSITION):
        rows[name] = cloud.positions[:, j]
    for j, name in enumerate(_COLOR):
        rows[name] = cloud.colors[:, j]
    if labels is not None:
        values = whole_numbers("labels", getattr(labels, "values", labels))
        if values.shape != (n,):
            raise ValueError(f"labels must have length {n}, got {values.shape}")
        # UNLABELED is written as the sentinel, which no label may take.
        require_finite("label", np.where(values == UNLABELED, 0, values),
                       0, LABEL_SENTINEL_U16 - 1)
        rows["label"] = np.where(values == UNLABELED, LABEL_SENTINEL_U16, values)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}",
              *(f"property {kind} {name}" for name, kind in layout), "end_header"]
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(rows.tobytes())
