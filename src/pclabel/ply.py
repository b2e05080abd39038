"""PLY point-cloud files: ascii and binary-little-endian, single vertex element.

Readable properties are the scalar PLY types. One vertex layout, _LAYOUT,
serves both ways: the reader requires its types, and the writer (always
binary_little_endian) emits exactly it, with the `label` channel
(UNLABELED encoded as 65535) only when labels are given. The header grammar
accepted here is written out in docs/formats.md. Malformed or unsupported
content is a ValueError that begins with the path and locates the fault by
header line, data line or byte. A plain ascii body is read by numpy's
loadtxt, to the same bits as float()/int(); any other body, and every
fault, token by token through float()/int(); see _loadtxt.
"""

from __future__ import annotations

import io
import os
import warnings
from typing import Optional, Tuple

import numpy as np

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
# body decoded as ascii: tokens are separated by 0x09-0x0D and 0x1C-0x20,
# lines end at 0x0A-0x0D and 0x1C-0x1E with "\r\n" one break, and a byte
# >= 0x80 is part of a token (and never a number). bytes.split() splits on
# the other six separators itself.
_SEPARATORS_TO_SPACE = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
# The bytes of a plain body, whose lines and values numpy's loadtxt splits
# as the grammar does (it reads 0x0B, 0x0C and 0x1C-0x1F as spaces). It
# refuses what it would split otherwise (a lone "\r") and some tokens that
# float()/int() read ("1_0", "-0" as unsigned): those go token by token.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n\r"
# Rows converted per pass when a body is read token by token; bounds the
# token lists.
_BLOCK_ROWS = 1 << 14


def _in_range(b, lo, hi):
    return b - np.uint8(lo) <= hi - lo  # uint8 wraps below lo


def _ascii_layout(b):
    """(line index of each non-blank line, its value count, each value's end
    byte) of the body bytes `b`; a value's end is the byte past its last."""
    breaks = np.flatnonzero(_in_range(b, 0x0A, 0x0D) | _in_range(b, 0x1C, 0x1E))
    crlf = (b[breaks] == 0x0A) & (breaks > 0) & (b[breaks - 1] == 0x0D)
    breaks = breaks[~crlf]
    space = _in_range(b, 0x09, 0x0D) | _in_range(b, 0x1C, 0x20)
    end = ~space
    end[:-1] &= space[1:]
    del space
    ends = np.flatnonzero(end)
    del end
    ends += 1
    counts = np.diff(np.searchsorted(ends, breaks, side="right"),
                     prepend=0, append=len(ends))
    lines = np.flatnonzero(counts)
    return lines, counts[lines], ends


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


def _loadtxt(body, dtype, vertex_count):
    """The rows of a plain body as numpy's C parser reads them, to the same
    values as float()/int(), or None when it raises, warns (as numpy 1.23 to
    1.26 do when reading a float into an integer column) or finds other than
    `vertex_count` rows."""
    if body.translate(None, _PLAIN):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.BytesIO(body), dtype=dtype, comments=None, ndmin=1,
                              encoding="ascii")
    except (ValueError, Warning):
        return None
    return rows if len(rows) == vertex_count else None


def _read_body_ascii(f, vertex_count, props, header_lines, body_offset):
    dtype = _row_dtype(props)
    # Each data row holds at least one value and, but for the last, a line
    # break: a header declaring more rows than that cannot be honest.
    found = _body_bytes(f, body_offset)
    if 2 * vertex_count - 1 > found:
        raise ValueError(f"truncated body at byte {body_offset + found}: "
                         f"{found} bytes cannot hold the {vertex_count} declared vertices")
    body = f.read()
    rows = _loadtxt(body, dtype, vertex_count)
    if rows is not None:
        return rows
    # Any other body, and every fault, is read token by token.
    rows = np.zeros(vertex_count, dtype=dtype)
    lines, counts, ends = _ascii_layout(np.frombuffer(body, dtype=np.uint8))
    width = len(props)

    def lineno(row):
        return header_lines + 1 + int(lines[row])

    # Non-blank line i is row i. Errors are reported at the first line that
    # has one: a bad value, a wrong value count, or a row past the count.
    wrong = np.flatnonzero(counts[:vertex_count] != width)
    parsed = int(wrong[0]) if len(wrong) else min(len(lines), vertex_count)
    # Rows [0, parsed) hold `width` values each; the values of rows [lo, hi)
    # lie in body bytes cut(lo):cut(hi).
    def cut(row):
        return int(ends[row * width - 1]) if row else 0

    for lo in range(0, parsed, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, parsed)
        tokens = body[cut(lo):cut(hi)].translate(_SEPARATORS_TO_SPACE).split()
        columns = [_convert(tokens[j::width], code) for j, (_, code) in enumerate(props)]
        if any(column is None for column in columns):
            for i, token in enumerate(tokens):
                name, code = props[i % width]
                if _convert([token], code) is None:
                    text = token.decode("ascii", errors="replace")
                    raise ValueError(
                        f"line {lineno(lo + i // width)}: bad value {text!r} for {name!r}"
                    )
        for (name, _), column in zip(props, columns):
            rows[name][lo:hi] = column
    if len(wrong):
        raise ValueError(f"line {lineno(parsed)}: expected {width} values, "
                         f"found {counts[parsed]}")
    if len(lines) > vertex_count:
        raise ValueError(f"line {lineno(vertex_count)}: more data rows than declared vertices")
    if len(lines) < vertex_count:
        raise ValueError(f"truncated body: declared {vertex_count} vertices, "
                         f"found {len(lines)} rows")
    return rows


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
        values = labels.values if isinstance(labels, LabelField) else np.asarray(labels)
        if values.shape != (n,):
            raise ValueError(f"labels must have length {n}, got {values.shape}")
        in_range = (values == UNLABELED) | ((values >= 0) & (values < LABEL_SENTINEL_U16))
        if not in_range.all():
            raise ValueError("labels must fit a 16-bit channel (0..65534 or UNLABELED)")
        rows["label"] = np.where(values == UNLABELED, LABEL_SENTINEL_U16, values)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}",
              *(f"property {kind} {name}" for name, kind in layout), "end_header"]
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(rows.tobytes())
