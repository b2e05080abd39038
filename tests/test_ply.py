import hashlib
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pclabel import LabelField, PointCloud, UNLABELED, load_labeled_ply, load_ply, save_ply
from pclabel import ply
from pclabel.ply import _body_bytes

from conftest import ASCII_HEADER, make_cloud, unlabeled



def write_ascii(path, rows):
    with open(path, "w") as f:
        f.write(ASCII_HEADER.format(n=len(rows)))
        for row in rows:
            f.write(" ".join(str(v) for v in row) + "\n")


class TestLoad:
    def test_ascii_three_vertices(self, tmp_path):
        path = tmp_path / "tri.ply"
        write_ascii(path, [
            (0.5, 1.5, -2.0, 255, 0, 0),
            (1.0, 2.0, 3.0, 0, 255, 0),
            (-1.0, 0.0, 0.25, 0, 0, 255),
        ])
        cloud = load_ply(path)
        assert cloud.count == 3
        assert np.allclose(cloud.positions[0], [0.5, 1.5, -2.0])
        assert cloud.colors[2].tolist() == [0, 0, 255]

    def test_empty_vertex_count(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ascii(path, [])
        assert load_ply(path).count == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ply(tmp_path / "nope.ply")

    def test_malformed_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex nope\nend_header\n")
        with pytest.raises(ValueError, match="line 3"):
            load_ply(path)

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n")
        with pytest.raises(ValueError, match="binary_big_endian"):
            load_ply(path)

    def test_list_property_unsupported(self, tmp_path):
        path = tmp_path / "mesh.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "property list uchar int vertex_indices\nend_header\n"
        )
        with pytest.raises(ValueError, match="list"):
            load_ply(path)

    def test_missing_required_property(self, tmp_path):
        path = tmp_path / "noz.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        )
        with pytest.raises(ValueError, match="'z'"):
            load_ply(path)

    def test_wrong_required_type(self, tmp_path):
        path = tmp_path / "dbl.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property double x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        )
        with pytest.raises(ValueError, match="'x' must be float"):
            load_ply(path)

    def test_truncated_binary_reports_byte(self, tmp_path, rng):
        cloud = make_cloud(rng, 10)
        path = tmp_path / "cut.ply"
        save_ply(cloud, path)
        data = path.read_bytes()
        (tmp_path / "cut2.ply").write_bytes(data[:-7])
        with pytest.raises(ValueError, match="truncated body at byte"):
            load_ply(tmp_path / "cut2.ply")

    def test_ascii_truncated_reports(self, tmp_path):
        path = tmp_path / "short.ply"
        with open(path, "w") as f:
            f.write(ASCII_HEADER.format(n=3))
            f.write("0 0 0 1 2 3\n")
        with pytest.raises(ValueError, match="declared 3 vertices, found 1"):
            load_ply(path)

    def test_lying_binary_header_checked_before_reading(self, tmp_path, rng):
        path = tmp_path / "liar.ply"
        save_ply(make_cloud(rng, 2), path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"element vertex 2", b"element vertex 1000000"))
        size = path.stat().st_size
        with pytest.raises(ValueError, match=f"liar.ply: truncated body at byte {size}: "
                                             "expected 15000000 payload bytes"):
            load_ply(path)

    def test_lying_ascii_header_checked_before_allocating(self, tmp_path):
        path = tmp_path / "liar.ply"
        with open(path, "w") as f:
            f.write(ASCII_HEADER.format(n=1000000))
            f.write("0 0 0 1 2 3\n")
        size = path.stat().st_size
        with pytest.raises(ValueError, match=f"liar.ply: truncated body at byte {size}: "
                                             "12 bytes cannot hold the 1000000"):
            load_ply(path)

    def test_ascii_bad_token_line_number(self, tmp_path):
        path = tmp_path / "tok.ply"
        with open(path, "w") as f:
            f.write(ASCII_HEADER.format(n=1))
            f.write("0 0 zero 1 2 3\n")
        with pytest.raises(ValueError, match="line 12"):
            load_ply(path)

    @pytest.mark.parametrize("red", [300, -1])
    def test_ascii_integer_outside_its_type(self, tmp_path, red):
        path = tmp_path / "wide.ply"
        write_ascii(path, [(0, 0, 0, red, 2, 3)])
        with pytest.raises(ValueError,
                           match=f"wide.ply: line 12: bad value '{red}' for 'red'"):
            load_ply(path)

    @pytest.mark.parametrize("kind", ["float", "double", "int", "char"])
    @pytest.mark.parametrize("binary", [False, True])
    def test_label_must_be_ushort(self, tmp_path, kind, binary):
        # A float label of 2.7 used to read as class 2, and NaN as a warning.
        path = tmp_path / "lab.ply"
        header = ASCII_HEADER.format(n=1).replace("end_header", f"property {kind} label\nend_header")
        if binary:
            row = bytes(15) + np.array([2.7]).astype(ply._SCALAR_TYPES[kind]).tobytes()
            path.write_bytes(header.replace("ascii", "binary_little_endian").encode() + row)
        else:
            path.write_text(header + "0 0 0 1 2 3 2.7\n")
        for load in (load_ply, load_labeled_ply):
            with pytest.raises(ValueError, match="lab.ply: header line 12: property 'label' "
                                                 "must be ushort"):
                load(path)

    def test_label_may_be_named_uint16(self, tmp_path):
        path = tmp_path / "lab.ply"
        write_ascii(path, [(0, 0, 0, 1, 2, 3, 7)])
        path.write_text(path.read_text().replace("end_header", "property uint16 label\nend_header"))
        assert load_labeled_ply(path)[1].tolist() == [7]

    def test_binary_bytes_past_the_declared_vertices(self, tmp_path, rng):
        path = tmp_path / "long.ply"
        save_ply(make_cloud(rng, 3), path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"element vertex 3", b"element vertex 2"))
        with pytest.raises(ValueError, match=f"long.ply: 15 bytes past the 2 declared vertices, "
                                             f"from byte {len(data) - 15}"):
            load_ply(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_ascii_load_peak_memory(self, tmp_path, newline):
        # A 100,000-row %.6f scan (3.9 MB). Loading it peaked at 17.25 MiB
        # when the body's layout was found before any value was read, and at
        # 7.48 MiB when numpy's parser reads it. With lone "\r" line ends it
        # peaked at 21.86 MiB while they were read value by value.
        rng = np.random.default_rng(11)
        path = tmp_path / "scan.ply"
        with open(path, "w", encoding="ascii", newline="") as f:
            f.write(ASCII_HEADER.format(n=100_000))
            np.savetxt(f, np.hstack([rng.uniform(-5, 5, (100_000, 3)),
                                     rng.integers(0, 256, (100_000, 3))]),
                       fmt="%.6f %.6f %.6f %d %d %d", newline=newline)
        load_ply(path)
        tracemalloc.start()
        try:
            load_ply(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_properties_read_in_declared_order(self, tmp_path):
        # colors declared before coordinates; values must land correctly
        path = tmp_path / "swapped.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
            "10 20 30 1.0 2.0 3.0\n"
        )
        cloud = load_ply(path)
        assert cloud.colors[0].tolist() == [10, 20, 30]
        assert np.allclose(cloud.positions[0], [1.0, 2.0, 3.0])


class TestRoundTrip:
    def test_binary_round_trip_bitwise(self, tmp_path):
        # 50 random seeded clouds, bitwise-equal positions and colors.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            cloud = make_cloud(rng, int(rng.integers(1, 120)))
            path = tmp_path / f"c{seed}.ply"
            save_ply(cloud, path)
            back = load_ply(path)
            assert np.array_equal(back.positions, cloud.positions)
            assert np.array_equal(back.colors, cloud.colors)

    def test_save_load_100_points(self, tmp_path, rng):
        cloud = make_cloud(rng, 100)
        save_ply(cloud, tmp_path / "c.ply")
        back = load_ply(tmp_path / "c.ply")
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.colors, cloud.colors)

    def test_empty_cloud(self, tmp_path):
        cloud = make_cloud(np.random.default_rng(0), 0)
        save_ply(cloud, tmp_path / "e.ply")
        assert load_ply(tmp_path / "e.ply").count == 0

    @pytest.mark.parametrize("binary", [False, True])
    def test_empty_body_gives_typed_empty_arrays(self, tmp_path, binary):
        path = tmp_path / "e.ply"
        if binary:
            save_ply(make_cloud(np.random.default_rng(0), 0), path, labels=unlabeled(0, 3))
        else:
            path.write_text(ASCII_HEADER.format(n=0).replace(
                "end_header", "property ushort label\nend_header"))
        cloud, labels = load_labeled_ply(path)
        assert (cloud.positions.shape, cloud.positions.dtype) == ((0, 3), np.float64)
        assert (cloud.colors.shape, cloud.colors.dtype) == ((0, 3), np.uint8)
        assert (labels.shape, labels.dtype) == ((0,), np.int64)

    def test_label_channel_round_trip(self, tmp_path, rng):
        cloud = make_cloud(rng, 30)
        values = rng.integers(0, 5, 30)
        values[::3] = UNLABELED
        labels = LabelField(values, 5)
        save_ply(cloud, tmp_path / "l.ply", labels=labels)
        _, back = load_labeled_ply(tmp_path / "l.ply")
        assert np.array_equal(back, labels.values)

    def test_all_unlabeled_encodes_sentinel(self, tmp_path, rng):
        cloud = make_cloud(rng, 4)
        labels = unlabeled(4, 3)
        path = tmp_path / "u.ply"
        save_ply(cloud, path, labels=labels)
        row = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                        ("red", "u1"), ("green", "u1"), ("blue", "u1"),
                        ("label", "<u2")])
        raw = np.frombuffer(path.read_bytes()[-4 * row.itemsize:], dtype=row)
        assert np.all(raw["label"] == 65535)

    def test_writer_bytes_are_pinned(self, tmp_path):
        # The layout, the float64 -> float32 rounding and the sentinel, as
        # SHA-256s of the writer's output without and with a label channel.
        rng = np.random.default_rng(23)
        cloud = PointCloud(rng.standard_normal((40, 3)) * 10,
                           rng.integers(0, 256, (40, 3), dtype=np.uint8))
        labels = rng.integers(0, 8, 40)
        labels[::4] = UNLABELED
        labels[1] = 65534
        digests = []
        for with_labels in (None, labels):
            save_ply(cloud, tmp_path / "c.ply", labels=with_labels)
            digests.append(hashlib.sha256((tmp_path / "c.ply").read_bytes()).hexdigest())
        assert digests == [
            "5c4ef62216204bd2a83be24c1ebd05ef6d46f2182eff3fa9711d5d657810daee",
            "06138355425a754cd800f934fd20d814ab6a63b2a135a5adbf45a021f3693d91",
        ]

    def test_unlabeled_ply_has_no_labels(self, tmp_path, rng):
        cloud = make_cloud(rng, 5)
        save_ply(cloud, tmp_path / "n.ply")
        _, labels = load_labeled_ply(tmp_path / "n.ply")
        assert labels is None


def literal_ascii_body(f, vertex_count, props, header_lines, body_offset):
    """The ascii body reader as one Python loop per line and per value: the
    oracle that ply._read_body_ascii must match byte for byte and message for
    message."""
    dtype = np.dtype([(name, "<" + code) for name, code in props])
    # Each data row holds at least one value and, but for the last, a line
    # break: a header declaring more rows than that cannot be honest.
    found = _body_bytes(f, body_offset)
    if 2 * vertex_count - 1 > found:
        raise ValueError(
            f"truncated body at byte {body_offset + found}: "
            f"{found} bytes cannot hold the {vertex_count} declared vertices"
        )
    rows = np.zeros(vertex_count, dtype=dtype)
    text = f.read().decode("ascii", errors="replace")
    lines = text.splitlines()
    seen = 0
    for offset, line in enumerate(lines):
        lineno = header_lines + 1 + offset
        tokens = line.split()
        if not tokens:
            continue
        if seen >= vertex_count:
            raise ValueError(f"line {lineno}: more data rows than declared vertices")
        if len(tokens) != len(props):
            raise ValueError(
                f"line {lineno}: expected {len(props)} values, found {len(tokens)}"
            )
        for (name, code), token in zip(props, tokens):
            try:
                rows[name][seen] = float(token) if code in ("f4", "f8") else int(token)
            except (ValueError, OverflowError):
                # OverflowError: an integer outside its property's type.
                raise ValueError(f"line {lineno}: bad value {token!r} for {name!r}") from None
        seen += 1
    if seen < vertex_count:
        raise ValueError(
            f"truncated body: declared {vertex_count} vertices, found {seen} rows"
        )
    return rows


REQUIRED_PROPS = [("float", "x"), ("float", "y"), ("float", "z"),
                  ("uchar", "red"), ("uchar", "green"), ("uchar", "blue")]
EXTRA_PROPS = [("char", "c"), ("ushort", "label"), ("uint", "u"), ("double", "d"),
               ("short", "s"), ("int", "i")]
LINE_BREAKS = [b"\n", b"\r\n", b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e"]
VALUE_SPACES = [b" ", b"\t", b"  ", b"\x1f", b" \t "]
# Spliced into a valid body at random places.
DAMAGE = LINE_BREAKS + [
    b"\x1f", b"\x00", b"\x0e", b"\x7f", b"\x80", b"\xff", b"_", b"nan", b"-inf", b"1e400",
    b"300", b"-1", b"65536", b"+5", b"1_0", b"4294967296", b"\n\n", b"\n \n", b" ", b" 7",
    b" 0.5 ", b".", b"-",
]


def header_bytes(props, declared):
    return (b"ply\nformat ascii 1.0\nelement vertex %d\n" % declared
            + b"".join(b"property %s %s\n" % (t.encode(), n.encode()) for t, n in props)
            + b"end_header\n")


DIGITS = "0123456789"


@st.composite
def fixed_point(draw, places):
    """A float with `places` fraction digits: %.{places}f of a drawn float, or
    a sign, 0 to 16 - places whole digits (leading zeros, or none) and a dot."""
    if draw(st.booleans()):
        return "%.*f" % (places, draw(st.floats(-1e6, 1e6)))
    whole = draw(st.text(DIGITS, min_size=(size := draw(st.integers(0, 16 - places))),
                         max_size=size))
    return (draw(st.sampled_from(["", "-", "+"])) + whole + "."
            + draw(st.text(DIGITS, min_size=places, max_size=places)))


@st.composite
def ascii_bodies(draw):
    """(props, declared count, body): valid rows, then up to three splices.
    Each float column holds repr() values or fixed-point ones of one drawn
    precision; each integer column may be signed and zero-padded."""
    props = draw(st.permutations(REQUIRED_PROPS))
    props += draw(st.lists(st.sampled_from(EXTRA_PROPS), unique=True, max_size=3))
    styles = [draw(st.none() | st.integers(0, 9)) if kind in ("float", "double")
              else draw(st.booleans()) for kind, _ in props]
    count = draw(st.integers(0, 5))
    declared = max(0, count + draw(st.integers(-2, 2)))
    body = b""
    for _ in range(count):
        values = []
        for (kind, _), style in zip(props, styles):
            if kind not in ("float", "double"):
                info = np.iinfo(ply._SCALAR_TYPES[kind])
                value = draw(st.integers(int(info.min), int(info.max)))
                value = str(value) if not style else (
                    draw(st.sampled_from(["-"] if value < 0 else ["", "+"]))
                    + "0" * draw(st.integers(0, 3)) + str(abs(value)))
            elif style is None:
                value = repr(draw(st.floats(width=32 if kind == "float" else 64)))
            else:
                value = draw(fixed_point(style))
            values.append(value.encode())
        body += draw(st.sampled_from(VALUE_SPACES)).join(values)
        body += draw(st.sampled_from(LINE_BREAKS))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        cut = draw(st.integers(0, 2))
        body = body[:at] + draw(st.sampled_from(DAMAGE)) + body[at + cut:]
    if draw(st.booleans()):
        body = body.rstrip(b"\n")
    return props, declared, body


def read_body(reader, props, declared, body):
    """The reader's row bytes, or its error message."""
    with tempfile.TemporaryFile() as f:
        f.write(header_bytes(props, declared) + body)
        f.seek(0)
        _, vertex_count, parsed_props, offset, header_lines = ply._parse_header(f)
        try:
            return reader(f, vertex_count, parsed_props, header_lines, offset).tobytes()
        except ValueError as e:
            return str(e)


def watching_walk():
    """Patches ply._read_lines with a mock that wraps it, to count the walks."""
    return mock.patch.object(ply, "_read_lines", wraps=ply._read_lines)


class TestAsciiBodyMatchesLiteral:
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @settings(max_examples=600)
    @given(ascii_bodies())
    # A bad value on an earlier line than a wrong value count.
    @example((REQUIRED_PROPS, 2, b"0 0 zero 1 2 3\n0 0 0 1 2\n"))
    # A surplus row that also has the wrong value count.
    @example((REQUIRED_PROPS, 1, b"0 0 0 1 2 3\n\n0 0\n"))
    # Two bad values: the earlier row wins, not the earlier column.
    @example((REQUIRED_PROPS, 4, b"0 0 0 1 2 3\n0 0 0 1 2 3\n0 0 0 1 2 300\nx 0 0 1 2 3\n"))
    # A bad value after rows that end in "\r\n".
    @example((REQUIRED_PROPS, 3, b"0 0 0 1 2 3\r\n0 0 0 1 2 3\r\n0 0 0 1 \xff 3\r\n"))
    # A value with no dot where the first value of its column has one.
    @example((REQUIRED_PROPS, 2, b"5. 0.5 .5 1 2 3\n123 0.5 .5 1 2 3\n"))
    def test_same_rows_or_same_error(self, case):
        props, declared, body = case
        expected = read_body(literal_ascii_body, props, declared, body)
        assert read_body(ply._read_body_ascii, props, declared, body) == expected

    def test_many_blocks(self):
        rng = np.random.default_rng(7)
        rows = np.hstack([rng.standard_normal((40000, 3)) * 100,
                          rng.integers(0, 256, (40000, 3))])
        body = "".join("%.6f %.6f %.6f %d %d %d\n" % tuple(r) for r in rows).encode()
        expected = read_body(literal_ascii_body, REQUIRED_PROPS, 40000, body)
        assert isinstance(expected, bytes)
        # numpy's parser reads the whole plain body; it is never walked.
        with mock.patch.object(ply, "_read_lines", side_effect=AssertionError("walked")):
            assert read_body(ply._read_body_ascii, REQUIRED_PROPS, 40000, body) == expected
        damaged = body[:-30] + b"7 7 7 7 7\n"
        assert (read_body(ply._read_body_ascii, REQUIRED_PROPS, 40000, damaged)
                == read_body(literal_ascii_body, REQUIRED_PROPS, 40000, damaged))


    def test_a_token_numpy_refuses_is_read_token_by_token(self):
        # numpy's loadtxt refuses "1_0" as a float and "-0" as a uchar, which
        # float() and int() read: each body is read by the line walk, once.
        rows = [b"%d.25 -%d.50 0.125 1 2 3" % (i, i) for i in range(12)]
        for old, new in ((b"-5.50", b"1_0"), (b" 2 3", b" -0 3")):
            damaged = rows[:5] + [rows[5].replace(old, new)] + rows[6:]
            body = b"\n".join(damaged) + b"\n"
            with watching_walk() as walk:
                got = read_body(ply._read_body_ascii, REQUIRED_PROPS, 12, body)
            assert isinstance(got, bytes)
            assert got == read_body(literal_ascii_body, REQUIRED_PROPS, 12, body)
            assert walk.call_count == 1, new

    @pytest.mark.parametrize("declared, body", [
        # loadtxt reads 0x0B, 0x0C and 0x1C as spaces: one row of six values
        # where the grammar sees two lines of three.
        (1, b"0 0 0\x0b1 2 3\n"),
        (1, b"0 0 0\x0c1 2 3\n"),
        (1, b"0 0 0\x1c1 2 3\n"),
        # A lone carriage return ends a line.
        (2, b"0 0 0 1 2 3\r0 0 0 1 2 3\r"),
        # So do 0x0B, 0x0C and 0x1C-0x1E, and 0x1F separates values.
        (2, b"0 0 0 1 2 3\x0b0 0 0 1 2 3\x0b"),
        (2, b"0 0 0 1 2 3\x0c0 0 0 1 2 3"),
        (2, b"0 0 0 1 2 3\x1c0 0 0 1 2 3\x1c"),
        (2, b"0 0 0 1 2 3\x1d\r\n0 0 0 1 2 3\x1e"),
        (1, b"0\x1f0 0\x1f\x1f1\t2\x1f3\n"),
        # "#" is part of a token, never a comment.
        (1, b"#0 0 0 1 2 3\n0 0 0 1 2 3\n"),
        # A blank body, where loadtxt warns that it holds no data.
        (1, b" \n\t\n"),
    ])
    def test_bodies_numpy_reads_otherwise(self, declared, body):
        with warnings.catch_warnings(record=True) as caught, watching_walk() as walk:
            warnings.simplefilter("always")
            got = read_body(ply._read_body_ascii, REQUIRED_PROPS, declared, body)
        assert caught == []
        expected = read_body(literal_ascii_body, REQUIRED_PROPS, declared, body)
        assert got == expected
        # A body with its rows is read by numpy's parser; only a fault is walked.
        assert walk.call_count == isinstance(expected, str)

    def test_rows_loadtxt_warns_about_are_dropped(self):
        # numpy 1.23 to 1.26 read "2.0" into an integer column, with a
        # DeprecationWarning; int() refuses it.
        body = b"0.5 1.5 2.5 1 2.0 3\n"

        def loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.array([(0.5, 1.5, 2.5, 1, 2, 3)], dtype=ply._row_dtype(
                [(name, ply._SCALAR_TYPES[kind]) for kind, name in REQUIRED_PROPS]))

        with mock.patch.object(np, "loadtxt", side_effect=loadtxt) as called:
            got = read_body(ply._read_body_ascii, REQUIRED_PROPS, 1, body)
        assert called.call_count == 1
        assert got == read_body(literal_ascii_body, REQUIRED_PROPS, 1, body)
        assert got == "line 11: bad value '2.0' for 'green'"


def sweep_tokens(places, digits, rng):
    """Unsigned tokens of `digits` digits, `places` of them after the dot,
    for the mantissas 0, 1, 5, 10**digits - 1, 2**53 - 1 to 2**53 + 1 and 20
    drawn from `rng`, those of them that fit."""
    top = 10 ** digits
    mantissas = {0, 1, 5, top - 1, 2**53 - 1, 2**53, 2**53 + 1,
                 *map(int, rng.integers(0, top, 20))}
    texts = [str(m).zfill(digits) for m in sorted(mantissas) if m < top]
    return [t[:digits - places] + "." + t[digits - places:] for t in texts]


class TestDecodeBoundaries:
    def test_fraction_lengths_and_digit_counts(self):
        # Every value, of 1 to 17 digits, is read by numpy's parser bit for
        # bit as float() reads it, in float (x, y, z) and double (d) columns.
        rng = np.random.default_rng(30)
        props = REQUIRED_PROPS + [("double", "d")]
        for places in range(16):
            for digits in range(max(places, 1), 18):
                tokens = [(sign + t).encode() for t in sweep_tokens(places, digits, rng)
                          for sign in ("", "-", "+")]
                body = b"".join(b"%s %s %s 1 2 3 %s\n" % (t, t, t, t) for t in tokens)
                with watching_walk() as walk:
                    got = read_body(ply._read_body_ascii, props, len(tokens), body)
                assert got == read_body(literal_ascii_body, props, len(tokens), body)
                assert walk.call_count == 0, (places, digits)


def assert_named_or_loaded(load, path, data):
    """Each prefix of `data` loads, or fails as a ValueError naming the path."""
    loaded = []
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        try:
            load(path)
        except ValueError as e:
            assert str(e).startswith(f"{path}: "), (cut, str(e))
        else:
            loaded.append(cut)
    return loaded


class TestTruncation:
    @pytest.mark.parametrize("breaks", [(b"\r\n", b"\n"), (b"\r", b"\r"), (b"\x1e", b"\x1e")],
                             ids=["crlf-lf", "cr", "1e"])
    def test_ascii_ply_every_offset(self, tmp_path, breaks):
        path = tmp_path / "cut.ply"
        props = REQUIRED_PROPS + [("ushort", "label")]
        first, rest = breaks
        body = (b"0.5 1.5 -2 255 0 0 3" + first + b"1 2 3 0 255 0 65535" + rest
                + b"-1 0 .25 0 0 255 1" + rest)
        data = header_bytes(props, 3) + body
        # The last row is complete once its final value is.
        loaded = assert_named_or_loaded(load_labeled_ply, path, data)
        assert loaded == [len(data) - 1, len(data)]

    def test_binary_ply_every_offset(self, tmp_path, rng):
        path = tmp_path / "cut.ply"
        cloud = make_cloud(rng, 4)
        save_ply(cloud, path, labels=LabelField(np.array([0, UNLABELED, 2, 1]), 3))
        data = path.read_bytes()
        assert assert_named_or_loaded(load_labeled_ply, path, data) == [len(data)]


class TestBinaryRoundTripProperty:
    @settings(max_examples=100)
    @given(hnp.arrays(np.float32, st.tuples(st.integers(0, 20), st.just(3)),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
           st.data())
    def test_save_load_identity(self, positions, data):
        n = len(positions)
        colors = data.draw(hnp.arrays(np.uint8, (n, 3)))
        labels = data.draw(st.none() | hnp.arrays(
            np.int64, n, elements=st.sampled_from([UNLABELED, 0, 1, 65534])))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/c.ply"
            save_ply(PointCloud(positions, colors), path, labels=labels)
            back, back_labels = load_labeled_ply(path)
        assert back.positions.tobytes() == positions.astype(np.float64).tobytes()
        assert np.array_equal(back.colors, colors)
        if labels is None:
            assert back_labels is None
        else:
            assert np.array_equal(back_labels, labels)
