import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pclabel import LabelField, PointCloud, UNLABELED, load_labeled_ply, load_ply, save_ply
from pclabel import ply
from pclabel.ply import PlyError, _body_bytes

from conftest import make_cloud

ASCII_HEADER = """ply
format ascii 1.0
comment generated fixture
element vertex {n}
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
"""


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
        with pytest.raises(PlyError, match="line 3"):
            load_ply(path)

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n")
        with pytest.raises(PlyError, match="binary_big_endian"):
            load_ply(path)

    def test_list_property_unsupported(self, tmp_path):
        path = tmp_path / "mesh.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "property list uchar int vertex_indices\nend_header\n"
        )
        with pytest.raises(PlyError, match="list"):
            load_ply(path)

    def test_missing_required_property(self, tmp_path):
        path = tmp_path / "noz.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        )
        with pytest.raises(PlyError, match="'z'"):
            load_ply(path)

    def test_wrong_required_type(self, tmp_path):
        path = tmp_path / "dbl.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property double x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        )
        with pytest.raises(PlyError, match="'x' must be float"):
            load_ply(path)

    def test_truncated_binary_reports_byte(self, tmp_path, rng):
        cloud = make_cloud(rng, 10)
        path = tmp_path / "cut.ply"
        save_ply(cloud, path)
        data = path.read_bytes()
        (tmp_path / "cut2.ply").write_bytes(data[:-7])
        with pytest.raises(PlyError, match="truncated body at byte"):
            load_ply(tmp_path / "cut2.ply")

    def test_ascii_truncated_reports(self, tmp_path):
        path = tmp_path / "short.ply"
        with open(path, "w") as f:
            f.write(ASCII_HEADER.format(n=3))
            f.write("0 0 0 1 2 3\n")
        with pytest.raises(PlyError, match="declared 3 vertices, found 1"):
            load_ply(path)

    def test_lying_binary_header_checked_before_reading(self, tmp_path, rng):
        path = tmp_path / "liar.ply"
        save_ply(make_cloud(rng, 2), path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"element vertex 2", b"element vertex 1000000"))
        size = path.stat().st_size
        with pytest.raises(PlyError, match=f"liar.ply: truncated body at byte {size}: "
                                           "expected 15000000 payload bytes"):
            load_ply(path)

    def test_lying_ascii_header_checked_before_allocating(self, tmp_path):
        path = tmp_path / "liar.ply"
        with open(path, "w") as f:
            f.write(ASCII_HEADER.format(n=1000000))
            f.write("0 0 0 1 2 3\n")
        size = path.stat().st_size
        with pytest.raises(PlyError, match=f"liar.ply: truncated body at byte {size}: "
                                           "12 bytes cannot hold the 1000000"):
            load_ply(path)

    def test_ascii_bad_token_line_number(self, tmp_path):
        path = tmp_path / "tok.ply"
        with open(path, "w") as f:
            f.write(ASCII_HEADER.format(n=1))
            f.write("0 0 zero 1 2 3\n")
        with pytest.raises(PlyError, match="line 12"):
            load_ply(path)

    @pytest.mark.parametrize("red", [300, -1])
    def test_ascii_integer_outside_its_type(self, tmp_path, red):
        path = tmp_path / "wide.ply"
        write_ascii(path, [(0, 0, 0, red, 2, 3)])
        with pytest.raises(PlyError,
                           match=f"wide.ply: line 12: bad value '{red}' for 'red'"):
            load_ply(path)

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
        labels = LabelField.full_unlabeled(4, 3)
        path = tmp_path / "u.ply"
        save_ply(cloud, path, labels=labels)
        row = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                        ("red", "u1"), ("green", "u1"), ("blue", "u1"),
                        ("label", "<u2")])
        raw = np.frombuffer(path.read_bytes()[-4 * row.itemsize:], dtype=row)
        assert np.all(raw["label"] == 65535)

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
        raise PlyError(
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
            raise PlyError(f"line {lineno}: more data rows than declared vertices")
        if len(tokens) != len(props):
            raise PlyError(
                f"line {lineno}: expected {len(props)} values, found {len(tokens)}"
            )
        for (name, code), token in zip(props, tokens):
            try:
                rows[name][seen] = float(token) if code in ("f4", "f8") else int(token)
            except (ValueError, OverflowError):
                # OverflowError: an integer outside its property's type.
                raise PlyError(f"line {lineno}: bad value {token!r} for {name!r}") from None
        seen += 1
    if seen < vertex_count:
        raise PlyError(
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
    b"\x1f", b"\x80", b"\xff", b"_", b"nan", b"-inf", b"1e400", b"300", b"-1", b"65536",
    b"+5", b"1_0", b"4294967296", b"\n\n", b"\n \n", b" ", b" 7", b" 0.5 ", b".", b"-",
]


def header_bytes(props, declared):
    return (b"ply\nformat ascii 1.0\nelement vertex %d\n" % declared
            + b"".join(b"property %s %s\n" % (t.encode(), n.encode()) for t, n in props)
            + b"end_header\n")


@st.composite
def ascii_bodies(draw):
    """(props, declared count, body): valid rows, then up to three splices."""
    props = draw(st.permutations(REQUIRED_PROPS))
    props += draw(st.lists(st.sampled_from(EXTRA_PROPS), unique=True, max_size=3))
    count = draw(st.integers(0, 5))
    declared = max(0, count + draw(st.integers(-2, 2)))
    body = b""
    for _ in range(count):
        values = []
        for kind, _ in props:
            if kind in ("float", "double"):
                value = repr(draw(st.floats(width=32 if kind == "float" else 64)))
            else:
                info = np.iinfo(ply._SCALAR_TYPES[kind])
                value = str(draw(st.integers(int(info.min), int(info.max))))
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
        except PlyError as e:
            return str(e)


class TestAsciiBodyMatchesLiteral:
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @settings(max_examples=600)
    @given(ascii_bodies())
    # A bad value on an earlier line than a wrong value count.
    @example((REQUIRED_PROPS, 2, b"0 0 zero 1 2 3\n0 0 0 1 2\n"))
    # A surplus row that also has the wrong value count.
    @example((REQUIRED_PROPS, 1, b"0 0 0 1 2 3\n\n0 0\n"))
    # Two bad values in one block: the earlier row wins, not the earlier column.
    @example((REQUIRED_PROPS, 4, b"0 0 0 1 2 3\n0 0 0 1 2 3\n0 0 0 1 2 300\nx 0 0 1 2 3\n"))
    # A bad value in the second block of rows.
    @example((REQUIRED_PROPS, 3, b"0 0 0 1 2 3\r\n0 0 0 1 2 3\r\n0 0 0 1 \xff 3\r\n"))
    def test_same_rows_or_same_error(self, case):
        props, declared, body = case
        expected = read_body(literal_ascii_body, props, declared, body)
        for block_rows in (2, ply._BLOCK_ROWS):
            with mock.patch.object(ply, "_BLOCK_ROWS", block_rows):
                assert read_body(ply._read_body_ascii, props, declared, body) == expected

    def test_many_blocks(self):
        rng = np.random.default_rng(7)
        rows = np.hstack([rng.standard_normal((40000, 3)) * 100,
                          rng.integers(0, 256, (40000, 3))])
        body = "".join("%.6f %.6f %.6f %d %d %d\n" % tuple(r) for r in rows).encode()
        expected = read_body(literal_ascii_body, REQUIRED_PROPS, 40000, body)
        assert isinstance(expected, bytes)
        assert read_body(ply._read_body_ascii, REQUIRED_PROPS, 40000, body) == expected
        damaged = body[:-30] + b"7 7 7 7 7\n"
        assert (read_body(ply._read_body_ascii, REQUIRED_PROPS, 40000, damaged)
                == read_body(literal_ascii_body, REQUIRED_PROPS, 40000, damaged))


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
    def test_ascii_ply_every_offset(self, tmp_path):
        path = tmp_path / "cut.ply"
        props = REQUIRED_PROPS + [("ushort", "label")]
        body = b"0.5 1.5 -2 255 0 0 3\r\n1 2 3 0 255 0 65535\n-1 0 .25 0 0 255 1\n"
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
