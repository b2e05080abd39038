import numpy as np
import pytest

from pclabel import LabelField, UNLABELED, load_labeled_ply, load_ply, save_ply
from pclabel.ply import PlyError

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
