import json
import struct

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pclabel import CameraView, LabelField, UNLABELED
from pclabel import tensorio


class TestLF01:
    def test_round_trip(self, tmp_path, rng):
        data = rng.standard_normal((13, 5)).astype(np.float32)
        path = tmp_path / "t.lf01"
        tensorio.save_tensor(path, data)
        assert np.array_equal(tensorio.load_tensor(path), data)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.lf01"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            tensorio.load_tensor(path)

    def test_truncation_reported_with_byte(self, tmp_path, rng):
        path = tmp_path / "t.lf01"
        tensorio.save_tensor(path, rng.standard_normal((4, 4)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated body at byte"):
            tensorio.load_tensor(path)

    def test_lying_header_checked_before_reading(self, tmp_path):
        path = tmp_path / "liar.lf01"
        path.write_bytes(b"LF01" + struct.pack("<ii", 1000000, 8) + b"\0" * 8)
        with pytest.raises(ValueError, match="liar.lf01: truncated body at byte 20: "
                                             "expected 32000000 data bytes"):
            tensorio.load_tensor(path)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            tensorio.save_tensor(tmp_path / "x", np.zeros(3))

    def test_empty_tensor(self, tmp_path):
        path = tmp_path / "e.lf01"
        tensorio.save_tensor(path, np.zeros((0, 4), dtype=np.float32))
        assert tensorio.load_tensor(path).shape == (0, 4)

    @settings(max_examples=100)
    @given(hnp.arrays(np.float32, st.tuples(st.integers(0, 6), st.integers(0, 6))))
    def test_round_trip_bitwise(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/t.lf01"
            tensorio.save_tensor(path, data)
            back = tensorio.load_tensor(path)
        assert back.shape == data.shape
        assert back.tobytes() == data.tobytes()

    def test_every_truncation_is_named(self, tmp_path, rng):
        path = tmp_path / "cut.lf01"
        tensorio.save_tensor(path, rng.standard_normal((3, 2)))
        data = path.read_bytes()
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            try:
                tensorio.load_tensor(path)
            except ValueError as e:
                assert str(e).startswith(f"{path}: "), (cut, str(e))
            else:
                assert cut == len(data)

    def test_confidence_round_trip(self, tmp_path, rng):
        conf = rng.random(9)
        path = tmp_path / "c.lf01"
        tensorio.save_confidence(path, conf)
        assert np.allclose(tensorio.load_confidence(path), conf, atol=1e-7)

    def test_confidence_requires_one_column(self, tmp_path, rng):
        path = tmp_path / "c.lf01"
        tensorio.save_tensor(path, rng.random((3, 2)))
        with pytest.raises(ValueError, match="1 column"):
            tensorio.load_confidence(path)


class TestViews:
    def test_round_trip(self, tmp_path, rng):
        views = []
        for _ in range(3):
            views.append(CameraView(
                intrinsics=np.array([[50.0, 0, 8], [0, 50.0, 6], [0, 0, 1]]),
                rotation=np.eye(3),
                translation=rng.standard_normal(3),
                width=16, height=12,
                pixel_logits=rng.standard_normal((12, 16, 4)).astype(np.float32),
            ))
        manifest = tensorio.save_views(tmp_path / "views", views)
        back = tensorio.load_views(manifest)
        assert len(back) == 3
        for original, loaded in zip(views, back):
            assert np.allclose(loaded.translation, original.translation)
            assert np.array_equal(loaded.pixel_logits, original.pixel_logits)

    def test_missing_key_reported(self, tmp_path):
        (tmp_path / "manifest.json").write_text('[{"width": 4}]')
        with pytest.raises(ValueError, match="view 0"):
            tensorio.load_views(tmp_path / "manifest.json")

    def test_non_object_entry_reported(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1]")
        with pytest.raises(ValueError, match="manifest.json: view 0 is not an object: 1"):
            tensorio.load_views(tmp_path / "manifest.json")

    @pytest.mark.parametrize("key, value, reason", [
        ("width", "abc", "invalid literal for int"),
        ("width", 3, "payload has 4 rows for a 3x2 grid"),
        ("rotation", [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "rotation is not orthonormal"),
        ("payload_path", "nan.lf01", "pixel_logits at row 1, col 0 are not finite"),
    ])
    def test_bad_entry_names_manifest_and_view(self, tmp_path, key, value, reason):
        view = CameraView(
            intrinsics=np.array([[50.0, 0, 1], [0, 50.0, 1], [0, 0, 1]]),
            rotation=np.eye(3), translation=np.zeros(3), width=2, height=2,
            pixel_logits=np.zeros((2, 2, 3), dtype=np.float32))
        manifest = tensorio.save_views(tmp_path / "v", [view, view])
        nan_pixel = np.zeros((4, 3))
        nan_pixel[2, 1] = np.nan
        tensorio.save_tensor(tmp_path / "v" / "nan.lf01", nan_pixel)
        entries = json.loads(open(manifest).read())
        entries[1][key] = value
        with open(manifest, "w") as f:
            json.dump(entries, f)
        with pytest.raises(ValueError, match=f"manifest.json: view 1: {reason}"):
            tensorio.load_views(manifest)


class TestMaskAndClasses:
    def test_class_names_round_trip(self, tmp_path):
        names = ["floor", "wall", "chair"]
        tensorio.save_class_names(tmp_path / "c.json", names)
        assert tensorio.load_class_names(tmp_path / "c.json") == names

    def test_duplicate_names_rejected(self, tmp_path):
        (tmp_path / "c.json").write_text('["a", "a"]')
        with pytest.raises(ValueError, match="unique"):
            tensorio.load_class_names(tmp_path / "c.json")

    def test_mask_round_trip(self, tmp_path):
        names = ["floor", "wall", "chair", "lamp"]
        mask = np.array([True, False, True, False])
        tensorio.save_scene_mask(tmp_path / "m.json", mask, names)
        back = tensorio.load_scene_mask(tmp_path / "m.json", names)
        assert np.array_equal(back, mask)

    def test_unknown_class_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text('["ghost"]')
        with pytest.raises(ValueError, match="ghost"):
            tensorio.load_scene_mask(tmp_path / "m.json", ["floor"])

    def test_non_string_entry_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text('[["floor"]]')
        with pytest.raises(ValueError, match=r"m.json: class \['floor'\] is not"):
            tensorio.load_scene_mask(tmp_path / "m.json", ["floor"])


class TestLabelsText:
    def test_round_trip(self, tmp_path, rng):
        values = rng.integers(0, 5, 40)
        values[::4] = UNLABELED
        labels = LabelField(values, 5)
        tensorio.save_labels_text(tmp_path / "l.txt", labels)
        back = tensorio.load_labels_text(tmp_path / "l.txt", 5)
        assert np.array_equal(back.values, labels.values)

    def test_unlabeled_written_as_minus_one(self, tmp_path):
        labels = LabelField(np.array([2, UNLABELED]), 3)
        tensorio.save_labels_text(tmp_path / "l.txt", labels)
        assert (tmp_path / "l.txt").read_text() == "2\n-1\n"

    def test_bad_line_reported(self, tmp_path):
        (tmp_path / "l.txt").write_text("1\nx\n")
        with pytest.raises(ValueError, match="line 2"):
            tensorio.load_labels_text(tmp_path / "l.txt", 3)


class TestReportJsonl:
    def test_round_trip(self, tmp_path):
        rows = [{"round": 1, "labeled_rate": 0.5},
                {"round": 2, "labeled_rate": 0.75, "miou": 0.625}]
        tensorio.save_report_jsonl(tmp_path / "r.jsonl", rows)
        assert tensorio.load_report_jsonl(tmp_path / "r.jsonl") == rows

    def test_stable_bytes(self, tmp_path):
        rows = [{"b": 1, "a": 2}]
        tensorio.save_report_jsonl(tmp_path / "r1.jsonl", rows)
        tensorio.save_report_jsonl(tmp_path / "r2.jsonl", [{"a": 2, "b": 1}])
        assert (tmp_path / "r1.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()
