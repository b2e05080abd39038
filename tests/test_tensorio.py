import json
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pclabel import CameraView, LabelField, UNLABELED
from pclabel import tensorio


class TestReading:
    @pytest.mark.parametrize("error", [ValueError("bad value"), RecursionError("too deep")])
    def test_names_the_source(self, error):
        with pytest.raises(ValueError) as raised, tensorio.reading("f.json"):
            raise error
        assert str(raised.value) == f"f.json: {error}"

    @pytest.mark.parametrize("error", [KeyError("k"), OSError("gone"), TypeError("t")])
    def test_other_errors_pass_unchanged(self, error):
        with pytest.raises(type(error)) as raised, tensorio.reading("f.json"):
            raise error
        assert raised.value is error


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

    def test_bytes_past_the_declared_data(self, tmp_path):
        # A (2, 1) header over three float32 values used to load as 2 rows.
        path = tmp_path / "long.lf01"
        path.write_bytes(b"LF01" + struct.pack("<ii", 2, 1)
                         + np.array([0.25, 0.5, 0.75], dtype="<f4").tobytes())
        with pytest.raises(ValueError, match=r"^.*long.lf01: 4 bytes past the \(2, 1\) data, "
                                             r"from byte 20$"):
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, 1.5])
    def test_confidence_outside_unit_interval_names_the_row(self, tmp_path, value):
        path = tmp_path / "c.lf01"
        tensorio.save_confidence(path, np.array([0.0, 1.0, value]))
        with pytest.raises(ValueError) as raised:
            tensorio.load_confidence(path)
        message = (f"confidence at point 2 is {value}, outside [0, 1]" if np.isfinite(value)
                   else "confidence of point 2 is not finite")
        assert str(raised.value) == f"{path}: {message}"

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
        pytest.param("width", "abc", "width must be an integer, got 'abc'",
                     id="width-abc-not-an-integer"),
        ("width", 3, "payload has 4 rows for a 3x2 grid"),
        ("rotation", [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "rotation is not orthonormal"),
        ("payload_path", "nan.lf01", "pixel_logits at row 1, col 0 are not finite"),
        # Sizes are JSON integers: no string, fraction or boolean reads as one.
        pytest.param("width", "2", "width must be an integer, got '2'", id="width-string"),
        pytest.param("width", 2.5, r"width must be an integer, got 2\.5", id="width-fraction"),
        pytest.param("height", True, "height must be an integer, got True", id="height-bool"),
        # Pose entries are JSON numbers: no string or boolean reads as one.
        pytest.param("intrinsics", [[50, 0, 1], [0, "50", 1], [0, 0, 1]],
                     "intrinsics must hold JSON numbers, got '50'", id="intrinsics-string"),
        pytest.param("translation", [0, True, 0], "translation must hold JSON numbers, got True",
                     id="translation-bool"),
        pytest.param("rotation", "eye", "rotation must hold JSON numbers, got 'eye'",
                     id="rotation-string"),
        pytest.param("translation", [10 ** 400, 0, 0], "int too large to convert to float",
                     id="translation-beyond-float64"),
        pytest.param("payload_path", "gone.lf01", r"\[Errno 2\] No such file", id="no-payload"),
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

    def test_empty_list_rejected(self, tmp_path):
        (tmp_path / "c.json").write_text("[]")
        with pytest.raises(ValueError, match="c.json: class list is empty"):
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

    def test_empty_mask_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text("[]")
        with pytest.raises(ValueError, match="m.json: scene mask names no class"):
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

    @staticmethod
    def literal_save(values) -> str:
        """save_labels_text's listing as it read before the whole-array join."""
        text = "\n".join(str(int(v)) for v in values)
        return text + "\n" if len(values) else text

    @staticmethod
    def literal_load(text: str, num_classes: int) -> list:
        """load_labels_text's line loop as it read before any listing went
        through numpy's parser: the oracle of its values and of its first
        error."""
        values = []
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
        return values

    @settings(max_examples=100)
    @given(st.integers(1, 6).flatmap(lambda c: st.tuples(
        st.just(c), hnp.arrays(np.int64, st.integers(0, 30), elements=st.integers(-1, c - 1)))))
    def test_save_writes_the_literal_listing(self, case):
        num_classes, values = case
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/l.txt"
            tensorio.save_labels_text(path, LabelField(values, num_classes))
            with open(path, "rb") as f:
                assert f.read() == self.literal_save(values).encode("ascii")
            assert tensorio.load_labels_text(path, num_classes).values.tolist() == values.tolist()

    # Lines as a hand-edited listing may hold them: padded, signed, with
    # digit separators, blank, out of range or not a number at all.
    # numpy's parser splits a line at \v, \f and 0x1C-0x1F as at a space,
    # while str.strip takes them off the ends of a line only.
    ODD_SPACE = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f"]
    LINES = st.one_of(
        st.integers(-3, 8).map(str),
        st.tuples(st.sampled_from(["", " ", "\t", "  \t"]), st.integers(-3, 8),
                  st.sampled_from(["", " ", "\r", "\t \r"])).map(
                      lambda t: f"{t[0]}{t[1]}{t[2]}"),
        st.tuples(st.sampled_from(["", *ODD_SPACE]), st.integers(-3, 8),
                  st.sampled_from(["", *ODD_SPACE]), st.sampled_from(["", "2"]),
                  st.sampled_from(["", *ODD_SPACE])).map(
                      lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}{t[4]}"),
        st.sampled_from(["+3", "+0", "1_0", "0_1", "-0", "", "  ", "\r", "x", "1 2", "1.0",
                         "--1", "_1", "1e0", "0x1", "#3", "9" * 25, "-" + "9" * 25]),
    )

    @settings(max_examples=300)
    @given(st.lists(LINES, max_size=12), st.sampled_from(["\n", "\r\n"]), st.booleans(),
           st.integers(1, 9))
    def test_load_matches_the_line_loop(self, lines, newline, trailing, num_classes):
        text = newline.join(lines) + (newline if trailing else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/l.txt"
            with open(path, "wb") as f:
                f.write(text.encode("ascii"))
            try:
                want = self.literal_load(text.replace("\r\n", "\n").replace("\r", "\n"),
                                         num_classes)
            except ValueError as e:
                with pytest.raises(ValueError) as raised:
                    tensorio.load_labels_text(path, num_classes)
                assert str(raised.value) == f"{path}: {e}"
            else:
                got = tensorio.load_labels_text(path, num_classes)
                assert got.values.dtype == np.int64 and got.values.tolist() == want

    @staticmethod
    def load_or_error(path, num_classes):
        """load_labels_text's values, or its error message; it must let no
        warning out."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = tensorio.load_labels_text(path, num_classes).values.tolist()
            except ValueError as e:
                result = str(e)
        assert not caught, [str(w.message) for w in caught]
        return result

    def literal_or_error(self, path, text, num_classes):
        try:
            return self.literal_load(text, num_classes)
        except ValueError as e:
            return f"{path}: {e}"

    # Two values on the only line, or on every line, parse as a table of two
    # columns; an empty or blank listing makes numpy warn "input contained
    # no data".
    @pytest.mark.parametrize("text", ["1 2", "1\x1c2", "1 2\n", "1 2\n3 4\n", "0\x1f1\n2\v3",
                                      "", "\n", " \n\t\n", "\v\x1c\n\f"])
    def test_listings_parsed_as_tables_match_the_line_loop(self, tmp_path, text):
        path = tmp_path / "l.txt"
        path.write_bytes(text.encode("ascii"))
        assert self.load_or_error(path, 5) == self.literal_or_error(path, text, 5)

    @pytest.mark.parametrize("text", ["1.0\n2\n", "1\n2\n"])
    def test_a_warning_from_the_parser_falls_back_to_the_line_loop(self, tmp_path,
                                                                   monkeypatch, text):
        # numpy 1.24-1.26 read "1.0" into an int column with a
        # DeprecationWarning; the values of a parse that warned are not used.
        def warning_loadtxt(*args, **kwargs):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.zeros((2, 1), dtype=np.int64)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "l.txt"
        path.write_bytes(text.encode("ascii"))
        assert self.load_or_error(path, 5) == self.literal_or_error(path, text, 5)

    def test_ids_far_apart_are_written_without_a_table(self, tmp_path):
        # A table from the lowest to the highest id would hold 10**7 + 2
        # strings for three points.
        values = np.array([10**7, UNLABELED, 0])
        path = tmp_path / "l.txt"
        tracemalloc.start()
        try:
            tensorio.save_labels_text(path, LabelField(values, 10**7 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == self.literal_save(values).encode("ascii")
        assert peak < 2**20

    def test_save_memory_is_bounded(self, tmp_path, rng):
        # One str per distinct id, not per point: 1.7 MiB at 108,700 ids,
        # where a str per point peaked at 6.9 MiB.
        labels = LabelField(rng.integers(-1, 13, 108_700), 13)
        path = tmp_path / "l.txt"
        tracemalloc.start()
        try:
            tensorio.save_labels_text(path, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert tensorio.load_labels_text(path, 13).values.tolist() == labels.values.tolist()


class TestReportJsonl:
    def test_round_trip(self, tmp_path):
        rows = [{"round": 1, "labeled_rate": 0.5},
                {"round": 2, "labeled_rate": 0.75, "miou": 0.625}]
        tensorio.save_report_jsonl(tmp_path / "r.jsonl", rows)
        lines = (tmp_path / "r.jsonl").read_text(encoding="ascii").splitlines()
        assert [json.loads(line) for line in lines] == rows

    def test_stable_bytes(self, tmp_path):
        rows = [{"b": 1, "a": 2}]
        tensorio.save_report_jsonl(tmp_path / "r1.jsonl", rows)
        tensorio.save_report_jsonl(tmp_path / "r2.jsonl", [{"a": 2, "b": 1}])
        assert (tmp_path / "r1.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()
