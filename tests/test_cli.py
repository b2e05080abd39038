import hashlib
import json
import os
import re
import shutil
import struct

import pytest

from pclabel.cli import build_parser, main


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    assert main(["synth", "--preset", "room-small", "--seed", "0",
                 "--out", str(out)]) == 0
    return out


def run(args):
    return main([str(a) for a in args])


class TestSynth:
    def test_produces_the_six_fixtures(self, fixture_dir):
        names = sorted(os.listdir(fixture_dir))
        assert names == ["classes.json", "cloud.ply", "gt.ply", "logits.lf01",
                         "mask.json", "views"]
        assert (fixture_dir / "views" / "manifest.json").exists()

    def test_identical_bytes_for_same_seed(self, tmp_path, fixture_dir):
        again = tmp_path / "again"
        assert run(["synth", "--preset", "room-small", "--seed", 0,
                    "--out", again]) == 0
        for name in ("cloud.ply", "gt.ply", "logits.lf01", "mask.json"):
            assert (again / name).read_bytes() == (fixture_dir / name).read_bytes()

    def test_unknown_preset_is_data_error(self, tmp_path):
        assert run(["synth", "--preset", "nope", "--out", tmp_path / "x"]) == 2

    def test_missing_out_is_usage_error(self):
        assert run(["synth", "--preset", "room-small"]) == 1


class TestPseudo:
    def test_from_logits(self, fixture_dir, tmp_path):
        out = tmp_path / "pseudo"
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--mask", fixture_dir / "mask.json",
                    "--logits", fixture_dir / "logits.lf01",
                    "--out", out]) == 0
        labels = (out / "labels.txt").read_text().splitlines()
        assert len(labels) > 0 and all(v.lstrip("-").isdigit() for v in labels)

    def test_mask_optional_means_all_true(self, fixture_dir, tmp_path):
        out_masked = tmp_path / "masked"
        out_free = tmp_path / "free"
        base = ["pseudo", "--cloud", fixture_dir / "cloud.ply",
                "--classes", fixture_dir / "classes.json",
                "--logits", fixture_dir / "logits.lf01"]
        assert run(base + ["--mask", fixture_dir / "mask.json", "--out", out_masked]) == 0
        assert run(base + ["--out", out_free]) == 0
        # the fixture scene mask excludes at least one palette class, so the
        # outputs may differ; both runs must at least produce valid files
        assert (out_masked / "labels.txt").exists()
        assert (out_free / "labels.txt").exists()

    def test_requires_exactly_one_source(self, fixture_dir, tmp_path):
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--out", tmp_path / "x"]) == 1

    def test_views_path(self, fixture_dir, tmp_path):
        out = tmp_path / "pv"
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--mask", fixture_dir / "mask.json",
                    "--views", fixture_dir / "views" / "manifest.json",
                    "--occlusion-tolerance", 0.02,
                    "--out", out]) == 0
        assert (out / "confidence.lf01").exists()


class TestRefineCommand:
    def test_refine_then_eval(self, fixture_dir, tmp_path):
        pseudo = tmp_path / "p"
        refined = tmp_path / "r"
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--mask", fixture_dir / "mask.json",
                    "--logits", fixture_dir / "logits.lf01",
                    "--out", pseudo]) == 0
        assert run(["refine", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--labels", pseudo / "labels.txt",
                    "--confidence", pseudo / "confidence.lf01",
                    "--angle-threshold", 5.5, "--min-size", 4,
                    "--out", refined]) == 0
        assert (refined / "refined_labels.txt").exists()
        assert (refined / "partition.json").exists()
        assert run(["eval", "--pred", refined / "refined_labels.txt",
                    "--gt", fixture_dir / "gt.ply",
                    "--classes", fixture_dir / "classes.json", "--json"]) == 0


class TestStlpCommand:
    def _stlp_args(self, fixture_dir, out, rounds=1):
        return ["stlp", "--cloud", fixture_dir / "cloud.ply",
                "--classes", fixture_dir / "classes.json",
                "--mask", fixture_dir / "mask.json",
                "--views", fixture_dir / "views" / "manifest.json",
                "--occlusion-tolerance", 0.02,
                "--gt", fixture_dir / "gt.ply",
                "--angle-threshold", 5.5, "--min-size", 4,
                "--rounds", rounds, "--out", out]

    def test_report_rows_equal_rounds(self, fixture_dir, tmp_path):
        out = tmp_path / "s"
        assert run(self._stlp_args(fixture_dir, out, rounds=2)) == 0
        rows = [json.loads(line) for line in
                (out / "report.jsonl").read_text().splitlines()]
        assert [r["round"] for r in rows] == [1, 2]
        assert all("miou" in r for r in rows)

    def test_zero_rounds_passthrough(self, fixture_dir, tmp_path):
        out = tmp_path / "s0"
        assert run(self._stlp_args(fixture_dir, out, rounds=0)) == 0
        assert (out / "report.jsonl").read_text() == ""

    def test_zero_rounds_on_empty_refinement(self, fixture_dir, tmp_path):
        # alpha 1.0 leaves nothing labeled; no round runs, so nothing is fit
        out = tmp_path / "empty"
        assert run(self._stlp_args(fixture_dir, out, rounds=0) + ["--alpha", 1.0]) == 0
        assert set((out / "labels.txt").read_text().split()) == {"-1"}
        assert (out / "report.jsonl").read_text() == ""

    def test_fits_and_predicts_once_per_round(self, fixture_dir, tmp_path,
                                              monkeypatch):
        from pclabel import KnnClassifier
        calls = []
        fit, predict = KnnClassifier.fit, KnnClassifier.predict

        def counted_fit(self, cloud, labels):
            calls.append("fit")
            return fit(self, cloud, labels)

        def counted_predict(self, cloud):
            calls.append("predict")
            return predict(self, cloud)

        monkeypatch.setattr(KnnClassifier, "fit", counted_fit)
        monkeypatch.setattr(KnnClassifier, "predict", counted_predict)
        assert run(self._stlp_args(fixture_dir, tmp_path / "s", rounds=2)) == 0
        assert calls == ["fit", "predict"] * 2

    def test_byte_identical_reruns(self, fixture_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(self._stlp_args(fixture_dir, a)) == 0
        assert run(self._stlp_args(fixture_dir, b)) == 0
        assert (a / "labels.txt").read_bytes() == (b / "labels.txt").read_bytes()
        assert (a / "report.jsonl").read_bytes() == (b / "report.jsonl").read_bytes()


class TestInferCommand:
    def test_full_coverage_output(self, fixture_dir, tmp_path):
        stlp_out = tmp_path / "s"
        assert run(["stlp", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--mask", fixture_dir / "mask.json",
                    "--logits", fixture_dir / "logits.lf01",
                    "--angle-threshold", 5.5, "--min-size", 4,
                    "--rounds", 1, "--out", stlp_out]) == 0
        inf_out = tmp_path / "i"
        assert run(["infer", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--labels", stlp_out / "labels.txt",
                    "--angle-threshold", 5.5, "--min-size", 4,
                    "--out", inf_out, "--json"]) == 0
        values = [int(v) for v in (inf_out / "pred_labels.txt").read_text().split()]
        assert all(v >= 0 for v in values)


class TestEvalCommand:
    def test_perfect_prediction(self, fixture_dir, tmp_path, capsys):
        from pclabel import LabelField
        from pclabel.ply import load_labeled_ply
        from pclabel.tensorio import save_labels_text
        _, gt_values = load_labeled_ply(fixture_dir / "gt.ply")
        pred = tmp_path / "pred.txt"
        save_labels_text(pred, LabelField(gt_values, 8))
        assert run(["eval", "--pred", pred, "--gt", fixture_dir / "gt.ply",
                    "--classes", fixture_dir / "classes.json", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["miou"] == 1.0

    def test_missing_file_is_data_error(self, fixture_dir, tmp_path):
        assert run(["eval", "--pred", tmp_path / "nope.txt",
                    "--gt", fixture_dir / "gt.ply",
                    "--classes", fixture_dir / "classes.json"]) == 2


class TestSweepCommand:
    def test_row_count_matches_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--param", "T", "--grid", "0,1",
                    "--seed", 0, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rounds,miou,macc,labeled_rate"
        assert len(lines) == 3

    # CSV SHA-256s of one small seed-0 grid per parameter.
    @pytest.mark.parametrize("param,grid,sha256", [
        ("V", "10,30", "5ed9fdb76913f675fe1b723f5d4af0a69227f92b3db5139ab3b3afe41710e9c8"),
        ("alpha", "0.3,0.7", "fac1b3642d809cf3623672413d9fce99c6f2459585a7ebc8330d0a3ded5f221a"),
        ("T", "0,1", "396469f3bea1b169f6236d3514a58fcfb741cf2c41c69c93bfa8fb3760fbc388"),
    ])
    def test_golden_csv(self, tmp_path, param, grid, sha256):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--param", param, "--grid", grid, "--seed", 0,
                    "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.fixture
    def scan_calls(self, monkeypatch):
        """Counts of label_scan and eval_scan calls, which still run."""
        import pclabel.benchmark as bench
        calls = {"label_scan": 0, "eval_scan": 0}
        for name in calls:
            def counted(*args, _real=getattr(bench, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(bench, name, counted)
        return calls

    def test_grid_values_share_one_scan(self, tmp_path, scan_calls):
        assert run(["sweep", "--param", "V", "--grid", "10,30",
                    "--out", tmp_path / "x.csv"]) == 0
        assert scan_calls == {"label_scan": 1, "eval_scan": 1}

    @pytest.mark.parametrize("param,grid,message", [
        ("V", "30,0", "top_v must lie in (0, 100], got 0.0"),
        ("T", "1,-1", "rounds must be >= 0"),
        ("alpha", "0.5,2", "alpha must lie in [0, 1], got 2.0"),
    ])
    def test_bad_grid_value_fails_before_any_scan(self, tmp_path, capsys, scan_calls,
                                                   param, grid, message):
        out = tmp_path / "x.csv"
        assert run(["sweep", "--param", param, "--grid", grid, "--out", out]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert scan_calls == {"label_scan": 0, "eval_scan": 0}
        assert not out.exists()

    # sweep has no --jobs flag: any value, in range or not, is a usage error
    @pytest.mark.parametrize("jobs", [0, -3, 2])
    def test_jobs_below_one_usage_error(self, tmp_path, jobs):
        assert run(["sweep", "--param", "T", "--grid", "0,1", "--jobs", jobs,
                    "--out", tmp_path / "x.csv"]) == 1

    def test_bad_grid_usage_error(self, tmp_path):
        assert run(["sweep", "--param", "V", "--grid", "a,b",
                    "--out", tmp_path / "x.csv"]) == 1

    @pytest.mark.parametrize("grid", ["1.5", "0,2.5", "inf", "nan"])
    def test_fractional_round_count_usage_error(self, tmp_path, grid):
        out = tmp_path / "x.csv"
        assert run(["sweep", "--param", "T", "--grid", grid, "--out", out]) == 1
        assert not out.exists()


class TestGoldenFixtures:
    """Committed oracle-run values for the seed-0 fixture."""

    LABELS_SHA256 = "0d9a0eb76156eb03e60c68b35dec6bc3352a5d75d794d0897223851c9b3072c7"
    CONFIDENCE_SHA256 = "73efc87f6ecc26bc0de103594b0b9d1bfca6c4e642c6b6b72af9ba0ccf7a9e11"
    REPORT_MIOUS = (0.7682663488, 0.7374712312, 0.7195314889)

    def test_pseudo_matches_golden(self, fixture_dir, tmp_path):
        import hashlib
        out = tmp_path / "golden"
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--mask", fixture_dir / "mask.json",
                    "--views", fixture_dir / "views" / "manifest.json",
                    "--occlusion-tolerance", 0.02, "--out", out]) == 0
        labels_sha = hashlib.sha256((out / "labels.txt").read_bytes()).hexdigest()
        conf_sha = hashlib.sha256((out / "confidence.lf01").read_bytes()).hexdigest()
        assert labels_sha == self.LABELS_SHA256
        assert conf_sha == self.CONFIDENCE_SHA256

    def test_stlp_trajectory_matches_golden(self, fixture_dir, tmp_path):
        out = tmp_path / "traj"
        assert run(["stlp", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--mask", fixture_dir / "mask.json",
                    "--views", fixture_dir / "views" / "manifest.json",
                    "--occlusion-tolerance", 0.02,
                    "--gt", fixture_dir / "gt.ply",
                    "--angle-threshold", 5.5, "--min-size", 4,
                    "--knn-smoothing", 0.03, "--knn-confidence-scale", 0.08,
                    "--rounds", 3, "--seed", 0, "--out", out]) == 0
        rows = [json.loads(line) for line in
                (out / "report.jsonl").read_text().splitlines()]
        for row, expected in zip(rows, self.REPORT_MIOUS):
            assert abs(row["miou"] - expected) < 1e-6

    def test_single_class_mask_forces_class(self, fixture_dir, tmp_path):
        names = json.loads((fixture_dir / "classes.json").read_text())
        mask_path = tmp_path / "only_wall.json"
        mask_path.write_text(json.dumps(["wall"]))
        out = tmp_path / "wallonly"
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--mask", mask_path,
                    "--logits", fixture_dir / "logits.lf01",
                    "--out", out]) == 0
        values = {int(v) for v in (out / "labels.txt").read_text().split()}
        assert values == {names.index("wall")}

    def test_alpha_one_erases_all_labels(self, fixture_dir, tmp_path):
        pseudo = tmp_path / "p"
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--mask", fixture_dir / "mask.json",
                    "--logits", fixture_dir / "logits.lf01",
                    "--out", pseudo]) == 0
        refined = tmp_path / "r"
        assert run(["refine", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--labels", pseudo / "labels.txt",
                    "--confidence", pseudo / "confidence.lf01",
                    "--alpha", 1.0, "--angle-threshold", 5.5, "--min-size", 4,
                    "--out", refined, "--json"]) == 0
        values = {int(v) for v in (refined / "refined_labels.txt").read_text().split()}
        assert values == {-1}


@pytest.fixture(scope="module")
def labeled_dir(fixture_dir, tmp_path_factory):
    """Pseudo labels from the fixture's logits plus the default partition."""
    out = tmp_path_factory.mktemp("labeled")
    assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                "--classes", fixture_dir / "classes.json",
                "--mask", fixture_dir / "mask.json",
                "--logits", fixture_dir / "logits.lf01", "--out", out]) == 0
    assert run(["refine", "--cloud", fixture_dir / "cloud.ply",
                "--classes", fixture_dir / "classes.json",
                "--labels", out / "labels.txt",
                "--confidence", out / "confidence.lf01", "--out", out]) == 0
    return out


class TestConfigFile:
    def _refined(self, out, config, *flags):
        assert run(["refine", "--config", config, *flags, "--out", out]) == 0
        return (out / "refined_labels.txt").read_bytes()

    def test_flags_override_config(self, fixture_dir, labeled_dir, tmp_path):
        base = {
            "cloud": str(fixture_dir / "cloud.ply"),
            "classes": str(fixture_dir / "classes.json"),
            "labels": str(labeled_dir / "labels.txt"),
            "confidence": str(labeled_dir / "confidence.lf01"),
            "partition": str(labeled_dir / "partition.json"),
        }
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(base))
        top_v_10 = tmp_path / "top_v_10.json"
        top_v_10.write_text(json.dumps(dict(base, top_v=10)))
        flag_over_config = self._refined(tmp_path / "a", top_v_10, "--top-v", 30)
        flag_alone = self._refined(tmp_path / "b", plain, "--top-v", 30)
        config_alone = self._refined(tmp_path / "c", top_v_10)
        dataclass_default = self._refined(tmp_path / "d", plain)
        assert flag_over_config == flag_alone
        assert config_alone != flag_alone
        assert dataclass_default == flag_alone

    def test_relative_paths_resolve_against_config_dir(
        self, fixture_dir, labeled_dir, tmp_path, monkeypatch
    ):
        scene = tmp_path / "scene"
        (scene / "p").mkdir(parents=True)
        for name in ("cloud.ply", "classes.json", "gt.ply"):
            shutil.copy(fixture_dir / name, scene / name)
        for name in ("labels.txt", "confidence.lf01", "partition.json"):
            shutil.copy(labeled_dir / name, scene / "p" / name)
        (scene / "cfg.json").write_text(json.dumps({
            "cloud": "cloud.ply", "classes": "classes.json", "gt": "gt.ply",
            "labels": "p/labels.txt", "confidence": "p/confidence.lf01",
            "partition": "p/partition.json", "pred": "p/labels.txt",
        }))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(["refine", "--config", "../scene/cfg.json", "--out", "r"]) == 0
        assert (work / "r" / "refined_labels.txt").exists()
        assert run(["eval", "--config", "../scene/cfg.json", "--json"]) == 0

    @pytest.mark.parametrize("value", [[10], "abc"])
    def test_bad_config_value_is_named_data_error(
        self, fixture_dir, labeled_dir, tmp_path, capsys, value
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "cloud": str(fixture_dir / "cloud.ply"),
            "classes": str(fixture_dir / "classes.json"),
            "labels": str(labeled_dir / "labels.txt"),
            "confidence": str(labeled_dir / "confidence.lf01"),
            "partition": str(labeled_dir / "partition.json"),
            "top_v": value,
        }))
        assert run(["refine", "--config", config, "--out", tmp_path / "r"]) == 2
        assert f"'top_v': cannot read {value!r} as float" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value, kind", [
        ("pseudo", "occlusion_tolerance", "abc", "float"),
        ("synth", "seed", [1], "int"),
    ])
    def test_bad_setting_is_named_data_error(
        self, fixture_dir, tmp_path, capsys, command, key, value, kind
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "cloud": str(fixture_dir / "cloud.ply"),
            "classes": str(fixture_dir / "classes.json"),
            "views": str(fixture_dir / "views" / "manifest.json"),
            key: value,
        }))
        assert run([command, "--config", config, "--out", tmp_path / "o"]) == 2
        assert f"{key!r}: cannot read {value!r} as {kind}" in capsys.readouterr().err


class TestCommandSurface:
    # Each command accepts exactly the options it reads, plus --partition on
    # pseudo, --top-v on infer and --seed on the four pipeline commands,
    # which they ignore.
    COMMON = "-h --help --config --seed --json --out"
    SCAN = "--cloud --classes --partition"
    REFINE = "--top-v --alpha --angle-threshold --adjacency-k --min-size --normals-k"
    SOURCE = "--mask --logits --views --occlusion-tolerance"
    KNN = "--knn-k --color-weight --knn-smoothing --knn-confidence-scale"
    ACCEPTED = {
        "pseudo": [SCAN, SOURCE],
        "refine": [SCAN, REFINE, "--labels --confidence"],
        "stlp": [SCAN, REFINE, SOURCE, KNN, "--gt --rounds"],
        "infer": [SCAN, REFINE, KNN, "--labels --emit-unlabeled"],
        "sweep": ["--param --grid --preset"],
    }

    @pytest.mark.parametrize("command", sorted(ACCEPTED))
    def test_accepted_options(self, command):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        actions = commands.choices[command]._actions
        accepted = {o for a in actions for o in a.option_strings}
        assert accepted == set(" ".join([self.COMMON, *self.ACCEPTED[command]]).split())
        # sweep prints its CSV when --out is absent
        assert next(a for a in actions if a.dest == "out").required == (command != "sweep")

    @pytest.fixture(scope="class")
    def commands(self, fixture_dir, labeled_dir):
        """Each pipeline command's valid arguments and the file it writes."""
        scan = ["--cloud", fixture_dir / "cloud.ply",
                "--classes", fixture_dir / "classes.json",
                "--partition", labeled_dir / "partition.json"]
        logits = ["--mask", fixture_dir / "mask.json",
                  "--logits", fixture_dir / "logits.lf01"]
        return {
            "pseudo": (scan + logits, "labels.txt"),
            "refine": (scan + ["--labels", labeled_dir / "labels.txt",
                               "--confidence", labeled_dir / "confidence.lf01"],
                       "refined_labels.txt"),
            "stlp": (scan + logits + ["--rounds", 1], "labels.txt"),
            "infer": (scan + ["--labels", labeled_dir / "labels.txt"],
                      "pred_labels.txt"),
        }

    @pytest.mark.parametrize("command", ["pseudo", "refine", "stlp", "infer"])
    def test_seed_accepted_and_ignored(self, commands, command, tmp_path):
        args, output = commands[command]
        assert run([command, *args, "--out", tmp_path / "a"]) == 0
        assert run([command, *args, "--seed", 7, "--out", tmp_path / "b"]) == 0
        assert (tmp_path / "a" / output).read_bytes() == \
            (tmp_path / "b" / output).read_bytes()

    @pytest.mark.parametrize("command", ["pseudo", "refine", "stlp", "infer"])
    def test_jobs_is_usage_error(self, commands, command, tmp_path):
        args, _ = commands[command]
        assert run([command, *args, "--jobs", 2, "--out", tmp_path / "x"]) == 1

    def test_jobs_on_eval_is_usage_error(self, fixture_dir, labeled_dir):
        # eval takes neither --jobs nor --seed
        for flag in (["--jobs", 2], ["--seed", 0]):
            assert run(["eval", "--pred", labeled_dir / "labels.txt",
                        "--gt", fixture_dir / "gt.ply",
                        "--classes", fixture_dir / "classes.json", *flag]) == 1


class TestDamagedInputs:
    """Hostile input files are data errors (exit 2), never tracebacks."""

    def _pseudo(self, fixture_dir, out, cloud=None, logits=None):
        return run(["pseudo", "--cloud", cloud or fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--logits", logits or fixture_dir / "logits.lf01",
                    "--out", out])

    def test_non_finite_logits(self, fixture_dir, tmp_path, capsys):
        path = tmp_path / "nan.lf01"
        data = (fixture_dir / "logits.lf01").read_bytes()
        path.write_bytes(data[:12] + struct.pack("<f", float("nan")) + data[16:])
        assert self._pseudo(fixture_dir, tmp_path / "o", logits=path) == 2
        assert "logits row 0 is not finite" in capsys.readouterr().err

    def test_lying_lf01_header(self, fixture_dir, tmp_path, capsys):
        path = tmp_path / "liar.lf01"
        path.write_bytes(b"LF01" + struct.pack("<ii", 1000000, 13))
        assert self._pseudo(fixture_dir, tmp_path / "o", logits=path) == 2
        assert "liar.lf01: truncated body at byte 12" in capsys.readouterr().err

    def test_lying_ply_header(self, fixture_dir, tmp_path, capsys):
        path = tmp_path / "liar.ply"
        data = (fixture_dir / "cloud.ply").read_bytes()
        header_end = data.index(b"end_header\n") + len(b"end_header\n")
        header = re.sub(rb"element vertex \d+", b"element vertex 1000000",
                        data[:header_end])
        path.write_bytes(header + data[header_end:header_end + 15])
        assert self._pseudo(fixture_dir, tmp_path / "o", cloud=path) == 2
        assert "liar.ply: truncated body at byte" in capsys.readouterr().err

    def test_ascii_ply_integer_outside_its_type(self, fixture_dir, tmp_path, capsys):
        path = tmp_path / "wide.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                        "end_header\n0 0 0 300 0 0\n")
        assert self._pseudo(fixture_dir, tmp_path / "o", cloud=path) == 2
        assert "wide.ply: line 11: bad value '300' for 'red'" in capsys.readouterr().err

    def test_ascii_ply_non_finite_position(self, fixture_dir, tmp_path, capsys):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                        "end_header\nnan 0 1e39 1 2 3\n")
        assert self._pseudo(fixture_dir, tmp_path / "o", cloud=path) == 2
        assert (capsys.readouterr().err
                == f"error: {path}: position of point 0 is not finite\n")

    def test_binary_ply_non_finite_position(self, fixture_dir, tmp_path, capsys):
        path = tmp_path / "nan.ply"
        data = (fixture_dir / "cloud.ply").read_bytes()
        body = data.index(b"end_header\n") + len(b"end_header\n")
        path.write_bytes(data[:body] + struct.pack("<f", float("nan")) + data[body + 4:])
        assert self._pseudo(fixture_dir, tmp_path / "o", cloud=path) == 2
        assert (f"error: {path}: position of point 0 is not finite"
                in capsys.readouterr().err)

    def test_non_finite_view_logits_name_the_view(self, fixture_dir, tmp_path, capsys):
        views = tmp_path / "views"
        shutil.copytree(fixture_dir / "views", views)
        payload = views / "payload_003.lf01"
        data = payload.read_bytes()
        payload.write_bytes(data[:12] + struct.pack("<f", float("nan")) + data[16:])
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--views", views / "manifest.json", "--out", tmp_path / "o"]) == 2
        assert ("manifest.json: view 3: pixel_logits at row 0, col 0 are not finite"
                in capsys.readouterr().err)

    def test_int64_overflowing_partition_entry(self, fixture_dir, labeled_dir,
                                               tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 2, "u": 1, "assignment": [0, 100000000000000000000000]}')
        assert run(["refine", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--labels", labeled_dir / "labels.txt",
                    "--confidence", labeled_dir / "confidence.lf01",
                    "--partition", path, "--out", tmp_path / "o"]) == 2
        assert ("huge.json: assignment entry 1 is out of the int64 range"
                in capsys.readouterr().err)

    def test_int64_overflowing_label_entry(self, fixture_dir, tmp_path, capsys):
        pred = tmp_path / "p.txt"
        pred.write_text("0\n99999999999999999999\n")
        assert run(["eval", "--pred", pred, "--gt", fixture_dir / "gt.ply",
                    "--classes", fixture_dir / "classes.json"]) == 2
        assert (f"{pred} line 2: label '99999999999999999999' is out of the int64 range"
                in capsys.readouterr().err)

    def test_infinite_integer_setting(self, fixture_dir, labeled_dir, tmp_path, capsys):
        config = tmp_path / "inf.json"
        config.write_text('{"knn_k": 1e400}')
        assert run(["infer", "--config", config,
                    "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--labels", labeled_dir / "labels.txt",
                    "--partition", labeled_dir / "partition.json",
                    "--out", tmp_path / "o"]) == 2
        assert "config key 'knn_k': cannot read inf as int" in capsys.readouterr().err

    def test_view_channel_count_names_the_manifest(self, fixture_dir, tmp_path,
                                                    capsys):
        classes = tmp_path / "three.json"
        classes.write_text(json.dumps(["wall", "floor", "chair"]))
        manifest = fixture_dir / "views" / "manifest.json"
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", classes, "--views", manifest,
                    "--out", tmp_path / "o"]) == 2
        assert (f"{manifest}: views have 8 classes, class list has 3"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("reader, content", [
        ("classes", b'["wall", '),
        ("classes", b'["wall\xff"]'),
        ("mask", b'["wall"]]'),
        ("mask", b'["\xff"]'),
        ("views", b'[{"width": }]'),
        ("views", b'[\xff]'),
        ("partition", b'{"n": 1,'),
        ("partition", b'{"n": \xff}'),
        ("config", b'{"top_v": 30'),
        ("config", b'{"top_v": "\xff"}'),
        ("labels", b'0\n\xff\n'),
    ])
    def test_decode_error_names_the_file(self, fixture_dir, labeled_dir, tmp_path,
                                         capsys, reader, content):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        scan = {"cloud": fixture_dir / "cloud.ply",
                "classes": fixture_dir / "classes.json"}
        if reader in ("classes", "mask", "views"):
            inputs = {**scan, "logits": fixture_dir / "logits.lf01", reader: bad}
            if reader == "views":
                del inputs["logits"]
            command = "pseudo"
        else:
            inputs = {**scan, "labels": labeled_dir / "labels.txt",
                      "confidence": labeled_dir / "confidence.lf01",
                      "partition": labeled_dir / "partition.json", reader: bad}
            command = "refine"
        args = [command, "--out", tmp_path / "o"]
        for key, path in inputs.items():
            args += [f"--{key}", path]
        assert run(args) == 2
        assert f"error: {bad}: " in capsys.readouterr().err
