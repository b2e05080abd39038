import argparse
import hashlib
import io
import json
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclabel import (
    LabelField,
    LogitNoiseSpec,
    RefineParams,
    SceneSpec,
    StlpConfig,
    SuperpointParams,
    ViewRingSpec,
    cli,
    ply,
    tensorio,
)
from pclabel.cli import _params, build_parser, main
from pclabel.ply import load_labeled_ply, load_ply, save_ply
from pclabel.synth import corrupt_logits, generate_scene, render_views

from conftest import ASCII_HEADER, SRC


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

    @pytest.mark.parametrize("rounds", [0, 1])
    def test_short_ground_truth_is_refused_at_load(self, fixture_dir, tmp_path,
                                                   capsys, monkeypatch, rounds):
        # A listing one label short names its file before any stage runs,
        # whether or not a round would read it.
        from pclabel.ply import load_labeled_ply
        _, values = load_labeled_ply(fixture_dir / "gt.ply")
        gt = tmp_path / "gt.txt"
        gt.write_text("".join(f"{v}\n" for v in values[:-1]))
        args = self._stlp_args(fixture_dir, tmp_path / "s", rounds)
        args[args.index("--gt") + 1] = gt

        def no_stage(*_):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "_pseudo_labels", no_stage)
        assert run(args) == 2
        assert capsys.readouterr().err == (
            f"error: {gt}: {len(values) - 1} labels for {len(values)} points\n")

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

    def test_emit_unlabeled_matches_golden(self, fixture_dir, labeled_dir, tmp_path):
        # At alpha 0.9 the blocks of 10,229 of the 19,129 points fail the
        # vote: infer keeps their raw predictions, --emit-unlabeled leaves
        # them unlabeled and writes the other points' labels unchanged.
        listings = []
        for flags in ([], ["--emit-unlabeled"]):
            out = tmp_path / "-".join(["o", *flags])
            assert run(["infer", "--cloud", fixture_dir / "cloud.ply",
                        "--classes", fixture_dir / "classes.json",
                        "--labels", labeled_dir / "labels.txt",
                        "--partition", labeled_dir / "partition.json",
                        "--alpha", 0.9, *flags, "--out", out]) == 0
            listings.append((out / "pred_labels.txt").read_bytes())
        assert [hashlib.sha256(b).hexdigest() for b in listings] == [
            "62595bb9e993ff4a905b33275b1c03f508b7983f0469eab3992e4a583a07f759",
            "efcc1b3806b07de5119b4d376405d85224789a0d19618cbda03d14955ef3a0c7"]
        voted, emitted = (np.array(b.split(), dtype=np.int64) for b in listings)
        rejected = emitted == -1
        assert rejected.sum() == 10229 and (voted != -1).all()
        assert np.array_equal(emitted[~rejected], voted[~rejected])

    def test_fully_unlabeled_listing_refused_before_partitioning(
            self, fixture_dir, tmp_path, capsys, monkeypatch):
        labels = tmp_path / "none.txt"
        labels.write_text("-1\n" * load_ply(fixture_dir / "cloud.ply").count)

        def partition_cloud(*args):
            raise AssertionError("partitioned before the labels were checked")
        monkeypatch.setattr(cli, "partition_cloud", partition_cloud)
        assert run(["infer", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--labels", labels, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {labels}: no labeled point to fit on\n"
        assert not (tmp_path / "o").exists()


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

    # pseudo's labels.txt and confidence.lf01, then refine's refined_labels.txt
    # and partition.json, on the fixture cloud written as an ascii scan.
    ASCII_SCAN_SHA256 = [
        "0d9a0eb76156eb03e60c68b35dec6bc3352a5d75d794d0897223851c9b3072c7",
        "bf7e10ef6fa6689fc353de2b4f3f5d698714d395c14a3bac0a5800f341f74fd3",
        "3849ddd0f7721185ff3ac0f280933ad74716a9e9997f6d46f20b375094289d3d",
        "270ffdd5106da531e4068448c8d01377a5bea041d1baa9e7cf8f46c0487b93fd",
    ]

    def test_ascii_scan_matches_golden(self, fixture_dir, tmp_path):
        # The cloud as scanners and exporters write it: ascii rows of %.6f
        # coordinates and %d colors.
        cloud = load_ply(fixture_dir / "cloud.ply")
        scan = tmp_path / "scan.ply"
        with open(scan, "w", encoding="ascii") as f:
            f.write(ASCII_HEADER.format(n=cloud.count))
            np.savetxt(f, np.hstack([cloud.positions, cloud.colors]),
                       fmt="%.6f %.6f %.6f %d %d %d")
        pseudo, refined = tmp_path / "pseudo", tmp_path / "refined"
        assert run(["pseudo", "--cloud", scan,
                    "--classes", fixture_dir / "classes.json",
                    "--mask", fixture_dir / "mask.json",
                    "--views", fixture_dir / "views" / "manifest.json",
                    "--occlusion-tolerance", 0.02, "--out", pseudo]) == 0
        assert run(["refine", "--cloud", scan,
                    "--classes", fixture_dir / "classes.json",
                    "--labels", pseudo / "labels.txt",
                    "--confidence", pseudo / "confidence.lf01",
                    "--angle-threshold", 5.5, "--min-size", 4, "--out", refined]) == 0
        outputs = [pseudo / "labels.txt", pseudo / "confidence.lf01",
                   refined / "refined_labels.txt", refined / "partition.json"]
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs]
        assert digests == self.ASCII_SCAN_SHA256


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

    @pytest.mark.parametrize("key, value", [("mask", True), ("cloud", 5),
                                            ("classes", ["classes.json"])])
    def test_path_that_is_not_a_string_is_named_data_error(
        self, fixture_dir, tmp_path, monkeypatch, capsys, key, value
    ):
        # Files named like str(value) sit in the working directory, so
        # reading the value as a path would find them.
        monkeypatch.chdir(tmp_path)
        for name, source in (("True", "mask.json"), ("5", "cloud.ply"),
                             ("['classes.json']", "classes.json")):
            shutil.copy(fixture_dir / source, tmp_path / name)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "cloud": str(fixture_dir / "cloud.ply"),
            "classes": str(fixture_dir / "classes.json"),
            "logits": str(fixture_dir / "logits.lf01"),
            key: value,
        }))
        assert run(["pseudo", "--config", config, "--out", tmp_path / "o"]) == 2
        assert (capsys.readouterr().err
                == f"error: {config}: config key {key!r}: cannot read {value!r} as str\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["top_v", "cloud"])
    def test_null_value_is_named_data_error(self, fixture_dir, labeled_dir, tmp_path,
                                            capsys, key):
        # Read as "not set", a null top_v ran with the default and a null
        # cloud was a missing-input usage error.
        config = tmp_path / "null.json"
        config.write_text(json.dumps({
            "cloud": str(fixture_dir / "cloud.ply"),
            "classes": str(fixture_dir / "classes.json"),
            "labels": str(labeled_dir / "labels.txt"),
            "confidence": str(labeled_dir / "confidence.lf01"),
            "partition": str(labeled_dir / "partition.json"),
            key: None,
        }))
        assert run(["refine", "--config", config, "--out", tmp_path / "r"]) == 2
        assert (capsys.readouterr().err
                == f"error: {config}: config key {key!r} is null\n")
        assert not (tmp_path / "r").exists()

    def test_unread_key_is_named_data_error(self, fixture_dir, labeled_dir, tmp_path, capsys):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({
            "cloud": str(fixture_dir / "cloud.ply"),
            "classes": str(fixture_dir / "classes.json"),
            "labels": str(labeled_dir / "labels.txt"),
            "confidence": str(labeled_dir / "confidence.lf01"),
            "partition": str(labeled_dir / "partition.json"),
            "top_V": 1,
        }))
        assert run(["refine", "--config", config, "--out", tmp_path / "r"]) == 2
        assert (capsys.readouterr().err
                == f"error: {config}: config key 'top_V' is not read by any command\n")
        assert not (tmp_path / "r").exists()

    def test_every_read_key_is_accepted(self, fixture_dir, labeled_dir, tmp_path, monkeypatch):
        # Run every command, recording each key it looks up; a config holding
        # all of them loads, and no accepted key goes unread.
        read = set()
        lookup = cli._setting

        def recording(args, key, *rest, **kwargs):
            read.add(key)
            return lookup(args, key, *rest, **kwargs)

        monkeypatch.setattr(cli, "_setting", recording)
        scan = ["--cloud", fixture_dir / "cloud.ply",
                "--classes", fixture_dir / "classes.json"]
        part = ["--partition", labeled_dir / "partition.json"]
        labels = ["--labels", labeled_dir / "labels.txt"]
        out = tmp_path / "o"
        assert run(["synth", "--out", out]) == 0
        assert run(["pseudo", *scan, "--views", out / "views" / "manifest.json",
                    "--out", out]) == 0
        assert run(["refine", *scan, *labels, "--confidence", labeled_dir / "confidence.lf01",
                    "--out", out]) == 0
        assert run(["stlp", *scan, *part, "--logits", out / "logits.lf01",
                    "--gt", out / "gt.ply", "--rounds", 0, "--out", out]) == 0
        assert run(["infer", *scan, *part, *labels, "--out", out]) == 0
        assert run(["eval", "--classes", fixture_dir / "classes.json",
                    "--gt", fixture_dir / "gt.ply", "--pred", out / "pred_labels.txt"]) == 0
        assert run(["sweep", "--param", "V", "--grid", "x"]) == 1
        # Each key holds a value of its type: the parameter default, or 1.
        values = {**vars(SuperpointParams()), **vars(RefineParams()), **vars(StlpConfig())}
        config = tmp_path / "all.json"
        config.write_text(json.dumps({key: values.get(key, cli._SETTINGS[key]("1"))
                                      for key in read}))
        cli._load_config(str(config))
        assert read == set(cli._SETTINGS)


def setting_flags(key):
    """(command, action) for every flag of the setting `key`."""
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    return [(name, a) for name, sub in commands.choices.items()
            for a in sub._actions if a.dest == key]


class TestSettingTable:
    """Every setting in cli._SETTINGS is a flag of its type on some command,
    and reads alike as a flag and as a config key."""

    # Arguments a command needs besides its settings.
    REQUIRED = {"eval": [], "sweep": ["--param", "V", "--grid", "30"]}

    @pytest.mark.parametrize("key", sorted(cli._SETTINGS))
    def test_flag_has_the_table_type(self, key):
        flags = setting_flags(key)
        assert flags, f"no command takes {key}"
        for _, action in flags:
            assert action.type is cli._SETTINGS[key]
            assert action.option_strings == ["--" + key.replace("_", "-")]

    @pytest.mark.parametrize("key", sorted(cli._SETTINGS))
    def test_flag_and_config_read_alike(self, key, tmp_path):
        value, other = {str: (str(tmp_path / "a"), str(tmp_path / "b")),
                        int: (7, 9), float: (0.25, 0.5)}[cli._SETTINGS[key]]
        command = setting_flags(key)[0][0]
        base = [command, *self.REQUIRED.get(command, ["--out", "o"])]
        flag = ["--" + key.replace("_", "-"), str(value)]
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        by_flag = cli._parse_args(base + flag)
        by_config = cli._parse_args(base + ["--config", str(config)])
        assert cli._setting(by_flag, key) == cli._setting(by_config, key) == value
        for cls in (SuperpointParams, RefineParams, StlpConfig):
            assert _params(cls, by_flag) == _params(cls, by_config)
        # a flag overrides the config file
        config.write_text(json.dumps({key: other}))
        assert cli._setting(cli._parse_args(base + flag + ["--config", str(config)]),
                            key) == value


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

    def test_sweep_out_is_a_csv_file(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["sweep", "--help"])
        assert exited.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--out OUT CSV file (stdout without it)" in help_text
        assert "output directory" not in help_text

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

    @pytest.mark.parametrize("command, flag, source", [
        ("pseudo", "--logits", "logits.lf01"),
        ("pseudo", "--views", "views/manifest.json"),
        ("stlp", "--logits", "logits.lf01"),
    ])
    def test_empty_mask_names_the_file(self, fixture_dir, tmp_path, capsys, command,
                                       flag, source):
        mask = tmp_path / "mask.json"
        mask.write_text("[]")
        assert run([command, "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json", "--mask", mask,
                    flag, fixture_dir / source, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {mask}: scene mask names no class\n"

    def test_non_finite_logits(self, fixture_dir, tmp_path, capsys):
        path = tmp_path / "nan.lf01"
        data = (fixture_dir / "logits.lf01").read_bytes()
        path.write_bytes(data[:12] + struct.pack("<f", float("nan")) + data[16:])
        assert self._pseudo(fixture_dir, tmp_path / "o", logits=path) == 2
        assert "logits of point 0 is not finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("field, value", [
        ("intrinsics", float("nan")),
        ("rotation", float("nan")),
        ("translation", float("inf")),
    ])
    def test_non_finite_view_pose_names_the_view(self, fixture_dir, tmp_path, capsys,
                                                 field, value):
        views = tmp_path / "views"
        shutil.copytree(fixture_dir / "views", views)
        manifest = views / "manifest.json"
        entries = json.loads(manifest.read_text())
        array = entries[2][field]  # its first entry, or first row's first entry
        (array[0] if isinstance(array[0], list) else array)[0] = value
        manifest.write_text(json.dumps(entries))
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--views", manifest, "--out", tmp_path / "o"]) == 2
        assert (f"error: {manifest}: view 2: {field} is not finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, where, value", [
        ("intrinsics", (0, 0), 1e308),
        ("intrinsics", (0, 2), 1e308),
        ("translation", (0,), 1e300),
        ("translation", (0,), 1.797e308),
    ])
    def test_overflowing_view_sees_nothing(self, fixture_dir, tmp_path, field,
                                           where, value):
        # Each camera's projection overflows; the test configuration makes a
        # RuntimeWarning an error, so the run must not warn. The view adds no
        # hits: the outputs equal those of the manifest without it.
        views = tmp_path / "views"
        shutil.copytree(fixture_dir / "views", views)
        manifest = views / "manifest.json"
        entries = json.loads(manifest.read_text())
        array = entries[2][field]
        for i in where[:-1]:
            array = array[i]
        array[where[-1]] = value
        manifest.write_text(json.dumps(entries))
        without = views / "without.json"
        without.write_text(json.dumps(entries[:2] + entries[3:]))
        for path, out in ((manifest, "o"), (without, "w")):
            assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                        "--classes", fixture_dir / "classes.json",
                        "--views", path, "--out", tmp_path / out]) == 0
        for name in ("labels.txt", "confidence.lf01"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "w" / name).read_bytes()

    def test_non_pinhole_bottom_row_names_the_view(self, fixture_dir, tmp_path, capsys):
        views = tmp_path / "views"
        shutil.copytree(fixture_dir / "views", views)
        manifest = views / "manifest.json"
        entries = json.loads(manifest.read_text())
        entries[1]["intrinsics"][2][2] = 0
        manifest.write_text(json.dumps(entries))
        assert run(["pseudo", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--views", manifest, "--out", tmp_path / "o"]) == 2
        assert (f"error: {manifest}: view 1: intrinsics must be "
                "[[fx, s, cx], [0, fy, cy], [0, 0, 1]]" in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, short", [
        ("refine", "confidence"), ("infer", "labels"),
        ("refine", "partition"), ("pseudo", "logits"),
    ])
    def test_count_mismatch_names_the_file(self, fixture_dir, labeled_dir, tmp_path,
                                           capsys, command, short):
        inputs = {
            "cloud": fixture_dir / "cloud.ply",
            "classes": fixture_dir / "classes.json",
            "labels": labeled_dir / "labels.txt",
            "confidence": labeled_dir / "confidence.lf01",
            "partition": labeled_dir / "partition.json",
            "logits": fixture_dir / "logits.lf01",
        }
        path = inputs[short] = tmp_path / inputs[short].name
        if short == "confidence":
            tensorio.save_confidence(path, np.full(5, 0.5))
        elif short == "labels":
            path.write_text("0\n" * 5)
        elif short == "partition":
            path.write_text('{"n": 3, "u": 1, "assignment": [0, 0, 0]}')
        else:
            tensorio.save_tensor(path, np.zeros((5, 8)))
        reads = {"pseudo": ("cloud", "classes", "logits"),
                 "refine": ("cloud", "classes", "labels", "confidence", "partition"),
                 "infer": ("cloud", "classes", "labels", "partition")}[command]
        flags = [a for key in reads for a in (f"--{key}", inputs[key])]
        assert run([command, *flags, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_int64_overflowing_partition_entry(self, fixture_dir, labeled_dir,
                                               tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 2, "u": 1, "assignment": [0, 100000000000000000000000]}')
        assert run(["refine", "--cloud", fixture_dir / "cloud.ply",
                    "--classes", fixture_dir / "classes.json",
                    "--labels", labeled_dir / "labels.txt",
                    "--confidence", labeled_dir / "confidence.lf01",
                    "--partition", path, "--out", tmp_path / "o"]) == 2
        assert ("huge.json: assignment entry 1 must be an integer in [0, 2), "
                "got 100000000000000000000000" in capsys.readouterr().err)

    def test_int64_overflowing_label_entry(self, fixture_dir, tmp_path, capsys):
        pred = tmp_path / "p.txt"
        pred.write_text("0\n99999999999999999999\n")
        assert run(["eval", "--pred", pred, "--gt", fixture_dir / "gt.ply",
                    "--classes", fixture_dir / "classes.json"]) == 2
        assert (f"{pred}: line 2: label 99999999999999999999 outside [0, 8) and not UNLABELED"
                in capsys.readouterr().err)

    def test_out_of_range_label_names_the_listing(self, fixture_dir, tmp_path, capsys):
        pred = tmp_path / "bad.txt"
        pred.write_text("0\n99\n")
        assert run(["eval", "--pred", pred, "--gt", fixture_dir / "gt.ply",
                    "--classes", fixture_dir / "classes.json"]) == 2
        assert (f"{pred}: line 2: label 99 outside [0, 8) and not UNLABELED"
                in capsys.readouterr().err)

    def test_out_of_range_label_names_the_ply(self, fixture_dir, tmp_path, capsys):
        from pclabel.ply import load_labeled_ply, save_ply
        cloud, values = load_labeled_ply(fixture_dir / "gt.ply")
        values[-1] = 99
        gt = tmp_path / "gt.ply"
        save_ply(cloud, gt, labels=values)
        assert run(["eval", "--pred", tmp_path / "unused.txt", "--gt", gt,
                    "--classes", fixture_dir / "classes.json"]) == 2
        assert (f"{gt}: label 99 at point {cloud.count - 1} outside [0, 8)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["eval", "pseudo"])
    def test_empty_class_list_names_the_file(self, intact, tmp_path, capsys, command):
        classes = tmp_path / "classes.json"
        classes.write_text("[]")
        assert run(command_args(command, {**intact, "classes": classes}, tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {classes}: class list is empty\n"

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
        assert (capsys.readouterr().err
                == f"error: {manifest}: view 0: 8 logit channels for 3 classes\n")

    def test_too_few_points_for_normals_names_the_setting(self, fixture_dir, tmp_path,
                                                          capsys):
        cloud = tmp_path / "five.ply"
        cloud.write_text("ply\nformat ascii 1.0\nelement vertex 5\n"
                         "property float x\nproperty float y\nproperty float z\n"
                         "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                         "end_header\n" + "".join(f"{i} {i % 2} 0 0 0 0\n" for i in range(5)))
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n0\n1\n0\n")
        assert run(["infer", "--cloud", cloud, "--classes", fixture_dir / "classes.json",
                    "--labels", labels, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "error: normals_k must lie in [3, 5], got 16" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("reader, content", [
        ("classes", b'["wall", '),
        ("classes", b'["wall\xff"]'),
        ("mask", b'["wall"]]'),
        ("mask", b'["\xff"]'),
        ("views", b'[{"width": }]'),
        ("views", b'[\xff]'),
        ("views", b'[]'),
        pytest.param("classes", b"[" * 100_000, id="classes-nested-100000-deep"),
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


class TestSettingDomains:
    """A setting outside its domain, or of the wrong type, is a data error
    naming the setting (exit 2), before any stage runs on it."""

    @pytest.fixture(scope="class")
    def inputs(self, fixture_dir, labeled_dir):
        """Each command's valid arguments, without --partition so that the
        over-segmentation settings are read."""
        scan = ["--cloud", fixture_dir / "cloud.ply",
                "--classes", fixture_dir / "classes.json"]
        return {
            "pseudo": scan + ["--views", fixture_dir / "views" / "manifest.json"],
            "refine": scan + ["--labels", labeled_dir / "labels.txt",
                              "--confidence", labeled_dir / "confidence.lf01"],
            "stlp": scan + ["--mask", fixture_dir / "mask.json",
                            "--logits", fixture_dir / "logits.lf01"],
            "infer": scan + ["--labels", labeled_dir / "labels.txt"],
        }

    @pytest.mark.parametrize("command, flag, value", [
        ("infer", "--knn-smoothing", "nan"),
        ("infer", "--knn-smoothing", "inf"),
        ("infer", "--knn-confidence-scale", "nan"),
        ("infer", "--color-weight", "nan"),
        ("infer", "--color-weight", "inf"),
        ("stlp", "--knn-confidence-scale", "nan"),
        ("refine", "--min-size", "-5"),
        ("refine", "--min-size", "0"),
        ("pseudo", "--occlusion-tolerance", "nan"),
        ("pseudo", "--occlusion-tolerance", "-1"),
        ("refine", "--adjacency-k", "65"),
        ("stlp", "--normals-k", "65"),
    ])
    def test_out_of_domain_flag(self, inputs, tmp_path, capsys, command, flag, value):
        assert run([command, *inputs[command], flag, value, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag[2:].replace('-', '_')} must " in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, low", [
        ("stlp", "adjacency_k", 1),
        ("infer", "adjacency_k", 1),
        ("refine", "normals_k", 3),
    ])
    def test_neighbourhood_beyond_its_bound(self, inputs, tmp_path, capsys,
                                            command, key, low):
        # Refused before any stage runs: a neighbour query for k this large
        # would ask for an n-by-n table.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: 10**20}))
        assert run([command, *inputs[command], "--config", config,
                    "--out", tmp_path / "o"]) == 2
        assert (capsys.readouterr().err
                == f"error: {config}: {key} must lie in [{low}, 64], got {10**20}\n")

    @pytest.mark.parametrize("key, value, kind", [
        ("rounds", True, "int"),
        ("knn_k", 15.9, "int"),
        ("min_size", 4.5, "int"),
        ("top_v", True, "float"),
        ("top_v", "30", "float"),
        ("rounds", "1", "int"),
    ])
    def test_config_value_of_another_type(self, inputs, tmp_path, capsys, key, value, kind):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"rounds": 1, key: value}))
        assert run(["stlp", *inputs["stlp"], "--config", config,
                    "--out", tmp_path / "o"]) == 2
        assert (capsys.readouterr().err
                == f"error: {config}: config key {key!r}: cannot read {value!r} as {kind}\n")

    @pytest.mark.parametrize("text, message", [
        ('{"top_v": 1e400}', "top_v must lie in (0, 100], got inf"),
        ('{"top_v": "30"}', "config key 'top_v': cannot read '30' as float"),
        (f'{{"adjacency_k": {10**20}}}', f"adjacency_k must lie in [1, 64], got {10**20}"),
    ])
    @pytest.mark.parametrize("flag", [[], ["--top-v", 30]])
    def test_config_is_checked_whole(self, inputs, tmp_path, capsys, text, message, flag):
        # Refused as the file's error, even where a flag overrides the value.
        config = tmp_path / "c.json"
        config.write_text(text)
        assert run(["refine", *inputs["refine"], "--config", config, *flag,
                    "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, message", [
        ("synth", '{"seed": -1}', "seed must be >= 0, got -1"),
        # Read only with --views: with --logits it was ignored, exit 0.
        ("pseudo", '{"occlusion_tolerance": -1}',
         "occlusion_tolerance must be finite and >= 0, got -1.0"),
        ("pseudo", '{"cloud": "a\\u0000b"}',
         "config key 'cloud': a path cannot hold a NUL character"),
    ])
    def test_setting_outside_the_parameter_classes(self, fixture_dir, tmp_path, capsys,
                                                   command, text, message):
        config = tmp_path / "c.json"
        config.write_text(text)
        args = {"synth": [],
                "pseudo": ["--cloud", fixture_dir / "cloud.ply",
                           "--classes", fixture_dir / "classes.json",
                           "--logits", fixture_dir / "logits.lf01"]}[command]
        assert run([command, *args, "--config", config, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_whole_float_reads_as_int(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"knn_k": 15.0, "rounds": 3.0}))
        config = cli._load_config(str(path))
        assert _params(StlpConfig, argparse.Namespace(**config)) == StlpConfig(knn_k=15, rounds=3)



# The input files each command reads in the tests below, by setting.
READS = {"pseudo": "cloud classes logits",
         "refine": "cloud classes labels confidence partition",
         "infer": "cloud classes labels partition",
         "stlp": "cloud classes logits gt",
         "eval": "classes gt pred"}


def command_args(command, inputs, out, reads=None):
    """`command` with a flag for each input it reads (`reads`, else
    READS[command]), taken from `inputs`, and --out unless it is eval."""
    reads = reads or READS[command]
    args = [command] + [a for key in reads.split() for a in (f"--{key}", inputs[key])]
    return args + ([] if command == "eval" else ["--out", out])


@pytest.fixture(scope="module")
def intact(fixture_dir, labeled_dir):
    """A valid file for every setting in READS."""
    return {"cloud": fixture_dir / "cloud.ply",
            "classes": fixture_dir / "classes.json",
            "labels": labeled_dir / "labels.txt",
            "confidence": labeled_dir / "confidence.lf01",
            "partition": labeled_dir / "partition.json",
            "logits": fixture_dir / "logits.lf01",
            "gt": fixture_dir / "gt.ply",
            "pred": labeled_dir / "labels.txt"}


class TestLabelInputs:
    """--labels, --pred and --gt each read a label PLY (a path ending in
    .ply) or a text listing, alike, and name the file in every error."""

    @pytest.fixture(scope="class")
    def forms(self, intact, tmp_path_factory):
        """The pseudo labels and the ground truth, each as a text listing
        and as a label PLY."""
        out = tmp_path_factory.mktemp("forms")
        cloud, gt = load_labeled_ply(intact["gt"])
        save_ply(cloud, out / "labels.ply",
                 labels=tensorio.load_labels_text(intact["labels"], 8))
        tensorio.save_labels_text(out / "gt.txt", LabelField(gt, 8))
        return {"labels": [intact["labels"], out / "labels.ply"],
                "gt": [out / "gt.txt", intact["gt"]]}

    @pytest.mark.parametrize("command, output", [("refine", "refined_labels.txt"),
                                                 ("infer", "pred_labels.txt"),
                                                 ("stlp", "report.jsonl")])
    def test_both_forms_read_alike(self, intact, forms, tmp_path, command, output):
        key = "gt" if command == "stlp" else "labels"
        for form, path in zip("ab", forms[key]):
            args = command_args(command, {**intact, key: path}, tmp_path / form)
            assert run(args + (["--partition", intact["partition"], "--rounds", 1]
                               if command == "stlp" else [])) == 0
        read = (tmp_path / "a" / output).read_bytes()
        assert read == (tmp_path / "b" / output).read_bytes()
        assert command != "stlp" or b'"miou"' in read  # the rounds scored the ground truth

    def test_eval_reads_both_forms_alike(self, intact, forms, capsys):
        reports = set()
        for pred in forms["labels"]:
            for gt in forms["gt"]:
                args = command_args("eval", {**intact, "pred": pred, "gt": gt}, None)
                assert run(args + ["--json"]) == 0
                reports.add(capsys.readouterr().out)
        assert len(reports) == 1
        assert 0 < json.loads(reports.pop())["miou"] < 1

    @pytest.mark.parametrize("command, key", [("refine", "labels"), ("stlp", "gt"),
                                              ("eval", "pred"), ("eval", "gt")])
    def test_ply_without_label_channel(self, intact, tmp_path, capsys, command, key):
        cloud = intact["cloud"]
        assert run(command_args(command, {**intact, key: cloud}, tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {cloud}: no label channel\n"
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("kind", ["float", "double", "int", "char"])
    @pytest.mark.parametrize("command, key", [("eval", "pred"), ("refine", "labels"),
                                              ("pseudo", "cloud")])
    def test_label_channel_must_be_ushort(self, intact, tmp_path, capsys, kind, command, key):
        # An ascii label PLY whose labels read as classes at a glance: 2.5
        # used to be class 2, with exit 0.
        cloud, gt = load_labeled_ply(intact["gt"])
        path = tmp_path / "labels.ply"
        with open(path, "w") as f:
            f.write(f"ply\nformat ascii 1.0\nelement vertex {cloud.count}\n"
                    + "".join(f"property float {c}\n" for c in "xyz")
                    + "".join(f"property uchar {c}\n" for c in ("red", "green", "blue"))
                    + f"property {kind} label\nend_header\n")
            half = ".5" if kind in ("float", "double") else ""
            for p, c, label in zip(cloud.positions, cloud.colors, gt):
                f.write(f"{p[0]!r} {p[1]!r} {p[2]!r} {c[0]} {c[1]} {c[2]} {label}{half}\n")
        assert run(command_args(command, {**intact, key: path}, tmp_path / "o")) == 2
        assert (capsys.readouterr().err
                == f"error: {path}: header line 11: property 'label' must be ushort\n")


class TestSizeMessages:
    """Every input whose size does not fit the cloud, the class list or the
    ground truth is refused by one rule: `<path>: <got> <what> for <want> <of>`."""

    # case: (command, setting, message)
    CASES = {
        "confidence": ("refine", "confidence", "5 confidences for {n} points"),
        "partition": ("refine", "partition", "3 assignment entries for {n} points"),
        "logit-rows": ("pseudo", "logits", "5 logit rows for {n} points"),
        "logit-columns": ("pseudo", "logits", "3 logit columns for 8 classes"),
        "pred": ("eval", "pred", "5 labels for {n} points of {gt}"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_message(self, intact, tmp_path, capsys, case):
        command, key, message = self.CASES[case]
        n = load_ply(intact["cloud"]).count
        path = tmp_path / "short"
        if case == "confidence":
            tensorio.save_confidence(path, np.full(5, 0.5))
        elif case == "partition":
            path.write_text('{"n": 3, "u": 1, "assignment": [0, 0, 0]}')
        elif case == "pred":
            path.write_text("0\n" * 5)
        else:
            tensorio.save_tensor(path, np.zeros((5, 8) if case == "logit-rows" else (n, 3)))
        assert run(command_args(command, {**intact, key: path}, tmp_path / "o")) == 2
        assert (capsys.readouterr().err
                == f"error: {path}: {message.format(n=n, gt=intact['gt'])}\n")

    @pytest.mark.parametrize("payload, message", [
        ({"n": 3, "u": 2, "assignment": [0, 2, 2]},
         "segment ids must be dense in [0, U), but id 1 has no point"),
        ({"n": 3.0, "u": 1, "assignment": [0, 0, 0]}, "n must be an integer, got 3.0"),
        ({"n": 3, "u": True, "assignment": [0, 0, 0]}, "u must be an integer, got True"),
    ])
    def test_partition_rule_names_the_file(self, intact, tmp_path, capsys, payload, message):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(payload))
        assert run(command_args("infer", {**intact, "partition": path}, tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.fixture(scope="module")
def small_scan(tmp_path_factory):
    """A valid file for every setting in READS, for a ~700-point scene, and a
    config file of numeric settings (a relative path in it would resolve
    beside a damaged copy, naming another file)."""
    out = tmp_path_factory.mktemp("small")
    scene = SceneSpec(extents=(1.0, 1.0, 0.8), object_count=(1, 2), density=120.0)
    cloud, gt, mask, _ = generate_scene(scene)
    save_ply(cloud, out / "cloud.ply")
    save_ply(cloud, out / "gt.ply", labels=gt)
    tensorio.save_class_names(out / "classes.json", scene.class_names)
    tensorio.save_scene_mask(out / "mask.json", mask, scene.class_names)
    logits = corrupt_logits(gt, cloud, LogitNoiseSpec())
    tensorio.save_tensor(out / "logits.lf01", logits)
    tensorio.save_views(out / "views", render_views(
        cloud, logits, ViewRingSpec(num_cameras=2, width=16, height=12)))
    inputs = {"cloud": out / "cloud.ply", "classes": out / "classes.json",
              "logits": out / "logits.lf01", "labels": out / "labels.txt",
              "views": out / "views" / "manifest.json",
              "confidence": out / "confidence.lf01", "gt": out / "gt.ply",
              "pred": out / "labels.txt", "mask": out / "mask.json"}
    assert run(command_args("pseudo", inputs, out)) == 0
    # refine without --partition writes the default one
    assert run(["refine", "--cloud", inputs["cloud"], "--classes", inputs["classes"],
                "--labels", inputs["labels"], "--confidence", inputs["confidence"],
                "--out", out]) == 0
    (out / "config.json").write_text(json.dumps({
        "top_v": 30.0, "alpha": 0.5, "angle_threshold": 15.0, "min_size": 20,
        "knn_k": 15, "rounds": 1, "occlusion_tolerance": 0.05, "seed": 0}))
    return {**inputs, "partition": out / "partition.json", "config": out / "config.json"}


# (command, the setting whose file is damaged, the file); the command's
# other inputs are intact. gt.ply stands in as a label PLY for --labels, and
# pseudo reads --views in place of --logits when the manifest is damaged.
DAMAGED = [
    ("refine", "labels", "labels"), ("refine", "labels", "gt"),
    ("refine", "confidence", "confidence"), ("refine", "partition", "partition"),
    ("refine", "cloud", "cloud"),
    ("infer", "labels", "labels"), ("infer", "labels", "gt"),
    ("infer", "partition", "partition"),
    ("eval", "pred", "pred"), ("eval", "gt", "gt"), ("eval", "classes", "classes"),
    ("pseudo", "cloud", "cloud"), ("pseudo", "views", "views"),
    ("pseudo", "logits", "logits"), ("pseudo", "classes", "classes"),
    ("stlp", "cloud", "cloud"), ("stlp", "logits", "logits"), ("stlp", "gt", "gt"),
    ("pseudo", "mask", "mask"), ("stlp", "mask", "mask"),
    ("refine", "config", "config"),
]
# What a JSON value is swapped for: another type, NaN, a float beyond
# float64, an integer beyond int64 and nesting too deep to decode.
JSON_SWAPS = ['"3"', "null", "true", "[]", "{}", "1.5", "NaN", "1e400",
              "12345678901234567890", "[" * 100_000 + "]" * 100_000]


def swap_one(draw, value):
    """The non-empty array or object `value` with one of its values, found by
    descending from the top, replaced by "@"; test_whole_document_swapped
    replaces the top itself."""
    key = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                               else range(len(value))))
    inner = value[key]
    descend = isinstance(inner, (list, dict)) and inner and draw(st.booleans())
    value[key] = swap_one(draw, inner) if descend else "@"
    return value


@st.composite
def damaged(draw, data: bytes, suffix: str) -> bytes:
    """`data` truncated, with one byte flipped, or with one JSON value or
    one PLY property type swapped for another."""
    kind = draw(st.sampled_from(["truncate", "flip"]
                                + {".json": ["swap"], ".ply": ["retype"]}.get(suffix, [])))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    if kind == "retype":
        declared = re.findall(rb"property \w+ \w+\n", data)
        line = draw(st.sampled_from(declared))
        kind = draw(st.sampled_from(sorted(ply._SCALAR_TYPES))).encode()
        return data.replace(line, b"property %s %s\n" % (kind, line.split()[2]), 1)
    payload = swap_one(draw, json.loads(data))
    return json.dumps(payload).replace('"@"', draw(st.sampled_from(JSON_SWAPS))).encode()


def run_damaged(small_scan, case, content: bytes) -> None:
    """Run `case` with its file replaced by `content`: the input either still
    reads or is a data error that names it, once; never a usage error, a
    traceback or a warning."""
    command, key, source = case
    source = small_scan[source]
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, source.name)
        with open(bad, "wb") as f:
            f.write(content)
        reads = None
        if key == "views":  # the payloads the manifest names sit beside it
            for payload in source.parent.glob("*.lf01"):
                shutil.copy(payload, tmp)
            reads = READS[command].replace("logits", "views")
        if key in ("mask", "config"):  # optional inputs, read only when given
            reads = f"{READS[command]} {key}"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stderr(err), redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = run(command_args(command, {**small_scan, key: bad},
                                    os.path.join(tmp, "o"), reads))
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().count(bad) == 1, err.getvalue()


class TestDamagedFiles:
    @settings(max_examples=400)
    @given(case=st.sampled_from(DAMAGED), data=st.data())
    def test_exit_0_or_2_naming_the_file(self, small_scan, case, data):
        source = small_scan[case[2]]
        run_damaged(small_scan, case, data.draw(damaged(source.read_bytes(), source.suffix)))

    @pytest.mark.parametrize("swap", JSON_SWAPS, ids=lambda swap: swap[:20])
    @pytest.mark.parametrize("case", [c for c in DAMAGED if c[1] in
                                      ("views", "classes", "mask", "partition", "config")])
    def test_whole_document_swapped(self, small_scan, case, swap):
        run_damaged(small_scan, case, swap.encode())


def limit_address_space():
    """Cap this process's address space at 1 GiB (run in the child only)."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


HUGE = 2**31 - 1


class TestLyingHeadersInAChild:
    """A file that claims 2**31 - 1 rows is refused by its size, before any
    allocation: run as `python -m pclabel` with RLIMIT_AS at 1 GiB in the
    child, a giant allocation fails the test instead of the host."""

    @pytest.mark.parametrize("command, key, content", [
        ("pseudo", "logits", lambda scan: tensorio.LF01_MAGIC + struct.pack("<ii", HUGE, 8)),
        ("pseudo", "cloud", lambda scan: (ASCII_HEADER.format(n=HUGE)
                                          + "0 0 0 1 2 3\n").encode()),
        ("pseudo", "cloud", lambda scan: re.sub(rb"element vertex \d+",
                                                b"element vertex %d" % HUGE,
                                                scan["cloud"].read_bytes())),
        ("refine", "partition", lambda scan: json.dumps(
            {"n": HUGE, "u": HUGE, "assignment": [0, 1, HUGE - 1]}).encode()),
    ], ids=["lf01", "ascii-ply", "binary-ply", "partition"])
    def test_exit_2_naming_the_file(self, small_scan, tmp_path, command, key, content):
        bad = tmp_path / small_scan[key].name
        bad.write_bytes(content(small_scan))
        # One BLAS thread: its per-thread buffers count against the limit.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-m", "pclabel",
             *map(str, command_args(command, {**small_scan, key: bad}, tmp_path / "o"))],
            env=env, preexec_fn=limit_address_space, capture_output=True, text=True,
            timeout=120)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: {bad}: "), result.stderr
        assert result.stderr.count(str(bad)) == 1
