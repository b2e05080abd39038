"""Acceptance suite: every criterion as one test with a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 7-10 share one set of benchmark runs over the standard seeds.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import pclabel as pl
from pclabel import LabelField
from pclabel.cli import main as cli_main
from pclabel.projection import MIN_DEPTH, project_to_pixels

from conftest import segment_members
from test_refine import literal_galr_oracle, random_instance
from test_metrics import set_based_miou_oracle
from test_projection import random_view


def _line(number: int, passed: bool, message: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}: {message}")
    assert passed, f"criterion {number}: {message}"


@pytest.fixture(scope="module")
def bench():
    """Shared benchmark products over the standard seeds."""
    preset = pl.get_benchmark("room-small")
    runs = {}
    t0 = time.monotonic()
    for seed in pl.STANDARD_SEEDS:
        runs[seed] = pl.label_scan(preset, seed)
    label_time = time.monotonic() - t0
    records = {}
    for seed in pl.STANDARD_SEEDS:
        held = pl.eval_scan(preset, seed)
        records[seed] = {
            rounds: pl.run_benchmark(preset, seed, rounds=rounds,
                                     run=runs[seed], held_out=held)
            for rounds in (0, 1, 2, 3)
        }
    return {"preset": preset, "runs": runs, "records": records,
            "label_time": label_time}


def test_criterion_1_galr_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    for trial in range(100):
        labels, partition = random_instance(rng, n_max=200, c_max=5, u_max=20)
        alpha = (0.0, 0.3, 0.5, 0.9)[trial % 4]
        got = pl.galr(labels, partition, alpha).values
        expected = literal_galr_oracle(labels, partition, alpha)
        assert np.array_equal(got, expected)
    elapsed = time.monotonic() - start
    _line(1, elapsed < 1.0,
          f"galr bit-equal to the literal per-block tally on 100 instances "
          f"({elapsed:.2f}s)")


def test_criterion_2_calr_cardinality_and_dominance():
    rng = np.random.default_rng(203)
    for _ in range(100):
        n = int(rng.integers(1, 400))
        c = int(rng.integers(1, 7))
        labels = LabelField(rng.integers(-1, c, n), c)
        confidence = rng.random(n)
        top_v = float(rng.choice([5.0, 10.0, 30.0, 50.0, 90.0, 100.0]))
        out = pl.calr(labels, confidence, top_v)
        for cls in range(c):
            pool = labels.values == cls
            kept = out.values == cls
            n_c = int(pool.sum())
            assert int(kept.sum()) == min(n_c, math.ceil(top_v * n_c / 100.0))
            dropped = pool & ~kept
            if kept.any() and dropped.any():
                assert confidence[kept].min() >= confidence[dropped].max()
    _line(2, True, "calr retention counts and confidence dominance exact "
                   "on 100 instances")


def test_criterion_3_label_update_monotonicity(bench):
    preset = bench["preset"]
    violations = 0
    for seed in pl.STANDARD_SEEDS:
        run = bench["runs"][seed]
        config = replace(preset.stlp, rounds=3)
        labels = run.refined
        classifier = pl.KnnClassifier(config)
        for _ in range(3):
            classifier.fit(run.cloud, labels)
            pred, conf = classifier.predict(run.cloud)
            gaps = ~labels.labeled_mask
            merged = pl.label_update(labels, pred.with_values(pred.values[gaps]),
                                     conf[gaps], run.scene_mask, preset.refine.top_v)
            entering = labels.labeled_mask
            if not np.array_equal(merged.values[entering], labels.values[entering]):
                violations += 1
            if merged.labeled_mask.sum() < entering.sum():
                violations += 1
            out_labeled = merged.labeled_mask
            if not run.scene_mask[merged.values[out_labeled]].all():
                violations += 1
            labels = pl.galr(merged, run.partition, preset.refine.alpha)
            if labels.labeled_mask.any():
                if not run.scene_mask[labels.values[labels.labeled_mask]].all():
                    violations += 1
        # the instrumented trace is the production path
        final, _ = pl.stlp_run(run.cloud, run.refined, run.partition,
                               config, preset.refine, run.scene_mask)
        assert np.array_equal(final.values, labels.values)
    _line(3, violations == 0,
          "label_update retains labeled positions verbatim and never emits "
          "a masked-out class across full T=3 runs on 5 seeds")


def test_criterion_4_galr_block_constancy_and_idempotence():
    rng = np.random.default_rng(204)
    for _ in range(50):
        labels, partition = random_instance(rng)
        alpha = float(rng.choice([0.0, 0.3, 0.5, 0.9]))
        once = pl.galr(labels, partition, alpha)
        for members in segment_members(partition):
            assert len(np.unique(once.values[members])) == 1
        twice = pl.galr(once, partition, alpha)
        assert np.array_equal(once.values, twice.values)
    _line(4, True, "galr output block-constant and galr(galr(x)) == galr(x) "
                   "bit-exact on 50 instances")


def test_criterion_5_projection_round_trip():
    rng = np.random.default_rng(205)
    checked = behind = 0
    worst = 0.0
    while checked + behind < 1000:
        view = random_view(rng, 64, 48, 1)
        p = rng.uniform(-4, 4, 3)
        q = view.rotation @ p + view.translation
        uv, depth = pl.project(p[None], view.intrinsics, view.rotation, view.translation)
        seen, *_ = project_to_pixels(p[None], view.intrinsics, view.rotation,
                                     view.translation, view.width, view.height)
        if q[2] <= 0:
            assert depth[0] <= MIN_DEPTH and seen.size == 0
            behind += 1
            continue
        if depth[0] <= MIN_DEPTH:  # 0 < depth <= epsilon gate
            behind += 1
            continue
        (u, v), depth = uv[0], depth[0]
        recon = np.linalg.inv(view.intrinsics) @ np.array([u, v, 1.0]) * depth
        worst = max(worst, float(np.abs(recon - q).max()))
        checked += 1
    _line(5, worst < 1e-6 and behind > 0,
          f"reprojection error {worst:.2e} < 1e-6 over {checked} visible "
          f"pairs; {behind} behind-camera points absent")


def test_criterion_6_miou_oracle():
    pred = LabelField(np.array([0, 0, 1]), 2)
    gt = LabelField(np.array([0, 1, 1]), 2)
    mean_iou, per_class, _ = pl.miou(pl.confusion(pred, gt))
    assert per_class.tolist() == [0.5, 0.5] and mean_iou == 0.5
    rng = np.random.default_rng(206)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 300))
        c = int(rng.integers(1, 7))
        pred = LabelField(rng.integers(-1, c, n), c)
        gt = LabelField(rng.integers(-1, c, n), c)
        cm = pl.confusion(pred, gt)
        if cm.sum() == 0:
            continue
        mean_iou, _, macc = pl.miou(cm)
        oracle_iou, oracle_macc = set_based_miou_oracle(pred, gt)
        assert np.isclose(mean_iou, oracle_iou)
        assert np.isclose(macc, oracle_macc, equal_nan=True)
        done += 1
    _line(6, True, "miou equals the set-intersection oracle on 100 fields and "
                   "the hand-counted example exactly")


def test_criterion_7_refinement_gain(bench):
    ok = True
    details = []
    for seed in pl.STANDARD_SEEDS:
        rec = bench["records"][seed][0]
        raw = rec["raw_miou"]
        refined = rec["refined_miou"]
        in_band = 0.45 <= raw <= 0.65
        gained = refined - raw >= 0.10
        ok &= in_band and gained
        details.append(f"s{seed}: {raw:.3f}->{refined:.3f}")
    elapsed = bench["label_time"]
    ok &= elapsed < 30.0
    _line(7, ok, f"refined labeled-subset mIoU beats raw by >=0.10 with raw in "
                 f"[0.45, 0.65] on every seed ({'; '.join(details)}; "
                 f"{elapsed:.1f}s < 30s)")


def test_criterion_8_self_training_gain(bench):
    gains = []
    shapes_ok = True
    for seed in pl.STANDARD_SEEDS:
        recs = bench["records"][seed]
        curve = [recs[t]["val_miou"] for t in (0, 1, 2, 3)]
        gains.append(curve[2] - curve[0])
        monotone = all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
        dip_late = curve[2] <= curve[1] + 1e-12 or curve[3] <= curve[2] + 1e-12
        shapes_ok &= monotone or dip_late
    mean_gain = float(np.mean(gains))
    _line(8, mean_gain >= 0.05 and shapes_ok,
          f"mean mIoU(T=2) - mIoU(T=0) = {mean_gain:+.3f} >= 0.05 and every "
          f"T-curve rises monotonically or steps down within T in {{2,3}}")


def test_criterion_9_inference_galr_gain(bench):
    wins = 0
    deltas = []
    for seed in pl.STANDARD_SEEDS:
        rec = bench["records"][seed][2]
        delta = rec["val_miou"] - rec["val_miou_without_galr"]
        deltas.append(delta)
        wins += delta >= 0
    _line(9, wins >= 4,
          f"inference with the superpoint vote >= without on {wins}/5 seeds "
          f"(deltas {['%+.3f' % d for d in deltas]})")


def test_criterion_10_confidence_bin_shape(bench):
    ok = True
    for seed in pl.STANDARD_SEEDS:
        run = bench["runs"][seed]
        bins = pl.confidence_bins(run.raw_labels, run.raw_confidence, run.gt,
                                  [0.0, 0.25, 0.5, 0.75, 1.0])
        accs = [b.accuracy for b in bins if b.accuracy is not None]
        ok &= all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
    _line(10, ok, "quartile-bin accuracies weakly increasing on every seed")


def test_criterion_11_performance_bounds():
    spec = pl.SceneSpec(extents=(4.0, 4.0, 2.5), density=1600.0,
                        object_count=(5, 6), seed=0)
    cloud, gt, mask, normals = pl.generate_scene(spec)
    assert cloud.count >= 100_000
    index = pl.build_index(cloud)
    start = time.monotonic()
    partition = pl.oversegment(cloud, normals, index, 15.0, 10, 20)
    t_overseg = time.monotonic() - start
    logits = pl.corrupt_logits(gt, cloud, pl.LogitNoiseSpec(seed=1))
    labels, conf = pl.pseudo_labels_from_logits(logits, mask)
    start = time.monotonic()
    pl.refine_pipeline(labels, conf, partition, pl.RefineParams())
    t_refine = time.monotonic() - start
    _line(11, t_refine < 5.0 and t_overseg < 10.0,
          f"on {cloud.count} points: refine_pipeline {t_refine:.2f}s < 5s, "
          f"oversegment {t_overseg:.2f}s < 10s")


def test_criterion_12_cli_determinism(tmp_path):
    fixture = tmp_path / "fixture"
    assert cli_main(["synth", "--preset", "room-small", "--seed", "0",
                     "--out", str(fixture)]) == 0
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        args = ["stlp",
                "--cloud", str(fixture / "cloud.ply"),
                "--classes", str(fixture / "classes.json"),
                "--mask", str(fixture / "mask.json"),
                "--views", str(fixture / "views" / "manifest.json"),
                "--occlusion-tolerance", "0.02",
                "--gt", str(fixture / "gt.ply"),
                "--angle-threshold", "5.5", "--min-size", "4",
                "--knn-smoothing", "0.03", "--knn-confidence-scale", "0.08",
                "--rounds", "2", "--seed", "0", "--out", str(out)]
        assert cli_main(args) == 0
        outputs.append((
            (out / "labels.txt").read_bytes(),
            (out / "report.jsonl").read_bytes(),
        ))
    identical = outputs[0] == outputs[1]
    _line(12, identical, "two cmd_stlp runs with identical config and seed "
                         "give byte-identical labels and reports")
