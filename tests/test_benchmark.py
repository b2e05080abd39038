from dataclasses import replace

import numpy as np
import pytest

import pclabel as pl


@pytest.fixture(scope="module")
def seed0_products():
    preset = pl.get_benchmark("room-small")
    return preset, pl.label_scan(preset, 0), pl.eval_scan(preset, 0)


class TestPresetRegistry:
    def test_known_preset(self):
        preset = pl.get_benchmark("room-small")
        assert preset.refine.top_v == 30.0
        assert preset.refine.alpha == 0.5
        assert preset.stlp.rounds == 2

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown"):
            pl.get_benchmark("room-enormous")


class TestProtocol:
    def test_record_fields(self, seed0_products):
        preset, run, held = seed0_products
        record = pl.run_benchmark(preset, 0, rounds=0, run=run, held_out=held)
        assert set(record) >= {"raw_miou", "refined_miou", "val_miou",
                               "val_miou_without_galr", "final_labeled_rate",
                               "round_report"}
        assert record["round_report"] == []

    def test_deterministic(self, seed0_products):
        preset, run, held = seed0_products
        a = pl.run_benchmark(preset, 0, rounds=1, run=run, held_out=held)
        b = pl.run_benchmark(preset, 0, rounds=1, run=run, held_out=held)
        assert a["val_miou"] == b["val_miou"]

    def test_held_out_scan_differs_from_train(self, seed0_products):
        _, run, held = seed0_products
        assert run.cloud.count != held.cloud.count or not np.array_equal(
            run.cloud.positions, held.cloud.positions)

    def test_v_sweep_interior_maximum(self, seed0_products):
        # mirrors the committed runs: quality rises toward the default
        # retention percentage and falls again toward full retention
        preset, run, held = seed0_products
        grid = (5.0, 30.0, 100.0)
        mious = []
        for v in grid:
            p = replace(preset, refine=replace(preset.refine, top_v=v))
            refined = pl.refine_pipeline(run.raw_labels, run.raw_confidence,
                                         run.partition, p.refine)
            record = pl.run_benchmark(p, 0, run=replace(run, refined=refined),
                                      held_out=held)
            mious.append(record["val_miou"])
        assert mious[1] > mious[0] and mious[1] > mious[2]

    def test_alpha_sweep_labeled_rate_decreases(self, seed0_products):
        preset, run, _ = seed0_products
        rates = []
        for alpha in (0.0, 0.5, 0.9):
            refined = pl.refine_pipeline(run.raw_labels, run.raw_confidence,
                                         run.partition,
                                         replace(preset.refine, alpha=alpha))
            rates.append(pl.labeled_rate(refined))
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[2] < rates[0]

    def test_rounds_read_the_preset_refine(self, seed0_products):
        # one V and alpha: the self-training rounds read preset.refine
        preset, run, held = seed0_products
        p = replace(preset, refine=replace(preset.refine, top_v=100.0))
        record = pl.run_benchmark(p, 0, rounds=1, run=run, held_out=held)
        final, _ = pl.stlp_run(run.cloud, run.refined, run.partition,
                               replace(p.stlp, rounds=1), p.refine,
                               run.scene_mask)
        assert record["final_labeled_rate"] == pl.labeled_rate(final)

    def test_held_out_scan_predicted_once(self, seed0_products, monkeypatch):
        # one prediction per round, on that round's gaps, and one for the
        # held-out scan
        preset, run, held = seed0_products
        gaps, labels = [], run.refined
        for _ in range(2):
            gaps.append(int((~labels.labeled_mask).sum()))
            labels, _ = pl.stlp_round(run.cloud, labels, run.partition,
                                      pl.KnnClassifier(preset.stlp), preset.refine,
                                      run.scene_mask)
        assert 0 < gaps[0] < run.cloud.count
        calls = []
        predict = pl.KnnClassifier.predict

        def counted(self, cloud):
            calls.append(cloud.count)
            return predict(self, cloud)

        monkeypatch.setattr(pl.KnnClassifier, "predict", counted)
        pl.run_benchmark(preset, 0, rounds=2, run=run, held_out=held)
        assert calls == [g for g in gaps if g] + [held.cloud.count]

    def test_fits_once_per_round_and_once_for_held_out(self, seed0_products,
                                                       monkeypatch):
        preset, run, held = seed0_products
        fits = []
        fit = pl.KnnClassifier.fit

        def counted(self, cloud, labels):
            fits.append(cloud.count)
            return fit(self, cloud, labels)

        monkeypatch.setattr(pl.KnnClassifier, "fit", counted)
        pl.run_benchmark(preset, 0, rounds=2, run=run, held_out=held)
        assert fits == [run.cloud.count] * 3
