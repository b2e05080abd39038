"""Hyperparameter behavior on the committed benchmark preset.

Sweeping the per-class retention percentage shows the quality/quantity
trade-off (interior maximum); sweeping the vote threshold trades label
coverage for purity.

Run: PYTHONPATH=src python demos/06_sweeps_and_reports.py
"""

from dataclasses import replace

from pclabel import (
    eval_scan,
    get_benchmark,
    label_scan,
    labeled_rate,
    refine_pipeline,
    run_benchmark,
)

preset = get_benchmark("room-small")
run = label_scan(preset, 0)
held_out = eval_scan(preset, 0)


def rerun_with(refine):
    refined = refine_pipeline(run.raw_labels, run.raw_confidence,
                              run.partition, refine)
    p = replace(preset, refine=refine)
    return refined, run_benchmark(p, 0, run=replace(run, refined=refined),
                                  held_out=held_out)


print("retention percentage -> held-out mIoU (rise, peak, fall):")
for top_v in (5.0, 15.0, 30.0, 60.0, 100.0):
    _, record = rerun_with(replace(preset.refine, top_v=top_v))
    print(f"  V={top_v:5.0f}%  mIoU {record['val_miou']:.3f}")

print("vote threshold -> initial label coverage (stricter = sparser):")
for alpha in (0.0, 0.3, 0.5, 0.7, 0.9):
    refined, _ = rerun_with(replace(preset.refine, alpha=alpha))
    print(f"  alpha={alpha:.1f}  coverage {labeled_rate(refined):.3f}")

print("the CLI equivalent: pclabel sweep --param V --grid 5,15,30,60,100 --out sweep.csv")
