"""Segmentation metrics and diagnostic reports.

The confusion matrix is a plain (C, C) count array over the points labeled
on both sides; a report counts the rest as ignored. Classes absent from
both prediction and ground truth are excluded from the mIoU mean; mAcc
averages recall over classes that appear in the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .domain import require_finite
from .labels import LabelField


def confusion(pred: LabelField, gt: LabelField) -> np.ndarray:
    """(C, C) int64 counts over points labeled on both sides.

    Ground truth is on rows, predictions on columns.
    """
    if len(pred) != len(gt):
        raise ValueError(f"prediction has {len(pred)} points, ground truth {len(gt)}")
    if pred.num_classes != gt.num_classes:
        raise ValueError(f"class counts differ: {pred.num_classes} vs {gt.num_classes}")
    c = pred.num_classes
    scored = pred.labeled_mask & gt.labeled_mask
    flat = gt.values[scored] * c + pred.values[scored]
    return np.bincount(flat, minlength=c * c).reshape(c, c).astype(np.int64, copy=False)


def miou(cm: np.ndarray):
    """(mean IoU, per-class IoU with NaN for uncounted classes, mean accuracy)."""
    tp = np.diag(cm).astype(np.float64)
    gt_total = cm.sum(axis=1).astype(np.float64)
    pred_total = cm.sum(axis=0).astype(np.float64)
    union = gt_total + pred_total - tp
    counted = union > 0
    if not counted.any():
        raise ValueError("confusion matrix has no countable class")
    per_class = np.full(cm.shape[0], np.nan)
    per_class[counted] = tp[counted] / union[counted]
    seen = gt_total > 0
    macc = float(np.mean(tp[seen] / gt_total[seen])) if seen.any() else float("nan")
    return float(np.mean(per_class[counted])), per_class, macc


@dataclass(frozen=True)
class ConfidenceBin:
    lower: float
    upper: float
    count: int
    share: float
    accuracy: Optional[float]


def confidence_bins(
    labels: LabelField,
    confidence: np.ndarray,
    gt: LabelField,
    bin_edges: Sequence[float],
) -> List[ConfidenceBin]:
    """Accuracy and population share per confidence interval.

    Edges must be strictly increasing from 0 to 1, and confidences must lie
    in [0, 1]; bins are half-open with the last bin closed. Points unlabeled
    on either side are excluded; shares are fractions of the included points
    and sum to 1 when any exist.
    """
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or (np.diff(edges) <= 0).any():
        raise ValueError("bin edges must be strictly increasing")
    if edges[0] != 0.0 or edges[-1] != 1.0:
        raise ValueError("bin edges must cover [0, 1]")
    if np.shape(confidence) != (len(labels),) or len(labels) != len(gt):
        raise ValueError("labels, confidence and ground truth lengths differ")
    require_finite("confidence", confidence, 0, 1)
    scored = labels.labeled_mask & gt.labeled_mask
    conf = np.asarray(confidence)[scored]
    correct = labels.values[scored] == gt.values[scored]
    nbins = edges.size - 1
    which = np.clip(np.searchsorted(edges, conf, side="right") - 1, 0, nbins - 1)
    denom = int(scored.sum())
    bins = []
    for b in range(nbins):
        member = which == b
        count = int(member.sum())
        bins.append(ConfidenceBin(
            lower=float(edges[b]),
            upper=float(edges[b + 1]),
            count=count,
            share=count / denom if denom else 0.0,
            accuracy=float(correct[member].mean()) if count else None,
        ))
    return bins


def labeled_rate(labels: LabelField) -> float:
    """Fraction of points carrying a label; 0 for an empty field."""
    n = len(labels)
    return float(labels.labeled_mask.sum() / n) if n else 0.0


def metrics_report(
    pred: LabelField, gt: LabelField, class_names: Optional[Sequence[str]] = None
) -> dict:
    """mIoU/mAcc/per-class IoU plus coverage, as a JSON-friendly dict."""
    cm = confusion(pred, gt)
    mean_iou, per_class, macc = miou(cm)
    names = list(class_names) if class_names is not None else [
        f"class_{c}" for c in range(pred.num_classes)
    ]
    if len(names) != pred.num_classes:
        raise ValueError(f"{len(names)} class names for {pred.num_classes} classes")
    return {
        "miou": mean_iou,
        "macc": macc,
        "per_class_iou": {
            name: (None if np.isnan(v) else float(v))
            for name, v in zip(names, per_class)
        },
        "ignored": int(len(pred) - cm.sum()),
        "total": len(pred),
        "labeled_rate": labeled_rate(pred),
    }


def format_report(report: dict) -> str:
    """Aligned-column text table of a metrics_report dict."""
    rows = [("class", "iou")]
    for name, value in report["per_class_iou"].items():
        rows.append((name, "-" if value is None else f"{value:.4f}"))
    rows.append(("mIoU", f"{report['miou']:.4f}"))
    rows.append(("mAcc", f"{report['macc']:.4f}"))
    rows.append(("labeled_rate", f"{report['labeled_rate']:.4f}"))
    rows.append(("ignored", str(report["ignored"])))
    width = max(len(r[0]) for r in rows)
    lines = [f"{name:<{width}}  {value}" for name, value in rows]
    lines.insert(1, "-" * (width + 8))
    return "\n".join(lines)
