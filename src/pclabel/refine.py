"""Label refinement: per-class confidence selection and superpoint voting.

calr keeps the top-V% most confident labels independently within each class,
so rare classes keep a foothold instead of being crowded out by walls and
floors. galr votes each superpoint as a block: the dominant class wins the
whole block when its share strictly exceeds alpha, otherwise the block goes
unlabeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import require
from .labels import UNLABELED, LabelField
from .superpoint import SuperpointPartition


@dataclass(frozen=True)
class RefineParams:
    """top_v: percentage kept per class in (0, 100]; alpha: overlap threshold in [0, 1]."""

    top_v: float = 30.0
    alpha: float = 0.5

    def __post_init__(self):
        require("top_v", self.top_v, 0, 100, open_low=True)
        require("alpha", self.alpha, 0, 1)


def calr(labels: LabelField, confidence: np.ndarray, top_v: float) -> LabelField:
    """Keep the ceil(top_v% * n_c) most confident points of each class c.

    Confidence ties at the cutoff go to the lower point index. Unlabeled
    points stay unlabeled; retained points keep their input label.
    Confidences must lie in [0, 1] (NaN does not).
    """
    confidence = np.asarray(confidence, dtype=np.float64)
    if confidence.shape != (len(labels),):
        raise ValueError(
            f"confidence of {confidence.shape} does not match {len(labels)} labels"
        )
    bad = np.flatnonzero(~((confidence >= 0) & (confidence <= 1)))  # NaN fails both
    if bad.size:
        raise ValueError(f"confidence at point {bad[0]} is {confidence[bad[0]]}, "
                         "outside [0, 1]")
    require("top_v", top_v, 0, 100, open_low=True)
    out = labels.values.copy()
    for c in range(labels.num_classes):
        pool = np.flatnonzero(labels.values == c)
        n_c = pool.size
        if n_c == 0:
            continue
        kept = min(n_c, math.ceil(top_v * n_c / 100.0))
        order = np.lexsort((pool, -confidence[pool]))
        out[pool[order[kept:]]] = UNLABELED
    return labels.with_values(out)


def galr(labels: LabelField, partition: SuperpointPartition, alpha: float) -> LabelField:
    """Per-superpoint majority vote with strict overlap threshold alpha.

    A block with no labeled member goes unlabeled. Otherwise the dominant
    class (count ties to the lower class id) takes the whole block when its
    share of labeled members strictly exceeds alpha; else the block goes
    unlabeled.
    """
    if len(partition) != len(labels):
        raise ValueError(
            f"partition of {len(partition)} does not cover {len(labels)} labels"
        )
    require("alpha", alpha, 0, 1)
    u = partition.segment_count
    c = labels.num_classes
    labeled = labels.labeled_mask
    counts = np.zeros((u, c), dtype=np.int64)
    np.add.at(counts, (partition.assignment[labeled], labels.values[labeled]), 1)
    totals = counts.sum(axis=1)
    winners = counts.argmax(axis=1)
    peak = counts[np.arange(u), winners]
    with np.errstate(invalid="ignore"):
        share = peak / totals
    block = np.where((totals > 0) & (share > alpha), winners, UNLABELED)
    return labels.with_values(block[partition.assignment])


def refine_pipeline(
    labels: LabelField,
    confidence: np.ndarray,
    partition: SuperpointPartition,
    params: RefineParams,
) -> LabelField:
    """Class-aware selection followed by geometry-aware block voting."""
    return galr(calr(labels, confidence, params.top_v), partition, params.alpha)
