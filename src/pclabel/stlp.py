"""Self-training with label propagation.

Each round fits a classifier on the current pseudo labels, predicts only
the unlabeled gaps, lets each gap adopt its prediction if the class is in
the scene mask and survives the per-class filter (labels are retained
verbatim), and re-runs the superpoint vote. The rounds read the same
RefineParams as the initial refinement: top_v for the filter and alpha for
the vote. A caller that predicts from the final labels fits its own
classifier. Inference applies that vote to predictions as post-processing.

The classifier seat is a small behavioral contract: fit on labeled points
only; predict a label for every point of the cloud it is given (a round
gives it the gap points alone, so a prediction must not depend on which
other points are queried with it). predict must be deterministic for fixed
inputs and configuration, return no UNLABELED values, and report
confidences in [0, 1]. The bundled KnnClassifier(StlpConfig), a
distance-weighted vote over position-plus-color features, is a
deterministic desk-scale stand-in for a learned segmentation network; any
object with its fit/predict signatures that keeps the contract can take
its place. Its voters follow the package's one k-NN rule, the k nearest
exemplars by (distance, index), from a sliding-midpoint tree
(`pclabel.pointcloud` says why that layout, and why synth's trees keep
scipy's default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .domain import for_blocks, require
from .labels import UNLABELED, LabelField
from .metrics import labeled_rate, metrics_report
from .pointcloud import PointCloud, cKDTree, k_nearest
from .refine import RefineParams, calr, galr
from .superpoint import SuperpointPartition


@dataclass(frozen=True)
class StlpConfig:
    """Round count and classifier settings."""

    rounds: int = 2
    knn_k: int = 15
    color_weight: float = 0.5
    knn_smoothing: float = 0.05
    knn_confidence_scale: float = 0.1

    def __post_init__(self):
        require("rounds", self.rounds, 0, integer=True)
        require("knn_k", self.knn_k, 1, integer=True)
        require("color_weight", self.color_weight, 0)
        require("knn_smoothing", self.knn_smoothing, 0)
        require("knn_confidence_scale", self.knn_confidence_scale, 0, open_low=True)


class KnnClassifier:
    """Distance-weighted k-NN vote in position (+) scaled-color space.

    Votes carry weight 1/(distance + config.knn_smoothing). The smoothing
    radius (in feature units, i.e. meters) controls how strongly nearby
    exemplars outvote the rest of the neighborhood: near zero the closest
    exemplar dominates (memorization), at a few point spacings the vote
    behaves like a local majority and can denoise its own training labels.

    A point's voters are its k nearest exemplars by (distance, index)
    (`pclabel.pointcloud.k_nearest`), so where exemplars tie at the k-th
    distance the ones earliest in the fitted cloud vote, and a vote
    between equally weighted classes goes to the lowest class id. The
    exemplars' tree is built sliding-midpoint (`balanced_tree=False`),
    which answered the benchmark's held-out and gap queries faster and
    builds this 6-D tree in about 2/3 of the time; under the rule its
    layout moves no byte.
    """

    def __init__(self, config: StlpConfig = StlpConfig()):
        self.config = config
        self._tree = None
        self._labels = None
        self._num_classes = 0

    def _features(self, cloud: PointCloud) -> np.ndarray:
        return np.hstack(
            [cloud.positions, self.config.color_weight * (cloud.colors / 255.0)]
        )

    def fit(self, cloud: PointCloud, labels: LabelField) -> "KnnClassifier":
        if len(labels) != cloud.count:
            raise ValueError(f"{len(labels)} labels for {cloud.count} points")
        keep = labels.labeled_mask
        if not keep.any():
            raise ValueError("cannot fit on a fully unlabeled field")
        self._tree = cKDTree(self._features(cloud)[keep], balanced_tree=False)
        self._labels = labels.values[keep]
        self._num_classes = labels.num_classes
        return self

    def predict(self, cloud: PointCloud) -> Tuple[LabelField, np.ndarray]:
        """Label and confidence of every point of `cloud`.

        Rows are voted in blocks (`pclabel.domain.for_blocks`, one per core
        at a time, each querying the tree on its own thread) holding
        max(k + 1, C) entries a row, so peak memory does not grow with n x k
        or n x C; time still grows with n x min(config.knn_k, labeled
        count). Confidences lie in [0, 1]: the winner's vote share is at
        most 1, since a rounded sum of non-negative weights is never below
        any of them, and the distance damping is at most 1.
        """
        if self._tree is None:
            raise RuntimeError("classifier is not fitted")
        n = cloud.count
        k = min(self.config.knn_k, self._labels.size)
        features = self._features(cloud)
        winners = np.empty(n, dtype=np.int64)
        confidence = np.empty(n, dtype=np.float64)

        def vote(rows):
            winners[rows], confidence[rows] = self._vote(features[rows], k)

        for_blocks(n, max(k + 1, self._num_classes), vote)
        return LabelField(winners, self._num_classes), confidence

    def _vote(self, features: np.ndarray, k: int):
        n = features.shape[0]
        c = self._num_classes
        idx, dist = k_nearest(self._tree, features, k, workers=1)
        weights = 1.0 / (dist + self.config.knn_smoothing + 1e-12)
        votes = np.bincount(
            (np.arange(n)[:, None] * c + self._labels[idx]).ravel(),
            weights=weights.ravel(),
            minlength=n * c,
        ).reshape(n, c)
        winners = votes.argmax(axis=1)
        fraction = votes[np.arange(n), winners] / votes.sum(axis=1)
        # Far from every exemplar the vote is an extrapolation, however
        # unanimous; damp confidence with the distance to the nearest one.
        return winners, fraction * np.exp(-dist[:, 0] / self.config.knn_confidence_scale)


def label_update(
    prev: LabelField,
    pred: LabelField,
    pred_conf: np.ndarray,
    scene_mask: np.ndarray,
    top_v: float,
) -> LabelField:
    """Merge predictions for the gaps into the previous label field.

    `pred` and `pred_conf` cover the unlabeled positions of `prev`, in point
    order. Previously labeled positions are retained verbatim. A gap adopts
    its prediction only if the class is present in the scene mask and the
    prediction survives per-class top-V% selection over the gaps.
    """
    gaps = np.flatnonzero(~prev.labeled_mask)
    if len(pred) != gaps.size:
        raise ValueError(f"{len(pred)} predictions for {gaps.size} gaps")
    if prev.num_classes != pred.num_classes:
        raise ValueError("class counts differ between previous and predicted labels")
    pred_conf = np.asarray(pred_conf, dtype=np.float64)
    if pred_conf.shape != (gaps.size,):
        raise ValueError(f"confidence of {pred_conf.shape} does not match {gaps.size} gaps")
    mask = np.asarray(scene_mask, dtype=bool)
    if mask.shape != (prev.num_classes,):
        raise ValueError(f"scene mask of {mask.shape} does not fit {prev.num_classes} classes")
    if (pred.values == UNLABELED).any():
        raise ValueError("predictions must label every gap")
    candidates = np.where(mask[pred.values], pred.values, UNLABELED)
    # Gaps keep their point order, so calr's ties still go to the lower
    # point index.
    filtered = calr(pred.with_values(candidates), pred_conf, top_v)
    out = prev.values.copy()
    out[gaps] = filtered.values
    return prev.with_values(out)


def stlp_round(
    cloud: PointCloud,
    prev: LabelField,
    partition: SuperpointPartition,
    classifier: KnnClassifier,
    refine: RefineParams,
    scene_mask: np.ndarray,
) -> Tuple[LabelField, KnnClassifier]:
    """One train/predict/propagate cycle; returns the next label field.

    Only the gaps are predicted; a round without gaps predicts nothing and
    returns the vote over `prev`.
    """
    classifier.fit(cloud, prev)
    gaps = np.flatnonzero(~prev.labeled_mask)
    if gaps.size:
        pred, conf = classifier.predict(
            PointCloud(cloud.positions[gaps], cloud.colors[gaps])
        )
        prev = label_update(prev, pred, conf, scene_mask, refine.top_v)
    return galr(prev, partition, refine.alpha), classifier


def stlp_run(
    cloud: PointCloud,
    y0: LabelField,
    partition: SuperpointPartition,
    config: StlpConfig,
    refine: RefineParams,
    scene_mask: np.ndarray,
    gt: Optional[LabelField] = None,
) -> Tuple[LabelField, List[dict]]:
    """Run `config.rounds` propagation rounds from the initial labels.

    Returns the final labels (y0 itself for rounds=0) and one report row per
    round: {"round", "labeled_rate"} plus "miou", "macc" and the
    "per_class_iou" list when ground truth is supplied.
    """
    classifier = KnnClassifier(config)
    labels = y0
    report: List[dict] = []
    for t in range(1, config.rounds + 1):
        labels, classifier = stlp_round(
            cloud, labels, partition, classifier, refine, scene_mask
        )
        row = {"round": t, "labeled_rate": labeled_rate(labels)}
        if gt is not None:
            scores = metrics_report(labels, gt)
            row.update(miou=scores["miou"], macc=scores["macc"],
                       per_class_iou=list(scores["per_class_iou"].values()))
        report.append(row)
    return labels, report


def infer(pred: LabelField, partition: SuperpointPartition, alpha: float) -> LabelField:
    """Apply the superpoint vote to per-point predictions as post-processing.

    Blocks failing the alpha test keep the raw per-point predictions, so the
    output labels every point; galr(pred, partition, alpha) leaves them
    unlabeled instead.
    """
    voted = galr(pred, partition, alpha)
    return pred.with_values(
        np.where(voted.values == UNLABELED, pred.values, voted.values)
    )
