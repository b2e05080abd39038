"""Per-point label fields with an explicit unlabeled sentinel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import require, whole_numbers

# Sentinel for points that carry no label. On disk: -1 in text listings,
# 65535 in the 16-bit PLY label channel.
UNLABELED = -1


@dataclass(frozen=True)
class LabelField:
    """Per-point class ids in [0, num_classes), with UNLABELED marking gaps."""

    values: np.ndarray
    num_classes: int

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise ValueError("label values must be a 1-D array")
        values = whole_numbers("label values", values)
        require("num_classes", self.num_classes, 1, integer=True)
        bad = (values != UNLABELED) & ((values < 0) | (values >= self.num_classes))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"label {values[i]} at point {i} outside "
                             f"[0, {self.num_classes}) and not UNLABELED")
        object.__setattr__(self, "values", np.ascontiguousarray(values))

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def labeled_mask(self) -> np.ndarray:
        """Boolean mask, true where a point carries a label."""
        return self.values != UNLABELED

    def with_values(self, values: np.ndarray) -> "LabelField":
        """Same class count, new per-point values."""
        return LabelField(values, self.num_classes)
