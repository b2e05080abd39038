"""Per-point label fields with an explicit unlabeled sentinel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import require

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
        # Integers only: a bool or a string is not a class id, and a float
        # must be a whole number, not truncated to one.
        if values.dtype.kind == "f":
            whole = np.isfinite(values) & (np.trunc(values) == values)
            if not whole.all():
                i = int(np.flatnonzero(~whole)[0])
                raise ValueError(f"label values must be finite whole numbers, got "
                                 f"{float(values[i])} at point {i}")
        elif values.dtype.kind not in "iu":
            raise ValueError(f"label values must be integers, got dtype {values.dtype}")
        require("num_classes", self.num_classes, 1, integer=True)
        # Checked before the cast, so no value wraps around into range.
        bad = (values != UNLABELED) & ((values < 0) | (values >= self.num_classes))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"label {int(values[i])} at point {i} outside "
                f"[0, {self.num_classes}) and not UNLABELED"
            )
        object.__setattr__(self, "values",
                           np.ascontiguousarray(values, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def labeled_mask(self) -> np.ndarray:
        """Boolean mask, true where a point carries a label."""
        return self.values != UNLABELED

    def with_values(self, values: np.ndarray) -> "LabelField":
        """Same class count, new per-point values."""
        return LabelField(values, self.num_classes)
