"""Every per-point array passes one of the two per-point rules of
pclabel.domain: a malformed one is refused with a ValueError naming the
point (or, for a dtype that holds no numbers, the dtype), never truncated,
warned about or failed on by numpy."""

import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclabel import (
    LabelField,
    PointCloud,
    SuperpointPartition,
    calr,
    confidence_bins,
    pseudo_labels_from_logits,
)
from pclabel import tensorio


def _planted(bad, dtype=np.float64):
    """(values, point): 1 to 6 zeros of `dtype` but for one drawn value at
    `point`. Zero is valid for every call below, so `point` is the only
    point a refusal may name."""
    def plant(n, point, value):
        values = np.full(n, 0, dtype=dtype)
        values[point] = value
        return values, point

    return st.integers(1, 6).flatmap(
        lambda n: st.builds(plant, st.just(n), st.integers(0, n - 1), bad))


# One strategy per kind of input.
CASES = {
    "bool": _planted(st.booleans(), bool),
    "str": _planted(st.text(max_size=4), "<U4"),
    "fractional": _planted(st.floats(-1e3, 1e3).filter(lambda v: not v.is_integer())),
    "nan": _planted(st.just(np.nan)),
    "infinity": _planted(st.sampled_from([np.inf, -np.inf])),
    "out-of-range": _planted(st.integers(-10**6, 10**6).map(float)
                             | st.sampled_from([2.0**63, 1e300, -1e300])),
    "empty": st.sampled_from([np.float64, np.int64, np.uint8, bool]).map(
        lambda dtype: (np.zeros(0, dtype), None)),
}


def _load_confidence(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.lf01")
        with np.errstate(over="ignore"):  # beyond float32, the file holds inf
            tensorio.save_tensor(path, values.reshape(-1, 1))
        tensorio.load_confidence(path)


def _one_class(values):
    return LabelField(np.zeros(len(values)), 1)


# Each call takes one value per point. A constructor returns the array of
# values it kept, which must be the ones it was given.
CALLS = {
    "LabelField": lambda v: LabelField(v, 3).values,
    "SuperpointPartition": lambda v: SuperpointPartition(v).assignment,
    "PointCloud.positions": lambda v: PointCloud(
        np.repeat(v[:, None], 3, axis=1), np.zeros((len(v), 3), np.uint8)).positions[:, 0],
    "PointCloud.colors": lambda v: PointCloud(
        np.zeros((len(v), 3)), np.repeat(v[:, None], 3, axis=1)).colors[:, 0],
    "calr": lambda v: calr(_one_class(v), v, 50.0),
    "confidence_bins": lambda v: confidence_bins(
        _one_class(v), v, _one_class(v), [0.0, 0.5, 1.0]),
    "load_confidence": _load_confidence,
    "pseudo_labels_from_logits": lambda v: pseudo_labels_from_logits(
        np.repeat(v[:, None], 2, axis=1), np.ones(2, bool)),
}

# An LF01 file holds float32 values only, so it cannot hold a string.
PAIRS = [pytest.param(case, call, id=f"{case}-{call}")
         for case in CASES for call in CALLS if (case, call) != ("str", "load_confidence")]


@pytest.mark.parametrize("case, call", PAIRS)
@settings(max_examples=10)
@given(data=st.data())
def test_a_per_point_array_is_kept_whole_or_refused_naming_the_point(case, call, data):
    values, point = data.draw(CASES[case])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            kept = CALLS[call](values)
        except ValueError as error:
            named = rf"\bpoint {point}\b|" if point is not None else ""
            assert re.search(rf"{named}got dtype|\bid \d+ has no point$", str(error)), error
        else:
            assert not isinstance(kept, np.ndarray) or np.array_equal(kept, values)


def test_int64_ids_and_uint8_colors_are_kept_without_a_copy():
    # LabelField is built at every stage; its usual input passes as it is.
    ids, colors = np.zeros(4, np.int64), np.zeros((4, 3), np.uint8)
    assert LabelField(ids, 1).values is ids
    assert SuperpointPartition(ids).assignment is ids
    assert PointCloud(np.zeros((4, 3)), colors).colors is colors
