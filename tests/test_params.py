"""Every field of the pipeline parameter dataclasses is checked on construction."""

from dataclasses import fields

import numpy as np
import pytest

from pclabel import RefineParams, StlpConfig, SuperpointParams

PARAMS = (SuperpointParams, RefineParams, StlpConfig)

# The value just below each integer setting's domain. A new integer field
# fails this table until its domain is stated here and checked in its class.
BELOW_DOMAIN = {
    "adjacency_k": 0,
    "min_size": 0,
    "normals_k": 2,
    "rounds": -1,
    "knn_k": 0,
}

CASES = [
    (cls, f.name, value)
    for cls in PARAMS
    for f in fields(cls)
    for value in ((float("nan"), float("inf"), float("-inf"))
                  if isinstance(f.default, float) else (BELOW_DOMAIN.get(f.name),))
]

# Values an integer setting must reject although its domain check alone
# would let them through (a bool is an int to Python; NaN fails no
# comparison) or would not name the setting.
NOT_INTEGERS = (2.5, 3.0, float("nan"), True, "3", None)

INTEGER_CASES = [
    (cls, f.name, value)
    for cls in PARAMS
    for f in fields(cls)
    if not isinstance(f.default, float)
    for value in NOT_INTEGERS
]


@pytest.mark.parametrize("cls, name, value", CASES,
                         ids=[f"{c.__name__}.{n}={v}" for c, n, v in CASES])
def test_out_of_domain_setting_is_named(cls, name, value):
    assert value is not None, f"no out-of-domain value stated for {name}"
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (SuperpointParams, "min_size", 1),
    (SuperpointParams, "normals_k", 3),
    (SuperpointParams, "angle_threshold", 180.0),
    (StlpConfig, "rounds", 0),
    (StlpConfig, "color_weight", 0.0),
    (StlpConfig, "knn_smoothing", 0.0),
])
def test_domain_edges_pass(cls, name, value):
    assert getattr(cls(**{name: value}), name) == value


@pytest.mark.parametrize("cls, name, value", INTEGER_CASES,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in INTEGER_CASES])
def test_integer_setting_rejects_non_integer(cls, name, value):
    assert name in BELOW_DOMAIN, f"no integer domain stated for {name}"
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        cls(**{name: value})


INTEGER_FIELDS = sorted({(c, n) for c, n, _ in INTEGER_CASES}, key=lambda cn: cn[1])


@pytest.mark.parametrize("cls, name", INTEGER_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in INTEGER_FIELDS])
def test_numpy_integer_setting_passes(cls, name):
    value = np.int64(BELOW_DOMAIN[name] + 1)
    assert getattr(cls(**{name: value}), name) == value
