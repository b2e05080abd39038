"""Every field of the pipeline parameter dataclasses is checked on construction."""

from dataclasses import fields

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
