"""Every numeric field of the parameter and spec dataclasses is checked on
construction, by one domain rule."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclabel import (
    CameraView,
    LabelField,
    LogitNoiseSpec,
    PointCloud,
    RefineParams,
    SceneSpec,
    StlpConfig,
    SuperpointParams,
    SuperpointPartition,
    ViewRingSpec,
    aggregate_views,
    build_index,
    calr,
    galr,
    oversegment,
)
from pclabel.domain import MAX_NEIGHBORS

PARAMS = (SuperpointParams, RefineParams, StlpConfig, SceneSpec, LogitNoiseSpec, ViewRingSpec)

# Every numeric setting with its default; a tuple field counts element by
# element, named like "extents[1]".
SETTINGS = [
    (cls, f"{f.name}[{i}]" if isinstance(f.default, tuple) else f.name, item)
    for cls in PARAMS
    for f in fields(cls)
    for i, item in enumerate(f.default if isinstance(f.default, tuple) else (f.default,))
    if isinstance(item, (int, float))
]


def build(cls, name, value):
    """cls with one setting replaced (one element of a tuple field)."""
    field, _, index = name.partition("[")
    if index:
        items = list(getattr(cls(), field))
        items[int(index[:-1])] = value
        value = tuple(items)
    return cls(**{field: value})


def read(obj, name):
    field, _, index = name.partition("[")
    value = getattr(obj, field)
    return value[int(index[:-1])] if index else value


# The value just below each integer setting's domain. A new integer field
# fails this table until its domain is stated here and checked in its class.
BELOW_DOMAIN = {
    "adjacency_k": 0,
    "min_size": 0,
    "normals_k": 2,
    "rounds": -1,
    "knn_k": 0,
    "object_count[0]": -1,
    "object_count[1]": 2,  # below the default object_count[0], 3
    "seed": -1,
    "sample_index": -1,
    "num_cameras": 0,
    "width": 0,
    "height": 0,
}
# The value just above the domain of each integer setting that has a bound.
ABOVE_DOMAIN = {"adjacency_k": (MAX_NEIGHBORS + 1, 10**20),
                "normals_k": (MAX_NEIGHBORS + 1, 10**20)}

BELOW_ZERO = math.nextafter(0.0, -1.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)

# Finite values just outside each float setting's domain, for the spec
# fields; the parameter types' float domains are pinned against their
# earlier expressions by test_domain_matches_the_earlier_expression. A new
# float field fails until it is listed in one of the two tables.
OUTSIDE_DOMAIN = {
    "extents[0]": (0.0,),
    "extents[1]": (0.0,),
    "extents[2]": (0.0,),
    "density": (0.0,),
    "noise_sigma": (BELOW_ZERO,),
    "correct_mean": (),
    "correct_sigma": (BELOW_ZERO,),
    "confusion_temperature": (BELOW_ZERO,),
    "boundary_blur": (BELOW_ZERO,),
    "focal": (0.0,),
    "radius_frac": (0.0, ABOVE_ONE),
    "height_frac": (BELOW_ZERO, ABOVE_ONE),
    "target_height_frac": (BELOW_ZERO, ABOVE_ONE),
}


def _old_integer(low, high=math.inf):
    def rule(v):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            return False
        return not v < low and not v > high
    return rule


# The per-field expressions each setting was checked by before the one
# rule, copied literally, with the neighbourhood bound MAX_NEIGHBORS added
# since; a TypeError counts as a rejection.
_CLOUD = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.zeros((2, 3), dtype=np.uint8))
_VIEW = CameraView(np.eye(3), np.eye(3), np.zeros(3), 1, 1, np.zeros((1, 1, 1)))
_LABELS = LabelField(np.array([0, 1]), 2)
EARLIER = {
    "SuperpointParams.angle_threshold": lambda v: 0.0 < v <= 180.0,
    "SuperpointParams.adjacency_k": _old_integer(1, MAX_NEIGHBORS),
    "SuperpointParams.min_size": _old_integer(1),
    "SuperpointParams.normals_k": _old_integer(3, MAX_NEIGHBORS),
    "RefineParams.top_v": lambda v: 0.0 < v <= 100.0,
    "RefineParams.alpha": lambda v: 0.0 <= v <= 1.0,
    "StlpConfig.rounds": _old_integer(0),
    "StlpConfig.knn_k": _old_integer(1),
    "StlpConfig.color_weight": lambda v: 0.0 <= v < np.inf,
    "StlpConfig.knn_smoothing": lambda v: 0.0 <= v < np.inf,
    "StlpConfig.knn_confidence_scale": lambda v: 0.0 < v < np.inf,
    "calr.top_v": lambda v: 0.0 < v <= 100.0,
    "galr.alpha": lambda v: 0.0 <= v <= 1.0,
    "oversegment.angle_threshold": lambda v: 0.0 < v <= 180.0,
    "oversegment.adjacency_k": _old_integer(1, MAX_NEIGHBORS),
    "aggregate_views.occlusion_tolerance": lambda v: v is None or 0.0 <= v < np.inf,
}
NOW = {
    **{f"{cls.__name__}.{name}": (lambda v, cls=cls, name=name: cls(**{name: v}))
       for cls in (SuperpointParams, RefineParams, StlpConfig)
       for name in (f.name for f in fields(cls))},
    "calr.top_v": lambda v: calr(_LABELS, np.array([0.5, 1.0]), v),
    "galr.alpha": lambda v: galr(_LABELS, SuperpointPartition(np.zeros(2)), v),
    "oversegment.angle_threshold": lambda v: oversegment(
        _CLOUD, np.tile([0.0, 0.0, 1.0], (2, 1)), build_index(_CLOUD), v, 1, 1),
    "oversegment.adjacency_k": lambda v: oversegment(
        _CLOUD, np.tile([0.0, 0.0, 1.0], (2, 1)), build_index(_CLOUD), 10.0, v, 1),
    "aggregate_views.occlusion_tolerance": lambda v: aggregate_views(_CLOUD, [_VIEW], v),
}

VALUES = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, 1.0, 100.0, 180.0, BELOW_ZERO, ABOVE_ONE,
                     math.nextafter(100.0, 101.0), math.nextafter(180.0, 181.0),
                     math.inf, -math.inf, math.nan, None]),
    st.integers(-5, 200),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.text(max_size=3),
)


def _outside(cls, name, default):
    """The values a setting must reject; None where no domain is stated."""
    if not isinstance(default, float):
        return (BELOW_DOMAIN.get(name), *ABOVE_DOMAIN.get(name, ()))
    stated = () if f"{cls.__name__}.{name}" in EARLIER else (None,)
    return (math.nan, math.inf, -math.inf, *OUTSIDE_DOMAIN.get(name, stated))


CASES = [(cls, name, value)
         for cls, name, default in SETTINGS for value in _outside(cls, name, default)]

# Values an integer setting must reject although its domain check alone
# would let them through (a bool is an int to Python; NaN fails no
# comparison) or would not name the setting.
NOT_INTEGERS = (2.5, 3.0, float("nan"), True, "3", None)

INTEGER_CASES = [
    (cls, name, value)
    for cls, name, default in SETTINGS
    if not isinstance(default, float)
    for value in NOT_INTEGERS
]


@pytest.mark.parametrize("cls, name, value", CASES,
                         ids=[f"{c.__name__}.{n}={v}" for c, n, v in CASES])
def test_out_of_domain_setting_is_named(cls, name, value):
    assert value is not None, f"no out-of-domain value stated for {name}"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must .*, got "):
        build(cls, name, value)


@pytest.mark.parametrize("name, value", [("extents", (3.0, 3.0)), ("object_count", (1,))])
def test_tuple_setting_of_another_length_is_named(name, value):
    with pytest.raises(ValueError, match=f"^{name} must hold"):
        SceneSpec(**{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (SuperpointParams, "min_size", 1),
    (SuperpointParams, "normals_k", 3),
    (SuperpointParams, "normals_k", MAX_NEIGHBORS),
    (SuperpointParams, "adjacency_k", MAX_NEIGHBORS),
    (SuperpointParams, "angle_threshold", 180.0),
    (StlpConfig, "rounds", 0),
    (StlpConfig, "color_weight", 0.0),
    (StlpConfig, "knn_smoothing", 0.0),
    (SceneSpec, "object_count[0]", 0),
    (SceneSpec, "object_count[1]", 3),
    (SceneSpec, "noise_sigma", 0.0),
    (LogitNoiseSpec, "correct_sigma", 0.0),
    (LogitNoiseSpec, "boundary_blur", 0.0),
    (ViewRingSpec, "radius_frac", 1.0),
    (ViewRingSpec, "height_frac", 0.0),
    (ViewRingSpec, "target_height_frac", 1.0),
])
def test_domain_edges_pass(cls, name, value):
    assert read(build(cls, name, value), name) == value


@pytest.mark.parametrize("cls, name, value", INTEGER_CASES,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in INTEGER_CASES])
def test_integer_setting_rejects_non_integer(cls, name, value):
    assert name in BELOW_DOMAIN, f"no integer domain stated for {name}"
    with pytest.raises(ValueError, match=f"{re.escape(name)} must be an integer"):
        build(cls, name, value)


INTEGER_FIELDS = sorted({(c, n) for c, n, _ in INTEGER_CASES},
                        key=lambda cn: (cn[1], cn[0].__name__))


@pytest.mark.parametrize("cls, name", INTEGER_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in INTEGER_FIELDS])
def test_numpy_integer_setting_passes(cls, name):
    value = np.int64(BELOW_DOMAIN[name] + 1)
    assert read(build(cls, name, value), name) == value


def _accepted(check, value):
    try:
        return bool(check(value))
    except TypeError:
        return False


@pytest.mark.parametrize("setting", sorted(EARLIER))
def test_domain_matches_the_earlier_expression(setting):
    @settings(max_examples=150)
    @given(VALUES)
    def check(value):
        try:
            NOW[setting](value)
            accepted = True
        except ValueError as e:
            assert str(e).startswith(setting.split(".")[1] + " must ")
            accepted = False
        assert accepted == _accepted(EARLIER[setting], value)

    check()


@pytest.mark.parametrize("value", [math.nan, 2.5, True, math.inf, 0, 3.0])
def test_label_field_class_count_is_named(value):
    # A class count of 2.5 used to construct and then fail in metrics_report
    # with numpy's unnamed cast error.
    with pytest.raises(ValueError, match="^num_classes must "):
        LabelField(np.array([0, -1]), value)


def test_label_field_takes_a_numpy_class_count():
    assert LabelField(np.array([0, -1]), np.int64(2)).num_classes == 2


@pytest.mark.parametrize("values, message", [
    pytest.param(np.array([0.0, 2.7]), "finite whole numbers, got 2.7 at point 1",
                 id="fraction"),
    pytest.param(np.array([np.nan]), "finite whole numbers, got nan at point 0", id="nan"),
    pytest.param(np.array([1.0, -np.inf]), "finite whole numbers, got -inf at point 1",
                 id="infinity"),
    pytest.param(np.array([True, False]), "integers, got dtype bool", id="bool"),
    pytest.param(np.array(["1"]), "integers, got dtype <U1", id="string"),
])
def test_label_field_refuses_values_that_are_not_whole_numbers(values, message):
    # 2.7 used to become 2 and True or '1' became 1; NaN warned from numpy's
    # cast and was then reported as label -9223372036854775808.
    with pytest.raises(ValueError) as raised:
        LabelField(values, 3)
    assert str(raised.value) == "label values must be " + message


def test_label_field_takes_whole_floats():
    field = LabelField(np.array([2.0, -1.0, -0.0], dtype=np.float32), 3)
    assert field.values.dtype == np.int64 and field.values.tolist() == [2, -1, 0]
