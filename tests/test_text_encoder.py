"""Seg-map runs written as text: `_seg_runs_text` and `canonical_dumps`.

`_seg_runs_text` builds a map's `[[label,count],...]` JSON text with
numpy, and `canonical_dumps` splices a `_Text` in unquoted. Both are
checked against what they replace: the runs as a `tolist()` of label
and count columns printed by `json.dumps`, and `json.dumps` itself with
sorted keys and compact separators.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embryometrics.errors import FormatError
from embryometrics.model import SegmentationMap
from embryometrics.serialize import (
    _seg_runs_text,
    _Text,
    _to_json,
    canonical_dumps,
    seg_map_from_obj,
    seg_map_to_obj,
)


def reference_runs_text(seg: SegmentationMap) -> str:
    """The runs text as `seg_map_to_obj` and `json.dumps` used to write it."""
    flat = seg.labels.ravel()
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    runs = np.column_stack((flat[starts], np.diff(starts, append=flat.size))).tolist()
    return json.dumps(runs, separators=(",", ":"))


def reference_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def runs_map(counts) -> SegmentationMap:
    """A one-row map with runs of ``counts``, labels cycling 0..3."""
    labels = np.arange(len(counts)) % 4
    return SegmentationMap(np.repeat(labels, counts).reshape(1, -1))


# ---------------------------------------------------------------------------
# canonical_dumps is json.dumps


FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e300, -1e300, 5e-324, 2.2250738585072014e-308, 1e-310,
     math.nan, math.inf, -math.inf]
)
INTS = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
STRINGS = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é 😀", "[[0,1]]"])
LEAVES = st.none() | st.booleans() | INTS | FLOATS | STRINGS
TREES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(STRINGS, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_canonical_dumps_is_json_dumps(tree):
    assert canonical_dumps(tree) == reference_dumps(tree)


def test_canonical_dumps_edge_values():
    tree = {"z": [-0.0, 1e300, 5e-324, math.nan, math.inf, -math.inf], "a": 10**40,
            "b": -(10**40), "é": "\x01\"\\ ", "n": None, "t": True, "f": False}
    assert canonical_dumps(tree) == reference_dumps(tree)
    assert canonical_dumps("x\n") == reference_dumps("x\n")


def test_plain_string_with_runs_text_is_quoted():
    text = _seg_runs_text(runs_map([2, 3]))
    assert text == "[[0,2],[1,3]]"
    assert canonical_dumps({"runs": text}) == '{"runs":"[[0,2],[1,3]]"}'
    assert canonical_dumps({"runs": _Text(text)}) == '{"runs":[[0,2],[1,3]]}'


def test_only_the_exact_text_type_is_spliced():
    class Sub(_Text):
        pass

    class Other(str):
        pass

    assert canonical_dumps([Sub("[1]"), Other("[2]"), _Text("[3]")]) == '["[1]","[2]",[3]]'


@pytest.mark.parametrize("value", [object(), {1, 2}, b"x", np.int64(3), np.float32(1.5)])
def test_non_json_object_raises_type_error(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_dumps({"a": [value]})


def test_circular_reference_raises_and_later_calls_start_fresh():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_dumps(loop)
    inner = [1]
    outer = [inner, object()]
    with pytest.raises(TypeError):
        canonical_dumps(outer)
    outer[1] = inner
    assert canonical_dumps(outer) == "[[1],[1]]"


# ---------------------------------------------------------------------------
# _seg_runs_text is the list encoder's text


@st.composite
def label_grids(draw) -> SegmentationMap:
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, 3), min_size=h * w, max_size=h * w))
    return SegmentationMap(np.array(labels).reshape(h, w))


@settings(max_examples=200, deadline=None)
@given(label_grids())
def test_runs_text_matches_reference_on_random_grids(seg):
    assert _seg_runs_text(seg) == reference_runs_text(seg)


def test_runs_text_matches_reference_on_large_random_grid():
    rng = np.random.default_rng(7)
    seg = SegmentationMap(rng.integers(0, 4, (500, 500)))
    assert _seg_runs_text(seg) == reference_runs_text(seg)


@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (1, 1000), (1000, 1)])
def test_runs_text_on_thin_and_one_pixel_maps(shape):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    for labels in (rng.integers(0, 4, shape), np.full(shape, 3)):
        seg = SegmentationMap(labels)
        assert _seg_runs_text(seg) == reference_runs_text(seg)


def test_constant_map_is_one_six_digit_run():
    seg = SegmentationMap(np.full((500, 500), 2))
    assert _seg_runs_text(seg) == "[[2,250000]]" == reference_runs_text(seg)


POWERS = [10**k for k in range(1, 7)]
CROSSING = [c for p in POWERS for c in (p - 1, p, p + 1)]


@pytest.mark.parametrize("counts", [
    [1, *CROSSING],
    CROSSING[::-1],
    [9, 1, 10, 1, 99, 1, 100, 1],
    [1] * 50,
], ids=["up", "down", "short-long", "ones"])
def test_runs_text_counts_crossing_every_power_of_ten(counts):
    seg = runs_map(counts)
    assert _seg_runs_text(seg) == reference_runs_text(seg)
    assert [c for _, c in json.loads(_seg_runs_text(seg))] == counts


@pytest.mark.parametrize("count", [c for p in POWERS for c in (p - 1, p)])
def test_runs_text_for_each_digit_count_in_last_place(count):
    seg = runs_map([3, count])
    assert _seg_runs_text(seg) == f"[[0,3],[1,{count}]]" == reference_runs_text(seg)


# ---------------------------------------------------------------------------
# One encoder behind both forms


def test_written_map_equals_list_form():
    rng = np.random.default_rng(3)
    seg = SegmentationMap(rng.integers(0, 4, (20, 30)))
    written = _to_json(seg)
    assert type(written["runs"]) is _Text
    assert canonical_dumps(written) == canonical_dumps(seg_map_to_obj(seg))
    assert seg_map_to_obj(seg)["runs"] == json.loads(reference_runs_text(seg))


def test_text_runs_round_trip():
    rng = np.random.default_rng(4)
    seg = SegmentationMap(rng.integers(0, 4, (9, 11)))
    back = seg_map_from_obj(_to_json(seg))
    assert np.array_equal(back.labels, seg.labels)


def test_plain_string_runs_are_still_rejected():
    with pytest.raises(FormatError, match="expected list"):
        seg_map_from_obj({"w": 2, "h": 1, "runs": "[[0,2]]"})
