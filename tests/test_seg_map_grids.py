"""`SegmentationMap(grid)` holds runs, like every other map.

The constructor checks the grid, casts it to uint8 and stores the maximal
runs of that uint8 grid; `labels` decodes on first read. Whatever the
grid's dtype, the map must write, take its ROI and crop exactly as the
grid itself: the runs text against `reference_runs_text` and the ROI
against `full_grid_roi`, both computed on the grid. A label that is not
an integer 0..3 is refused before the cast, without a warning.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from embryometrics.errors import NoEmbryoError, ValidationError
from embryometrics.geometry import Roi, crop_to_roi, embryo_roi
from embryometrics.model import SegmentationMap
from embryometrics.serialize import _seg_runs_text
from test_label_kernels import full_grid_roi
from test_seg_runs import has_grid
from test_text_encoder import reference_runs_text

shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
# Few distinct labels, so that runs longer than one pixel are common.
labels = st.sampled_from([0, 0, 1, 1, 2, 3])


def as_given(grid: np.ndarray, form: str):
    """The uint8 `grid` in the form a caller might pass it."""
    if form == "list":
        return grid.tolist()
    if form == "bool":
        return grid.astype(bool)
    return grid.astype(form)


def grids(values=labels):
    return shapes.flatmap(lambda shape: arrays(np.uint8, shape, elements=values))


forms = st.sampled_from(["uint8", "int16", "int64", "bool", "float64", "list"])


@settings(max_examples=200, deadline=None)
@given(grids(), forms)
def test_runs_are_maximal_and_decode_to_the_grid(grid, form):
    given_grid = as_given(grid, form)
    expected = np.asarray(given_grid).astype(np.uint8)
    seg = SegmentationMap(given_grid)
    assert not has_grid(seg)
    values, counts = seg._runs
    assert values.dtype == np.uint8
    assert not values.flags.writeable and not counts.flags.writeable
    assert counts.min() > 0 and not (values[1:] == values[:-1]).any()
    assert np.array_equal(np.repeat(values, counts).reshape(expected.shape), expected)
    assert (seg.height, seg.width) == expected.shape
    assert not has_grid(seg)
    assert np.array_equal(seg.labels, expected) and seg.labels.dtype == np.uint8


@settings(max_examples=200, deadline=None)
@given(grids(), forms)
def test_runs_text_is_the_reference(grid, form):
    seg = SegmentationMap(as_given(grid, form))
    text = _seg_runs_text(seg)
    assert not has_grid(seg)
    assert text == reference_runs_text(seg)


@settings(max_examples=200, deadline=None)
@given(grids(st.sampled_from([0, 0, 0, 1, 1, 2, 3])), forms)
def test_embryo_roi_is_the_whole_grid_reference(grid, form):
    given_grid = as_given(grid, form)
    seg = SegmentationMap(given_grid)
    # The reference reads the grid itself, not one the map decodes.
    plain = SimpleNamespace(
        labels=np.asarray(given_grid).astype(np.uint8), width=grid.shape[1], height=grid.shape[0]
    )
    for side in {1, min(grid.shape)}:
        try:
            expected = full_grid_roi(plain, side)
        except NoEmbryoError:
            with pytest.raises(NoEmbryoError):
                embryo_roi(seg, side)
        else:
            assert embryo_roi(seg, side) == expected
    assert not has_grid(seg)


@settings(max_examples=200, deadline=None)
@given(st.data(), grids(), forms)
def test_crop_is_the_cropped_grid(data, grid, form):
    h, w = grid.shape
    side = data.draw(st.integers(1, min(h, w)))
    x, y = data.draw(st.integers(0, w - side)), data.draw(st.integers(0, h - side))
    roi = Roi(x, y, side, (x + side // 2, y + side // 2))
    given_grid = as_given(grid, form)
    cropped = crop_to_roi(SegmentationMap(given_grid), roi)
    expected = np.asarray(given_grid).astype(np.uint8)[y : y + side, x : x + side]
    assert isinstance(cropped, SegmentationMap) and not has_grid(cropped)
    assert np.array_equal(cropped.labels, expected)
    assert _seg_runs_text(cropped) == reference_runs_text(SimpleNamespace(labels=expected))


# Fractions were truncated by the cast and NaN read as 0; 256.0 would wrap.
bad_labels = st.sampled_from(
    [0.5, 1.5, 2.9, 3.0000001, -0.0001, 3.5, -1.0, 4.0, 256.0, np.nan, np.inf, -np.inf]
)


@settings(max_examples=200, deadline=None)
@given(st.data(), grids(), bad_labels)
def test_labels_that_are_not_integers_0_to_3_are_refused(data, grid, bad):
    given_grid = grid.astype(np.float64)
    flat = data.draw(st.integers(0, grid.size - 1))
    given_grid.flat[flat] = bad
    for form in (given_grid, given_grid.tolist()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="segmentation labels must be in 0..3"):
                SegmentationMap(form)

