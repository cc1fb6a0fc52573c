"""The label and mask kernels against the versions they replaced.

`embryo_roi` and `pixel_accuracy` compare uint8 label grids against
plain ints; the references below compare against `SegClass` members,
which numpy promotes to int64, and scan the whole grid. `iou_matrix`
converts each distinct mask's runs once per call; it must equal the
boxed reference for any mix of repeated and empty masks.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from embryometrics.errors import EmptyInputError, NoEmbryoError
from embryometrics.geometry import embryo_roi, iou_matrix, roi_around
from embryometrics.metrics import pixel_accuracy
from embryometrics.model import BinaryMask, SegClass, SegmentationMap

from conftest import disk_mask
from test_fast_paths import boxed_iou_matrix


def full_grid_roi(seg_map: SegmentationMap, side: int):
    """The whole-grid `embryo_roi` this kernel replaced."""
    labels = seg_map.labels
    embryo = (labels == SegClass.ZONA) | (labels == SegClass.INSIDE_ZONA)
    rows = np.flatnonzero(embryo.any(axis=1))
    cols = np.flatnonzero(embryo.any(axis=0))
    if rows.size == 0:
        raise NoEmbryoError("segmentation contains no zona or inside-zona pixels")
    cx = (int(cols[0]) + int(cols[-1]) + 1) // 2
    cy = (int(rows[0]) + int(rows[-1]) + 1) // 2
    return roi_around((cx, cy), side, seg_map.width, seg_map.height)


def boolean_index_accuracy(pred, truth):
    """The boolean-index `pixel_accuracy` this kernel replaced."""
    p = pred.labels if isinstance(pred, SegmentationMap) else np.asarray(pred)
    t = truth.labels if isinstance(truth, SegmentationMap) else np.asarray(truth)
    equal = p == t
    overall = float(equal.mean())
    per_class = {}
    for c in SegClass:
        sel = t == c
        n = int(sel.sum())
        if n > 0:
            per_class[c] = float(equal[sel].sum() / n)
    return overall, per_class


def assert_same_roi(seg_map: SegmentationMap):
    for side in {1, min(seg_map.width, seg_map.height)}:
        try:
            expected = full_grid_roi(seg_map, side)
        except NoEmbryoError:
            with pytest.raises(NoEmbryoError):
                embryo_roi(seg_map, side)
        else:
            assert embryo_roi(seg_map, side) == expected


shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))


class TestEmbryoRoi:
    @settings(max_examples=150, deadline=None)
    @given(shapes.flatmap(lambda s: arrays(np.uint8, s, elements=st.integers(0, 3))))
    def test_random_four_class_maps(self, labels):
        assert_same_roi(SegmentationMap(labels))

    @settings(max_examples=150, deadline=None)
    @given(
        shapes.flatmap(lambda s: arrays(np.uint8, s, elements=st.integers(0, 1))),
        st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True),
                      st.floats(0, 1, exclude_max=True), st.sampled_from([2, 3])),
            max_size=4,
        ),
    )
    def test_sparse_embryo_pixels(self, labels, pixels):
        # Background maps with at most four zona / inside-zona pixels:
        # none at all must raise in both versions.
        labels, (h, w) = labels.copy(), labels.shape
        for fy, fx, c in pixels:
            labels[int(fy * h), int(fx * w)] = c
        assert_same_roi(SegmentationMap(labels))

    @pytest.mark.parametrize("shape", [(7, 11), (11, 7), (1, 6), (6, 1), (1, 1)])
    @pytest.mark.parametrize("label", [SegClass.ZONA, SegClass.INSIDE_ZONA])
    @pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
    def test_one_pixel_at_a_corner(self, shape, label, corner):
        labels = np.ones(shape, dtype=np.uint8)
        labels[corner] = label
        assert_same_roi(SegmentationMap(labels))

    def test_inside_zona_only(self):
        labels = np.zeros((9, 13), dtype=np.uint8)
        labels[2:5, 3:11] = SegClass.INSIDE_ZONA
        labels[7, 1] = SegClass.INSIDE_WELL
        seg = SegmentationMap(labels)
        assert_same_roi(seg)
        assert embryo_roi(seg, 3).center == (7, 3)

    @pytest.mark.parametrize("fill", [0, 1])
    def test_no_zona_raises(self, fill):
        with pytest.raises(NoEmbryoError):
            embryo_roi(SegmentationMap(np.full((5, 8), fill, dtype=np.uint8)), 2)


class TestPixelAccuracy:
    @settings(max_examples=150, deadline=None)
    @given(
        st.data(),
        shapes,
        st.sets(st.integers(0, 3), min_size=1),
        st.sampled_from(["map", "uint8", "int64", "flat"]),
    )
    def test_against_boolean_index(self, data, shape, present, form):
        # Truth draws only from `present`, so the other classes are absent.
        labels = data.draw(arrays(np.uint8, shape, elements=st.sampled_from(sorted(present))))
        pred = data.draw(arrays(np.uint8, shape, elements=st.integers(0, 3)))
        truth = labels
        if form == "map":
            pred, truth = SegmentationMap(pred), SegmentationMap(labels)
        elif form == "int64":
            pred, truth = pred.astype(np.int64), labels.astype(np.int64)
        elif form == "flat":
            pred, truth = pred.ravel(), labels.ravel()
        overall, per_class = pixel_accuracy(pred, truth)
        ref_overall, ref_per_class = boolean_index_accuracy(pred, truth)
        assert overall == ref_overall
        assert per_class == ref_per_class
        assert list(per_class) == list(ref_per_class)
        assert set(per_class) == {SegClass(c) for c in np.unique(labels)}
        assert all(type(v) is float for v in per_class.values())

    def test_mixed_dtypes(self):
        truth = np.array([[0, 2, 2], [3, 3, 3]], dtype=np.int64)
        pred = np.array([[0, 2, 1], [3, 0, 3]], dtype=np.uint8)
        assert pixel_accuracy(pred, truth) == boolean_index_accuracy(pred, truth)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (4, 0)])
    def test_empty_input_raises_without_warnings(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInputError):
                pixel_accuracy(np.zeros(shape, np.uint8), np.zeros(shape, np.uint8))


masks_on_a_small_grid = st.lists(
    st.tuples(st.floats(-8, 32), st.floats(-8, 32), st.floats(0, 9)).map(
        lambda d: disk_mask(24, *d)
    ),
    min_size=1,
    max_size=6,
)


class TestIouMatrix:
    @settings(max_examples=100, deadline=None)
    @given(masks_on_a_small_grid, st.lists(st.integers(0, 5), max_size=4), st.data())
    def test_repeated_objects_and_copies(self, masks, repeats, data):
        # Lists that hold the same object more than once, and discs off the
        # grid or of radius 0, which are empty masks.
        a = masks + [masks[i % len(masks)] for i in repeats]
        expected = boxed_iou_matrix(a, a)
        assert np.array_equal(iou_matrix(a, a), expected)
        assert np.array_equal(iou_matrix(a, list(a)), expected)
        copies = [BinaryMask(m.width, m.height, m.runs) for m in a]
        assert np.array_equal(iou_matrix(a, copies), expected)
        split = data.draw(st.integers(0, len(a)))
        b = a[split:] + a[:1]
        assert np.array_equal(iou_matrix(a[:split], b), boxed_iou_matrix(a[:split], b))

    def test_same_mask_twice_and_empty(self):
        disc = disk_mask(16, 8, 8, 4)
        empty = BinaryMask(16, 16, (256,))
        a = [disc, empty, disc, empty]
        got = iou_matrix(a, a)
        assert np.array_equal(got, boxed_iou_matrix(a, a))
        assert got.tolist() == [[1, 0, 1, 0], [0, 0, 0, 0]] * 2

    def test_nothing_kept_on_the_masks(self):
        a = [disk_mask(16, 5, 5, 3), disk_mask(16, 9, 9, 4)]
        iou_matrix(a, a)
        assert all(vars(m).keys() == {"width", "height", "runs"} for m in a)

    @settings(max_examples=50, deadline=None)
    @given(masks_on_a_small_grid)
    def test_foreground_ends_from_int64_runs(self, masks):
        for m in masks:
            ends = np.cumsum(m.runs)
            s, e = m._foreground()
            assert s.dtype == e.dtype == np.int64
            assert np.array_equal(s, ends[:-1:2]) and np.array_equal(e, ends[1::2])
