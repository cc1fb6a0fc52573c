"""Each fast mask path against the slow reference it replaced.

The bounding-box IoU kernel is checked against the dense `mask_iou`; the
`np.repeat` mask decoder, the vectorised segmentation-map encoder and the
run-based bounding box are checked against the code they replaced, kept
here as references.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embryometrics.errors import ShapeMismatchError, ValidationError
from embryometrics.gating import average_fragmentation
from embryometrics.geometry import iou_matrix, mask_iou
from embryometrics.model import BinaryMask, FragmentationScore, SegmentationMap
from embryometrics.serialize import seg_map_to_obj


def loop_decode(mask: BinaryMask) -> np.ndarray:
    """The run-by-run decoder `BinaryMask.to_array` used to be."""
    flat = np.zeros(mask.width * mask.height, dtype=bool)
    pos = 0
    fg = False
    for run in mask.runs:
        if fg:
            flat[pos : pos + run] = True
        pos += run
        fg = not fg
    return flat.reshape(mask.height, mask.width)


def decode_bbox(mask: BinaryMask) -> tuple[int, int, int, int]:
    """The decode-and-scan `BinaryMask.tight_bbox` used to be."""
    arr = mask.to_array()
    rows = np.flatnonzero(arr.any(axis=1))
    cols = np.flatnonzero(arr.any(axis=0))
    if rows.size == 0:
        raise ValidationError("empty mask has no bounding box")
    y0, y1 = int(rows[0]), int(rows[-1])
    x0, x1 = int(cols[0]), int(cols[-1])
    return (x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def comprehension_seg_runs(seg: SegmentationMap) -> list[list[int]]:
    """The per-run list comprehension `seg_map_to_obj` used to be."""
    flat = seg.labels.ravel()
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    return [[int(flat[b]), int(e - b)] for b, e in zip(bounds[:-1], bounds[1:])]


@st.composite
def mask_arrays(draw, width: int, height: int) -> np.ndarray:
    """Random pixels, empty, full grid, one pixel, or a rectangle that
    may touch any edge of the grid."""
    kind = draw(st.sampled_from(["random", "empty", "full", "pixel", "rect"]))
    arr = np.zeros((height, width), dtype=bool)
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=arr.size, max_size=arr.size))
        arr = np.array(bits, dtype=bool).reshape(height, width)
    elif kind == "full":
        arr[:] = True
    elif kind == "pixel":
        arr[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = True
    elif kind == "rect":
        y0, y1 = sorted(draw(st.lists(st.integers(0, height), min_size=2, max_size=2)))
        x0, x1 = sorted(draw(st.lists(st.integers(0, width), min_size=2, max_size=2)))
        arr[y0:y1, x0:x1] = True
    return arr


@st.composite
def mask_sets(draw) -> tuple[list[BinaryMask], list[BinaryMask]]:
    """Two lists of masks on one grid; either list may be empty."""
    width, height = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    arrays = st.lists(mask_arrays(width, height), max_size=5)
    return (
        [BinaryMask.from_array(a) for a in draw(arrays)],
        [BinaryMask.from_array(a) for a in draw(arrays)],
    )


class TestIouMatrix:
    @settings(max_examples=300, deadline=None)
    @given(mask_sets())
    def test_equals_dense_reference(self, sets):
        a, b = sets
        iou = iou_matrix(a, b)
        assert iou.shape == (len(a), len(b))
        for i, ma in enumerate(a):
            for j, mb in enumerate(b):
                assert iou[i, j] == mask_iou(ma, mb)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            # Two pixels apart on one row: disjoint boxes.
            ([[1, 0, 0]], [[0, 0, 1]], 0.0),
            # Boxes overlap, pixels do not.
            ([[1, 0], [0, 1]], [[0, 1], [1, 0]], 0.0),
            # A run wrapping from one row into the next.
            ([[0, 1], [1, 0]], [[0, 1], [1, 1]], 2 / 3),
            ([[1, 1], [1, 1]], [[1, 1], [1, 1]], 1.0),
            ([[0, 0], [0, 0]], [[0, 0], [0, 0]], 0.0),
        ],
    )
    def test_hand_cases(self, a, b, expected):
        ma = BinaryMask.from_array(np.array(a))
        mb = BinaryMask.from_array(np.array(b))
        assert iou_matrix([ma], [mb])[0, 0] == expected == mask_iou(ma, mb)

    def test_mixed_dimensions_raise(self):
        small = BinaryMask.from_array(np.ones((2, 2)))
        large = BinaryMask.from_array(np.ones((3, 3)))
        with pytest.raises(ShapeMismatchError):
            iou_matrix([small], [large])
        with pytest.raises(ShapeMismatchError):
            iou_matrix([small, large], [small])

    def test_empty_side_gives_empty_matrix(self):
        mask = BinaryMask.from_array(np.ones((2, 2)))
        assert iou_matrix([], [mask]).shape == (0, 1)
        assert iou_matrix([mask, mask], []).shape == (2, 0)


class TestMaskDecode:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 14).flatmap(
            lambda w: st.integers(1, 14).flatmap(lambda h: mask_arrays(w, h))
        )
    )
    def test_equals_run_loop(self, arr):
        mask = BinaryMask.from_array(arr)
        decoded = mask.to_array()
        assert decoded.dtype == bool
        assert np.array_equal(decoded, loop_decode(mask))
        assert np.array_equal(decoded, arr)


class TestTightBbox:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 14).flatmap(
            lambda w: st.integers(1, 14).flatmap(lambda h: mask_arrays(w, h))
        )
    )
    def test_equals_decode_and_scan(self, arr):
        mask = BinaryMask.from_array(arr)
        if not arr.any():
            for bbox in (mask.tight_bbox, lambda: decode_bbox(mask)):
                with pytest.raises(ValidationError):
                    bbox()
            return
        assert mask.tight_bbox() == decode_bbox(mask)

    @pytest.mark.parametrize(
        "arr",
        [
            [[1]],
            [[0, 0, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 0, 0]],
            # One run across a row break: columns 2 and 0 only.
            [[0, 0, 1], [1, 0, 0]],
            [[0, 1, 0], [0, 1, 0], [0, 1, 0]],
            [[1, 1], [1, 1]],
        ],
    )
    def test_hand_cases(self, arr):
        mask = BinaryMask.from_array(np.array(arr))
        assert mask.tight_bbox() == decode_bbox(mask)


class TestSegMapRuns:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 14),
        st.integers(1, 14),
        st.sampled_from(["random", "constant", "stripes"]),
        st.randoms(use_true_random=False),
    )
    def test_equals_comprehension(self, width, height, kind, rnd):
        if kind == "random":
            labels = [[rnd.randrange(4) for _ in range(width)] for _ in range(height)]
        elif kind == "constant":
            labels = [[rnd.randrange(4)] * width for _ in range(height)]
        else:
            labels = [[(x // 2) % 4 for x in range(width)] for _ in range(height)]
        seg = SegmentationMap(np.array(labels, dtype=np.uint8))
        obj = seg_map_to_obj(seg)
        assert obj["runs"] == comprehension_seg_runs(seg)
        assert all(type(v) is int for run in obj["runs"] for v in run)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3))
def test_average_fragmentation_needs_no_clamp(values):
    """The mean of three scores in [0, 3] is a valid score as it stands."""
    mean = average_fragmentation([FragmentationScore(v) for v in values])
    assert mean.value == sum(values) / 3.0
