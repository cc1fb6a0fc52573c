"""The grid encoder and the disk rasteriser against the code they replaced.

`BinaryMask.from_array` encodes grids that hold a boolean window at an
offset; `synth._disk_mask` rasterises one disk from its row intervals. The
old `run_lengths`-based `from_array` and the full-grid disk
(`conftest.disk_array`) are the references, compared with `==` on runs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from embryometrics.model import BinaryMask
from embryometrics.synth import _disk_mask

from conftest import disk_array


def reference_from_array(a: np.ndarray) -> BinaryMask:
    """`BinaryMask.from_array` as it was, on `model.run_lengths`."""
    flat = (np.asarray(a) != 0).ravel()
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    values, counts = flat[starts], np.diff(np.append(starts, flat.size))
    runs = counts.tolist()
    if values[0]:
        runs = [0] + runs
    return BinaryMask(width=a.shape[1], height=a.shape[0], runs=tuple(runs))


def placed(width: int, height: int, x0: int, y0: int, window: np.ndarray):
    grid = np.zeros((height, width), dtype=bool)
    grid[y0 : y0 + window.shape[0], x0 : x0 + window.shape[1]] = window
    return grid


def assert_window_encodes_like_grid(width, height, x0, y0, window):
    grid = placed(width, height, x0, y0, window)
    assert BinaryMask.from_array(grid) == reference_from_array(grid)


@st.composite
def windows(draw, right=False, bottom=False, full_width=False):
    """A grid size, an offset and a boolean window that fits inside."""
    width = draw(st.integers(1, 16))
    height = draw(st.integers(1, 16))
    w = width if full_width else draw(st.integers(0, width))
    h = draw(st.integers(0, height))
    x0 = width - w if right or full_width else draw(st.integers(0, width - w))
    y0 = height - h if bottom else draw(st.integers(0, height - h))
    window = draw(arrays(bool, (h, w)))
    return width, height, x0, y0, window


class TestFromWindow:
    @settings(max_examples=300, deadline=None)
    @given(windows())
    def test_random_windows_at_random_offsets(self, case):
        assert_window_encodes_like_grid(*case)

    @settings(max_examples=200, deadline=None)
    @given(windows(right=True, bottom=True))
    def test_windows_touching_right_and_bottom_edges(self, case):
        assert_window_encodes_like_grid(*case)

    @settings(max_examples=200, deadline=None)
    @given(windows(full_width=True))
    def test_full_width_windows_join_runs_across_row_breaks(self, case):
        assert_window_encodes_like_grid(*case)

    def test_run_across_a_row_break_is_one_run(self):
        window = np.array([[0, 0, 1], [1, 1, 0]], dtype=bool)
        mask = BinaryMask.from_array(placed(3, 4, 0, 1, window))
        assert mask.runs == (5, 3, 4)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_window_is_all_background(self, shape):
        window = np.zeros(shape, dtype=bool)
        assert BinaryMask.from_array(placed(5, 6, 0, 0, window)).runs == (30,)
        assert_window_encodes_like_grid(5, 6, 0, 0, window)
        assert_window_encodes_like_grid(5, 6, 5 - shape[1], 6 - shape[0], window)

    def test_all_true_grid(self):
        window = np.ones((4, 7), dtype=bool)
        assert BinaryMask.from_array(placed(7, 4, 0, 0, window)).runs == (0, 28)
        assert_window_encodes_like_grid(7, 4, 0, 0, window)

    def test_single_pixel_at_last_flat_index(self):
        window = np.ones((1, 1), dtype=bool)
        assert BinaryMask.from_array(placed(7, 4, 6, 3, window)).runs == (27, 1)
        assert_window_encodes_like_grid(7, 4, 6, 3, window)

    def test_from_array_reads_any_nonzero_value_as_foreground(self):
        arr = np.array([[0, 2, 0], [1, 0, -1]])
        assert BinaryMask.from_array(arr) == reference_from_array(arr)


def grid_sizes():
    return st.sampled_from([48, 61, 500])


@st.composite
def disks(draw):
    """A grid size and a disk whose centre may lie on, near or off the
    grid, so it can clip at every edge; radii from sub-pixel up."""
    size = draw(grid_sizes())
    centre = st.one_of(
        st.sampled_from([0.0, 0.5, size - 1.0, size - 0.5, float(size)]),
        st.integers(-3, size + 3).map(float),
        st.floats(-40.0, size + 40.0),
    )
    radius = st.one_of(
        st.floats(0.0, 1.5), st.integers(0, 40).map(float), st.floats(1.5, 90.0)
    )
    return size, draw(centre), draw(centre), draw(radius)


class TestBoxedDisk:
    @settings(max_examples=300, deadline=None)
    @given(disks())
    @example((48, 10.0, 10.0, 3.0))  # pixels exactly on the circle
    @example((48, 0.5, 47.5, 0.5))  # sub-pixel radius in a corner
    @example((48, -40.0, 20.0, 30.0))  # centre off the left edge
    @example((48, 20.0, 88.0, 1.0))  # disk wholly below the grid
    @example((500, 250.0, 250.0, 400.0))  # box larger than the grid
    def test_disk_mask_equals_full_grid_disk(self, disk):
        size, cx, cy, r = disk
        full = disk_array(size, cx, cy, r)
        assert _disk_mask(size, cx, cy, r) == reference_from_array(full)
