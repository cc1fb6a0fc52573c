"""`synth._disk_masks`, which builds many disks' masks from per-row intervals
in one pass, against the full-grid disk (`conftest.disk_array`) encoded by
`BinaryMask.from_array`, compared with `==` on runs.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

from embryometrics.model import BinaryMask
from embryometrics.synth import (
    SynthConfig,
    _disk_masks,
    generate_movie,
    render_model_outputs,
)

from conftest import disk_array, disk_mask
from test_window_encoder import disks, grid_sizes


def full_grid(size, circles):
    return [BinaryMask.from_array(disk_array(size, *c)) for c in circles]


@st.composite
def batches(draw):
    """A grid size and up to twelve of `disks()`'s circles for one call;
    circles drawn for another grid size fall across or off this one."""
    size = draw(grid_sizes())
    return size, [case[1:] for case in draw(st.lists(disks(), max_size=12))]


class TestDiskRows:
    @settings(deadline=None)
    @given(batches())
    # The first mask's last stop, 11 * 48, is the second one's first start.
    @example((48, [(23.5, -289.0, 300.0), (0.0, 13.0, 2.0)]))
    def test_a_batch_gives_each_disk_in_order(self, batch):
        size, circles = batch
        assert _disk_masks(size, circles) == full_grid(size, circles)

    @settings(deadline=None)
    @given(disks())
    @example((48, 10.0, 10.0, 3.0))  # pixels exactly on the circle
    @example((48, 0.5, 47.5, 0.5))  # sub-pixel radius in a corner
    @example((61, 60.5, -0.5, 1.0))  # centre just off a corner
    @example((48, 10.6, 10.0, 0.5))  # one pixel, right of the centre
    # Circles through a pixel to the last bit: the sqrt guess for one row's
    # left end is one pixel inside, one outside; then the same for the right.
    @example((500, 146.0815633371559, 229.80022583301945, 68.26935790695596))
    @example((500, 241.27296562472725, 308.127652660669, 92.31540686360607))
    @example((500, 130.06234287975877, 148.09937049387912, 132.2814226231226))
    @example((500, 329.7649942645894, 222.15830754388207, 161.56541491612788))
    def test_one_disk_on_near_or_off_every_edge(self, disk):
        size, *circle = disk
        assert _disk_masks(size, [circle]) == full_grid(size, [circle])

    @settings(deadline=None)
    @given(
        st.floats(-40.0, 540.0),
        st.floats(-40.0, 540.0),
        st.one_of(st.floats(90.0, 400.0), st.integers(90, 400).map(float)),
    )
    @example(250.0, 250.0, 400.0)  # the whole grid
    @example(250.0, 250.0, 260.0)  # full-width rows in the middle only
    def test_large_disks_join_full_width_rows(self, cx, cy, r):
        assert _disk_masks(500, [(cx, cy, r)]) == full_grid(500, [(cx, cy, r)])

    def test_full_width_rows_are_one_run(self):
        assert _disk_masks(500, [(250.0, 250.0, 400.0)])[0].runs == (0, 500 * 500)
        # A disk of radius 300 centred at (249.5, 15) holds every column of
        # rows 0-181 and all but the two end columns of row 182.
        mask = _disk_masks(500, [(249.5, 15.0, 300.0)])[0]
        assert mask.runs[:4] == (0, 182 * 500, 1, 498)

    def test_disk_wholly_off_the_grid_is_all_background(self):
        masks = _disk_masks(48, [(20.0, 88.0, 1.0), (-10.0, -10.0, 5.0)])
        assert [m.runs for m in masks] == [(48 * 48,), (48 * 48,)]

    def test_no_circles_give_no_masks(self):
        assert _disk_masks(48, []) == []


def test_jitter_clamp_with_lower_bound_above_upper_takes_the_upper():
    # A radius-30 cell on a 48 px grid: the centre's bounds are r + 1 = 31
    # and size - 2 - r = 16, and the clamp returns the upper one, as
    # `np.clip` does.
    assert min(max(24.0, 31.0), 16.0) == float(np.clip(24.0, 31.0, 16.0)) == 16.0
    config = SynthConfig(seed=3, frames=1, image_size=48)
    _, truth = generate_movie(config)
    truth = dataclasses.replace(truth, cell_circles=(((24.0, 24.0, 30.0),),))
    cells = render_model_outputs(truth, config).cells[0]
    assert {c[0].mask for c in cells.values()} == {disk_mask(48, 16.0, 16.0, 30.0)}
