"""`synth._paint_label_runs`, which paints every frame's seg map as runs
from the row edges of the well and the two zona disks, against the grid
painter it replaced, kept here: each disk's mask decoded with `to_array`
and assigned into a label grid in label order, then encoded by
`_value_runs`. The runs must be equal label by label and count by count,
and maximal.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from embryometrics.model import _value_runs
from embryometrics.synth import (
    SynthConfig,
    WELL_RADIUS_FRACTION,
    _disk_masks,
    _disk_rows,
    _paint_label_runs,
    generate_movie,
)


def grid_painter(size, circles, frames):
    """Each frame's runs as the label grid painted from decoded masks: the
    well (label 1), then the frame's outer (2) and inner (3) zona."""
    masks = iter(_disk_masks(size, circles))
    well = np.zeros((size, size), dtype=np.uint8)
    well[next(masks).to_array()] = 1
    runs = []
    for _ in range(frames):
        labels = well.copy()
        for label in 2, 3:
            labels[next(masks).to_array()] = label
        runs.append(_value_runs(labels.ravel()))
    return runs


def assert_painted_like_the_grid(size, circles, frames):
    got = _paint_label_runs(size, *_disk_rows(size, circles), frames)
    expected = grid_painter(size, circles, frames)
    assert len(got) == frames
    for (labels, counts), (e_labels, e_counts) in zip(got, expected):
        assert labels.tolist() == e_labels.tolist()
        assert counts.tolist() == e_counts.tolist()
        assert labels.dtype == np.uint8 and counts.dtype == np.int32
        # Maximal: no empty run, no two neighbours with one label.
        assert counts.min() > 0 and not (labels[1:] == labels[:-1]).any()


@st.composite
def circles(draw, size):
    """A circle whose centre may lie on, near or off the grid, so it can
    clip at every edge; radii from sub-pixel up to past full-width rows."""
    centre = st.one_of(
        st.sampled_from([0.0, 0.5, size - 1.0, size - 0.5, float(size)]),
        st.integers(-3, size + 3).map(float),
        st.floats(-size / 2, 1.5 * size),
    )
    radius = st.one_of(
        st.floats(0.0, 1.5),
        st.integers(0, size).map(float),
        st.floats(1.5, 1.5 * size),
    )
    return draw(centre), draw(centre), draw(radius)


@st.composite
def movies(draw):
    """A grid size, a frame count and the circles in `generate_movie`'s
    order: the well, then each frame's outer and inner zona. A zona may
    touch the well's edge from inside, overrun it, or lie anywhere."""
    size = draw(st.sampled_from([48, 61, 500]))
    frames = draw(st.integers(1, 4 if size == 500 else 6))
    well = draw(circles(size))
    zonas = []
    for _ in range(2 * frames):
        if draw(st.booleans()):
            zonas.append(draw(circles(size)))
        else:
            # Centred on the well and `gap` from its edge along an axis:
            # touching it at 0, overrunning it below.
            r = draw(st.floats(0.0, well[2]))
            gap = draw(st.sampled_from([0.0, -0.5, -1.0, 0.5]))
            dx, dy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
            shift = well[2] - r - gap
            zonas.append((well[0] + dx * shift, well[1] + dy * shift, r))
    return size, [well, *zonas], frames


class TestPaintLabelRuns:
    @settings(deadline=None)
    @given(movies())
    @example((48, [(24.0, 24.0, 20.0), (24.0, 8.0, 4.0), (24.0, 24.0, 0.5)], 1))
    @example((48, [(24.0, 24.0, 40.0), (24.0, 24.0, 40.0), (0.0, 0.0, 60.0)], 1))
    @example((61, [(-30.0, 70.0, 5.0), (30.0, 30.0, 0.0), (30.5, 30.5, 0.7)], 1))
    @example(
        (48, [(47.5, 0.0, 30.0), (0.0, 47.0, 2.0), (48.0, 48.0, 1.0),
              (24.0, 24.0, 12.0), (24.0, 24.0, 6.0)], 2)
    )
    def test_runs_equal_the_grid_painter(self, movie):
        assert_painted_like_the_grid(*movie)

    def test_every_frame_full_width(self):
        # Every disk covers the whole grid: one run per frame, label 3.
        size, frames = 48, 3
        circles = [(24.0, 24.0, 100.0)] * (1 + 2 * frames)
        runs = _paint_label_runs(size, *_disk_rows(size, circles), frames)
        assert [(l.tolist(), c.tolist()) for l, c in runs] == [([3], [size * size])] * frames
        assert_painted_like_the_grid(size, circles, frames)

    def test_no_disk_on_the_grid(self):
        circles = [(-10.0, -10.0, 2.0)] * 3
        [(labels, counts)] = _paint_label_runs(48, *_disk_rows(48, circles), 1)
        assert labels.tolist() == [0] and counts.tolist() == [48 * 48]

    def test_zona_touching_the_well_edge(self):
        size, r_well = 61, WELL_RADIUS_FRACTION * 61
        centre = size / 2.0
        circles = [
            (centre, centre, r_well),
            (centre + r_well - 5.0, centre, 5.0),  # touches the edge inside
            (centre, centre - r_well + 3.0, 4.0),  # overruns it by a pixel
        ]
        assert_painted_like_the_grid(size, circles, 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.sampled_from([48, 61, 97]))
def test_generated_maps_are_maximal_int32_runs(seed, frames, size):
    _, truth = generate_movie(SynthConfig(seed=seed, frames=frames, image_size=size))
    assert len(truth.seg_maps) == frames
    for seg in truth.seg_maps:
        labels, counts = seg._runs
        assert "labels" not in vars(seg) and counts.dtype == np.int32
        assert counts.min() > 0 and not (labels[1:] == labels[:-1]).any()
        assert int(counts.sum(dtype=np.int64)) == size * size
        assert set(labels.tolist()) == {0, 1, 2, 3}
