"""The zona box of every seg map against the whole grid.

A map `generate_movie` paints holds its zona box, read off the outer zona
disk's rows (`synth._zona_boxes`); every other map computes it off its
runs (`SegmentationMap._zona_box`). Either way it must equal the tight box
of the decoded grid's zona and inside-zona pixels, or None where there
are none, and `embryo_roi` must give the ROI it gave before the box was
held.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from embryometrics import serialize
from embryometrics.backends import suite_from_tables, synth_backend_suite
from embryometrics.geometry import center_roi, embryo_roi
from embryometrics.model import SegClass, SegmentationMap
from embryometrics.pipeline import PipelineConfig, result_to_obj, run_pipeline
from embryometrics.serialize import _loads, _to_json, canonical_dumps, seg_map_from_obj
from embryometrics.synth import (
    ZONA_INNER_FRACTION,
    ZONA_OUTER_FRACTION,
    NoiseConfig,
    SynthConfig,
    _disk_rows,
    _paint_label_runs,
    _zona_boxes,
    generate_movie,
    render_model_outputs,
)

from test_label_kernels import full_grid_roi


def decoded(seg: SegmentationMap) -> np.ndarray:
    """The map's grid, decoded here so that the map keeps none."""
    return np.repeat(*seg._runs).reshape(seg.height, seg.width)


def grid_box(seg: SegmentationMap):
    """Tight (x, y, w, h) box of the decoded grid's zona and inside-zona
    pixels, or None."""
    embryo = decoded(seg) >= SegClass.ZONA
    rows, cols = np.flatnonzero(embryo.any(axis=1)), np.flatnonzero(embryo.any(axis=0))
    if rows.size == 0:
        return None
    return (int(cols[0]), int(rows[0]), int(cols[-1] - cols[0] + 1), int(rows[-1] - rows[0] + 1))


def holds_box(seg: SegmentationMap) -> bool:
    return "_zona" in vars(seg)


def assert_box(seg: SegmentationMap, held: bool):
    assert holds_box(seg) == held
    box = grid_box(seg)
    assert seg._zona_box() == box
    # Computing the box keeps neither it nor a grid.
    assert holds_box(seg) == held and "labels" not in vars(seg)
    side = min(seg.width, seg.height)
    if box is not None:
        assert embryo_roi(seg, side) == full_grid_roi(SegmentationMap(decoded(seg)), side)


# ---------------------------------------------------------------------------
# Painted maps hold their box


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_movies_hold_the_grid_box(seed):
    _, truth = generate_movie(SynthConfig(seed=seed))
    for seg in truth.seg_maps:
        assert_box(seg, held=True)


def painted(size, frames):
    """Each frame's zona as a (centre x, centre y, outer radius, inner
    fraction) tuple: the centre may lie on, near or off the grid, so the
    zona can clip at every edge or miss the grid."""
    centre = st.one_of(
        st.sampled_from([0.0, 0.5, size - 1.0, size - 0.5, float(size)]),
        st.integers(-size, 2 * size).map(float),
        st.floats(-size / 2, 1.5 * size),
    )
    radius = st.one_of(st.floats(0.0, 1.5), st.floats(1.5, 1.5 * size))
    inner = st.one_of(
        st.just(ZONA_INNER_FRACTION / ZONA_OUTER_FRACTION), st.floats(0.0, 1.0, exclude_max=True)
    )
    return st.lists(st.tuples(centre, centre, radius, inner), min_size=frames, max_size=frames)


def assert_painted_boxes(size, well, zonas):
    """The boxes `_zona_boxes` reads off the outer zona rows equal the
    grid boxes of the maps `_paint_label_runs` paints from the same rows."""
    disks = [well]
    disks += [(cx, cy, r * f) for cx, cy, r, fraction in zonas for f in (1.0, fraction)]
    edges, owner = _disk_rows(size, disks)
    runs = _paint_label_runs(size, edges, owner, len(zonas))
    boxes = _zona_boxes(size, edges, owner, len(zonas))
    assert len(boxes) == len(zonas)
    for (labels, counts), box in zip(runs, boxes):
        seg = SegmentationMap._from_runs(labels, counts, size, size, box)
        assert_box(seg, held=True)


WELL = (24.0, 24.0, 22.0)


class TestPaintedBoxes:
    @settings(deadline=None)
    @given(st.data(), st.sampled_from([48, 61]), st.integers(1, 4))
    def test_any_centre_and_radius(self, data, size, frames):
        well = (size / 2.0, size / 2.0, data.draw(st.floats(0.0, 1.5 * size)))
        assert_painted_boxes(size, well, data.draw(painted(size, frames)))

    @pytest.mark.parametrize(
        "centre", [(-5.0, 24.0), (52.0, 24.0), (24.0, -5.0), (24.0, 52.0)],
        ids=["left", "right", "top", "bottom"],
    )
    def test_zona_clipped_at_an_edge(self, centre):
        assert_painted_boxes(48, WELL, [(*centre, 14.4, 0.8), (*centre, 8.0, 0.5)])

    def test_zona_wholly_off_the_grid(self):
        zonas = [(-40.0, -40.0, 14.4, 0.8), (24.0, 24.0, 14.4, 0.8), (100.0, 24.0, 3.0, 0.5)]
        assert_painted_boxes(48, WELL, zonas)
        edges, owner = _disk_rows(48, [WELL, (-40.0, -40.0, 14.4), (-40.0, -40.0, 11.5)])
        assert _zona_boxes(48, edges, owner, 1) == [None]

    def test_zona_over_the_whole_grid(self):
        assert_painted_boxes(48, WELL, [(24.0, 24.0, 100.0, 0.8), (24.0, 24.0, 100.0, 0.1)])


# ---------------------------------------------------------------------------
# Every other route computes it off the runs


@pytest.mark.parametrize("seed", [0, 3])
def test_flipped_maps_compute_the_grid_box(seed):
    config = SynthConfig(seed=seed, frames=8, image_size=96, noise=NoiseConfig(seg_flip_rate=0.05))
    _, truth = generate_movie(config)
    for seg in render_model_outputs(truth, config).seg_maps:
        assert_box(seg, held=False)


shapes = st.tuples(st.integers(1, 24), st.integers(1, 24))


@settings(deadline=None)
@given(shapes.flatmap(lambda s: arrays(np.uint8, s, elements=st.integers(0, 3))))
@example(np.ones((5, 7), dtype=np.uint8))
@example(np.full((3, 4), 2, dtype=np.uint8))
def test_maps_from_grids_compute_the_grid_box(labels):
    assert_box(SegmentationMap(labels), held=False)


@settings(deadline=None)
@given(shapes.flatmap(lambda s: arrays(np.uint8, s, elements=st.integers(0, 3))), st.booleans())
def test_maps_read_from_files_compute_the_grid_box(labels, canonical):
    obj = serialize.seg_map_to_obj(SegmentationMap(labels))
    if canonical:
        seg = seg_map_from_obj(_loads(canonical_dumps(_to_json(SegmentationMap(labels)))))
    else:
        # Each run split in two, with a zero count first: not maximal.
        obj["runs"] = [[v, n] for v, c in obj["runs"] for n in (0, c // 2, c - c // 2)]
        seg = seg_map_from_obj(_loads(canonical_dumps(obj)))
    assert seg == SegmentationMap(labels)
    assert_box(seg, held=False)


# ---------------------------------------------------------------------------
# The pipeline


def stripped(table):
    """The seg table with every map rebuilt from its runs, holding no box."""
    return {key: SegmentationMap._from_runs(*seg._runs, seg.width, seg.height)
            for key, seg in table.items()}


def suite_with_seg(suite, seg):
    return suite_from_tables(seg, *(getattr(suite, name).table
                                    for name in ("fragmentation", "stage", "cells", "pronuclei")))


LIB_NOISE = NoiseConfig(logit_sigma=1.0, mask_jitter_px=1.0, confidence_sigma=0.05)


@pytest.mark.parametrize(
    "noise", [NoiseConfig(), LIB_NOISE, NoiseConfig(seg_flip_rate=0.05)],
    ids=["clean", "noisy", "flipped"],
)
def test_run_bytes_equal_with_every_box_stripped(noise):
    config = SynthConfig(seed=4, frames=12, image_size=160, noise=noise)
    movie, truth = generate_movie(config)
    suite = synth_backend_suite(truth, config)
    maps = suite.segmenter.table
    assert all(holds_box(m) for m in maps.values()) == (noise.seg_flip_rate == 0)
    plain = suite_with_seg(suite, stripped(maps))
    assert not any(holds_box(m) for m in plain.segmenter.table.values())
    pipeline = PipelineConfig(roi_side=120)
    with_box, without = (
        canonical_dumps(result_to_obj(run_pipeline(movie, s, pipeline))) for s in (suite, plain)
    )
    assert with_box == without


@pytest.mark.parametrize("held", [True, False])
def test_a_movie_without_zona_falls_back_to_the_centre(held):
    config = SynthConfig(seed=6, frames=6, image_size=96)
    movie, truth = generate_movie(config)
    suite = synth_backend_suite(truth, config)
    size = truth.image_size
    # Inside the well everywhere, no zona; held maps say so with None.
    empty = SegmentationMap._from_runs(
        np.array([SegClass.INSIDE_WELL]), np.array([size * size]), size, size,
        *([None] if held else []),
    )
    assert holds_box(empty) == held and empty._zona_box() is None
    result = run_pipeline(
        movie, suite_with_seg(suite, dict.fromkeys(suite.segmenter.table, empty)),
        PipelineConfig(roi_side=64),
    )
    assert [f.roi_fallback for f in result.frames] == [True] * len(movie)
    assert {f.roi for f in result.frames} == {center_roi(size, size, 64)}
