"""Run counts are stored as int32 where they are known to fit: counts read
from canonical runs text (at most 9 digits each) and counts the synthetic
painter makes. Sums over them are int64, so `pixel_accuracy` and
`embryo_roi` answer as they do on int64 counts, even on grids whose pixel
count is past int32.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from embryometrics.errors import NoEmbryoError
from embryometrics.geometry import embryo_roi
from embryometrics.metrics import pixel_accuracy
from embryometrics.model import SegmentationMap
from embryometrics.serialize import _loads, _to_json, canonical_dumps, seg_map_from_obj
from embryometrics.synth import NoiseConfig, SynthConfig, generate_movie, render_model_outputs


def from_text(labels) -> SegmentationMap:
    """The map a file holding `labels`' canonical runs text reads as."""
    return seg_map_from_obj(_loads(canonical_dumps(_to_json(SegmentationMap(labels)))))


def widened(seg: SegmentationMap) -> SegmentationMap:
    """The same runs-only map with int64 counts."""
    labels, counts = seg._runs
    return SegmentationMap._from_runs(labels, counts.astype(np.int64), seg.width, seg.height)


def roi_or_none(seg, side):
    try:
        return embryo_roi(seg, side)
    except NoEmbryoError:
        return None


def assert_same_as_int64(pred: SegmentationMap, truth: SegmentationMap):
    """Scores and boxes off `truth`'s int32 counts equal those off int64."""
    assert truth._runs[1].dtype == np.int32
    wide_pred, wide_truth = widened(pred), widened(truth)
    expected = pixel_accuracy(wide_pred, wide_truth)
    assert pixel_accuracy(pred, truth) == expected
    assert pixel_accuracy(truth, pred) == pixel_accuracy(wide_truth, wide_pred)
    assert pixel_accuracy([pred, truth], [truth, wide_pred]) == pixel_accuracy(
        [wide_pred, wide_truth], [wide_truth, wide_pred]
    )
    for side in {1, min(truth.height, truth.width)}:
        assert roi_or_none(truth, side) == roi_or_none(wide_truth, side)
    assert "labels" not in vars(pred) and "labels" not in vars(truth)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.tuples(st.integers(1, 12), st.integers(1, 12)))
def test_maps_read_from_text(data, shape):
    grids = [data.draw(arrays(np.uint8, shape, elements=st.integers(0, 3))) for _ in "pt"]
    pred, truth = map(from_text, grids)
    assert pred._runs[1].dtype == np.int32
    assert_same_as_int64(pred, truth)


def test_painted_synthetic_maps():
    config = SynthConfig(seed=4, frames=3, image_size=97)
    _, truth = generate_movie(config)
    noisy = SynthConfig(seed=4, frames=3, image_size=97, noise=NoiseConfig(seg_flip_rate=0.1))
    flipped = render_model_outputs(truth, noisy).seg_maps
    for seg, noisy_seg in zip(truth.seg_maps, flipped):
        assert_same_as_int64(noisy_seg, seg)
        assert_same_as_int64(seg, seg)


def test_grid_past_int32_pixels():
    # 60000 x 60000 pixels, 3.6e9, as four 9-digit runs: their sum and the
    # zona run's start are past int32. Nothing is decoded.
    text = "[[0,999999999],[1,999999999],[0,999999999],[2,600000003]]"
    seg = seg_map_from_obj(_loads('{"h":60000,"runs":%s,"w":60000}' % text))
    assert seg._runs[1].dtype == np.int32 and "labels" not in vars(seg)
    zona_start = 3 * 999999999  # flat index 2999999997
    y, x = divmod(zona_start, 60000)
    assert (y, x) == (49999, 59997)
    # The zona runs from (59997, 49999) to the end: 3 pixels of row 49999
    # and the 10000 rows below, all full width.
    roi = embryo_roi(seg, 100)
    assert roi == embryo_roi(widened(seg), 100)
    assert (roi.x, roi.y) == (30000 - 50, (49999 + 10001 // 2) - 50)
    pred = seg_map_from_obj(_loads(
        '{"h":60000,"runs":[[0,999999999],[2,999999999],[0,999999999],[2,600000003]],"w":60000}'
    ))
    overall, per_class = pixel_accuracy(pred, seg)
    assert (overall, per_class) == pixel_accuracy(widened(pred), widened(seg))
    assert overall == (3.6e9 - 999999999) / 3.6e9
    assert per_class == {0: 1.0, 1: 0.0, 2: 1.0}
    assert "labels" not in vars(pred) and "labels" not in vars(seg)
