"""Seg maps read from a file stay runs.

A map read from canonical, maximal runs text holds its (labels, counts)
runs and no grid; `labels` decodes on first read. `pixel_accuracy` counts
agreeing pixels off the runs of both sides, and `embryo_roi` takes the
zona box off a runs-only map's runs. Both must equal the grid versions
they replaced, kept in `tests/test_label_kernels.py`.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from embryometrics import serialize
from embryometrics.cli import main
from embryometrics.errors import EmptyInputError, NoEmbryoError, ShapeMismatchError
from embryometrics.geometry import embryo_roi
from embryometrics.metrics import pixel_accuracy
from embryometrics.model import SegmentationMap, _value_runs
from embryometrics.serialize import _loads, _to_json, canonical_dumps, seg_map_from_obj
from test_label_kernels import boolean_index_accuracy, full_grid_roi


def from_text(labels) -> SegmentationMap:
    """The map a file holding `labels`' canonical runs text reads as."""
    return seg_map_from_obj(_loads(canonical_dumps(_to_json(SegmentationMap(labels)))))


def has_grid(seg: SegmentationMap) -> bool:
    return "labels" in vars(seg)


def assert_same_accuracy(pred, truth, p_flat=None, t_flat=None):
    """`pixel_accuracy` equals the boolean-index reference, on the flat
    labels given or else on the inputs themselves."""
    got = pixel_accuracy(pred, truth)
    expected = boolean_index_accuracy(
        pred if p_flat is None else p_flat, truth if t_flat is None else t_flat
    )
    assert got == expected
    assert list(got[1]) == list(expected[1])
    assert type(got[0]) is float and all(type(v) is float for v in got[1].values())


shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


def label_grids(shape, classes=st.integers(0, 3)):
    return arrays(np.uint8, shape, elements=classes)


# ---------------------------------------------------------------------------
# The model: runs in, grid on demand


def test_map_from_maximal_text_holds_runs_and_no_grid():
    grid = np.array([[0, 0, 3], [3, 2, 2]], dtype=np.uint8)
    seg = from_text(grid)
    assert not has_grid(seg)
    assert (seg.width, seg.height) == (3, 2)
    labels, counts = seg._runs
    assert labels.tolist() == [0, 3, 2] and counts.tolist() == [2, 2, 2]
    assert labels.dtype == np.uint8 and not labels.flags.writeable
    assert not has_grid(seg)
    decoded = seg.labels
    assert has_grid(seg) and seg.labels is decoded
    assert decoded.dtype == np.uint8 and not decoded.flags.writeable
    assert np.array_equal(decoded, grid)


def test_non_maximal_text_reads_as_maximal_runs():
    seg = seg_map_from_obj(_loads('{"h":1,"runs":[[1,1],[1,2]],"w":3}'))
    labels, counts = seg._runs
    assert labels.tolist() == [1] and counts.tolist() == [3]
    assert seg._runs_text is None and not has_grid(seg)
    assert canonical_dumps(_to_json(seg)) == '{"h":1,"runs":[[1,3]],"w":3}'


def test_maps_built_from_grids_hold_maximal_runs():
    grid = np.array([[0, 0, 3], [3, 2, 2]], dtype=np.int64)
    seg = SegmentationMap(grid)
    assert not has_grid(seg)
    labels, counts = seg._runs
    expected_labels, expected_counts = _value_runs(grid.astype(np.uint8).ravel())
    assert labels.dtype == np.uint8 and np.array_equal(labels, expected_labels)
    assert np.array_equal(counts, expected_counts) and counts.tolist() == [2, 2, 2]
    assert not labels.flags.writeable and not counts.flags.writeable
    assert not has_grid(seg)
    decoded = seg.labels
    assert has_grid(seg) and seg.labels is decoded
    assert decoded.dtype == np.uint8 and not decoded.flags.writeable
    assert np.array_equal(decoded, grid)


def test_missing_attribute_is_an_attribute_error():
    seg = from_text(np.zeros((2, 2), np.uint8))
    with pytest.raises(AttributeError):
        seg.no_such_field  # noqa: B018
    assert not hasattr(SegmentationMap(np.zeros((2, 2), np.uint8)), "no_such_field")


def test_eq_and_repr_read_the_grid():
    grid = np.array([[1, 2, 2]], dtype=np.uint8)
    seg = from_text(grid)
    assert seg == seg
    assert repr(seg) == repr(SegmentationMap(grid))
    one, other = from_text(np.array([[2]], np.uint8)), SegmentationMap(np.array([[2]]))
    assert one == other
    # Equal maps hash equal, off their runs: hashing keeps no grid.
    twin = from_text(grid)
    assert hash(twin) == hash(seg) and not has_grid(twin)


@pytest.mark.parametrize("decoded", [False, True])
@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
def test_copies_keep_the_runs_and_the_text(decoded, clone):
    grid = np.array([[0, 1, 1], [2, 3, 3]], dtype=np.uint8)
    seg = from_text(grid)
    if decoded:
        seg.labels  # noqa: B018
    twin = clone(seg)
    assert has_grid(twin) == decoded
    assert (twin.width, twin.height) == (3, 2)
    assert canonical_dumps(_to_json(twin)) == canonical_dumps(_to_json(seg))
    assert np.array_equal(twin.labels, grid)
    assert embryo_roi(twin, 1) == embryo_roi(seg, 1)


# ---------------------------------------------------------------------------
# pixel_accuracy on runs


class TestPixelAccuracy:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), shapes, st.sets(st.integers(0, 3), min_size=1))
    def test_four_class_maps_with_absent_classes(self, data, shape, present):
        truth = data.draw(label_grids(shape, st.sampled_from(sorted(present))))
        pred = data.draw(label_grids(shape))
        for p in (SegmentationMap(pred), from_text(pred)):
            for t in (SegmentationMap(truth), from_text(truth)):
                assert_same_accuracy(p, t, pred, truth)
        assert not has_grid(p) and not has_grid(t)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), shapes, st.sampled_from([np.int64, np.int16, np.float64]))
    def test_arrays_with_labels_outside_the_classes(self, data, shape, dtype):
        values = st.sampled_from([-2, -1, 0, 1, 2, 3, 4, 7, 255])
        pred = data.draw(arrays(dtype, shape, elements=values))
        truth = data.draw(arrays(dtype, shape, elements=values))
        assert_same_accuracy(pred, truth)
        assert_same_accuracy(pred.ravel(), truth.ravel())

    def test_float_labels_are_compared_exactly(self):
        truth = np.array([2.0, 2.5, np.nan, 3.0, -0.0])
        pred = np.array([2.0, 2.5, np.nan, 1.0, 0.0])
        assert_same_accuracy(pred, truth)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("t", range(4))
    def test_one_pixel_maps(self, p, t):
        pred, truth = np.array([[p]], np.uint8), np.array([[t]], np.uint8)
        assert_same_accuracy(from_text(pred), from_text(truth), pred, truth)
        assert_same_accuracy(SegmentationMap(pred), from_text(truth), pred, truth)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.lists(shapes, min_size=1, max_size=4))
    def test_movies_whose_frames_differ_in_size(self, data, frame_shapes):
        preds = [data.draw(label_grids(s)) for s in frame_shapes]
        truths = [data.draw(label_grids(s)) for s in frame_shapes]
        p_flat = np.concatenate([g.ravel() for g in preds])
        t_flat = np.concatenate([g.ravel() for g in truths])
        pred = [from_text(g) if k % 2 else SegmentationMap(g) for k, g in enumerate(preds)]
        truth = [from_text(g) for g in truths]
        assert_same_accuracy(pred, tuple(truth), p_flat, t_flat)
        # The same pixels cut into other frames are the same line.
        cut = [from_text(t_flat[:1].reshape(1, 1))]
        if t_flat.size > 1:
            cut.append(from_text(t_flat[1:].reshape(1, -1)))
        assert_same_accuracy(pred, cut, p_flat, t_flat)
        assert_same_accuracy(p_flat, truth, p_flat, t_flat)
        assert not any(map(has_grid, truth + cut))

    def test_mismatched_totals(self):
        a, b = from_text(np.zeros((2, 3), np.uint8)), from_text(np.zeros((3, 3), np.uint8))
        with pytest.raises(ShapeMismatchError):
            pixel_accuracy([a, a], [a, b])
        with pytest.raises(ShapeMismatchError):
            pixel_accuracy([a], a)  # a movie against one map
        with pytest.raises(ShapeMismatchError):
            pixel_accuracy(a, from_text(np.zeros((3, 2), np.uint8)))

    @pytest.mark.parametrize("empty", [[], (), np.zeros(0, np.uint8)])
    def test_empty_input(self, empty):
        with pytest.raises(EmptyInputError):
            pixel_accuracy([], empty)


# ---------------------------------------------------------------------------
# embryo_roi on runs


def assert_roi_off_the_runs(grid: np.ndarray):
    seg = from_text(grid)
    for side in {1, min(grid.shape)}:
        try:
            expected = full_grid_roi(SegmentationMap(grid), side)
        except NoEmbryoError:
            with pytest.raises(NoEmbryoError):
                embryo_roi(seg, side)
            with pytest.raises(NoEmbryoError):
                embryo_roi(SegmentationMap(grid), side)
        else:
            assert embryo_roi(seg, side) == expected
            assert embryo_roi(SegmentationMap(grid), side) == expected
    assert not has_grid(seg)


class TestEmbryoRoi:
    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(label_grids))
    def test_random_maps(self, grid):
        assert_roi_off_the_runs(grid)

    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(lambda s: label_grids(s, st.sampled_from([0, 0, 0, 1, 2, 3]))))
    def test_sparse_zona(self, grid):
        assert_roi_off_the_runs(grid)

    def test_zona_run_across_a_row_break(self):
        grid = np.zeros((4, 6), np.uint8)
        grid[1, 4:] = 2
        grid[2, :1] = 2  # one run from (4, 1) to (0, 2): every column
        assert_roi_off_the_runs(grid)
        assert embryo_roi(from_text(grid), 1).center == (3, 2)

    @pytest.mark.parametrize("label", [2, 3])
    def test_zona_at_the_last_pixel(self, label):
        grid = np.ones((3, 4), np.uint8)
        grid[-1, -1] = label
        assert_roi_off_the_runs(grid)
        assert embryo_roi(from_text(grid), 1).center == (3, 2)

    def test_no_zona(self):
        grid = np.array([[0, 1], [1, 0]], np.uint8)
        with pytest.raises(NoEmbryoError):
            embryo_roi(from_text(grid))
        assert_roi_off_the_runs(grid)


# ---------------------------------------------------------------------------
# Through the CLI


def test_run_and_eval_decode_no_grid(tmp_path, monkeypatch):
    """Every map that `run` and `eval` read from a seed-0 bundle ends the
    command without a grid."""
    assert main(["synth", "--out", str(tmp_path / "data"), "--embryos", "1", "--seed", "0"]) == 0
    embryo = tmp_path / "data" / "synth-0000"
    read = []

    def recorded(obj):
        read.append(seg_map_from_obj(obj))
        return read[-1]

    monkeypatch.setattr(serialize, "seg_map_from_obj", recorded)
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends",
                 str(embryo), "--out", str(tmp_path / "result.json")]) == 0
    n_run = len(read)
    assert main(["eval", "--result", str(tmp_path / "result.json"), "--truth",
                 str(embryo / "truth.json"), "--out", str(tmp_path / "report.json")]) == 0
    # 40 backend maps for run; 40 result and 40 truth maps for eval.
    assert (n_run, len(read)) == (40, 120)
    assert not any(map(has_grid, read))
