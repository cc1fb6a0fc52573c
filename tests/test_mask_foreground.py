"""Masks built in bulk hold their foreground runs from birth.

`synth._disk_masks` and `serialize._masks_from_objs` hand each mask the flat
(starts, stops) of its foreground runs that their numpy pass computed, as
read-only int64 views of that pass's arrays; `BinaryMask._foreground`
returns them, and `geometry._pair_iou` lays them end to end with no pass
over the run tuples. A mask built by `BinaryMask(...)` or `from_array`
computes them on each call and keeps nothing.

The reference is the running sum of the runs: its even entries start the
foreground runs and its odd ones stop them.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embryometrics.cli import main
from embryometrics.geometry import _pair_iou, iou_matrix
from embryometrics.model import BinaryMask
from embryometrics.serialize import (
    _masks_from_objs,
    mask_to_obj,
    read_backend_tables,
    read_json,
    synth_config_to_obj,
    truth_from_obj,
    write_json,
)
from embryometrics.synth import SynthConfig, _disk_masks

from conftest import disk_array
from test_bulk_masks import grids
from test_fast_paths import boxed_iou_matrix

FIELDS = {"width", "height", "runs"}


def reference(mask: BinaryMask) -> tuple[np.ndarray, np.ndarray]:
    ends = np.cumsum(np.array(mask.runs, dtype=np.int64))
    return ends[:-1:2], ends[1::2]


def assert_foreground(mask: BinaryMask):
    starts, stops = mask._foreground()
    want_starts, want_stops = reference(mask)
    assert starts.dtype == stops.dtype == np.int64
    assert np.array_equal(starts, want_starts) and np.array_equal(stops, want_stops)


def assert_held(masks: list[BinaryMask]):
    """Each mask holds its runs, read-only views of the two arrays of the
    one pass that built them all, shared by a deep copy and outside `==`,
    hash and repr."""
    bases = set()
    for mask in masks:
        assert_foreground(mask)
        starts, stops = mask._foreground()
        assert not starts.flags.writeable and not stops.flags.writeable
        assert mask._foreground()[0] is starts and mask._foreground()[1] is stops
        bases.add((id(starts.base), id(stops.base)))
        clone = copy.deepcopy(mask)
        assert clone._foreground()[0] is starts and clone._foreground()[1] is stops
        plain = BinaryMask(mask.width, mask.height, mask.runs)
        assert mask == plain and plain == mask and hash(mask) == hash(plain)
        assert repr(mask) == repr(plain)
        assert vars(plain).keys() == FIELDS
    assert len(bases) <= 1


circles = st.tuples(
    st.floats(-30, 80, allow_nan=False),
    st.floats(-30, 80, allow_nan=False),
    st.floats(0, 60, allow_nan=False),
)


class TestSynthDisks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 48), st.lists(circles, max_size=12))
    # Empty masks: off the grid, and a radius below one pixel's reach.
    @example(48, [(-10.0, -10.0, 5.0), (20.5, 20.5, 0.1)])
    # The last run is foreground: a disk on the last pixel, and one that
    # covers the grid, whose full-width rows join into one run.
    @example(48, [(47.0, 47.0, 6.0), (24.0, 24.0, 60.0)])
    # Clipped at each edge, with full-width rows joined across row breaks.
    @example(48, [(0.0, 24.0, 10.0), (47.0, 24.0, 10.0), (24.0, 0.0, 10.0), (24.0, 47.0, 10.0)])
    @example(48, [(24.0, 24.0, 30.0), (24.0, -20.0, 30.0), (24.0, 70.0, 30.0)])
    @example(1, [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    def test_held_runs_are_the_running_sum(self, size, discs):
        assert_held(_disk_masks(size, discs))

    def test_full_rows_join_across_row_breaks(self):
        (mask,) = _disk_masks(16, [(8.0, 8.0, 40.0)])
        starts, stops = mask._foreground()
        assert mask.runs == (0, 256)
        assert starts.tolist() == [0] and stops.tolist() == [256]

    def test_empty_disk_holds_no_runs(self):
        (mask,) = _disk_masks(48, [(-10.0, -10.0, 5.0)])
        starts, stops = mask._foreground()
        assert starts.size == stops.size == 0 and "_tight_bbox" not in vars(mask)


class TestReadBack:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(grids(), min_size=1, max_size=8))
    def test_held_runs_are_the_running_sum(self, arrays):
        # The grids hold empty and full masks, whole rows whose runs cross
        # row breaks, and random pixels whose last run may be foreground.
        assert_held(_masks_from_objs([mask_to_obj(BinaryMask.from_array(a)) for a in arrays]))


SMALL = SynthConfig(frames=6, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))


@pytest.fixture(scope="module")
def embryo(tmp_path_factory):
    root = tmp_path_factory.mktemp("foreground")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "3"]) == 0
    return root / "data" / "synth-0000"


@pytest.mark.parametrize("key", ["cells", "pronuclei"])
def test_candidate_files_read_back(embryo, key):
    tables = read_backend_tables(embryo / "backend")
    masks = [c.mask for candidates in tables[key].values() for c in candidates]
    assert masks
    assert_held(masks)


@pytest.mark.parametrize("field", ["cell_masks", "pronucleus_masks"])
def test_truth_file_read_back(embryo, field):
    truth = truth_from_obj(read_json(embryo / "truth.json"))
    masks = [m for frame in getattr(truth, field) for m in frame]
    assert masks
    assert_held(masks)


class TestBuiltOneAtATime:
    @settings(max_examples=100, deadline=None)
    @given(grids())
    def test_computed_on_each_call_and_not_kept(self, array):
        encoded = BinaryMask.from_array(array)
        for mask in (encoded, BinaryMask(encoded.width, encoded.height, encoded.runs)):
            assert_foreground(mask)
            assert mask._foreground()[0] is not mask._foreground()[0]
            iou_matrix([mask], [mask])
            assert vars(mask).keys() == FIELDS


def test_pickle_round_trip_reads_the_same_runs():
    for mask in _disk_masks(32, [(10.0, 12.0, 6.0), (-9.0, 0.0, 2.0)]):
        back = pickle.loads(pickle.dumps(mask))
        assert back == mask and hash(back) == hash(mask)
        assert_foreground(back)


@st.composite
def mixed_routes(draw) -> list[BinaryMask]:
    """Masks of one grid from every birth route, in a shuffled order, with
    some repeated: synth disks, disks read back, masks built through the
    constructor and from arrays, which hold no box."""
    size = draw(st.integers(4, 40))
    disc = st.tuples(
        st.floats(-8.0, size + 8.0, allow_nan=False),
        st.floats(-8.0, size + 8.0, allow_nan=False),
        st.floats(0.0, size, allow_nan=False),
    )
    synth = _disk_masks(size, draw(st.lists(disc, max_size=4)))
    read = _masks_from_objs(
        [mask_to_obj(m) for m in _disk_masks(size, draw(st.lists(disc, max_size=4)))]
    )
    built = [
        BinaryMask(size, size, m.runs) for m in _disk_masks(size, draw(st.lists(disc, max_size=3)))
    ]
    arrays = [BinaryMask.from_array(disk_array(size, *d)) for d in draw(st.lists(disc, max_size=3))]
    masks = draw(st.permutations(synth + read + built + arrays))
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=3))
    return masks


class TestMixedKernelCall:
    @pytest.mark.parametrize("floor", [0.0, 0.3, 0.5, 0.9])
    @settings(max_examples=100, deadline=None)
    @given(mixed_routes())
    def test_equals_the_boxed_reference(self, floor, masks):
        n = len(masks)
        pi, pj = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        got = _pair_iou(masks, pi, pj, floor)
        # The kernel left no box on a mask that held none.
        assert all(vars(m).keys() == FIELDS for m in masks if "_held" not in vars(m))
        want = boxed_iou_matrix(masks, masks).ravel()
        reached = want >= floor
        assert np.array_equal(got[reached], want[reached])
        assert np.all((got[~reached] == want[~reached]) | (got[~reached] == 0.0))
