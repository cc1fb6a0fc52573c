"""Each fast mask path against the slow reference it replaced.

The run-based IoU kernel is checked against the dense `mask_iou` and the
bounding-box kernel it replaced, and at a floor against itself without
one; the `np.repeat` mask decoder, the vectorised segmentation-map
encoder and the run-based bounding box are checked against the code they
replaced. Replaced code is kept here as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embryometrics import geometry
from embryometrics.errors import ShapeMismatchError, ValidationError
from embryometrics.gating import average_fragmentation
from embryometrics.geometry import iou_matrix, mask_iou, merge_across_planes
from embryometrics.model import BinaryMask, FragmentationScore, SegmentationMap
from embryometrics.serialize import seg_map_to_obj
from embryometrics.synth import (
    NoiseConfig,
    SynthConfig,
    generate_movie,
    render_model_outputs,
)

from conftest import disk_array


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


def boxed_iou_matrix(a, b, _floor=0.0) -> np.ndarray:
    """The decode-and-count-inside-the-box-overlap `iou_matrix` used to be.
    It ignores `_floor` and computes every pair exactly."""
    if not a or not b:
        return np.zeros((len(a), len(b)))
    dims = {(m.width, m.height) for m in (*a, *b)}
    if len(dims) > 1:
        raise ShapeMismatchError(f"masks have mixed dimensions: {dims}")

    def boxed(masks):
        return [(m.tight_bbox() if m.area else (0, 0, 0, 0), m.to_array()) for m in masks]

    inter = np.zeros((len(a), len(b)), dtype=np.int64)
    boxed_b = boxed(b)
    for i, ((ax, ay, aw, ah), pa) in enumerate(boxed_b if a is b else boxed(a)):
        for j, ((bx, by, bw, bh), pb) in enumerate(boxed_b):
            y0, y1 = max(ay, by), min(ay + ah, by + bh)
            x0, x1 = max(ax, bx), min(ax + aw, bx + bw)
            if y0 < y1 and x0 < x1:
                inter[i, j] = np.count_nonzero(pa[y0:y1, x0:x1] & pb[y0:y1, x0:x1])
    union = np.array([[m.area] for m in a]) + np.array([m.area for m in b]) - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)


def boxed_pair_iou(masks, pi, pj, floor=0.0) -> np.ndarray:
    """`geometry._pair_iou` pair by pair through `boxed_iou_matrix`; like
    it, this ignores `floor`."""
    return np.array(
        [boxed_iou_matrix([masks[i]], [masks[j]])[0, 0] for i, j in zip(pi, pj)], dtype=float
    )


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


GRID = 500


@st.composite
def synth_disks(draw) -> list[BinaryMask]:
    """Disks on the synth grid, drawn with `conftest.disk_array`: centres anywhere
    on or off the grid, so disks clip at every edge; radii from sub-pixel
    up; each later disk touches or overlaps the one before it."""
    centre = st.one_of(
        st.sampled_from([0.0, 0.5, GRID - 1.0, GRID - 0.5, float(GRID)]),
        st.floats(-40.0, GRID + 40.0),
    )
    radius = st.one_of(st.floats(0.0, 1.5), st.floats(1.5, 90.0))
    disks = [(draw(centre), draw(centre), draw(radius))]
    for _ in range(draw(st.integers(0, 4))):
        cx, cy, r = disks[-1]
        r2 = draw(radius)
        # Centre distance r + r2 touches; anything shorter overlaps.
        d = r + r2 - draw(st.floats(-0.5, r + r2))
        angle = draw(st.floats(0.0, 2 * math.pi))
        disks.append((cx + d * math.cos(angle), cy + d * math.sin(angle), r2))
    return [BinaryMask.from_array(disk_array(GRID, *c)) for c in disks]


def assert_three_kernels_agree(a, b):
    iou = iou_matrix(a, b)
    assert np.array_equal(iou, boxed_iou_matrix(a, b))
    for i, ma in enumerate(a):
        for j, mb in enumerate(b):
            assert iou[i, j] == mask_iou(ma, mb)


class TestRunKernel:
    """`iou_matrix` reads overlaps off the runs; the dense `mask_iou` and
    the bounding-box kernel it replaced must give the same floats."""

    @settings(max_examples=100, deadline=None)
    @given(synth_disks(), st.data())
    def test_synth_disks_equal_references(self, masks, data):
        assert_three_kernels_agree(masks, masks)
        split = data.draw(st.integers(0, len(masks)))
        assert_three_kernels_agree(masks[:split], masks[split:])

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            # Full grid: one run ending at the last flat index.
            ([[1, 1, 1], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]], 1.0),
            ([[1, 1, 1], [1, 1, 1]], [[0, 0, 0], [0, 1, 1]], 2 / 6),
            ([[0, 0, 0], [0, 0, 1]], [[1, 1, 1], [1, 1, 1]], 1 / 6),
            ([[1, 1, 1], [1, 1, 1]], [[0, 0, 0], [0, 0, 0]], 0.0),
            # Runs that wrap across a row break.
            ([[0, 0, 1], [1, 1, 0]], [[0, 0, 1], [0, 1, 1]], 2 / 4),
            ([[0, 1, 1], [1, 0, 0]], [[0, 0, 0], [1, 0, 0]], 1 / 3),
            ([[0, 0, 1], [1, 0, 0]], [[1, 0, 0], [0, 0, 1]], 0.0),
            ([[0, 0, 1], [1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 1, 1], [1, 0, 0]], 1 / 5),
        ],
    )
    def test_hand_cases(self, a, b, expected):
        ma = BinaryMask.from_array(np.array(a))
        mb = BinaryMask.from_array(np.array(b))
        assert iou_matrix([ma], [mb])[0, 0] == expected == mask_iou(ma, mb)
        assert boxed_iou_matrix([ma], [mb])[0, 0] == expected
        assert iou_matrix([mb], [ma])[0, 0] == expected

    def test_empty_masks_on_either_side(self):
        full = BinaryMask.from_array(np.ones((2, 3)))
        empty = BinaryMask.from_array(np.zeros((2, 3)))
        corner = BinaryMask.from_array(np.array([[0, 0, 0], [0, 0, 1]]))
        masks = [empty, full, corner, empty]
        iou = iou_matrix(masks, masks)
        assert iou.tolist() == [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1 / 6, 0.0],
            [0.0, 1 / 6, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        assert np.array_equal(iou, boxed_iou_matrix(masks, masks))


@pytest.mark.parametrize("seed", [0, 1])
def test_merge_matches_boxed_kernel(seed, monkeypatch):
    """Merging noisy synth candidates through the run kernel keeps the
    same survivors, in the same order, as through the boxed kernel."""
    cfg = SynthConfig(
        seed=seed,
        frames=8,
        noise=NoiseConfig(mask_jitter_px=3.0, confidence_sigma=0.05),
    )
    _, truth = generate_movie(cfg)
    rendered = render_model_outputs(truth, cfg)
    pools = [
        [c for plane in sorted(frame) for c in frame[plane]]
        for frame in (*rendered.cells, *rendered.pronuclei)
    ]
    pools = [pool for pool in pools if pool]
    thresholds = (0.3, 0.5, 0.7, 0.9)
    runs = [[merge_across_planes(p, t) for p in pools] for t in thresholds]
    monkeypatch.setattr(geometry, "_pair_iou", boxed_pair_iou)
    boxed = [[merge_across_planes(p, t) for p in pools] for t in thresholds]
    assert len(pools) >= 8
    for merged, reference in zip(runs, boxed):
        assert [list(map(id, m)) for m in merged] == [list(map(id, m)) for m in reference]
    # The merge is not trivial: it drops candidates, yet keeps more than
    # one per frame on average.
    kept = sum(len(m) for m in runs[1])
    assert len(pools) < kept < sum(len(p) for p in pools)


def assert_floor_contract(a, b, floor):
    """At `floor`, an entry whose IoU reaches the floor is the exact float
    of `mask_iou` and of the unfloored matrix; one below it is exact or 0."""
    full = iou_matrix(a, b)
    floored = iou_matrix(a, b, floor)
    assert floored.shape == full.shape == (len(a), len(b))
    for i, ma in enumerate(a):
        for j, mb in enumerate(b):
            exact = mask_iou(ma, mb)
            assert full[i, j] == exact
            if exact >= floor:
                assert floored[i, j] == exact
            else:
                assert floored[i, j] in (exact, 0.0)


@st.composite
def nested_disks(draw) -> list[BinaryMask]:
    """Disks inside one another on the synth grid, some clipped at an edge."""
    cx, cy = draw(st.floats(-20.0, GRID + 20.0)), draw(st.floats(-20.0, GRID + 20.0))
    r = draw(st.floats(1.0, 80.0))
    disks = [(cx, cy, r)]
    for _ in range(draw(st.integers(1, 3))):
        cx, cy, r = disks[-1]
        inner = r * draw(st.floats(0.0, 1.0))
        # Centre offset up to r - inner keeps the inner disk inside.
        d = (r - inner) * draw(st.floats(0.0, 1.0))
        angle = draw(st.floats(0.0, 2 * math.pi))
        disks.append((cx + d * math.cos(angle), cy + d * math.sin(angle), inner))
    return [BinaryMask.from_array(disk_array(GRID, *c)) for c in disks]


EMPTY = BinaryMask(GRID, GRID, (GRID * GRID,))


@st.composite
def floored_pools(draw) -> tuple[list[BinaryMask], list[BinaryMask], float]:
    """Touching, overlapping, clipped or nested disks with empty masks mixed
    in, split in two, and a floor in (0, 1]: any float, a round value, or
    one of the pool's own IoUs, so that entries equal to the floor occur."""
    masks = draw(st.one_of(synth_disks(), nested_disks()))
    for _ in range(draw(st.integers(0, 2))):
        masks.insert(draw(st.integers(0, len(masks))), EMPTY)
    split = draw(st.integers(0, len(masks)))
    a, b = (masks, masks) if draw(st.booleans()) else (masks[:split], masks[split:])
    seen = [v for v in iou_matrix(a, b).ravel().tolist() if v > 0]
    floors = [
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([0.3, 0.5, 0.7, 0.9, 1.0]),
    ]
    if seen:
        floors.append(st.sampled_from(seen))
    return a, b, draw(st.one_of(*floors))


class TestFlooredKernel:
    """`iou_matrix(a, b, floor)` skips the pairs whose box-and-area bound
    is below the floor; every entry that can reach it stays exact."""

    @settings(deadline=None)
    @given(floored_pools())
    def test_entries_at_the_floor_are_exact(self, pool):
        assert_floor_contract(*pool)

    @settings(deadline=None)
    @given(mask_sets(), st.floats(0.0, 1.0, exclude_min=True))
    def test_small_grids(self, sets, floor):
        assert_floor_contract(*sets, floor)

    def test_pairs_below_the_floor_read_zero(self):
        # Boxes overlap but the bound is below 0.5: the pair is not computed.
        big = BinaryMask.from_array(disk_array(GRID, 100, 100, 40))
        small = BinaryMask.from_array(disk_array(GRID, 100, 100, 10))
        assert 0 < mask_iou(big, small) < 0.5
        assert iou_matrix([big], [small], 0.5)[0, 0] == 0.0
        assert iou_matrix([big], [small], 0.01)[0, 0] == mask_iou(big, small)


def block_cases():
    """Masks at the edges of the flat index range of their grid, named."""
    tail = BinaryMask.from_array([[0, 0, 0], [0, 1, 1]])  # ends on the last pixel
    head = BinaryMask.from_array([[1, 1, 0], [0, 0, 0]])  # starts at pixel 0
    whole = BinaryMask.from_array(np.ones((2, 3)))
    across = BinaryMask.from_array([[0, 0, 1], [1, 1, 0]])  # a run over the row break
    across_too = BinaryMask.from_array([[0, 1, 1], [1, 0, 0]])
    corner = BinaryMask.from_array([[0, 0, 1], [0, 0, 0]])  # the break's first half
    row = [
        BinaryMask.from_array([bits])
        for bits in ([1, 1, 0, 0, 1], [0, 1, 1, 1, 1], [1] * 5)
    ]
    column = [
        BinaryMask.from_array(np.array([bits]).T) for bits in ([1, 1, 0, 1], [0, 1, 1, 1])
    ]
    empty = BinaryMask.from_array(np.zeros((2, 3)))
    return {
        "last pixel then pixel 0": ([tail, head, whole], [tail, head, whole]),
        "pixel 0 then last pixel": ([head, tail, whole], [head, tail, whole]),
        "last pixel against pixel 0": ([tail], [head, whole]),
        "pixel 0 against last pixel": ([head], [whole, tail]),
        "run across a row break": ([across, head, tail], [across_too, across, whole]),
        "row break against a corner": ([across_too], [corner, tail]),
        "full grid": ([whole, whole], [whole]),
        "1xN grid": (row, row[::-1]),
        "Nx1 grid": (column, column[::-1]),
        "same object both sides": ([across, across, tail], [tail, across]),
        "all empty": ([empty, empty], [empty]),
        "empty between": ([tail, empty, head], [head, empty, tail]),
    }


class TestFlatBlocks:
    """Mask k sits at flat indices [k*w*h, (k+1)*w*h) of one run array; runs
    at the ends of a block must not count pixels of the next."""

    @pytest.mark.parametrize("name", list(block_cases()))
    @pytest.mark.parametrize("floor", [0.0, 0.2, 0.5, 1.0])
    def test_equals_mask_iou(self, name, floor):
        a, b = block_cases()[name]
        assert_floor_contract(a, b, floor)
        assert_floor_contract(b, a, floor)
        assert np.array_equal(iou_matrix(a, b), boxed_iou_matrix(a, b))


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
