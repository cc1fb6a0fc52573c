"""The pair-list mask kernel and its callers against slow references.

`_pair_iou` is checked pair by pair against the dense `mask_iou`;
`_merge_pools` pool by pool against the greedy suppression that
`merge_across_planes` ran on its own, with `mask_iou` or the boxed kernel
taken for each pair, on Hypothesis pools and on every noisy synth pool of
a movie in one call; the mAP blocks' one kernel call per block against `iou_matrix`
image by image. `BinaryMask`'s deep copy is checked against the copy
`copy.deepcopy` built field by field.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embryometrics.errors import MixedKindsError, ShapeMismatchError
from embryometrics.geometry import (
    _merge_pools,
    _pair_iou,
    iou_matrix,
    mask_iou,
    merge_across_planes,
)
from embryometrics.metrics import _average_precisions, mean_average_precision
from embryometrics.model import BinaryMask, CandidateKind
from embryometrics.synth import NoiseConfig, SynthConfig, generate_movie, render_model_outputs

from conftest import candidate, disk_mask
from test_fast_paths import (
    EMPTY,
    GRID,
    boxed_iou_matrix,
    mask_arrays,
    nested_disks,
    synth_disks,
)


def reference_merge(candidates, threshold, iou=mask_iou):
    """`merge_across_planes` as it was: one pool, the greedy suppression
    with `iou(a, b)` of two masks taken pair by pair."""
    if not candidates:
        return []
    if len({c.kind for c in candidates}) > 1:
        raise MixedKindsError("cannot merge cell and pronucleus candidates together")
    order = sorted(candidates, key=lambda c: (-c.confidence, c.plane, c.bbox[0]))
    suppressed = [False] * len(order)
    survivors = []
    for i, cand in enumerate(order):
        if suppressed[i]:
            continue
        survivors.append(cand)
        for j in range(i + 1, len(order)):
            if iou(cand.mask, order[j].mask) >= threshold:
                suppressed[j] = True
    return survivors


def assert_pairs_exact(masks, pi, pj, floor):
    """At or above the floor each pair is `mask_iou`'s float; below it,
    that float or 0."""
    got = _pair_iou(masks, np.array(pi, dtype=np.intp), np.array(pj, dtype=np.intp), floor)
    assert got.shape == (len(pi),)
    for value, i, j in zip(got.tolist(), pi, pj):
        exact = mask_iou(masks[i], masks[j])
        if exact >= floor:
            assert value == exact
        else:
            assert value in (exact, 0.0)


@st.composite
def pair_lists(draw):
    """Disks on the synth grid with empty masks and repeated objects mixed
    in, pairs drawn with repeats and i == j, and a floor: 0, any float, a
    round value, or one of the list's own IoUs."""
    masks = draw(st.one_of(synth_disks(), nested_disks()))
    for _ in range(draw(st.integers(0, 2))):
        masks.insert(draw(st.integers(0, len(masks))), EMPTY)
    for _ in range(draw(st.integers(0, 2))):
        masks.append(masks[draw(st.integers(0, len(masks) - 1))])
    index = st.integers(0, len(masks) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=20))
    seen = [mask_iou(masks[i], masks[j]) for i, j in pairs]
    floors = [
        st.just(0.0),
        st.floats(0.0, 1.0),
        st.sampled_from([0.3, 0.5, 0.7, 0.9, 1.0]),
    ]
    if any(seen):
        floors.append(st.sampled_from([v for v in seen if v > 0]))
    return masks, [i for i, _ in pairs], [j for _, j in pairs], draw(st.one_of(*floors))


@st.composite
def grids_of_two_sizes(draw):
    """Masks on two small grids in one list, and pairs within each grid."""
    lists = []
    for _ in range(2):
        width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        arrays = draw(st.lists(mask_arrays(width, height), min_size=1, max_size=4))
        lists.append([BinaryMask.from_array(a) for a in arrays])
    masks = [m for grid in lists for m in draw(st.permutations(grid))]
    same = [
        (i, j)
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if (a.width, a.height) == (b.width, b.height)
    ]
    pairs = draw(st.lists(st.sampled_from(same), max_size=20))
    return masks, [i for i, _ in pairs], [j for _, j in pairs]


class TestPairIou:
    @settings(deadline=None)
    @given(pair_lists())
    def test_equals_mask_iou_at_the_floor(self, case):
        assert_pairs_exact(*case)

    @settings(deadline=None)
    @given(grids_of_two_sizes(), st.floats(0.0, 1.0))
    def test_grids_of_two_sizes_in_one_call(self, case, floor):
        assert_pairs_exact(*case, floor)

    def test_named_pairs(self):
        big = disk_mask(GRID, 100, 100, 40)
        small = disk_mask(GRID, 100, 100, 10)
        far = disk_mask(GRID, 400, 400, 10)
        masks = [big, small, EMPTY, big, far]
        pi = [0, 0, 0, 1, 2, 2, 0, 1, 1]
        pj = [0, 3, 1, 0, 2, 0, 4, 4, 1]
        got = _pair_iou(masks, np.array(pi), np.array(pj), 0.5)
        # i == j and the same object twice are 1; the nested pair's bound
        # is below 0.5, so it reads 0; empty and disjoint pairs are 0.
        assert got.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        low = _pair_iou(masks, np.array([0, 1]), np.array([1, 0]), 0.0)
        assert low.tolist() == [mask_iou(big, small)] * 2

    def test_no_pairs(self):
        assert _pair_iou([], np.zeros(0, np.intp), np.zeros(0, np.intp)).shape == (0,)
        assert _pair_iou([EMPTY], np.zeros(0, np.intp), np.zeros(0, np.intp)).shape == (0,)

    def test_a_pair_of_two_sizes_raises(self):
        small = BinaryMask.from_array(np.ones((2, 3)))
        large = BinaryMask.from_array(np.ones((3, 3)))
        # Unpaired masks of another size are fine; a pair across sizes is not.
        assert _pair_iou([small, large], np.array([0]), np.array([0])).tolist() == [1.0]
        with pytest.raises(ShapeMismatchError):
            _pair_iou([small, large], np.array([0, 1]), np.array([0, 0]))


@st.composite
def candidate_pools(draw):
    """Up to four pools of overlapping disks, cell or pronucleus, some
    empty or with one candidate, with confidences that often tie."""
    pools = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(list(CandidateKind)))
        masks = [m for m in draw(st.one_of(synth_disks(), nested_disks())) if m.area]
        masks = masks[: draw(st.integers(0, 6))]
        pools.append([
            candidate(
                m,
                draw(st.sampled_from([0.2, 0.5, 0.9, 1.0])),
                draw(st.integers(2, 4)),
                kind,
            )
            for m in masks
        ])
    return pools


class TestMergePools:
    @settings(deadline=None)
    @given(candidate_pools(), st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]))
    def test_equals_greedy_pool_by_pool(self, pools, threshold):
        merged = _merge_pools(pools, threshold)
        assert len(merged) == len(pools)
        for got, pool in zip(merged, pools):
            assert list(map(id, got)) == list(map(id, reference_merge(pool, threshold)))
            assert list(map(id, merge_across_planes(pool, threshold))) == list(map(id, got))

    def test_empty_and_single_pools(self):
        one = candidate(disk_mask(GRID, 100, 100, 20), 0.5)
        assert _merge_pools([]) == []
        assert _merge_pools([[], [one], []]) == [[], [one], []]
        assert merge_across_planes([]) == []

    def test_cell_and_pronucleus_pools_in_one_call(self):
        disk = disk_mask(GRID, 100, 100, 20)
        cells = [candidate(disk, 0.5, 2), candidate(disk, 0.5, 3)]
        pronuclei = [candidate(disk, 0.4, p, CandidateKind.PRONUCLEUS) for p in (4, 2)]
        # Equal masks in two pools do not suppress each other across pools.
        assert _merge_pools([cells, pronuclei]) == [[cells[0]], [pronuclei[1]]]

    def test_a_mixed_pool_raises(self):
        disk = disk_mask(GRID, 100, 100, 20)
        mixed = [candidate(disk, 0.5), candidate(disk, 0.5, 3, CandidateKind.PRONUCLEUS)]
        with pytest.raises(MixedKindsError):
            _merge_pools([[candidate(disk, 0.5)], mixed])
        with pytest.raises(MixedKindsError):
            merge_across_planes(mixed)


def iou_table(masks, matrix):
    """`iou(a, b)` of two of `masks`, read from their (n, n) `matrix`."""
    at = {id(m): k for k, m in enumerate(masks)}
    return lambda a, b: matrix[at[id(a)], at[id(b)]]


def memo_mask_iou():
    """`mask_iou`, computed once per pair of mask objects."""
    seen = {}

    def iou(a, b):
        key = (id(a), id(b))
        if key not in seen:
            seen[key] = mask_iou(a, b)
        return seen[key]

    return iou


@pytest.mark.parametrize("seed", [0, 1])
def test_synth_pools_in_one_call(seed):
    """Every cell and pronucleus pool of a noisy synth movie, merged in one
    `_merge_pools` call as `run_pipeline` does, keeps the survivors, in the
    same order, that the greedy keeps with `mask_iou` pair by pair and
    with the boxed kernel."""
    cfg = SynthConfig(
        seed=seed,
        frames=40,
        noise=NoiseConfig(mask_jitter_px=3.0, confidence_sigma=0.05),
    )
    _, truth = generate_movie(cfg)
    rendered = render_model_outputs(truth, cfg)
    pools = [
        [c for plane in sorted(frame) for c in frame[plane]]
        for frame in (*rendered.cells, *rendered.pronuclei)
    ]
    pools = [pool for pool in pools if pool]
    assert len(pools) >= 24 and max(map(len, pools)) == 24
    assert len({pool[0].kind for pool in pools}) == 2
    exact = memo_mask_iou()
    boxed = [
        iou_table(masks, boxed_iou_matrix(masks, masks))
        for masks in ([c.mask for c in pool] for pool in pools)
    ]
    ids = lambda merged: [list(map(id, survivors)) for survivors in merged]  # noqa: E731
    kept = {}
    for threshold in (0.3, 0.5, 0.7, 0.9):
        merged = _merge_pools(pools, threshold)
        assert ids(merged) == ids(reference_merge(p, threshold, exact) for p in pools)
        assert ids(merged) == ids(
            reference_merge(p, threshold, iou) for p, iou in zip(pools, boxed)
        )
        kept[threshold] = sum(map(len, merged))
    # The merge is not trivial: at 0.5 it drops candidates, yet keeps more
    # than one per pool on average.
    assert len(pools) < kept[0.5] < sum(map(len, pools))


@st.composite
def detection_sets(draw):
    """Images of one or two grid sizes, any of which may have no
    predictions or no truths, with at least one truth in all."""
    sizes = draw(st.lists(st.sampled_from([GRID, 64]), min_size=1, max_size=5))
    preds, truths = [], []
    for size in sizes:
        centre, radius = st.floats(0.0, size), st.floats(2.0, size / 4)
        disks = lambda n: [  # noqa: E731
            disk_mask(size, draw(centre), draw(centre), draw(radius)) for _ in range(n)
        ]
        masks = [m for m in disks(draw(st.integers(0, 3))) if m.area]
        preds.append([candidate(m, draw(st.sampled_from([0.3, 0.6, 0.9]))) for m in masks])
        truths.append(disks(draw(st.integers(0, 3))))
    if not any(truths):
        truths[0].append(disk_mask(sizes[0], 10, 10, 5))
    return preds, truths


class TestDetectionBlockCall:
    @settings(deadline=None, max_examples=50)
    @given(detection_sets())
    def test_block_matrices_equal_iou_matrix_per_image(self, case):
        preds, truths = case
        _, ious = _average_precisions(preds, truths, [0.5])
        assert len(ious) == len(preds)
        for iou, p, t in zip(ious, preds, truths):
            assert np.array_equal(iou, iou_matrix([c.mask for c in p], t))

    def test_images_of_two_sizes(self):
        a, b = disk_mask(GRID, 100, 100, 20), disk_mask(64, 30, 30, 10)
        assert mean_average_precision([[candidate(a, 0.9)], [candidate(b, 0.8)]], [[a], [b]]) == 1.0


class TestMaskDeepcopy:
    def test_copy_shares_the_runs(self):
        mask = disk_mask(GRID, 100, 100, 20)
        clone = copy.deepcopy(mask)
        assert clone == mask and clone is not mask
        assert clone.runs is mask.runs

    def test_box_first_computed_on_the_copy_stays_there(self):
        mask = disk_mask(GRID, 100, 100, 20)
        clone = copy.deepcopy(mask)
        assert clone.tight_bbox() == (80, 80, 41, 41)
        assert "_tight_bbox" in clone.__dict__ and "_tight_bbox" not in mask.__dict__

    def test_cached_box_comes_along(self):
        mask = disk_mask(GRID, 100, 100, 20)
        box = mask.tight_bbox()
        assert copy.deepcopy(mask).__dict__["_tight_bbox"] is box

    def test_one_copy_per_mask_in_a_container(self):
        mask = disk_mask(GRID, 100, 100, 20)
        first, second = copy.deepcopy([mask, mask])
        assert first is second and first is not mask
