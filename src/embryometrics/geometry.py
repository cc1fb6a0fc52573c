"""ROI extraction, binary-mask arithmetic, and cross-plane merging.

The embryo ROI is a fixed-size square window centered on the zona
pellucida: downstream models expect one input size, so at image borders
the window shifts instead of shrinking. Detection candidates from the
three middle focal planes describe the same physical objects, so
overlapping candidates are merged by keeping the single most confident
one; masks are never fused or averaged.

One kernel, :func:`_pair_iou`, computes every mask overlap from a list of
pairs. Its callers are :func:`_iou_blocks` (the cross product of each of
several pairs of lists in one call; :func:`iou_matrix` is its one-block
case, and each mAP detection block is one call), the merge (the pairs
i < j within each pool, every pool of a movie in one call) and ``synth``
(candidate k against truth k).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import (
    MixedKindsError,
    NoEmbryoError,
    RoiBoundsError,
    ShapeMismatchError,
    ValidationError,
)
from .model import BinaryMask, InstanceCandidate, SegmentationMap
from .model import _checked_ints, _runs_bboxes

DEFAULT_ROI_SIDE = 328
DEFAULT_MERGE_IOU = 0.5


@dataclass(frozen=True)
class Roi:
    """A square crop window: top-left offset (x, y), side, and center."""

    x: int
    y: int
    side: int
    center: tuple[int, int]

    def __post_init__(self):
        x, y, side, *center = _checked_ints((self.x, self.y, self.side, *self.center), "ROI value")
        if len(center) != 2:
            raise ValidationError("ROI center must be an (x, y) pair")
        if side <= 0:
            raise ValidationError("ROI side must be positive")
        if x < 0 or y < 0:
            raise ValidationError("ROI offsets must be non-negative")
        for name, value in (("x", x), ("y", y), ("side", side), ("center", tuple(center))):
            object.__setattr__(self, name, value)


def _clamped_window(center: int, side: int, extent: int) -> int:
    """Top-left offset of a length-`side` window centered at `center`,
    shifted to fit [0, extent)."""
    if side > extent:
        raise RoiBoundsError(f"ROI side {side} exceeds image extent {extent}")
    return max(0, min(center - side // 2, extent - side))


def roi_around(
    center: tuple[int, int], side: int, width: int, height: int
) -> Roi:
    """Side x side window at `center`, shifted (never shrunk) into bounds."""
    cx, cy, side = _checked_ints((*center, side), "ROI value")
    return Roi(
        x=_clamped_window(cx, side, width),
        y=_clamped_window(cy, side, height),
        side=side,
        center=(cx, cy),
    )


def center_roi(width: int, height: int, side: int | None = None) -> Roi:
    """Image-centered ROI; the fallback when no embryo is found.

    With no side given, covers the full image (assumes square images).
    """
    if side is None:
        side = min(width, height)
    return roi_around((width // 2, height // 2), side, width, height)


def embryo_roi(seg_map: SegmentationMap, side: int = DEFAULT_ROI_SIDE) -> Roi:
    """ROI centered on the zona and its interior.

    The center is the tight bounding box center of all pixels labeled
    zona or inside-zona, with half-pixel midpoints rounded up so the
    result shifts exactly with the embryo. The box is the map's
    ``_zona_box()``: held by a map ``synth`` painted, else computed off
    the zona runs; the map is not decoded either way.

    Raises:
        NoEmbryoError: the map contains no zona / inside-zona pixels;
            callers should fall back to :func:`center_roi` and report it.
    """
    box = seg_map._zona_box()
    if box is None:
        raise NoEmbryoError("segmentation contains no zona or inside-zona pixels")
    x, y, w, h = box
    return roi_around((x + w // 2, y + h // 2), side, seg_map.width, seg_map.height)


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection-over-union of two equal-sized masks."""
    if (a.width, a.height) != (b.width, b.height):
        raise ShapeMismatchError(
            f"mask shapes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    aa = a.to_array()
    bb = b.to_array()
    union = int(np.logical_or(aa, bb).sum())
    if union == 0:
        return 0.0
    inter = int(np.logical_and(aa, bb).sum())
    return inter / union


def _pair_iou(
    masks: Sequence[BinaryMask], pi: np.ndarray, pj: np.ndarray, floor: float = 0.0
) -> np.ndarray:
    """IoU of ``masks[pi[k]]`` and ``masks[pj[k]]`` for every k, equal to
    :func:`mask_iou` wherever it is at least `floor`; a pair below it may
    read 0. This is the one mask-overlap kernel: :func:`iou_matrix`, the
    cross-plane merge, ``synth`` and the mAP blocks all call it.

    Masks are never decoded. Each distinct mask's foreground runs
    (``BinaryMask._foreground``) and tight box are read once, and the
    masks are laid end to end on one flat index line. A pair is
    computed only if its bound can reach the floor: the intersection is
    at most ``imax = min(area_a, area_b, overlap of the tight boxes)``, so
    IoU is at most ``imax / (area_a + area_b - imax)``, and float division
    rounds monotonically. A foreground run [s, e) of mask u shares
    C(e + d) - C(s + d) pixels with mask v, where d is the distance from
    u's first index to v's and C(x) counts every mask's foreground pixels
    below flat index x. IoU is the exact integer intersection over the
    union, as in the dense reference.
    """
    pi, pj = np.asarray(pi, dtype=np.intp), np.asarray(pj, dtype=np.intp)
    distinct = {id(m): m for m in masks}
    slot = {key: k for k, key in enumerate(distinct)}
    index = np.fromiter((slot[id(m)] for m in masks), np.intp, len(masks))
    u, v = index[pi], index[pj]
    dims = np.array([(m.width, m.height) for m in distinct.values()], np.int64).reshape(-1, 2)
    mismatched = np.flatnonzero((dims[u] != dims[v]).any(axis=1))
    if mismatched.size:
        (wa, ha), (wb, hb) = dims[u[mismatched[0]]], dims[v[mismatched[0]]]
        raise ShapeMismatchError(f"mask shapes differ: {wa}x{ha} vs {wb}x{hb}")

    held = [m._foreground() for m in distinct.values()]
    counts = np.array([s.size for s, _ in held], dtype=np.int64)  # foreground runs per mask
    size = dims.prod(axis=1)
    base = np.cumsum(size) - size  # each mask's first flat index
    # A sentinel run [-1, -1) first keeps every lookup below in range.
    shift = np.concatenate(([0], np.repeat(base, counts)))
    starts, stops = (np.concatenate(ends) + shift for ends in zip(([-1], [-1]), *held))
    before = np.concatenate(([0], np.cumsum(stops - starts)))  # C at each start
    first = np.cumsum(counts) - counts + 1  # index of each mask's first one
    area = before[first + counts] - before[first]

    # Tight boxes: cached, else from one `_runs_bboxes` call over the
    # masks without one; empty masks keep 0s.
    boxes = [m.__dict__.get("_tight_bbox") for m in distinct.values()]
    todo = [k for k, box in enumerate(boxes) if box is None and counts[k]]
    if todo:
        begin, end = (np.concatenate(ends) for ends in zip(*(held[k] for k in todo)))
        for k, (box, _) in zip(todo, _runs_bboxes(begin, end, dims[todo, 0], counts[todo])):
            boxes[k] = box
    box = np.array([b or (0, 0, 0, 0) for b in boxes], np.int64).reshape(-1, 4).T  # x, y, w, h
    lo, hi = box[:2], box[:2] + box[2:]
    span = np.minimum(hi[:, u], hi[:, v]) - np.maximum(lo[:, u], lo[:, v])
    total = area[u] + area[v]
    imax = np.minimum(np.minimum(area[u], area[v]), span.clip(0).prod(axis=0))
    bound = np.divide(imax, total - imax, out=np.zeros(imax.shape), where=imax > 0)
    live = np.flatnonzero((imax > 0) & (bound >= floor))

    # Every foreground run of mask u, moved into mask v's block.
    u, v = u[live], v[live]
    n = counts[u]
    run = np.repeat(first[u] - np.cumsum(n) + n, n) + np.arange(n.sum())
    shift = np.repeat(base[v] - base[u], n)

    def count_below(x):
        k = np.searchsorted(starts, x, side="right") - 1
        return before[k] + np.minimum(x, stops[k]) - starts[k]

    shared = count_below(stops[run] + shift) - count_below(starts[run] + shift)
    inter = np.zeros(total.shape, dtype=np.int64)
    inter[live] = np.bincount(np.repeat(np.arange(live.size), n), shared, live.size)
    union = total - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)


def _iou_blocks(
    blocks: Sequence[tuple[Sequence[BinaryMask], Sequence[BinaryMask]]],
    floor: float = 0.0,
) -> list[np.ndarray]:
    """The (len(a), len(b)) :func:`iou_matrix` of each (a, b) block, all
    blocks in one :func:`_pair_iou` call."""
    masks: list[BinaryMask] = []
    pi, pj = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for a, b in blocks:
        start = len(masks)  # block's row masks, then its column masks
        pi.append(np.repeat(np.arange(start, start + len(a)), len(b)))
        pj.append(np.tile(np.arange(start + len(a), start + len(a) + len(b)), len(a)))
        masks += [*a, *b]
    flat = _pair_iou(masks, np.concatenate(pi), np.concatenate(pj), floor)
    ends = list(accumulate((len(a) * len(b) for a, b in blocks), initial=0))
    return [
        flat[lo:hi].reshape(len(a), len(b))
        for (a, b), lo, hi in zip(blocks, ends, ends[1:])
    ]


def iou_matrix(
    a: Sequence[BinaryMask], b: Sequence[BinaryMask], _floor: float = 0.0
) -> np.ndarray:
    """(len(a), len(b)) mask IoU matrix, equal pair by pair to :func:`mask_iou`
    wherever the IoU is at least `_floor`; an entry below it may read 0.
    Every pair goes through the one kernel, :func:`_pair_iou`."""
    return _iou_blocks([(a, b)], _floor)[0]


def _merge_pools(
    pools: Sequence[Sequence[InstanceCandidate]],
    iou_threshold: float = DEFAULT_MERGE_IOU,
) -> list[list[InstanceCandidate]]:
    """:func:`merge_across_planes` of each pool, with one kernel call for
    the pairs i < j within every pool and none across pools."""
    orders = []
    for candidates in pools:
        if len({c.kind for c in candidates}) > 1:
            raise MixedKindsError("cannot merge cell and pronucleus candidates together")
        orders.append(sorted(candidates, key=lambda c: (-c.confidence, c.plane, c.bbox[0])))
    sizes = [len(order) for order in orders]
    ranked = [c for order in orders for c in order]
    # Row i of a pool pairs candidate i with each later one of its pool.
    later = np.repeat(np.cumsum(sizes, dtype=np.intp), sizes) - np.arange(len(ranked)) - 1
    pi = np.repeat(np.arange(len(ranked)), later)
    pj = pi + 1 + np.arange(pi.size) - np.repeat(np.cumsum(later) - later, later)
    hit = _pair_iou([c.mask for c in ranked], pi, pj, iou_threshold) >= iou_threshold

    # The pairs come pool by pool, row by row, so every pair (k, i) is
    # read before row i: whether i survives is settled before it drops
    # the later candidates it overlaps.
    dropped = [False] * len(ranked)
    for i, j in zip(pi[hit].tolist(), pj[hit].tolist()):
        if not dropped[i]:
            dropped[j] = True
    offsets = list(accumulate(sizes, initial=0))
    return [
        [c for c, gone in zip(ranked[lo:hi], dropped[lo:hi]) if not gone]
        for lo, hi in zip(offsets, offsets[1:])
    ]


def merge_across_planes(
    candidates: Sequence[InstanceCandidate],
    iou_threshold: float = DEFAULT_MERGE_IOU,
) -> list[InstanceCandidate]:
    """Merge duplicate detections of one object across focal planes.

    Greedy suppression over the pooled candidates: repeatedly keep the
    most confident remaining candidate and drop everything (from any
    plane, including its own) whose mask IoU with it is >= the
    threshold. Ties go to the lower plane index, then the smaller bbox
    x. The survivors are returned in that order, i.e. descending
    confidence.
    """
    return _merge_pools([candidates], iou_threshold)[0]


def crop_to_roi(grid: BinaryMask | SegmentationMap, roi: Roi):
    """Sub-grid copy of the ROI window; returns the same type it is given.

    Raises:
        RoiBoundsError: the window does not lie inside the grid.
    """
    if not isinstance(grid, (BinaryMask, SegmentationMap)):
        raise ValidationError(f"cannot crop a {type(grid).__name__}")
    if roi.x + roi.side > grid.width or roi.y + roi.side > grid.height:
        raise RoiBoundsError(
            f"ROI [{roi.x},{roi.x + roi.side})x[{roi.y},{roi.y + roi.side}) "
            f"outside {grid.width}x{grid.height} grid"
        )
    window = (slice(roi.y, roi.y + roi.side), slice(roi.x, roi.x + roi.side))
    if isinstance(grid, SegmentationMap):
        # Decoded off the runs, so that the source keeps no grid.
        return SegmentationMap(np.repeat(*grid._runs).reshape(grid.height, grid.width)[window])
    return BinaryMask.from_array(grid.to_array()[window])
