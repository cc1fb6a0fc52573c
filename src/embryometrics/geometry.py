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
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .errors import (
    MixedKindsError,
    NoEmbryoError,
    RoiBoundsError,
    ShapeMismatchError,
    ValidationError,
)
from .model import BinaryMask, InstanceCandidate, SegClass, SegmentationMap, _runs_bbox

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
        if self.side <= 0:
            raise ValidationError("ROI side must be positive")
        if self.x < 0 or self.y < 0:
            raise ValidationError("ROI offsets must be non-negative")
        object.__setattr__(self, "x", int(self.x))
        object.__setattr__(self, "y", int(self.y))
        object.__setattr__(self, "side", int(self.side))
        object.__setattr__(
            self, "center", (int(self.center[0]), int(self.center[1]))
        )


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
    cx, cy = int(center[0]), int(center[1])
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
    result shifts exactly with the embryo. A map read from a file or made
    by synth holds runs and no grid; its box comes off its zona runs, so
    it is not decoded.

    Raises:
        NoEmbryoError: the map contains no zona / inside-zona pixels;
            callers should fall back to :func:`center_roi` and report it.
    """
    # Labels are 0..3, so >= ZONA is zona or inside-zona; a plain int keeps
    # numpy from casting the uint8 labels to the enum's int64.
    zona = int(SegClass.ZONA)
    if seg_map._runs is not None:
        # A map read from a file or made by synth: the box of its zona runs.
        labels, counts = seg_map._runs
        stops = np.cumsum(counts, dtype=np.int64)
        runs = np.flatnonzero(labels >= zona)
        if runs.size == 0:
            raise NoEmbryoError("segmentation contains no zona or inside-zona pixels")
        stops = stops[runs]
        x, y, w, h = _runs_bbox(stops - counts[runs], stops - 1, seg_map.width)
    else:
        labels = seg_map.labels
        rows = np.flatnonzero(labels.max(axis=1) >= zona)
        if rows.size == 0:
            raise NoEmbryoError("segmentation contains no zona or inside-zona pixels")
        cols = np.flatnonzero(labels[rows[0] : rows[-1] + 1].max(axis=0) >= zona)
        x, y = int(cols[0]), int(rows[0])
        w, h = int(cols[-1]) - x + 1, int(rows[-1]) - y + 1
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

    Masks are never decoded. Each distinct mask's runs are read once, and
    the masks are laid end to end on one flat index line. A pair is
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
    width, size = dims[:, 0], dims.prod(axis=1)

    lengths = np.array([len(m.runs) for m in distinct.values()], dtype=np.int64)
    runs = chain.from_iterable(m.runs for m in distinct.values())
    ends = np.cumsum(np.fromiter(runs, np.int64, lengths.sum()))
    base = np.cumsum(size) - size  # each mask's first flat index
    # Each mask's runs start with background, so its odd runs are foreground.
    local = np.arange(ends.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    odd = np.flatnonzero(local & 1)
    # A sentinel run [-1, -1) first keeps every lookup below in range.
    starts = np.concatenate(([-1], ends[odd - 1]))
    stops = np.concatenate(([-1], ends[odd]))
    before = np.concatenate(([0], np.cumsum(stops - starts)))  # C at each start
    counts = lengths // 2  # foreground runs per mask
    first = np.cumsum(counts) - counts + 1  # index of each mask's first one
    after = first + counts
    area = before[after] - before[first]

    # Tight boxes as in `BinaryMask.tight_bbox`; empty masks keep 0s.
    fg = np.flatnonzero(area > 0)
    box = np.zeros((4, len(distinct)), dtype=np.int64)  # x0, x1, y0, y1
    if fg.size:
        owner = np.repeat(np.arange(len(distinct)), counts)
        w = width[owner]
        sy, sx = np.divmod(starts[1:] - base[owner], w)  # row, column of each start
        ly, lx = np.divmod(stops[1:] - 1 - base[owner], w)  # and of each last pixel
        across = sy != ly
        at = first[fg] - 1
        box[0, fg] = np.minimum.reduceat(np.where(across, 0, sx), at)
        box[1, fg] = np.maximum.reduceat(np.where(across, w - 1, lx), at)
        box[2, fg] = sy[at]
        box[3, fg] = ly[after[fg] - 2]
    span = np.minimum(box[1::2, u], box[1::2, v]) - np.maximum(box[::2, u], box[::2, v]) + 1
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
        return SegmentationMap(grid.labels[window])
    return BinaryMask.from_array(grid.to_array()[window])
