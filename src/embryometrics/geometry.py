"""ROI extraction, binary-mask arithmetic, and cross-plane merging.

The embryo ROI is a fixed-size square window centered on the zona
pellucida: downstream models expect one input size, so at image borders
the window shifts instead of shrinking. Detection candidates from the
three middle focal planes describe the same physical objects, so
overlapping candidates are merged by keeping the single most confident
one; masks are never fused or averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    MixedKindsError,
    NoEmbryoError,
    RoiBoundsError,
    ShapeMismatchError,
    ValidationError,
)
from .model import BinaryMask, InstanceCandidate, SegClass, SegmentationMap

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
    result shifts exactly with the embryo.

    Raises:
        NoEmbryoError: the map contains no zona / inside-zona pixels;
            callers should fall back to :func:`center_roi` and report it.
    """
    # Labels are 0..3, so >= ZONA is zona or inside-zona; a plain int keeps
    # numpy from casting the uint8 grid to the enum's int64.
    labels, zona = seg_map.labels, int(SegClass.ZONA)
    rows = np.flatnonzero(labels.max(axis=1) >= zona)
    if rows.size == 0:
        raise NoEmbryoError("segmentation contains no zona or inside-zona pixels")
    cols = np.flatnonzero(labels[rows[0] : rows[-1] + 1].max(axis=0) >= zona)
    cx = (int(cols[0]) + int(cols[-1]) + 1) // 2
    cy = (int(rows[0]) + int(rows[-1]) + 1) // 2
    return roi_around((cx, cy), side, seg_map.width, seg_map.height)


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


def iou_matrix(
    a: Sequence[BinaryMask], b: Sequence[BinaryMask], _floor: float = 0.0
) -> np.ndarray:
    """(len(a), len(b)) mask IoU matrix, equal pair by pair to :func:`mask_iou`
    wherever the IoU is at least `_floor`; an entry below it may read 0.

    Masks are never decoded. Each distinct mask's runs are read once, and
    mask k is laid on flat indices [k*w*h, (k+1)*w*h). A pair is computed
    only if its bound can reach the floor: the intersection is at most
    ``imax = min(area_a, area_b, overlap of the tight boxes)``, so IoU is
    at most ``imax / (area_a + area_b - imax)``, and float division
    rounds monotonically. A foreground run [s, e) of mask i shares
    C(e + d) - C(s + d) pixels with mask j, where d = (j - i)*w*h and
    C(x) counts every mask's foreground pixels below flat index x. IoU is
    the exact integer intersection over the union, as in the dense
    reference.
    """
    if not a or not b:
        return np.zeros((len(a), len(b)))
    dims = {(m.width, m.height) for m in (*a, *b)}
    if len(dims) > 1:
        raise ShapeMismatchError(f"masks have mixed dimensions: {dims}")
    ((w, h),) = dims

    distinct = {id(m): m for m in (*a, *b)}
    slot = {key: k for k, key in enumerate(distinct)}
    ia = np.array([slot[id(m)] for m in a])
    ib = np.array([slot[id(m)] for m in b])
    lengths = np.array([len(m.runs) for m in distinct.values()])
    runs = chain.from_iterable(m.runs for m in distinct.values())
    ends = np.cumsum(np.fromiter(runs, np.int64, lengths.sum()))
    # Each mask's runs start with background, so its odd runs are foreground.
    local = np.arange(ends.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    odd = local % 2 == 1
    # A sentinel run [-1, -1) first keeps every lookup below in range.
    starts = np.concatenate(([-1], ends[:-1][odd[1:]]))
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
        s, last = starts[1:], stops[1:] - 1
        across = s // w != last // w
        at = first[fg] - 1
        box[0, fg] = np.minimum.reduceat(np.where(across, 0, s % w), at)
        box[1, fg] = np.maximum.reduceat(np.where(across, w - 1, last % w), at)
        box[2, fg] = s[at] // w - fg * h
        box[3, fg] = last[after[fg] - 2] // w - fg * h
    ba, bb = box[:, ia, None], box[:, ib][:, None, :]
    span = np.minimum(ba[1::2], bb[1::2]) - np.maximum(ba[::2], bb[::2]) + 1
    total = area[ia, None] + area[ib]
    imax = np.minimum(np.minimum(area[ia, None], area[ib]), span.clip(0).prod(axis=0))
    bound = np.divide(imax, total - imax, out=np.zeros(imax.shape), where=imax > 0)
    pi, pj = np.nonzero((imax > 0) & (bound >= _floor))

    # Every foreground run of row mask u, moved into column mask v's block.
    u, v = ia[pi], ib[pj]
    n = counts[u]
    run = np.repeat(first[u] - np.cumsum(n) + n, n) + np.arange(n.sum())
    shift = np.repeat((v - u) * (w * h), n)

    def count_below(x):
        k = np.searchsorted(starts, x, side="right") - 1
        return before[k] + np.minimum(x, stops[k]) - starts[k]

    shared = count_below(stops[run] + shift) - count_below(starts[run] + shift)
    inter = np.zeros(total.shape, dtype=np.int64)
    inter[pi, pj] = np.bincount(np.repeat(np.arange(pi.size), n), shared, pi.size)
    union = total - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)


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
    if not candidates:
        return []
    kinds = {c.kind for c in candidates}
    if len(kinds) > 1:
        raise MixedKindsError("cannot merge cell and pronucleus candidates together")

    order = sorted(
        candidates, key=lambda c: (-c.confidence, c.plane, c.bbox[0])
    )
    masks = [c.mask for c in order]
    overlapping = iou_matrix(masks, masks, iou_threshold) >= iou_threshold
    suppressed = np.zeros(len(order), dtype=bool)
    survivors: list[InstanceCandidate] = []
    for i, cand in enumerate(order):
        if suppressed[i]:
            continue
        survivors.append(cand)
        suppressed[i + 1 :] |= overlapping[i, i + 1 :]
    return survivors


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
