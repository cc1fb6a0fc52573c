"""Evaluation metrics: pixel accuracy, fragmentation deviation and
agreement, stage accuracy and confusion, instance matching,
precision/recall, mean average precision, and area-ratio statistics.

Pixel accuracy is counted off run-length encodings, as seg maps read
from a file hold them, so no label grid is decoded to score a movie.

Instance matching is greedy by descending confidence with one-to-one
pred/truth pairing, the convention used by the standard detection
benchmarks; AP uses all-point interpolation (exact area under the
precision envelope) and mAP averages AP over IoU thresholds
0.50:0.05:0.95.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    EmptyMatchError,
    LengthMismatchError,
    NoTruthsError,
    ShapeMismatchError,
)
from .gating import DEFAULT_FRAGMENTATION_THRESHOLD
from .geometry import _iou_blocks, iou_matrix
from .model import (
    BinaryMask,
    InstanceCandidate,
    SegClass,
    SegmentationMap,
    StageClass,
    _value_runs,
)

MAP_IOU_THRESHOLDS: tuple[float, ...] = tuple(
    round(0.50 + 0.05 * i, 2) for i in range(10)
)
DEFAULT_MATCH_IOU = 0.5
AREA_RATIO_EPSILON = 0.17


@dataclass(frozen=True)
class MatchResult:
    """One-to-one pred/truth pairing at some IoU threshold."""

    pairs: tuple[tuple[int, int, float], ...]  # (pred index, truth index, iou)
    unmatched_predictions: tuple[int, ...]
    unmatched_truths: tuple[int, ...]

    @property
    def n_matched(self) -> int:
        return len(self.pairs)


def _runs(
    labels: SegmentationMap | np.ndarray | Sequence[SegmentationMap],
) -> tuple[list[tuple[np.ndarray, np.ndarray]], tuple[int, ...]]:
    """The row-major (labels, counts) runs of each frame of a map, a label
    array, or a sequence of maps, and the shape the other side must have:
    a sequence's is its pixel total."""
    if isinstance(labels, SegmentationMap):
        return [labels._label_runs()], (labels.height, labels.width)
    if isinstance(labels, (list, tuple)) and all(
        isinstance(m, SegmentationMap) for m in labels
    ):
        return [m._label_runs() for m in labels], (sum(m.width * m.height for m in labels),)
    arr = np.asarray(labels)
    return [_value_runs(arr.ravel())] if arr.size else [], arr.shape


def _agreement(p_labels, p_counts, t_labels, t_counts) -> tuple[np.ndarray, np.ndarray]:
    """(agreeing pixels, truth pixels) of each class 0..3, and in slot 4
    of labels that are no class, for two run lists of one line of pixels.

    Every run end of both lists, in order, ends a piece of the line that
    lies in one run of each; a piece whose labels agree counts in full.
    """
    # The last pred run ends where the last truth run does. Equal ends
    # make an empty piece, which counts nothing.
    p_ends = np.cumsum(p_counts, dtype=np.int64)[:-1]
    t_ends = np.cumsum(t_counts, dtype=np.int64)
    at = np.searchsorted(p_ends, t_ends) + np.arange(t_ends.size)
    is_pred = np.ones(p_ends.size + t_ends.size, dtype=bool)
    is_pred[at] = False
    ends = np.empty(is_pred.size, dtype=np.int64)
    ends[at], ends[is_pred] = t_ends, p_ends
    first = np.concatenate(([0], at[:-1] + 1))  # each truth run's first piece
    pieces = at - first + 1
    t_run = np.repeat(np.arange(t_ends.size), pieces)
    # Piece k lies in truth run t_run[k], so k - t_run[k] pred ends precede it.
    agree = p_labels[np.arange(is_pred.size) - t_run] == np.repeat(t_labels, pieces)
    matched = np.add.reduceat(np.where(agree, np.diff(ends, prepend=0), 0), first)
    t_class = np.where(np.isin(t_labels, range(4)), t_labels, 4).astype(np.intp)
    return np.bincount(t_class, matched, 5), np.bincount(t_class, t_counts, 5)


def pixel_accuracy(
    pred: SegmentationMap | np.ndarray | Sequence[SegmentationMap],
    truth: SegmentationMap | np.ndarray | Sequence[SegmentationMap],
) -> tuple[float, dict[SegClass, float]]:
    """Overall and per-class pixel accuracy.

    ``pred`` and ``truth`` are each a map, a label array, or a sequence of
    maps (a movie), which is scored as its maps' pixels laid end to end:
    two sequences need equal pixel totals, and two maps or arrays equal
    shapes. per_class[c] is the fraction of truth-c pixels predicted c;
    classes absent from the truth are omitted rather than reported as 0
    or 1.

    Nothing is decoded: both sides are counted off their runs, frame by
    frame where the frames pair up in size, else as one line each.
    """
    p_runs, p_shape = _runs(pred)
    t_runs, t_shape = _runs(truth)
    if p_shape != t_shape:
        raise ShapeMismatchError(f"map shapes differ: {p_shape} vs {t_shape}")
    if not t_runs:
        raise EmptyInputError("no pixels to evaluate")
    if [c.sum(dtype=np.int64) for _, c in p_runs] != [c.sum(dtype=np.int64) for _, c in t_runs]:
        # Frames that differ in size: each side's pixels as one line.
        p_runs, t_runs = (
            [tuple(map(np.concatenate, zip(*runs)))] for runs in (p_runs, t_runs)
        )
    matched = totals = 0
    for (p_labels, p_counts), (t_labels, t_counts) in zip(p_runs, t_runs):
        agreeing, pixels = _agreement(p_labels, p_counts, t_labels, t_counts)
        matched, totals = matched + agreeing, totals + pixels
    # Sums of integers below 2**53, so the float sums are exact.
    overall = int(matched.sum()) / int(totals.sum())
    per_class = {
        c: int(matched[c]) / int(totals[c]) for c in SegClass if totals[c] > 0
    }
    return overall, per_class


def fragmentation_metrics(
    preds: Sequence[float],
    labels: Sequence[int],
    threshold: float = DEFAULT_FRAGMENTATION_THRESHOLD,
) -> tuple[float, float]:
    """(mean absolute deviation, low/high agreement fraction)."""
    p = np.asarray(preds, dtype=np.float64)
    l = np.asarray(labels, dtype=np.float64)
    if p.shape != l.shape:
        raise LengthMismatchError(f"{p.shape} predictions vs {l.shape} labels")
    if p.size == 0:
        raise EmptyInputError("no fragmentation scores to evaluate")
    mad = float(np.abs(p - l).mean())
    agreement = float(((p < threshold) == (l < threshold)).mean())
    return mad, agreement


def stage_metrics(
    decoded: Sequence[StageClass], truth: Sequence[StageClass]
) -> tuple[float, dict[StageClass, np.ndarray]]:
    """Exact-match stage accuracy and the row-normalized confusion.

    The confusion maps each true class with at least one frame to its
    13-entry distribution of predictions; empty rows are absent.
    """
    if len(decoded) != len(truth):
        raise LengthMismatchError(
            f"{len(decoded)} decoded frames vs {len(truth)} truth frames"
        )
    if len(decoded) == 0:
        raise EmptyInputError("no frames to evaluate")
    d = np.asarray([int(c) for c in decoded])
    t = np.asarray([int(c) for c in truth])
    accuracy = float((d == t).mean())
    confusion: dict[StageClass, np.ndarray] = {}
    for c in StageClass:
        sel = t == int(c)
        n = int(sel.sum())
        if n > 0:
            row = np.bincount(d[sel], minlength=13).astype(np.float64) / n
            confusion[c] = row
    return accuracy, confusion


def _greedy_assign(
    iou: np.ndarray, confidences: Sequence[float], threshold: float
) -> list[int]:
    """Truth index matched to each prediction, or -1.

    Predictions are visited in descending confidence (stable on ties);
    each takes the unmatched truth with the highest IoU, lowest index
    first, if that IoU clears the threshold.
    """
    n_preds, n_truths = iou.shape
    assigned = [-1] * n_preds
    taken = np.zeros(n_truths, dtype=bool)
    order = np.argsort(-np.asarray(confidences, dtype=np.float64), kind="stable")
    for i in order:
        if n_truths == 0:
            break
        candidates = np.where(taken, -1.0, iou[i])
        j = int(np.argmax(candidates))
        if candidates[j] >= threshold:
            assigned[int(i)] = j
            taken[j] = True
    return assigned


def match_instances(
    preds: Sequence[InstanceCandidate],
    truths: Sequence[BinaryMask],
    iou_threshold: float = DEFAULT_MATCH_IOU,
) -> MatchResult:
    """Greedily match predictions to ground-truth masks, one-to-one."""
    iou = iou_matrix([c.mask for c in preds], truths)
    assigned = _greedy_assign(iou, [c.confidence for c in preds], iou_threshold)
    pairs = tuple(
        (i, j, float(iou[i, j])) for i, j in enumerate(assigned) if j >= 0
    )
    matched_truths = {j for _, j, _ in pairs}
    return MatchResult(
        pairs=pairs,
        unmatched_predictions=tuple(
            i for i, j in enumerate(assigned) if j < 0
        ),
        unmatched_truths=tuple(
            j for j in range(len(truths)) if j not in matched_truths
        ),
    )


def precision_recall(
    match: MatchResult, n_preds: int, n_truths: int
) -> tuple[float | None, float | None]:
    """(precision, recall); a 0/0 rate is None rather than 0 or 1."""
    n = match.n_matched
    precision = n / n_preds if n_preds > 0 else None
    recall = n / n_truths if n_truths > 0 else None
    return precision, recall


def _average_precision(flags: np.ndarray, n_truths: int) -> float:
    """All-point-interpolated AP for confidence-ranked TP/FP flags."""
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    recall = tp / n_truths
    precision = tp / np.arange(1, flags.size + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_recall = 0.0
    for r, p in zip(recall, envelope):
        if r > prev_recall:
            ap += (r - prev_recall) * p
            prev_recall = r
    return float(ap)


def _average_precisions(
    preds_per_image: Sequence[Sequence[InstanceCandidate]],
    truths_per_image: Sequence[Sequence[BinaryMask]],
    iou_thresholds: Sequence[float],
) -> tuple[list[float], list[np.ndarray]]:
    """AP at each threshold, and the one IoU matrix per image it came from."""
    if len(preds_per_image) != len(truths_per_image):
        raise LengthMismatchError(
            f"{len(preds_per_image)} prediction lists vs "
            f"{len(truths_per_image)} truth lists"
        )
    n_truths = sum(len(truths) for truths in truths_per_image)
    if n_truths == 0:
        raise NoTruthsError("no ground-truth instances in the evaluation set")
    confidences = [[c.confidence for c in preds] for preds in preds_per_image]
    # One kernel call for every image's (predictions, truths) block.
    ious = _iou_blocks([
        ([c.mask for c in preds], truths)
        for preds, truths in zip(preds_per_image, truths_per_image)
    ])
    pooled = np.asarray([c for image in confidences for c in image], dtype=np.float64)
    order = np.argsort(-pooled, kind="stable")
    aps = []
    for threshold in iou_thresholds:
        flags = [
            j >= 0
            for iou, image in zip(ious, confidences)
            for j in _greedy_assign(iou, image, threshold)
        ]
        aps.append(_average_precision(np.asarray(flags)[order], n_truths))
    return aps, ious


def average_precision_at(
    preds_per_image: Sequence[Sequence[InstanceCandidate]],
    truths_per_image: Sequence[Sequence[BinaryMask]],
    iou_threshold: float,
) -> float:
    """AP at one IoU threshold, pooling predictions across images."""
    aps, _ = _average_precisions(preds_per_image, truths_per_image, [iou_threshold])
    return aps[0]


def mean_average_precision(
    preds_per_image: Sequence[Sequence[InstanceCandidate]],
    truths_per_image: Sequence[Sequence[BinaryMask]],
) -> float:
    """Mean AP over IoU thresholds 0.50, 0.55, ..., 0.95."""
    aps, _ = _average_precisions(preds_per_image, truths_per_image, MAP_IOU_THRESHOLDS)
    return float(np.mean(aps))


def detection_block(
    preds_per_frame: Sequence[Sequence[InstanceCandidate]],
    truths_per_frame: Sequence[Sequence[BinaryMask]],
    match_iou_threshold: float,
) -> DetectionBlock | None:
    """mAP, pooled P/R at one IoU threshold and area ratios over a movie.

    None when there is nothing to score: no predictions and no truths,
    or predictions but no truths (mAP is undefined).
    """
    n_preds = sum(len(p) for p in preds_per_frame)
    n_truths = sum(len(t) for t in truths_per_frame)
    if n_truths == 0 and n_preds == 0:
        return None
    try:
        aps, ious = _average_precisions(preds_per_frame, truths_per_frame, MAP_IOU_THRESHOLDS)
    except NoTruthsError:
        return None
    # The operating point is ``match_instances`` on the matrices mAP used.
    ratios: list[float] = []
    for preds, truths, iou in zip(preds_per_frame, truths_per_frame, ious):
        assigned = _greedy_assign(iou, [c.confidence for c in preds], match_iou_threshold)
        ratios += (preds[i].mask.area / truths[j].area for i, j in enumerate(assigned) if j >= 0)
    n_matched = len(ratios)
    ratio_mean = within = None
    if ratios:
        stats = AreaRatioStats(ratios=tuple(ratios))
        ratio_mean = stats.mean
        within = stats.fraction_within(AREA_RATIO_EPSILON)
    return DetectionBlock(
        precision=n_matched / n_preds if n_preds > 0 else None,
        recall=n_matched / n_truths if n_truths > 0 else None,
        mean_ap=float(np.mean(aps)),
        n_predictions=n_preds,
        n_truths=n_truths,
        n_matched=n_matched,
        area_ratio_mean=ratio_mean,
        area_ratio_fraction_within=within,
    )


@dataclass(frozen=True)
class AreaRatioStats:
    """Predicted/true area ratios over matched pairs."""

    ratios: tuple[float, ...]

    def fraction_within(self, epsilon: float) -> float:
        """Fraction of matched pairs with |ratio - 1| <= epsilon."""
        hits = sum(1 for r in self.ratios if abs(r - 1.0) <= epsilon)
        return hits / len(self.ratios)

    @property
    def mean(self) -> float:
        return float(np.mean(self.ratios))


def area_ratio_stats(
    match: MatchResult,
    preds: Sequence[InstanceCandidate],
    truths: Sequence[BinaryMask],
) -> AreaRatioStats:
    """Area ratios for matched pairs; raises on an empty match."""
    if match.n_matched == 0:
        raise EmptyMatchError("no matched pairs to compute area ratios over")
    ratios = tuple(
        preds[i].mask.area / truths[j].area for i, j, _ in match.pairs
    )
    return AreaRatioStats(ratios=ratios)


@dataclass(frozen=True)
class SegmentationBlock:
    overall: float
    per_class: Mapping[SegClass, float]
    n_frames: int


@dataclass(frozen=True)
class FragmentationBlock:
    mad: float
    agreement: float
    n_frames: int


@dataclass(frozen=True)
class StageBlock:
    accuracy: float
    confusion: Mapping[StageClass, tuple[float, ...]]
    n_frames: int


@dataclass(frozen=True)
class DetectionBlock:
    precision: float | None
    recall: float | None
    mean_ap: float
    n_predictions: int
    n_truths: int
    n_matched: int
    area_ratio_mean: float | None
    area_ratio_fraction_within: float | None
    area_ratio_epsilon: float = AREA_RATIO_EPSILON


@dataclass(frozen=True)
class EvaluationReport:
    """Per-task metric blocks for one pipeline run.

    Blocks are None when the pipeline did not produce the corresponding
    records (gated-out embryos have no stage or detection blocks; an
    embryo with no pronucleus frames has no pronucleus block).
    """

    embryo_id: str
    low_fragmentation: bool
    segmentation: SegmentationBlock | None
    fragmentation: FragmentationBlock | None
    stage: StageBlock | None
    cells: DetectionBlock | None
    pronuclei: DetectionBlock | None


