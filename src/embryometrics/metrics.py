"""Evaluation metrics: pixel accuracy, fragmentation deviation and
agreement, stage accuracy and confusion, instance matching,
precision/recall, mean average precision, and area-ratio statistics.

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


def _as_label_array(m: SegmentationMap | np.ndarray) -> np.ndarray:
    return m.labels if isinstance(m, SegmentationMap) else np.asarray(m)


def pixel_accuracy(
    pred: SegmentationMap | np.ndarray, truth: SegmentationMap | np.ndarray
) -> tuple[float, dict[SegClass, float]]:
    """Overall and per-class pixel accuracy.

    per_class[c] is the fraction of truth-c pixels predicted c; classes
    absent from the truth are omitted rather than reported as 0 or 1.
    Labels are compared with plain ints, which keep uint8 grids uint8.
    """
    p = _as_label_array(pred)
    t = _as_label_array(truth)
    if p.shape != t.shape:
        raise ShapeMismatchError(f"map shapes differ: {p.shape} vs {t.shape}")
    if t.size == 0:
        raise EmptyInputError("no pixels to evaluate")
    equal = p == t
    overall = float(equal.mean())
    per_class: dict[SegClass, float] = {}
    for c in SegClass:
        sel = t == int(c)
        n = np.count_nonzero(sel)
        if n > 0:
            per_class[c] = float(np.count_nonzero(equal & sel) / n)
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


