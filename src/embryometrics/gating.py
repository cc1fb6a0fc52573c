"""Fragmentation focus-averaging, the low/high gate, and detector routing.

Embryos scoring at or above the fragmentation threshold (default 1.5)
are gated out: their cells cannot be reliably counted or outlined, so
stage classification and detection are skipped for them.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import (
    EmptyInputError,
    PlaneCountError,
    ValidationError,
    WrongArityError,
)
from .model import PLANE_COUNT, FragmentationScore, StageClass

DEFAULT_FRAGMENTATION_THRESHOLD = 1.5


class Detector(Enum):
    CELL = "cell"
    PRONUCLEUS = "pronucleus"


@dataclass(frozen=True)
class GateDecision:
    embryo_score: FragmentationScore
    low_fragmentation: bool
    threshold: float = DEFAULT_FRAGMENTATION_THRESHOLD

    def __post_init__(self):
        # The flag is derived, never trusted.
        expected = self.embryo_score.value < self.threshold
        if self.low_fragmentation != expected:
            object.__setattr__(self, "low_fragmentation", expected)


def average_fragmentation(
    plane_scores: Sequence[FragmentationScore],
) -> FragmentationScore:
    """Mean of the three middle-plane scores, or of the middle one alone.

    Each score lies in [0, 3] and float rounding is monotone, so the
    mean does too. The mean of one score is that score, bit for bit.
    """
    if len(plane_scores) not in (1, 3):
        raise WrongArityError(f"expected 1 or 3 plane scores, got {len(plane_scores)}")
    return FragmentationScore(sum(s.value for s in plane_scores) / len(plane_scores))


def middle_planes(plane_count: int = PLANE_COUNT) -> tuple[int, int, int]:
    """Indices of the three centered focal planes (0-based)."""
    if plane_count < 3 or plane_count % 2 == 0:
        raise PlaneCountError(f"plane count must be odd and >= 3, got {plane_count}")
    mid = plane_count // 2
    return (mid - 1, mid, mid + 1)


def gate_embryo(
    per_frame_scores: Sequence[FragmentationScore],
    threshold: float = DEFAULT_FRAGMENTATION_THRESHOLD,
    aggregation: str = "median",
) -> GateDecision:
    """Embryo-level gate from per-frame scores.

    The embryo score aggregates the frame scores - median by default
    (mean of the two middle values for even counts), arithmetic mean as
    the alternative. Low fragmentation means strictly below the
    threshold.
    """
    if len(per_frame_scores) == 0:
        raise EmptyInputError("no fragmentation scores to gate on")
    values = [s.value for s in per_frame_scores]
    if aggregation == "median":
        score = statistics.median(values)
    elif aggregation == "mean":
        score = statistics.fmean(values)
    else:
        raise ValidationError(f"unknown gate aggregation {aggregation!r}")
    return GateDecision(
        embryo_score=FragmentationScore(score),
        low_fragmentation=score < threshold,
        threshold=threshold,
    )


def route_frame(decoded: StageClass) -> frozenset[Detector]:
    """Which detectors run on a frame with this decoded stage.

    1-cell frames get both detectors (pronuclei are only visible before
    the first division); 2--8 cell frames get the cell detector; the
    cell detector is not trained past 8 cells, so everything else gets
    none.
    """
    decoded = StageClass(decoded)
    if decoded == StageClass.CELL_1:
        return frozenset({Detector.CELL, Detector.PRONUCLEUS})
    if StageClass.CELL_2 <= decoded <= StageClass.CELL_8:
        return frozenset({Detector.CELL})
    return frozenset()
