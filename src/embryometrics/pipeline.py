"""Five-stage measurement pipeline and its evaluation.

Per frame: (1) segment the zona on the middle focal plane and derive
the embryo ROI; (2) score fragmentation on the three middle planes and
average. The embryo-level gate (median frame score vs threshold) then
decides whether the remaining stages run at all: high-fragmentation
embryos keep only their segmentation and fragmentation records.
For low-fragmentation embryos: (3) classify stages and decode the
monotone trajectory; (4) route each frame to detectors by decoded
stage; (5) detect on the three middle planes and merge across planes.

Ablation flags turn off the ROI (full-frame window), focus averaging
(middle plane only), and trajectory decoding (raw per-frame argmax).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .backends import BackendSuite
from .decoder import argmax_trajectory, decode_monotone, exclude_frames
from .errors import (
    EmbryoMetricsError,
    BackendError,
    FrameMismatchError,
    InvalidConfigError,
    MissingPlanesError,
    NoEmbryoError,
)
from .gating import (
    DEFAULT_FRAGMENTATION_THRESHOLD,
    GateDecision,
    average_fragmentation,
    gate_embryo,
    middle_planes,
    route_frame,
    Detector,
)
from .geometry import (
    DEFAULT_MERGE_IOU,
    DEFAULT_ROI_SIDE,
    Roi,
    center_roi,
    _merge_pools,
    embryo_roi,
)
from .metrics import (
    DEFAULT_MATCH_IOU,
    EvaluationReport,
    FragmentationBlock,
    SegmentationBlock,
    StageBlock,
    detection_block,
    fragmentation_metrics,
    pixel_accuracy,
    stage_metrics,
)
from .model import (
    CandidateKind,
    EmbryoMovie,
    FragmentationScore,
    InstanceCandidate,
    SegmentationMap,
    StageClass,
    StageProbabilityMatrix,
    _checked_ints,
    validate_prob_vector,
)
from .serialize import _check_kind, _decoder, _header, _record, _to_json, _typed
from .synth import GroundTruth


@dataclass(frozen=True)
class PipelineConfig:
    roi_side: int = DEFAULT_ROI_SIDE
    fragmentation_threshold: float = DEFAULT_FRAGMENTATION_THRESHOLD
    gate_aggregation: str = "median"  # or "mean"
    merge_iou_threshold: float = DEFAULT_MERGE_IOU
    match_iou_threshold: float = DEFAULT_MATCH_IOU  # evaluation operating point for P/R
    use_roi: bool = True
    use_focus_averaging: bool = True
    use_dp: bool = True

    def __post_init__(self):
        (roi_side,) = _checked_ints((self.roi_side,), "roi_side", InvalidConfigError)
        if roi_side <= 0:
            raise InvalidConfigError("roi_side must be positive")
        object.__setattr__(self, "roi_side", roi_side)
        if not 0.0 <= self.fragmentation_threshold <= 3.0:
            raise InvalidConfigError("fragmentation_threshold must be in [0, 3]")
        if self.gate_aggregation not in ("median", "mean"):
            raise InvalidConfigError("gate_aggregation must be 'median' or 'mean'")
        for name in ("merge_iou_threshold", "match_iou_threshold"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise InvalidConfigError(f"{name} must be in (0, 1]")

    def to_obj(self) -> dict:
        return _to_json(self)

    @classmethod
    @_decoder("pipeline config", InvalidConfigError)
    def from_obj(cls, obj: Mapping[str, Any]) -> "PipelineConfig":
        """Config from a JSON object; unknown keys and wrong types raise,
        missing keys take their defaults."""
        return _record(cls, obj, partial=True)


@dataclass(frozen=True)
class FrameRecord:
    """Everything the pipeline measured on one frame."""

    time_minutes: float
    roi: Roi
    roi_fallback: bool
    seg_map: SegmentationMap
    fragmentation_score: FragmentationScore
    stage_probs: np.ndarray | None
    argmax_class: StageClass | None
    decoded_class: StageClass | None
    excluded: bool | None
    cells: tuple[InstanceCandidate, ...] | None
    pronuclei: tuple[InstanceCandidate, ...] | None


@dataclass(frozen=True)
class PipelineResult:
    embryo_id: str
    config: PipelineConfig
    gate: GateDecision
    frames: tuple[FrameRecord, ...]

    def decoded_stages(self) -> list[StageClass | None]:
        return [f.decoded_class for f in self.frames]


def _require_planes(movie: EmbryoMovie, frame: int, planes) -> None:
    refs = movie.frames[frame].planes
    for p in planes:
        if p >= len(refs) or not refs[p]:
            raise MissingPlanesError(
                f"frame {frame} is missing focal plane {p}"
            )


def _call(stage_name: str, frame: int, fn, *args):
    try:
        return fn(*args)
    except BackendError:
        raise
    except Exception as e:  # noqa: BLE001 - backends are third-party code
        raise BackendError(stage_name, frame, repr(e)) from e


def _detect(backend, kind: CandidateKind, movie: EmbryoMovie, frame, plane, roi) -> tuple:
    """``backend``'s candidates on ``plane`` as a tuple; anything but
    ``kind`` candidates on that plane with masks of the movie's frame
    size is an error."""
    found = tuple(backend.detect(movie, frame, plane, roi))
    size = movie.image_size
    for c in found:
        if not isinstance(c, InstanceCandidate):
            raise TypeError(f"{c!r} is not an InstanceCandidate")
        if (c.kind, c.plane, c.mask.width, c.mask.height) != (kind, plane, size, size):
            raise ValueError(
                f"{c.kind.token} candidate on plane {c.plane}, {c.mask.width}x"
                f"{c.mask.height}; asked for {kind.token} on plane {plane}, {size}x{size}"
            )
    return found


def run_pipeline(
    movie: EmbryoMovie, backends: BackendSuite, config: PipelineConfig
) -> PipelineResult:
    """Run the five-stage pipeline over one movie.

    Raises:
        BackendError: a backend failed on some frame; the embryo is
            aborted rather than partially recorded.
        MissingPlanesError: a frame lacks a needed plane reference.
    """
    size = movie.image_size
    n = len(movie)
    detect_planes = middle_planes()
    mid = detect_planes[1]
    frag_planes = detect_planes if config.use_focus_averaging else (mid,)

    # (1) zona segmentation and ROI, (2) fragmentation scores.
    seg_maps: list[SegmentationMap] = []
    rois: list[Roi] = []
    fallbacks: list[bool] = []
    frag_scores: list[FragmentationScore] = []
    for i in range(n):
        _require_planes(movie, i, {mid, *frag_planes})
        seg = _call("zona_segmentation", i, backends.segmenter.segment, movie, i, mid)
        if (seg.width, seg.height) != (size, size):
            raise BackendError(
                "zona_segmentation",
                i,
                f"map is {seg.width}x{seg.height}, movie frames are {size}x{size}",
            )
        seg_maps.append(seg)
        if config.use_roi:
            try:
                roi = embryo_roi(seg, config.roi_side)
                fallback = False
            except NoEmbryoError:
                roi = center_roi(size, size, config.roi_side)
                fallback = True
        else:
            roi = center_roi(size, size)
            fallback = False
        rois.append(roi)
        fallbacks.append(fallback)

        plane_scores = []
        for p in frag_planes:
            raw = _call(
                "fragmentation", i, backends.fragmentation.score, movie, i, p, roi
            )
            if not np.isfinite(raw):
                raise BackendError("fragmentation", i, f"non-finite score {raw!r}")
            plane_scores.append(FragmentationScore(min(3.0, max(0.0, float(raw)))))
        frag_scores.append(average_fragmentation(plane_scores))

    gate = gate_embryo(
        frag_scores, config.fragmentation_threshold, config.gate_aggregation
    )

    # Gated-out embryos keep only their segmentation and fragmentation.
    rows = argmaxes = decoded = excluded = [None] * n
    found: list[dict[Detector, tuple[InstanceCandidate, ...]]] = [{} for _ in range(n)]
    if gate.low_fragmentation:
        # (3) stage classification and trajectory decoding. Malformed
        # vectors count as backend failures, not caller mistakes.
        rows = [
            _call(
                "stage_classification",
                i,
                lambda i=i: validate_prob_vector(
                    backends.stage.probabilities(movie, i, rois[i])
                ),
            )
            for i in range(n)
        ]
        matrix = StageProbabilityMatrix(rows, movie.times)
        if config.use_dp:
            trajectory = decode_monotone(matrix)
            argmaxes = [f.argmax_class for f in trajectory.frames]
            decoded = [f.decoded_class for f in trajectory.frames]
            excluded = [f.excluded for f in trajectory.frames]
        else:
            argmaxes = argmax_trajectory(matrix)
            decoded = list(argmaxes)
            excluded = exclude_frames(matrix)

        # (4) routing and (5) detection. Frame by frame, cells before
        # pronuclei, planes ascending: the first failing call names the
        # stage in the BackendError.
        jobs = (
            (Detector.CELL, CandidateKind.CELL, "cell_detection", backends.cells),
            (Detector.PRONUCLEUS, CandidateKind.PRONUCLEUS, "pronucleus_detection",
             backends.pronuclei),
        )
        keys, pools = [], []
        for i in range(n):
            routed = route_frame(decoded[i])
            for detector, kind, stage_name, backend in jobs:
                if detector not in routed:
                    continue
                _require_planes(movie, i, detect_planes)
                keys.append((i, detector))
                pools.append([
                    c
                    for p in detect_planes
                    for c in _call(stage_name, i, _detect, backend, kind, movie, i, p, rois[i])
                ])
        # Cross-plane merging of every (frame, detector) pool at once.
        for (i, detector), merged in zip(keys, _merge_pools(pools, config.merge_iou_threshold)):
            found[i][detector] = tuple(merged)

    frames = tuple(
        FrameRecord(
            time_minutes=movie.frames[i].time_minutes,
            roi=rois[i],
            roi_fallback=fallbacks[i],
            seg_map=seg_maps[i],
            fragmentation_score=frag_scores[i],
            stage_probs=rows[i],
            argmax_class=argmaxes[i],
            decoded_class=decoded[i],
            excluded=excluded[i],
            cells=found[i].get(Detector.CELL),
            pronuclei=found[i].get(Detector.PRONUCLEUS),
        )
        for i in range(n)
    )
    result = PipelineResult(
        embryo_id=movie.embryo_id, config=config, gate=gate, frames=frames
    )
    if config.use_dp:
        _check_monotone(result)
    return result


def _check_monotone(result: PipelineResult) -> None:
    kept = [
        int(f.decoded_class)
        for f in result.frames
        if f.excluded is False and f.decoded_class is not None
    ]
    if any(b < a for a, b in zip(kept, kept[1:])):
        raise EmbryoMetricsError(
            "internal error: decoded trajectory is not non-decreasing"
        )


def evaluate_run(
    result: PipelineResult, truth: GroundTruth, config: PipelineConfig
) -> EvaluationReport:
    """Score one pipeline result against ground truth.

    Stage and detection blocks are absent for gated-out embryos; the
    pronucleus (or cell) block is absent when the truth contains no such
    instances anywhere in the movie.
    """
    if result.embryo_id != truth.embryo_id:
        raise FrameMismatchError(
            f"result is for {result.embryo_id!r}, truth for {truth.embryo_id!r}"
        )
    if len(result.frames) != len(truth.stages):
        raise FrameMismatchError(
            f"result has {len(result.frames)} frames, truth {len(truth.stages)}"
        )

    overall, per_class = pixel_accuracy([f.seg_map for f in result.frames], truth.seg_maps)
    segmentation = SegmentationBlock(
        overall=overall, per_class=per_class, n_frames=len(result.frames)
    )

    preds = [f.fragmentation_score.value for f in result.frames]
    mad, agreement = fragmentation_metrics(
        preds, list(truth.fragmentation_grades), config.fragmentation_threshold
    )
    fragmentation = FragmentationBlock(
        mad=mad, agreement=agreement, n_frames=len(result.frames)
    )

    stage_block = None
    cells_block = None
    pn_block = None
    if result.gate.low_fragmentation:
        decoded = [f.decoded_class for f in result.frames]
        accuracy, confusion = stage_metrics(decoded, list(truth.stages))
        stage_block = StageBlock(
            accuracy=accuracy,
            confusion={c: tuple(row) for c, row in confusion.items()},
            n_frames=len(result.frames),
        )
        cells_block = detection_block(
            [f.cells or () for f in result.frames],
            list(truth.cell_masks),
            config.match_iou_threshold,
        )
        pn_block = detection_block(
            [f.pronuclei or () for f in result.frames],
            list(truth.pronucleus_masks),
            config.match_iou_threshold,
        )

    return EvaluationReport(
        embryo_id=result.embryo_id,
        low_fragmentation=result.gate.low_fragmentation,
        segmentation=segmentation,
        fragmentation=fragmentation,
        stage=stage_block,
        cells=cells_block,
        pronuclei=pn_block,
    )


# ---------------------------------------------------------------------------
# Result serialization


def result_to_obj(result: PipelineResult) -> dict:
    obj = {**_header("pipeline_result"), **_to_json(result)}
    for frame in obj["frames"]:
        frame["roi"]["fallback"] = frame.pop("roi_fallback")
    return obj


@_decoder("pipeline result")
def result_from_obj(obj: Any) -> PipelineResult:
    """Decode a pipeline_result object; a missing, unknown or wrong-typed
    key is a FormatError."""
    body = _check_kind(obj, "pipeline_result")
    frames = []
    for frame in _typed(body["frames"], list):
        roi = dict(_typed(_typed(frame, dict)["roi"], dict))
        frames.append({**frame, "roi": roi, "roi_fallback": roi.pop("fallback")})
    result = _record(PipelineResult, {**body, "frames": frames})
    if any((f.decoded_class is None) == result.gate.low_fragmentation for f in result.frames):
        raise ValueError("decoded_class must be set exactly on a kept embryo's frames")
    return result
