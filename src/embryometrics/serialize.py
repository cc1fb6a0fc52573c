"""Versioned file formats: movie manifests, ground truth bundles,
precomputed backend outputs, confusion matrices, and evaluation reports.

All JSON is written canonically (sorted keys, compact separators, bare
floats via repr) so identical inputs produce byte-identical files.
Binary masks are stored as row-major run-length encodings starting with
the background run; 4-class maps as (label, count) run pairs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatError, InvalidConfigError
from .metrics import (
    DetectionBlock,
    EvaluationReport,
    FragmentationBlock,
    SegmentationBlock,
    StageBlock,
)
from .model import (
    BinaryMask,
    CandidateKind,
    ConfusionMatrix,
    EmbryoMovie,
    Frame,
    InstanceCandidate,
    SegClass,
    SegmentationMap,
    StageClass,
    run_lengths,
)
from .synth import Circle, GroundTruth, NoiseConfig, RenderedOutputs, SynthConfig

FORMAT_VERSION = 1

SEG_CLASS_TOKENS = {
    SegClass.OUTSIDE_WELL: "outside_well",
    SegClass.INSIDE_WELL: "inside_well",
    SegClass.ZONA: "zona",
    SegClass.INSIDE_ZONA: "inside_zona",
}

BACKEND_FILES = {
    "segmentation": "segmentation.ndjson",
    "fragmentation": "fragmentation.ndjson",
    "stage_probs": "stage_probs.ndjson",
    "cells": "cells.ndjson",
    "pronuclei": "pronuclei.ndjson",
}

# Every NDJSON file starts with one header line carrying the version.
_NDJSON_HEADER_KINDS = {key: f"backend_{key}" for key in BACKEND_FILES}


def _typed(value: Any, *types: type) -> Any:
    """``value`` if it is one of the JSON ``types``, else TypeError.

    A bool is accepted only where ``bool`` is listed, although Python
    counts it as an int.
    """
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"expected {names}, got {value!r}")
    return value


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path: Path | str, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj) + "\n")


def read_json(path: Path | str) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None


def write_ndjson(
    path: Path | str, rows: Iterable[Mapping[str, Any]], kind: str
) -> None:
    with open(path, "w") as f:
        f.write(canonical_dumps({"format_version": FORMAT_VERSION, "kind": kind}) + "\n")
        for row in rows:
            f.write(canonical_dumps(row) + "\n")


def read_ndjson(path: Path | str, kind: str) -> list[tuple[int, Any]]:
    """The data rows after the header line, each with its line number."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append((lineno, json.loads(line)))
            except json.JSONDecodeError as e:
                raise FormatError(f"{path}: invalid JSON at line {lineno}: {e.msg}") from None
    if not rows:
        raise FormatError(f"{path} is empty (missing header line)")
    _check_kind(rows[0][1], kind)
    return rows[1:]


def _check_kind(obj: Mapping, kind: str) -> None:
    if not isinstance(obj, Mapping):
        raise FormatError(f"expected a JSON object for {kind}")
    if obj.get("format_version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format_version {obj.get('format_version')!r} for {kind}"
        )
    if obj.get("kind") != kind:
        raise FormatError(f"expected kind {kind!r}, got {obj.get('kind')!r}")


# ---------------------------------------------------------------------------
# Masks and maps


def mask_to_obj(mask: BinaryMask) -> dict:
    return {"w": mask.width, "h": mask.height, "rle": list(mask.runs)}


def mask_from_obj(obj: Mapping) -> BinaryMask:
    try:
        return BinaryMask(
            width=int(obj["w"]), height=int(obj["h"]), runs=tuple(obj["rle"])
        )
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad mask object: {e!r}") from None


def seg_map_to_obj(seg: SegmentationMap) -> dict:
    values, counts = run_lengths(seg.labels.ravel())
    runs = np.column_stack((values, counts)).tolist()
    return {"w": seg.width, "h": seg.height, "runs": runs}


def seg_map_from_obj(obj: Mapping) -> SegmentationMap:
    try:
        w, h = int(obj["w"]), int(obj["h"])
        values = [int(v) for v, _ in obj["runs"]]
        counts = [int(c) for _, c in obj["runs"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad segmentation map object: {e!r}") from None
    if sum(counts) != w * h:
        raise FormatError("segmentation run lengths do not cover the grid")
    flat = np.repeat(np.asarray(values, dtype=np.uint8), counts)
    return SegmentationMap(flat.reshape(h, w))


def candidate_to_obj(cand: InstanceCandidate) -> dict:
    return {
        "kind": cand.kind.token,
        "confidence": float(cand.confidence),
        "bbox": list(cand.bbox),
        "plane": cand.plane,
        "mask": mask_to_obj(cand.mask),
    }


def candidate_from_obj(obj: Mapping) -> InstanceCandidate:
    try:
        return InstanceCandidate(
            mask=mask_from_obj(obj["mask"]),
            bbox=tuple(obj["bbox"]),
            confidence=float(_typed(obj["confidence"], int, float)),
            plane=_typed(obj["plane"], int),
            kind=CandidateKind.from_token(obj["kind"]),
        )
    except KeyError as e:
        raise FormatError(f"candidate object missing {e}") from None


# ---------------------------------------------------------------------------
# Movie manifests


def movie_to_obj(movie: EmbryoMovie) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "movie_manifest",
        "embryo_id": movie.embryo_id,
        "image_size": movie.image_size,
        "plane_spacing_um": float(movie.plane_spacing_um),
        "frames": [
            {"t": f.time_minutes, "planes": list(f.planes)} for f in movie.frames
        ],
    }


def movie_from_obj(obj: Mapping) -> EmbryoMovie:
    _check_kind(obj, "movie_manifest")
    return EmbryoMovie(
        embryo_id=str(obj["embryo_id"]),
        frames=tuple(
            Frame(time_minutes=f["t"], planes=tuple(f["planes"]))
            for f in obj["frames"]
        ),
        image_size=int(obj["image_size"]),
        plane_spacing_um=float(obj.get("plane_spacing_um", 15.0)),
    )


# ---------------------------------------------------------------------------
# Ground truth


def _circles_to_obj(circles: Sequence[Circle]) -> list[list[float]]:
    return [[float(cx), float(cy), float(r)] for cx, cy, r in circles]


def truth_to_obj(truth: GroundTruth) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ground_truth",
        "embryo_id": truth.embryo_id,
        "image_size": truth.image_size,
        "plane_count": truth.plane_count,
        "stages": [s.token for s in truth.stages],
        "fragmentation_grades": list(truth.fragmentation_grades),
        "seg_maps": [seg_map_to_obj(m) for m in truth.seg_maps],
        "cell_masks": [
            [mask_to_obj(m) for m in masks] for masks in truth.cell_masks
        ],
        "pronucleus_masks": [
            [mask_to_obj(m) for m in masks] for masks in truth.pronucleus_masks
        ],
        "cell_circles": [_circles_to_obj(c) for c in truth.cell_circles],
        "pronucleus_circles": [
            _circles_to_obj(c) for c in truth.pronucleus_circles
        ],
    }


def truth_from_obj(obj: Mapping) -> GroundTruth:
    _check_kind(obj, "ground_truth")
    return GroundTruth(
        embryo_id=str(obj["embryo_id"]),
        image_size=int(obj["image_size"]),
        plane_count=int(obj["plane_count"]),
        stages=tuple(StageClass.from_token(t) for t in obj["stages"]),
        fragmentation_grades=tuple(int(g) for g in obj["fragmentation_grades"]),
        seg_maps=tuple(seg_map_from_obj(m) for m in obj["seg_maps"]),
        cell_masks=tuple(
            tuple(mask_from_obj(m) for m in masks) for masks in obj["cell_masks"]
        ),
        pronucleus_masks=tuple(
            tuple(mask_from_obj(m) for m in masks)
            for masks in obj["pronucleus_masks"]
        ),
        cell_circles=tuple(
            tuple((c[0], c[1], c[2]) for c in circles)
            for circles in obj["cell_circles"]
        ),
        pronucleus_circles=tuple(
            tuple((c[0], c[1], c[2]) for c in circles)
            for circles in obj["pronucleus_circles"]
        ),
    )


# ---------------------------------------------------------------------------
# Synth config


def synth_config_to_obj(config: SynthConfig) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "synth_config",
        "seed": config.seed,
        "embryo_id": config.embryo_id,
        "frames": config.frames,
        "image_size": config.image_size,
        "plane_count": config.plane_count,
        "frame_interval_minutes": float(config.frame_interval_minutes),
        "dwell_ranges": [list(r) for r in config.dwell_ranges],
        "fragmentation_distribution": list(config.fragmentation_distribution),
        "pronucleus_distribution": list(config.pronucleus_distribution),
        "noise": {
            "logit_sigma": config.noise.logit_sigma,
            "logit_scale": config.noise.logit_scale,
            "mask_jitter_px": config.noise.mask_jitter_px,
            "confidence_sigma": config.noise.confidence_sigma,
            "fragmentation_sigma": config.noise.fragmentation_sigma,
            "seg_flip_rate": config.noise.seg_flip_rate,
        },
    }


# JSON types of the keys a synth config object must have, and no others.
_NUMBER = (int, float)
_SYNTH_CONFIG_TYPES = {
    "format_version": (int,),
    "kind": (str,),
    "seed": (int,),
    "embryo_id": (str,),
    "frames": (int,),
    "image_size": (int,),
    "plane_count": (int,),
    "frame_interval_minutes": _NUMBER,
    "dwell_ranges": (list,),
    "fragmentation_distribution": (list,),
    "pronucleus_distribution": (list,),
    "noise": (dict,),
}
_NOISE_CONFIG_TYPES = {f.name: _NUMBER for f in fields(NoiseConfig)}


def _check_keys(obj: Mapping, types: Mapping[str, tuple], what: str) -> None:
    """InvalidConfigError unless ``obj`` has exactly the keys of ``types``,
    each holding a value of one of its JSON types."""
    for key in obj:
        if key not in types:
            raise InvalidConfigError(f"unknown {what} key {key!r}")
    for key, allowed in types.items():
        if key not in obj:
            raise InvalidConfigError(f"{what} is missing key {key!r}")
        try:
            _typed(obj[key], *allowed)
        except TypeError as e:
            raise InvalidConfigError(f"{what} {key!r}: {e}") from None


def _dwell_range(value: Any) -> tuple[int, int]:
    if len(_typed(value, list)) != 2:
        raise TypeError(f"expected a [lo, hi] pair, got {value!r}")
    return _typed(value[0], int), _typed(value[1], int)


def synth_config_from_obj(obj: Mapping) -> SynthConfig:
    """Decode a synth_config object; an unknown or missing key or a value
    of the wrong JSON type raises InvalidConfigError."""
    _check_kind(obj, "synth_config")
    _check_keys(obj, _SYNTH_CONFIG_TYPES, "synth config")
    _check_keys(obj["noise"], _NOISE_CONFIG_TYPES, "synth config noise")
    try:
        dwell_ranges = tuple(_dwell_range(r) for r in obj["dwell_ranges"])
        fragmentation = tuple(
            _typed(p, *_NUMBER) for p in obj["fragmentation_distribution"]
        )
        pronucleus = tuple(_typed(p, *_NUMBER) for p in obj["pronucleus_distribution"])
    except TypeError as e:
        raise InvalidConfigError(f"synth config: {e}") from None
    return SynthConfig(
        seed=obj["seed"],
        embryo_id=obj["embryo_id"],
        frames=obj["frames"],
        image_size=obj["image_size"],
        plane_count=obj["plane_count"],
        frame_interval_minutes=float(obj["frame_interval_minutes"]),
        dwell_ranges=dwell_ranges,
        fragmentation_distribution=fragmentation,
        pronucleus_distribution=pronucleus,
        noise=NoiseConfig(**obj["noise"]),
    )


# ---------------------------------------------------------------------------
# Backend output files


def write_backend_files(
    out_dir: Path | str,
    rendered: RenderedOutputs,
    times: Sequence[float],
    seg_plane: int,
) -> None:
    """Write the five per-frame backend output files into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ndjson(
        out / BACKEND_FILES["segmentation"],
        (
            {"frame": i, "plane": seg_plane, "map": seg_map_to_obj(m)}
            for i, m in enumerate(rendered.seg_maps)
        ),
        kind=_NDJSON_HEADER_KINDS["segmentation"],
    )
    write_ndjson(
        out / BACKEND_FILES["fragmentation"],
        (
            {"frame": i, "plane": plane, "score": float(score)}
            for i, scores in enumerate(rendered.fragmentation)
            for plane, score in sorted(scores.items())
        ),
        kind=_NDJSON_HEADER_KINDS["fragmentation"],
    )
    write_ndjson(
        out / BACKEND_FILES["stage_probs"],
        (
            {"t": float(t), "p": [float(x) for x in vec]}
            for t, vec in zip(times, rendered.stage_probs)
        ),
        kind=_NDJSON_HEADER_KINDS["stage_probs"],
    )
    for key, per_frame in (("cells", rendered.cells), ("pronuclei", rendered.pronuclei)):
        write_ndjson(
            out / BACKEND_FILES[key],
            (
                dict(candidate_to_obj(c), frame=i)
                for i, planes in enumerate(per_frame)
                for plane in sorted(planes)
                for c in planes[plane]
            ),
            kind=_NDJSON_HEADER_KINDS[key],
        )


def read_backend_tables(backend_dir: Path | str) -> dict:
    """Load the five backend files into lookup tables.

    Returns a dict with keys seg, frag, stage, cells, pronuclei; seg and
    frag are keyed by (frame, plane), stage by frame, and the candidate
    tables by (frame, plane) with missing keys meaning no detections.
    """
    d = Path(backend_dir)

    def decoded(key: str, decode) -> list:
        """``decode`` of each data row in one file; a row that fails to
        decode is a FormatError naming the file and the line."""
        path = d / BACKEND_FILES[key]
        out = []
        for lineno, row in read_ndjson(path, _NDJSON_HEADER_KINDS[key]):
            try:
                out.append(decode(row))
            except (KeyError, TypeError, ValueError) as e:
                raise FormatError(
                    f"{path}: bad row at line {lineno}: {type(e).__name__}: {e}"
                ) from None
        return out

    def frame_plane(row: Mapping) -> tuple[int, int]:
        return _typed(row["frame"], int), _typed(row["plane"], int)

    seg = decoded(
        "segmentation", lambda r: (frame_plane(r), seg_map_from_obj(r["map"]))
    )
    frag = decoded(
        "fragmentation",
        lambda r: (frame_plane(r), float(_typed(r["score"], int, float))),
    )
    stage = decoded(
        "stage_probs", lambda r: np.asarray(_typed(r["p"], list), dtype=np.float64)
    )
    tables = {"seg": dict(seg), "frag": dict(frag), "stage": dict(enumerate(stage))}
    for key in ("cells", "pronuclei"):
        table: dict = {}
        for k, cand in decoded(key, lambda r: (frame_plane(r), candidate_from_obj(r))):
            table.setdefault(k, []).append(cand)
        tables[key] = {k: tuple(v) for k, v in table.items()}
    return tables


# ---------------------------------------------------------------------------
# Confusion matrices


def confusion_to_obj(confusion: ConfusionMatrix) -> list[list[float]]:
    """Bare 13x13 nested array, rows indexed by true class."""
    return confusion.to_rows()


def confusion_from_obj(obj: Sequence[Sequence[float]]) -> ConfusionMatrix:
    return ConfusionMatrix(obj)


# ---------------------------------------------------------------------------
# Evaluation reports


def _round6(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def report_to_obj(report: EvaluationReport) -> dict:
    obj: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "evaluation_report",
        "embryo_id": report.embryo_id,
        "low_fragmentation": report.low_fragmentation,
        "segmentation": None,
        "fragmentation": None,
        "stage": None,
        "cells": None,
        "pronuclei": None,
    }
    if report.segmentation is not None:
        obj["segmentation"] = {
            "overall": report.segmentation.overall,
            "per_class": {
                SEG_CLASS_TOKENS[c]: v
                for c, v in sorted(report.segmentation.per_class.items())
            },
            "n_frames": report.segmentation.n_frames,
        }
    if report.fragmentation is not None:
        obj["fragmentation"] = {
            "mad": report.fragmentation.mad,
            "agreement": report.fragmentation.agreement,
            "n_frames": report.fragmentation.n_frames,
        }
    if report.stage is not None:
        obj["stage"] = {
            "accuracy": report.stage.accuracy,
            "confusion": {
                c.token: list(row)
                for c, row in sorted(report.stage.confusion.items())
            },
            "n_frames": report.stage.n_frames,
        }
    for name, block in (("cells", report.cells), ("pronuclei", report.pronuclei)):
        if block is not None:
            obj[name] = {
                "precision": block.precision,
                "recall": block.recall,
                "mean_ap": block.mean_ap,
                "n_predictions": block.n_predictions,
                "n_truths": block.n_truths,
                "n_matched": block.n_matched,
                "area_ratio_mean": block.area_ratio_mean,
                "area_ratio_fraction_within": block.area_ratio_fraction_within,
                "area_ratio_epsilon": block.area_ratio_epsilon,
            }
    return _round6(obj)


def report_from_obj(obj: Mapping) -> EvaluationReport:
    _check_kind(obj, "evaluation_report")
    seg = obj.get("segmentation")
    frag = obj.get("fragmentation")
    stage = obj.get("stage")
    token_to_seg = {v: k for k, v in SEG_CLASS_TOKENS.items()}

    def detection(block):
        if block is None:
            return None
        return DetectionBlock(
            precision=block["precision"],
            recall=block["recall"],
            mean_ap=block["mean_ap"],
            n_predictions=block["n_predictions"],
            n_truths=block["n_truths"],
            n_matched=block["n_matched"],
            area_ratio_mean=block["area_ratio_mean"],
            area_ratio_fraction_within=block["area_ratio_fraction_within"],
            area_ratio_epsilon=block["area_ratio_epsilon"],
        )

    return EvaluationReport(
        embryo_id=str(obj["embryo_id"]),
        low_fragmentation=bool(obj["low_fragmentation"]),
        segmentation=None
        if seg is None
        else SegmentationBlock(
            overall=seg["overall"],
            per_class={token_to_seg[t]: v for t, v in seg["per_class"].items()},
            n_frames=seg["n_frames"],
        ),
        fragmentation=None
        if frag is None
        else FragmentationBlock(
            mad=frag["mad"], agreement=frag["agreement"], n_frames=frag["n_frames"]
        ),
        stage=None
        if stage is None
        else StageBlock(
            accuracy=stage["accuracy"],
            confusion={
                StageClass.from_token(t): tuple(row)
                for t, row in stage["confusion"].items()
            },
            n_frames=stage["n_frames"],
        ),
        cells=detection(obj.get("cells")),
        pronuclei=detection(obj.get("pronuclei")),
    )


def report_csv_rows(obj: Mapping) -> list[tuple[str, str, str]]:
    """Flatten a report object into (block, metric, value) rows."""
    rows: list[tuple[str, str, str]] = []

    def fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return str(v).lower()
        if isinstance(v, float):
            return f"{v:.6f}"
        return str(v)

    rows.append(("gate", "low_fragmentation", fmt(obj["low_fragmentation"])))
    for block in ("segmentation", "fragmentation", "stage", "cells", "pronuclei"):
        data = obj.get(block)
        if data is None:
            continue
        for metric, value in sorted(data.items()):
            if metric == "confusion":
                continue
            if metric == "per_class":
                for token, v in sorted(value.items()):
                    rows.append((block, f"per_class.{token}", fmt(v)))
                continue
            rows.append((block, metric, fmt(value)))
    return rows


def write_report_csv(path: Path | str, obj: Mapping) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["block", "metric", "value"])
        writer.writerows(report_csv_rows(obj))
