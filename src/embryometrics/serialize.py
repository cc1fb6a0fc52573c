"""Versioned file formats: movie manifests, ground truth bundles,
precomputed backend outputs, confusion matrices, and evaluation reports.

All JSON is written canonically (sorted keys, compact separators, bare
floats via repr) so identical inputs produce byte-identical files.
Binary masks are stored as row-major run-length encodings starting with
the background run; 4-class maps as (label, count) run pairs.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatError, InvalidConfigError, ValidationError
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


def _numbers(value: Any) -> tuple:
    """A JSON list of numbers as a tuple, else TypeError."""
    return tuple(_typed(x, int, float) for x in _typed(value, list))


# JSON types a dataclass field accepts, by its declared type. An int stays
# an int where a float is declared, so a file repeats a value as given.
_JSON_TYPES = {
    "int": (int,),
    "float": (int, float),
    "float | None": (int, float, type(None)),
    "str": (str,),
    "bool": (bool,),
}


def _record(cls: type, obj: Any, partial: bool = False, **decoded: Any) -> Any:
    """The dataclass ``cls`` built from the JSON object ``obj``.

    Each key must name a field, and each field must have a key unless
    ``partial`` (the field's default then applies). A value must have the
    JSON type of its field's declared type, except for the fields in
    ``decoded``, which the caller has decoded and which replace the raw
    values.
    """
    declared = {f.name: f.type for f in fields(cls)}
    for key, value in _typed(obj, dict).items():
        if key not in declared:
            raise ValueError(f"unknown key {key!r}")
        if key not in decoded:
            try:
                _typed(value, *_JSON_TYPES[declared[key]])
            except TypeError as e:
                raise TypeError(f"{key!r}: {e}") from None
    if not partial:
        for key in declared:
            if key not in obj:
                raise KeyError(key)
    return cls(**{**obj, **decoded})


def _decoder(what: str, error: type[ValidationError] = FormatError):
    """Decorate a ``*_from_obj`` decoder so that a malformed object raises
    ``error`` with one line naming ``what``.

    A KeyError, TypeError, ValueError, IndexError or OverflowError (a
    number out of range for its type) from indexing or converting the
    object becomes ``error``; a ValidationError (itself a ValueError)
    passes through unchanged.
    """

    def wrap(decode):
        @functools.wraps(decode)
        def decoder(*args, **kwargs):
            try:
                return decode(*args, **kwargs)
            except ValidationError:
                raise
            except (KeyError, TypeError, ValueError, IndexError, OverflowError) as e:
                detail = f"missing key {e}" if isinstance(e, KeyError) else e
                raise error(f"bad {what}: {detail}") from None

        return decoder

    return wrap


def _header(kind: str) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": kind}


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
        f.write(canonical_dumps(_header(kind)) + "\n")
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


def _check_kind(obj: Mapping, kind: str) -> dict:
    """``obj`` without its header keys; FormatError unless the header
    names ``kind`` at the current format version."""
    if not isinstance(obj, Mapping):
        raise FormatError(f"expected a JSON object for {kind}")
    if obj.get("format_version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format_version {obj.get('format_version')!r} for {kind}"
        )
    if obj.get("kind") != kind:
        raise FormatError(f"expected kind {kind!r}, got {obj.get('kind')!r}")
    return {k: v for k, v in obj.items() if k not in ("format_version", "kind")}


# ---------------------------------------------------------------------------
# Masks and maps


def mask_to_obj(mask: BinaryMask) -> dict:
    return {"w": mask.width, "h": mask.height, "rle": list(mask.runs)}


@_decoder("mask")
def mask_from_obj(obj: Mapping) -> BinaryMask:
    return BinaryMask(
        width=_typed(obj["w"], int),
        height=_typed(obj["h"], int),
        runs=tuple(obj["rle"]),
    )


def seg_map_to_obj(seg: SegmentationMap) -> dict:
    values, counts = run_lengths(seg.labels.ravel())
    runs = np.column_stack((values, counts)).tolist()
    return {"w": seg.width, "h": seg.height, "runs": runs}


@_decoder("segmentation map")
def seg_map_from_obj(obj: Mapping) -> SegmentationMap:
    w, h = _typed(obj["w"], int), _typed(obj["h"], int)
    values = [int(v) for v, _ in obj["runs"]]
    counts = [int(c) for _, c in obj["runs"]]
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


@_decoder("candidate")
def candidate_from_obj(obj: Mapping) -> InstanceCandidate:
    return InstanceCandidate(
        mask=mask_from_obj(obj["mask"]),
        bbox=tuple(obj["bbox"]),
        confidence=float(_typed(obj["confidence"], int, float)),
        plane=_typed(obj["plane"], int),
        kind=CandidateKind.from_token(obj["kind"]),
    )


# ---------------------------------------------------------------------------
# Movie manifests


def movie_to_obj(movie: EmbryoMovie) -> dict:
    return {
        **_header("movie_manifest"),
        "embryo_id": movie.embryo_id,
        "image_size": movie.image_size,
        "plane_spacing_um": float(movie.plane_spacing_um),
        "frames": [
            {"t": f.time_minutes, "planes": list(f.planes)} for f in movie.frames
        ],
    }


@_decoder("movie manifest")
def movie_from_obj(obj: Mapping) -> EmbryoMovie:
    body = _check_kind(obj, "movie_manifest")
    return _record(
        EmbryoMovie,
        {"plane_spacing_um": 15.0, **body},
        frames=tuple(
            Frame(_typed(f["t"], int, float), tuple(_typed(f["planes"], list)))
            for f in _typed(body["frames"], list)
        ),
    )


# ---------------------------------------------------------------------------
# Ground truth


def _circles_to_obj(circles: Sequence[Circle]) -> list[list[float]]:
    return [[float(cx), float(cy), float(r)] for cx, cy, r in circles]


def truth_to_obj(truth: GroundTruth) -> dict:
    return {
        **_header("ground_truth"),
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


@_decoder("ground truth")
def truth_from_obj(obj: Mapping) -> GroundTruth:
    body = _check_kind(obj, "ground_truth")

    def per_frame(key: str, decode) -> tuple:
        return tuple(tuple(decode(x) for x in _typed(xs, list)) for xs in body[key])

    def circle(value: Any) -> Circle:
        cx, cy, r = _numbers(value)
        return cx, cy, r

    return _record(
        GroundTruth,
        body,
        stages=tuple(StageClass.from_token(t) for t in _typed(body["stages"], list)),
        fragmentation_grades=tuple(
            _typed(g, int) for g in _typed(body["fragmentation_grades"], list)
        ),
        seg_maps=tuple(seg_map_from_obj(m) for m in body["seg_maps"]),
        cell_masks=per_frame("cell_masks", mask_from_obj),
        pronucleus_masks=per_frame("pronucleus_masks", mask_from_obj),
        cell_circles=per_frame("cell_circles", circle),
        pronucleus_circles=per_frame("pronucleus_circles", circle),
    )


# ---------------------------------------------------------------------------
# Synth config


def synth_config_to_obj(config: SynthConfig) -> dict:
    return {
        **_header("synth_config"),
        "seed": config.seed,
        "embryo_id": config.embryo_id,
        "frames": config.frames,
        "image_size": config.image_size,
        "plane_count": config.plane_count,
        "frame_interval_minutes": float(config.frame_interval_minutes),
        "dwell_ranges": [list(r) for r in config.dwell_ranges],
        "fragmentation_distribution": list(config.fragmentation_distribution),
        "pronucleus_distribution": list(config.pronucleus_distribution),
        "noise": asdict(config.noise),
    }


def _dwell_range(value: Any) -> tuple[int, int]:
    if len(_typed(value, list)) != 2:
        raise TypeError(f"expected a [lo, hi] pair, got {value!r}")
    return _typed(value[0], int), _typed(value[1], int)


@_decoder("synth config", InvalidConfigError)
def synth_config_from_obj(obj: Mapping) -> SynthConfig:
    """Decode a synth_config object; an unknown or missing key or a value
    of the wrong JSON type raises InvalidConfigError."""
    body = _check_kind(obj, "synth_config")
    return _record(
        SynthConfig,
        body,
        dwell_ranges=tuple(_dwell_range(r) for r in _typed(body["dwell_ranges"], list)),
        fragmentation_distribution=_numbers(body["fragmentation_distribution"]),
        pronucleus_distribution=_numbers(body["pronucleus_distribution"]),
        noise=_record(NoiseConfig, body["noise"]),
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
            except (KeyError, TypeError, ValueError, OverflowError) as e:
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
    obj = {**_header("evaluation_report"), **asdict(report)}
    if report.segmentation is not None:
        obj["segmentation"]["per_class"] = {
            SEG_CLASS_TOKENS[c]: v for c, v in report.segmentation.per_class.items()
        }
    if report.stage is not None:
        obj["stage"]["confusion"] = {
            c.token: row for c, row in report.stage.confusion.items()
        }
    return _round6(obj)


_SEG_CLASS_FROM_TOKEN = {v: k for k, v in SEG_CLASS_TOKENS.items()}


@_decoder("evaluation report")
def report_from_obj(obj: Mapping) -> EvaluationReport:
    body = _check_kind(obj, "evaluation_report")
    seg, stage = body["segmentation"], body["stage"]

    def block(cls: type, value: Any) -> Any:
        return None if value is None else _record(cls, value)

    return _record(
        EvaluationReport,
        body,
        segmentation=None
        if seg is None
        else _record(
            SegmentationBlock,
            seg,
            per_class={
                _SEG_CLASS_FROM_TOKEN[t]: _typed(v, int, float)
                for t, v in _typed(seg["per_class"], dict).items()
            },
        ),
        fragmentation=block(FragmentationBlock, body["fragmentation"]),
        stage=None
        if stage is None
        else _record(
            StageBlock,
            stage,
            confusion={
                StageClass.from_token(t): _numbers(row)
                for t, row in _typed(stage["confusion"], dict).items()
            },
        ),
        cells=block(DetectionBlock, body["cells"]),
        pronuclei=block(DetectionBlock, body["pronuclei"]),
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
