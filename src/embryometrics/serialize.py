"""Versioned file formats: movie manifests, ground truth bundles,
precomputed backend outputs, confusion matrices, and evaluation reports.

All JSON is written canonically (sorted keys, compact separators, bare
floats via repr) so identical inputs produce byte-identical files.
Binary masks are stored as row-major run-length encodings starting with
the background run; 4-class maps as (label, count) run pairs. A map's
runs are written as JSON text that numpy builds (``_seg_runs_text``) and
``canonical_dumps`` splices in, so no write builds a list per run. Reads
mirror this: ``_loads`` cuts each runs value in that canonical form out
of the text and parses it with numpy (``_runs_arrays``), so no read of a
canonical file builds a list per run either. Any other spelling sends
the whole text to ``json``, which reads it, or rejects it, as before.
What a canonical file reads to writes back to the same bytes.

Every other record is read off its dataclass: ``_to_json`` writes it
field by field, and ``_record`` reads it back by the declared field
types, rejecting unknown, missing and wrong-typed keys at every depth.
"""

from __future__ import annotations

import csv
import functools
import json
from collections import abc
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from types import UnionType
from typing import (
    Any,
    Iterable,
    Mapping,
    Sequence,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from .errors import BackendError, FormatError, InvalidConfigError, ValidationError
from .metrics import EvaluationReport
from .model import (
    BinaryMask,
    ConfusionMatrix,
    EmbryoMovie,
    FragmentationScore,
    InstanceCandidate,
    SegmentationMap,
)
from .synth import GroundTruth, RenderedOutputs, SynthConfig

FORMAT_VERSION = 1

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


# Dataclass fields whose JSON key differs from the field name.
_JSON_NAMES = {"time_minutes": "t"}


@functools.cache
def _schema(cls: type) -> dict[str, tuple[str, Any]]:
    """JSON key -> (field name, declared type) for the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return {_JSON_NAMES.get(f.name, f.name): (f.name, hints[f.name]) for f in fields(cls)}


def _to_json(value: Any) -> Any:
    """``value`` as JSON data: a dataclass field by field, an enum by its
    token, a tuple, list or array as a list, a mapping with encoded keys.

    Masks and maps keep their own run-length codecs, and a fragmentation
    score is its value.
    """
    if type(value) in (str, int, float, bool, type(None)):
        return value
    if isinstance(value, BinaryMask):
        return mask_to_obj(value)
    if isinstance(value, SegmentationMap):
        return {"w": value.width, "h": value.height, "runs": _Text(_seg_runs_text(value))}
    if isinstance(value, FragmentationScore):
        return value.value
    if isinstance(value, np.ndarray):
        return [float(x) for x in value]
    if isinstance(value, Enum):
        return value.token
    if is_dataclass(value):
        return {
            key: _to_json(getattr(value, name))
            for key, (name, _) in _schema(type(value)).items()
        }
    if isinstance(value, (tuple, list)):
        return [_to_json(x) for x in value]
    if isinstance(value, Mapping):
        return {_to_json(k): _to_json(v) for k, v in value.items()}
    return value


def _from_json(tp: Any, value: Any) -> Any:
    """The JSON ``value`` decoded as the declared type ``tp``.

    A value of the wrong JSON type is a TypeError, a tuple of the wrong
    length a ValueError. An int stays an int where a float is declared,
    so a file repeats a value as given.
    """
    if tp is float:
        return _typed(value, int, float)
    if tp is int or tp is str or tp is bool:
        return _typed(value, tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union or origin is UnionType:
        if value is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _from_json(inner, value)
    if origin is tuple:
        items = _typed(value, list)
        if args[-1] is Ellipsis:
            return tuple(_from_json(args[0], x) for x in items)
        if len(items) != len(args):
            raise ValueError(f"expected {len(args)} values, got {len(items)}")
        return tuple(map(_from_json, args, items))
    if origin is abc.Mapping:
        k, v = args
        return {_from_json(k, key): _from_json(v, x) for key, x in _typed(value, dict).items()}
    if tp is BinaryMask:
        return mask_from_obj(value)
    if tp is SegmentationMap:
        return seg_map_from_obj(value)
    if tp is FragmentationScore:
        return FragmentationScore(_typed(value, int, float))
    if tp is np.ndarray:
        return np.asarray(_from_json(tuple[float, ...], value), dtype=np.float64)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp.from_token(_typed(value, str))
    return _record(tp, value)


def _record(cls: type, obj: Any, partial: bool = False) -> Any:
    """The dataclass ``cls`` built from the JSON object ``obj``.

    Each key must name a field, and each field must have a key unless
    ``partial`` (the field's default then applies). Each value is decoded
    as its field's declared type.
    """
    schema = _schema(cls)
    kwargs = {}
    for key, value in _typed(obj, dict).items():
        if key not in schema:
            raise ValueError(f"unknown key {key!r}")
        name, tp = schema[key]
        try:
            kwargs[name] = _from_json(tp, value)
        except TypeError as e:
            raise TypeError(f"{key!r}: {e}") from None
    if not partial:
        for key in schema:
            if key not in obj:
                raise KeyError(key)
    return cls(**kwargs)


#: What indexing or converting a malformed object raises; OverflowError
#: is a number out of range for its type.
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def _decoder(what: str, error: type[ValidationError] = FormatError):
    """Decorate a ``*_from_obj`` decoder so that a malformed object raises
    one error reading ``bad <what>: <what is wrong>``.

    A FormatError passes through, so nested decoders do not prefix it
    twice. Another ValidationError, a value a model type rejects, is
    raised again as its own class with the prefix, so exit codes do not
    move. Any other ``_MALFORMED`` error becomes ``error``.
    """

    def wrap(decode):
        @functools.wraps(decode)
        def decoder(*args, **kwargs):
            try:
                return decode(*args, **kwargs)
            except FormatError:
                raise
            except ValidationError as e:
                raise type(e)(f"bad {what}: {e}") from None
            except _MALFORMED as e:
                detail = f"missing key {e}" if isinstance(e, KeyError) else e
                raise error(f"bad {what}: {detail}") from None

        return decoder

    return wrap


def _header(kind: str) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": kind}


class _Text(str):
    """JSON text that ``canonical_dumps`` writes as it is, unquoted.

    A seg map's runs value that ``_loads`` read keeps its label and count
    arrays in ``runs``, so that ``seg_map_from_obj`` does not parse it
    again.
    """

    runs: tuple[np.ndarray, np.ndarray] | None = None


def _string(s: str) -> str:
    """A ``_Text`` as it is, chosen by its type and never by its content;
    any other string quoted as ``json.dumps`` quotes it."""
    return s if type(s) is _Text else encode_basestring_ascii(s)


_not_json = json.JSONEncoder().default


def canonical_dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, with
    every ``_Text`` spliced in unquoted.

    The C encoder gets the arguments ``json.dumps`` gives it, except the
    string hook, and a fresh markers dict on each call, so a circular
    reference is still an error.
    """
    encode = c_make_encoder({}, _not_json, _string, None, ":", ",", True, False, True)
    return "".join(encode(obj, 0))


def write_json(path: Path | str, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")


def _non_finite(token: str):
    """NaN and Infinity, which Python's json reads, are not JSON numbers."""
    raise ValueError(f"{token} is not a JSON number")


_json_decode = json.JSONDecoder(parse_constant=_non_finite).decode

_RUNS_KEY = '"runs":'


def _loads(text: str) -> Any:
    """``text`` as JSON, with each seg map's runs value handed on as the
    ``_Text`` it was read as, its arrays parsed by ``_runs_arrays``.

    Each value is cut out and a ``NaN`` token put in its place, which the
    decoder hands to ``parse_constant``, in order. No backslash precedes
    the key's opening quote, so in a text the decoder accepts, every
    placeholder is the value of a ``"runs"`` key. A value that is not
    canonical, a backslash before the key, a decode error, or a count of
    placeholders used that differs from the count made sends the whole
    text to ``_json_decode``, which also raises every error.
    """
    pieces, texts = [], []
    done = 0
    while (key := text.find(_RUNS_KEY + "[[", done)) >= 0:
        start = key + len(_RUNS_KEY)
        end = text.find("]]", start) + 2
        if end < 2 or text[key - 1 : key] == "\\":
            return _json_decode(text)
        value = _Text(text[start:end])
        value.runs = _runs_arrays(value)
        if value.runs is None:
            return _json_decode(text)
        pieces += (text[done:start], "NaN")
        texts.append(value)
        done = end
    if not texts:
        return _json_decode(text)
    pieces.append(text[done:])
    texts.reverse()

    def placeholder(token: str) -> _Text:
        if token != "NaN" or not texts:
            raise ValueError(f"{token} is not a placeholder")
        return texts.pop()

    try:
        obj = json.JSONDecoder(parse_constant=placeholder).decode("".join(pieces))
    except ValueError:
        return _json_decode(text)
    return _json_decode(text) if texts else obj


def read_json(path: Path | str) -> Any:
    """The JSON in ``path``; a file that is not UTF-8 or not JSON is a
    FormatError naming it."""
    try:
        return _loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    except ValueError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from None


def write_ndjson(
    path: Path | str, rows: Iterable[Mapping[str, Any]], kind: str
) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(canonical_dumps(_header(kind)) + "\n")
        for row in rows:
            f.write(canonical_dumps(row) + "\n")


def read_ndjson(path: Path | str, kind: str) -> list[tuple[int, Any]]:
    """The data rows after the header line, each with its line number.

    Each line ends at a newline byte and is decoded as UTF-8 on its own,
    so a byte that is not UTF-8 is a FormatError naming its line.
    """
    rows = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    rows.append((lineno, _loads(line)))
            except ValueError as e:
                msg = e.msg if isinstance(e, json.JSONDecodeError) else e
                raise FormatError(f"{path}: invalid JSON at line {lineno}: {msg}") from None
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


def _integers(values: Sequence) -> np.ndarray:
    """Run values from JSON as an integer array, else TypeError."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind != "i":
        raise TypeError("run values must be integers")
    return arr


def mask_to_obj(mask: BinaryMask) -> dict:
    return {"w": mask.width, "h": mask.height, "rle": list(mask.runs)}


@_decoder("mask")
def mask_from_obj(obj: Mapping) -> BinaryMask:
    return BinaryMask(
        width=_typed(obj["w"], int),
        height=_typed(obj["h"], int),
        runs=tuple(_integers(_typed(obj["rle"], list)).tolist()),
    )


# 10, 100, ..., 10**18: a count has one digit more than the powers it reaches.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _seg_runs_text(seg: SegmentationMap) -> str:
    """``seg``'s runs as the JSON text ``[[label,count],...]``.

    Run ``i`` fills the bytes ``[L,<digits>],`` from ``at[i]``: its label
    digit ``L`` (labels are 0..3), then its count's ``n[i]`` digits,
    written one decimal place at a time over all runs that have it. The
    last run's ``,`` becomes the closing ``]``.
    """
    flat = seg.labels.ravel()
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    counts = np.diff(starts, append=flat.size)
    n = np.searchsorted(_POWERS_OF_TEN, counts, side="right") + 1
    size = n + 5
    at = 1 + np.cumsum(size) - size
    end = at + 3 + n  # one past each count's last digit
    buf = np.empty(end[-1] + 2, dtype=np.uint8)
    buf[0] = ord("[")
    buf[at] = ord("[")
    buf[at + 1] = flat[starts] + ord("0")
    buf[at + 2] = ord(",")
    buf[end] = ord("]")
    buf[end + 1] = ord(",")
    buf[-1] = ord("]")
    for k in range(int(n.max())):
        has = n > k
        buf[end[has] - 1 - k] = counts[has] // 10**k % 10 + ord("0")
    return buf.tobytes().decode("ascii")


def _runs_arrays(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The labels and counts of the runs value ``text``, if it is in the
    canonical form ``_seg_runs_text`` writes, else None.

    Canonical means the bytes ``[[L,C],[L,C],...]`` and nothing else: no
    whitespace, no sign, fraction or exponent, and numbers without a
    leading zero. Each number also has at most 9 digits, so that the
    int64 sum of a map's counts is exact.
    """
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digits = raw - ord("0")
    sep = np.flatnonzero(digits > 9)  # every byte that is not a digit
    k = (sep.size - 1) // 4  # runs
    if k < 1 or sep.size != 4 * k + 1:
        return None
    shape = b"[[,]" + b",[,]" * (k - 1) + b"]"
    if not np.array_equal(raw[sep], np.frombuffer(shape, dtype=np.uint8)):
        return None
    opens, commas, closes = sep[1::4], sep[2::4], sep[3::4]
    n_labels, n_counts = commas - opens - 1, closes - commas - 1
    # A digit outside every label and count is one between brackets.
    if int(n_labels.sum() + n_counts.sum()) != digits.size - sep.size:
        return None
    labels = _numbers(digits, commas, n_labels)
    counts = _numbers(digits, closes, n_counts)
    return None if labels is None or counts is None else (labels, counts)


def _numbers(digits: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray | None:
    """The decimal numbers whose ``n`` digits end before ``end``, one
    decimal place at a time; None if one has no digit, more than 9
    digits or a leading zero."""
    if n.min() < 1 or n.max() > 9 or (digits[end - n][n > 1] == 0).any():
        return None
    value = digits[end - 1].astype(np.int64)
    for place in range(1, int(n.max())):
        has = np.flatnonzero(n > place)
        value[has] += digits[end[has] - 1 - place].astype(np.int64) * 10**place
    return value


def seg_map_to_obj(seg: SegmentationMap) -> dict:
    """``seg`` with its runs as ``[label, count]`` lists, parsed from the
    text every writer splices in."""
    obj = _to_json(seg)
    return {**obj, "runs": json.loads(obj["runs"])}


@_decoder("segmentation map")
def seg_map_from_obj(obj: Mapping) -> SegmentationMap:
    w, h = _typed(obj["w"], int), _typed(obj["h"], int)
    runs = obj["runs"]
    if type(runs) is _Text and runs.runs is not None:
        labels, counts = runs.runs
        total = int(counts.sum())  # exact: no count has more than 9 digits
    else:
        runs = _typed(json.loads(runs) if type(runs) is _Text else runs, list)
        if set(map(len, runs)) != {2}:
            raise TypeError("expected a list of [label, count] pairs")
        values = _integers(list(chain.from_iterable(runs)))
        labels, counts = values[0::2], values[1::2]
        total = sum(counts.tolist())
    if total != w * h:
        raise ValueError("run lengths do not cover the grid")
    # Checked here because the cast to uint8 would wrap 256 to 0.
    if labels.min() < 0 or labels.max() > 3:
        raise ValueError("labels must be in 0..3")
    return SegmentationMap(np.repeat(labels.astype(np.uint8), counts).reshape(h, w))


def candidate_to_obj(cand: InstanceCandidate) -> dict:
    return _to_json(cand)


@_decoder("candidate")
def candidate_from_obj(obj: Mapping) -> InstanceCandidate:
    return _record(InstanceCandidate, obj)


# ---------------------------------------------------------------------------
# Movie manifests, ground truth and synth configs


def movie_to_obj(movie: EmbryoMovie) -> dict:
    return {**_header("movie_manifest"), **_to_json(movie)}


@_decoder("movie manifest")
def movie_from_obj(obj: Mapping) -> EmbryoMovie:
    body = _check_kind(obj, "movie_manifest")
    return _record(EmbryoMovie, {"plane_spacing_um": EmbryoMovie.plane_spacing_um, **body})


def truth_to_obj(truth: GroundTruth) -> dict:
    return {**_header("ground_truth"), **_to_json(truth)}


@_decoder("ground truth")
def truth_from_obj(obj: Mapping) -> GroundTruth:
    return _record(GroundTruth, _check_kind(obj, "ground_truth"))


def synth_config_to_obj(config: SynthConfig) -> dict:
    return {**_header("synth_config"), **_to_json(config)}


@_decoder("synth config", InvalidConfigError)
def synth_config_from_obj(obj: Mapping) -> SynthConfig:
    """Decode a synth_config object; an unknown or missing key or a value
    of the wrong JSON type raises InvalidConfigError."""
    return _record(SynthConfig, _check_kind(obj, "synth_config"))


# ---------------------------------------------------------------------------
# Backend output files

# The data rows of three backend files; a candidate row is a candidate
# object plus its frame index.


@dataclass(frozen=True)
class _SegRow:
    frame: int
    plane: int
    map: SegmentationMap


@dataclass(frozen=True)
class _FragRow:
    frame: int
    plane: int
    score: float


@dataclass(frozen=True)
class _StageRow:
    t: float
    p: np.ndarray


class _PlaneTable(dict):
    """Seg maps or fragmentation scores by ``(frame, plane)``, read from
    the file at ``path`` for the pipeline stage ``stage``. A missing row
    is a BackendError naming the file, as a missing stage row is."""

    def __init__(self, stage: str, path: Path, rows):
        super().__init__(rows)
        self.stage, self.path = stage, path

    def __missing__(self, key):
        frame, plane = key
        raise BackendError(
            self.stage, frame, f"{self.path} has no row for frame {frame}, plane {plane}"
        )


class _StageTable(dict):
    """Stage probability rows by frame index, with the file they were
    read from and each row's time ``t``."""

    def __init__(self, path: Path, rows: Sequence[_StageRow]):
        super().__init__(enumerate(r.p for r in rows))
        self.path = path
        self.times = tuple(r.t for r in rows)

    def check_times(self, times: Sequence[float]) -> None:
        """Match the rows to the frames at ``times`` by time, naming the
        file on a mismatch.

        A row at no frame's time is a FormatError. A frame without a row
        is a BackendError, as a missing segmentation or fragmentation
        entry is. Rows increase in time, so once both checks pass, row
        ``i`` is frame ``i``'s.
        """
        frames = set(times)
        for k, t in enumerate(self.times, 1):
            if t not in frames:
                raise FormatError(
                    f"{self.path}: stage row {k} has t {t!r}, no frame's time"
                )
        rows = set(self.times)
        for i, t in enumerate(times):
            if t not in rows:
                raise BackendError(
                    "stage_classification", i, f"{self.path} has no row at t {t!r}"
                )


def write_backend_files(
    out_dir: Path | str,
    rendered: RenderedOutputs,
    times: Sequence[float],
    seg_plane: int,
) -> None:
    """Write the five per-frame backend output files into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = {
        "segmentation": (
            _to_json(_SegRow(i, seg_plane, m)) for i, m in enumerate(rendered.seg_maps)
        ),
        "fragmentation": (
            _to_json(_FragRow(i, plane, float(score)))
            for i, scores in enumerate(rendered.fragmentation)
            for plane, score in sorted(scores.items())
        ),
        "stage_probs": (
            _to_json(_StageRow(float(t), vec))
            for t, vec in zip(times, rendered.stage_probs)
        ),
    }
    for key, per_frame in (("cells", rendered.cells), ("pronuclei", rendered.pronuclei)):
        rows[key] = (
            dict(candidate_to_obj(c), frame=i)
            for i, planes in enumerate(per_frame)
            for plane in sorted(planes)
            for c in planes[plane]
        )
    for key, data in rows.items():
        write_ndjson(out / BACKEND_FILES[key], data, kind=_NDJSON_HEADER_KINDS[key])


def read_backend_tables(backend_dir: Path | str) -> dict:
    """Load the five backend files into lookup tables.

    Returns a dict with keys seg, frag, stage, cells, pronuclei; seg and
    frag are keyed by (frame, plane), and a missing key raises the
    BackendError that names the file. Stage is keyed by frame, and the
    candidate tables by (frame, plane) with missing keys meaning no
    detections. Stage rows must come in strictly increasing time ``t``;
    the stage table keeps each row's time for ``check_times``.
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
            except _MALFORMED as e:
                raise FormatError(
                    f"{path}: bad row at line {lineno}: {type(e).__name__}: {e}"
                ) from None
        return out

    times: list[float] = []

    def stage_row(obj: Any) -> _StageRow:
        row = _record(_StageRow, obj)
        if times and not row.t > times[-1]:
            raise ValueError(f"t {row.t!r} is not after the previous row's {times[-1]!r}")
        times.append(row.t)
        return row

    def candidate_row(obj: Any) -> tuple:
        body = dict(_typed(obj, dict))
        frame = _typed(body.pop("frame"), int)
        cand = candidate_from_obj(body)
        return (frame, cand.plane), cand

    seg = decoded("segmentation", lambda r: _record(_SegRow, r))
    frag = decoded("fragmentation", lambda r: _record(_FragRow, r))
    tables = {
        "seg": _PlaneTable("zona_segmentation", d / BACKEND_FILES["segmentation"],
                           {(r.frame, r.plane): r.map for r in seg}),
        "frag": _PlaneTable("fragmentation", d / BACKEND_FILES["fragmentation"],
                            {(r.frame, r.plane): float(r.score) for r in frag}),
        "stage": _StageTable(
            d / BACKEND_FILES["stage_probs"], decoded("stage_probs", stage_row)
        ),
    }
    for key in ("cells", "pronuclei"):
        table: dict = {}
        for k, cand in decoded(key, candidate_row):
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
    return _round6({**_header("evaluation_report"), **_to_json(report)})


@_decoder("evaluation report")
def report_from_obj(obj: Mapping) -> EvaluationReport:
    return _record(EvaluationReport, _check_kind(obj, "evaluation_report"))


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
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["block", "metric", "value"])
        writer.writerows(report_csv_rows(obj))
