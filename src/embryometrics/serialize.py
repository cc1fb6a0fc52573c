"""Versioned file formats: movie manifests, ground truth bundles,
precomputed backend outputs, confusion matrices, and evaluation reports.

All JSON is written canonically (sorted keys, compact separators, bare
floats via repr) so identical inputs produce byte-identical files.
Binary masks are stored as row-major run-length encodings starting with
the background run; 4-class maps as (label, count) run pairs. A map's
runs are written as JSON text that numpy builds (``_seg_runs_text``) and
``canonical_dumps`` splices in, so no write builds a list per run: each
run is a fixed-width row of bytes, each digit column one integer
division over all counts, and one boolean compress drops the leading
zeros. Reads mirror this: ``_loads`` cuts each runs value in that
canonical form out of the text, ending it at the last ``]]`` before the
next quote, and parses it with numpy (``_runs_arrays``), which checks
each run's four separators as one uint32, so no read of a canonical
file builds a list per run either. Any other spelling sends the whole
text to ``json``, which reads it, or rejects it, as before.
Every map holds its maximal runs, so no write encodes a grid. A map read
from canonical, maximal runs (no zero count, no two neighbouring runs
with one label) holds the parsed runs, with int32 counts
(``SegmentationMap._from_runs``), keeps that text and is written back
from it. Runs in any other spelling are merged into maximal runs.

Every other value is written and read by its declared type: ``_codec``
builds, once per type from the hints, both its encoder of one value
(``_to_json`` is that of the value's own type) and its decoder of a list
of values, which rejects unknown, missing and wrong-typed keys at every
depth. A list of records decodes each field as one list and a list of
tuples all their items as one list. Every mask of a file or record is
then checked, and given its tight box, in one vectorised pass
(``_masks_from_objs``). A list that holds a bad value is decoded again
one value at a time by one replay (``_replay``), so that the error is
the one the first bad value raises alone, and it carries that value's
index, which a backend file's reader turns into its line number.
"""

from __future__ import annotations

import csv
import functools
import json
from collections import abc
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from types import UnionType
from typing import (
    Any,
    Callable,
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
    _runs_bboxes,
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
    """``value`` as JSON data, written as its type declares (``_codec``)."""
    return _codec(type(value))[0](value)


#: What indexing or converting a malformed object raises; OverflowError
#: is a number out of range for its type.
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def _same(value: Any) -> Any:
    return value


@functools.cache
def _codec(tp: Any) -> tuple[Callable[[Any], Any], Callable[[list], list]]:
    """How the declared type ``tp`` is written and read, built once per
    type from its hints: the encoder of one value as JSON data, and the
    decoder of a list of JSON values, which ``_column`` replays.

    A dataclass is an object field by field, an enum its token, a tuple
    or array a list, a mapping an object with encoded keys; masks and maps
    keep their own run-length codecs, and a fragmentation score is its
    value. A value of the wrong JSON type is a TypeError, a tuple of the
    wrong length a ValueError. An int stays an int where a float is
    declared, so a file repeats a value as given. The values are decoded
    as one column, and the items of tuples as one column of their own;
    the decoder may raise any bad value's error.
    """
    if tp in (float, int, str, bool):
        return _same, functools.partial(_scalars, (int, float) if tp is float else (tp,))
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union or origin is UnionType:
        (inner,) = (a for a in args if a is not type(None))
        encode = _codec(inner)[0]
        return (lambda v: None if v is None else encode(v)), (
            functools.partial(_optional, _column(inner)))
    if origin is tuple:
        (item,) = set(args) - {Ellipsis}  # every tuple type here has one item type
        encode = _codec(item)[0]
        return (lambda v: list(map(encode, v))), functools.partial(
            _tuples, _column(item), None if Ellipsis in args else len(args))
    if origin is abc.Mapping:
        (write_key, key), (write_value, value) = ((_codec(a)[0], _column(a)) for a in args)
        # Item by item, each key before its value, as the first bad one raises.
        return (lambda m: {write_key(k): write_value(x) for k, x in m.items()}), (
            lambda values: [{key([k])[0]: value([x])[0] for k, x in _typed(m, dict).items()}
                            for m in values])
    if tp is BinaryMask:
        return mask_to_obj, _masks_from_objs
    if tp is SegmentationMap:
        # Looked up on each call, so that a patched decoder is the one used.
        return (lambda seg: {"w": seg.width, "h": seg.height,
                             "runs": seg._runs_text or _Text(_seg_runs_text(seg))}), (
            lambda values: [seg_map_from_obj(v) for v in values])
    if tp is FragmentationScore:
        return (lambda score: score.value), (
            lambda values: [FragmentationScore(_typed(v, int, float)) for v in values])
    if tp is np.ndarray:
        floats = _column(tuple[float, ...])
        return (lambda a: [float(x) for x in a]), (
            lambda values: [np.asarray(x, dtype=np.float64) for x in floats(values)])
    if isinstance(tp, type) and issubclass(tp, Enum):
        return (lambda e: e.token), lambda values: [tp.from_token(_typed(v, str)) for v in values]
    spelt = [(key, name, _codec(t)[0]) for key, (name, t) in _schema(tp).items()]
    return (lambda record: {key: encode(getattr(record, name)) for key, name, encode in spelt}), (
        functools.partial(_records, tp))


@functools.cache
def _column(tp: Any) -> Callable[[list], list]:
    """``_codec(tp)``'s decoder of a list of JSON values, through
    ``_replay``: a list that holds a bad value raises the error the first
    bad value raises alone, with its index."""
    return functools.partial(_replay, _codec(tp)[1])


def _replay(decode: Callable[[list], list], values: list) -> list:
    """``decode(values)``; if that raises, or there is one value, the
    values decoded one at a time, up to the first bad value, which raises
    the error it raises alone, with its index in ``values`` as the error's
    ``index``."""
    if len(values) > 1:
        try:
            return decode(values)
        except _MALFORMED:
            pass
    out = []
    for i, value in enumerate(values):
        try:
            out += decode([value])
        except _MALFORMED as e:
            e.index = i
            raise
    return out


def _scalars(types: tuple[type, ...], values: list) -> list:
    """``values``, each checked to be one of the JSON ``types`` as
    ``_typed`` checks it; the check is one pass over their exact types,
    and a value of any other type sends them through ``_typed``."""
    if set(map(type, values)).issubset(types):
        return values
    return [_typed(v, *types) for v in values]


def _optional(decode: Callable[[list], list], values: list) -> list:
    """None for each None of ``values``, the others through ``decode``."""
    given = iter(decode([v for v in values if v is not None]))
    return [None if v is None else next(given) for v in values]


def _tuples(decode: Callable[[list], list], length: int | None, values: list) -> list:
    """Each JSON list of ``values`` as a tuple, of ``length`` items unless
    None, all their items through one ``decode`` call."""
    lists = [_typed(v, list) for v in values]
    for x in lists:
        if length is not None and len(x) != length:
            raise ValueError(f"expected {length} values, got {len(x)}")
    items = iter(decode(list(chain.from_iterable(lists))))
    return [tuple(islice(items, len(x))) for x in lists]


def _records(cls: type, objs: list, partial: bool = False) -> list:
    """The dataclass ``cls`` built from each JSON object of ``objs``.

    Each key must name a field, and each field must have a key unless
    ``partial`` (the field's default then applies). Objects whose keys
    come in one order are decoded field by field in that order, each
    field's values as one column of its declared type; objects whose
    keys differ are decoded one at a time.
    """
    objs = [_typed(obj, dict) for obj in objs]
    if not objs:
        return []
    keys = tuple(objs[0])
    if any(tuple(obj) != keys for obj in objs):
        return [x for obj in objs for x in _records(cls, [obj], partial)]
    schema = _schema(cls)
    columns = {}
    for key in keys:
        if key not in schema:
            raise ValueError(f"unknown key {key!r}")
        name, tp = schema[key]
        try:
            columns[name] = _column(tp)([obj[key] for obj in objs])
        except TypeError as e:
            raise TypeError(f"{key!r}: {e}") from None
    if not partial:
        for key in schema:
            if key not in keys:
                raise KeyError(key)
    return [cls(**{name: col[i] for name, col in columns.items()}) for i in range(len(objs))]


def _record(cls: type, obj: Any, partial: bool = False) -> Any:
    """The dataclass ``cls`` built from the JSON object ``obj``: the
    column of one of ``_records``."""
    return _records(cls, [obj], partial)[0]


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
    again; a map that keeps the text drops them, so a later decode of the
    same text parses it again with ``_runs_arrays``.
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
    decoder hands to ``parse_constant``, in order. A canonical value holds
    no ``"``, so it ends at the last ``]]`` before the next ``"`` (or the
    end of the text), which one search for the quote finds. No backslash
    precedes the key's opening quote, so in a text the decoder accepts,
    every placeholder is the value of a ``"runs"`` key. A value that is
    not canonical, a backslash before the key, a decode error, or a count
    of placeholders used that differs from the count made sends the whole
    text to ``_json_decode``, which also raises every error.
    """
    pieces, texts = [], []
    done = 0
    while (key := text.find(_RUNS_KEY + "[[", done)) >= 0:
        start = key + len(_RUNS_KEY)
        quote = text.find('"', start)
        end = text.rfind("]]", start, quote if quote >= 0 else len(text)) + 2
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
    version = obj.get("format_version")
    # Only the integer itself: `true` and `1.0` equal 1 in Python.
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r} for {kind}")
    if obj.get("kind") != kind:
        raise FormatError(f"expected kind {kind!r}, got {obj.get('kind')!r}")
    return {k: v for k, v in obj.items() if k not in ("format_version", "kind")}


# ---------------------------------------------------------------------------
# Masks and maps


def _integers(values: list) -> np.ndarray:
    """Run values from JSON as an integer array, else TypeError; a bool is
    not an integer here, though Python counts it as one."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind != "i" or bool in map(type, values):
        raise TypeError("run values must be integers")
    return arr


def mask_to_obj(mask: BinaryMask) -> dict:
    return {"w": mask.width, "h": mask.height, "rle": list(mask.runs)}


def mask_from_obj(obj: Mapping) -> BinaryMask:
    return _masks_from_objs([obj])[0]


@_decoder("mask")
def _masks_from_objs(objs: list) -> list[BinaryMask]:
    """The mask of each JSON object of ``objs``, checked and given its
    tight box and its foreground runs in one vectorised pass over all
    their runs (``_checked_boxes``).

    If the pass does not take every mask, each is built by
    ``BinaryMask``'s own checks, in order, so that the first bad mask
    raises the error it raises alone.
    """
    shapes = [(_typed(o["w"], int), _typed(o["h"], int), _typed(o["rle"], list)) for o in objs]
    held = _checked_boxes(shapes)
    if held is None:
        return [BinaryMask(w, h, tuple(_integers(rle).tolist())) for w, h, rle in shapes]
    return [BinaryMask._from_runs(w, h, tuple(rle), box, fg)
            for (w, h, rle), (box, fg) in zip(shapes, held)]


def _checked_boxes(shapes: list[tuple[int, int, list]]) -> list | None:
    """The tight box (None if it has no foreground) and the foreground
    runs of each ``(w, h, runs)`` mask, by ``_runs_bboxes``, if every mask
    is one ``BinaryMask`` accepts: ints and no bools for runs, w and h
    positive, runs not empty, the first >= 0 and every later one > 0,
    summing to w * h. Else None, also where a sum could pass int64.

    The runs of all masks lie end to end in one int64 array, so their
    running sum gives every run's flat end; a mask's foreground runs are
    its odd ones.
    """
    if not shapes:
        return []
    rles = [rle for _, _, rle in shapes]
    flat = list(chain.from_iterable(rles))
    if not set(map(type, flat)) <= {int}:
        return None
    n = np.fromiter(map(len, rles), np.int64, len(rles))
    try:
        runs = np.fromiter(flat, np.int64, len(flat))
        width = np.fromiter((w for w, _, _ in shapes), np.int64, len(shapes))
        area = np.fromiter((w * h for w, h, _ in shapes), np.int64, len(shapes))
    except OverflowError:
        return None
    if n.min() < 1 or width.min() < 1 or area.min() < 1 or runs.min() < 0:
        return None
    starts = np.cumsum(n) - n
    zero = runs == 0
    zero[starts] = False
    if zero.any() or int(runs.max()) * runs.size > np.iinfo(np.int64).max:
        return None
    ends = np.cumsum(runs)
    before = np.concatenate(([0], ends))[starts]  # pixels of the masks before
    if not np.array_equal(ends[starts + n - 1] - before, area):
        return None
    # A mask's runs start with background, so its odd runs are foreground.
    fg = np.flatnonzero((np.arange(runs.size) - np.repeat(starts, n)) & 1)
    before = np.repeat(before, n)[fg]
    return _runs_bboxes(ends[fg - 1] - before, ends[fg] - before, width, n // 2)


def _seg_runs_text(seg: SegmentationMap) -> str:
    """``seg``'s runs as the JSON text ``[[label,count],...]``.

    Each run is first laid out as one fixed-width row ``,[L,`` + ``d``
    digit columns + ``]``, where ``L`` is its label digit (labels are
    0..3) and ``d`` the digit count of the largest count. Each digit
    column is one integer division over all counts: a column holds the
    quotient's last digit, and is a leading zero where the quotient is
    0. One boolean compress drops every leading zero; the first row's
    ``,`` becomes the opening ``[`` and a ``]`` closes the text.
    """
    labels, counts = seg._runs
    d = len(str(int(counts.max())))
    rows = np.empty((counts.size, d + 5), dtype=np.uint8)
    keep = np.ones(rows.shape, dtype=bool)
    rows[:, 0] = ord(",")
    rows[:, 1] = ord("[")
    np.add(labels, ord("0"), out=rows[:, 2], casting="unsafe")
    rows[:, 3] = ord(",")
    rows[:, -1] = ord("]")
    above = 0  # the quotient one column to the left
    for col, place in enumerate(range(d - 1, -1, -1), 4):
        q = counts // 10**place if place else counts
        # The digit is q - 10 * above, written in one pass with its '0'.
        np.subtract(q, above * 10 - ord("0"), out=rows[:, col], casting="unsafe")
        if place:
            np.not_equal(q, 0, out=keep[:, col])
        above = q
    text = rows[keep]
    text[0] = ord("[")
    return text.tobytes().decode("ascii") + "]"


_RUN_GROUP, _LAST_RUN_GROUP = np.frombuffer(b"[,],[,]]", dtype=np.uint32)


def _runs_arrays(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The labels and counts of the runs value ``text``, if it is in the
    canonical form ``_seg_runs_text`` writes, else None.

    Canonical means the bytes ``[[L,C],[L,C],...]`` and nothing else: no
    whitespace, no sign, fraction or exponent, and numbers without a
    leading zero. Each number also has at most 9 digits, so that a count
    fits int32 and the int64 sum of a map's counts is exact. Every byte
    that is not a digit is a separator: the first must be ``[``, and each
    run's four must be ``[,],``, or ``[,]]`` for the last run, which is
    checked as one uint32 per run. Each label is read as its one digit,
    straight into uint8; a label of more digits, so at least 10, reads
    as 10, which ``seg_map_from_obj`` refuses as it would the label.
    """
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digits = raw - ord("0")
    sep = np.flatnonzero(digits > 9)  # every byte that is not a digit
    k = (sep.size - 1) // 4  # runs
    if k < 1 or sep.size != 4 * k + 1 or raw[sep[0]] != ord("["):
        return None
    groups = raw[sep[1:]].view(np.uint32)
    if groups[-1] != _LAST_RUN_GROUP or (groups[:-1] != _RUN_GROUP).any():
        return None
    opens, commas, closes = sep[1::4], sep[2::4], sep[3::4]
    n_labels, n_counts = commas - opens - 1, closes - commas - 1
    # A digit outside every label and count is one between brackets.
    if int(n_labels.sum() + n_counts.sum()) != digits.size - sep.size:
        return None
    labels = digits[commas - 1]
    long = np.flatnonzero(n_labels > 1)
    if n_labels.min() < 1 or n_labels.max() > 9 or (digits[opens[long] + 1] == 0).any():
        return None
    labels[long] = 10
    counts = _numbers(digits, closes, n_counts)
    return None if counts is None else (labels, counts)


def _numbers(digits: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray | None:
    """The int32 decimal numbers whose ``n`` digits end before ``end``, one
    decimal place at a time; None if one has no digit, more than 9
    digits or a leading zero, which only a number of two or more digits
    can have."""
    if n.min() < 1 or n.max() > 9:
        return None
    value = digits[end - 1].astype(np.int32)
    has = np.flatnonzero(n > 1)
    if (digits[end[has] - n[has]] == 0).any():
        return None
    for place in range(1, int(n.max())):
        has = has[n[has] > place]
        value[has] += digits[end[has] - 1 - place].astype(np.int32) * 10**place
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
    # A `_Text` whose arrays a first decode took is parsed again.
    arrays = (runs.runs or _runs_arrays(runs)) if type(runs) is _Text else None
    if arrays is not None:
        labels, counts = arrays
        # int32 counts of at most 9 digits: their int64 sum is exact.
        total = int(counts.sum(dtype=np.int64))
        # Maximal runs are the text `_seg_runs_text` writes for this grid.
        keep = counts.min() > 0 and not (labels[1:] == labels[:-1]).any()
    else:
        keep = False
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
    if w <= 0 or h <= 0:
        raise ValidationError("segmentation map must be a non-empty 2-D grid")
    if not keep:
        return SegmentationMap(np.repeat(labels, counts).reshape(h, w))
    seg = SegmentationMap._from_runs(labels, counts, w, h)
    runs.runs = None
    object.__setattr__(seg, "_runs_text", runs)
    return seg


def candidate_to_obj(cand: InstanceCandidate) -> dict:
    return _to_json(cand)


def candidate_from_obj(obj: Mapping) -> InstanceCandidate:
    return _candidates_from_objs([obj])[0]


@_decoder("candidate")
def _candidates_from_objs(objs: list) -> list[InstanceCandidate]:
    return _column(InstanceCandidate)(objs)


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


class _FileTable(dict):
    """The rows of the backend file at ``path`` for the pipeline stage
    ``stage``, keyed by ``(frame, plane)``, or by frame with each row's
    time ``t`` in ``times``. A repeated row is a FormatError and a
    missing one a BackendError, both naming the file."""

    def __init__(self, stage: str, path: Path, rows, times: Sequence[float] = ()):
        super().__init__()
        self.stage, self.path, self.times = stage, path, tuple(times)
        for key, value in rows:
            if key in self:
                raise FormatError(f"{path}: a second row for {self._row(key)}")
            self[key] = value

    def _row(self, key) -> str:
        frame, *plane = key if isinstance(key, tuple) else (key,)
        return f"frame {frame}" + "".join(f", plane {p}" for p in plane)

    def __missing__(self, key):
        frame = key[0] if isinstance(key, tuple) else key
        raise BackendError(self.stage, frame, f"{self.path} has no row for {self._row(key)}")

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
                raise BackendError(self.stage, i, f"{self.path} has no row at t {t!r}")


def backend_tables(rendered: RenderedOutputs, seg_plane: int) -> dict:
    """``rendered`` as the five tables ``read_backend_tables`` returns for
    the files ``write_backend_files`` writes: seg (on ``seg_plane``), frag
    and the candidate tables keyed by (frame, plane), stage by frame. A
    plane without candidates, ``()``, has no key, as it has no row."""

    def by_plane(per_frame: Sequence[Mapping[int, Any]]) -> dict:
        return {(i, plane): value for i, planes in enumerate(per_frame)
                for plane, value in sorted(planes.items()) if value != ()}

    return {
        "seg": {(i, seg_plane): m for i, m in enumerate(rendered.seg_maps)},
        "frag": by_plane(rendered.fragmentation),
        "stage": dict(enumerate(rendered.stage_probs)),
        "cells": by_plane(rendered.cells),
        "pronuclei": by_plane(rendered.pronuclei),
    }


def write_backend_files(
    out_dir: Path | str,
    rendered: RenderedOutputs,
    times: Sequence[float],
    seg_plane: int,
) -> None:
    """Write the five backend files into out_dir, each one of the
    ``backend_tables`` in key order; stage row ``i`` is at ``times[i]``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {k: sorted(v.items()) for k, v in backend_tables(rendered, seg_plane).items()}
    rows = {
        "segmentation": (_to_json(_SegRow(*key, m)) for key, m in tables["seg"]),
        "fragmentation": (_to_json(_FragRow(*key, s)) for key, s in tables["frag"]),
        "stage_probs": (_to_json(_StageRow(float(times[i]), p)) for i, p in tables["stage"]),
    }
    for key in ("cells", "pronuclei"):
        rows[key] = ({**candidate_to_obj(c), "frame": frame}
                     for (frame, _), cands in tables[key] for c in cands)
    for key, data in rows.items():
        write_ndjson(out / BACKEND_FILES[key], data, kind=_NDJSON_HEADER_KINDS[key])


def read_backend_tables(backend_dir: Path | str) -> dict:
    """Load the five backend files into the tables ``backend_tables``
    builds. A missing or repeated seg, frag or stage row is an error that
    names the file; a candidate table without a key found nothing there.
    Stage rows must come in strictly increasing time ``t``; the stage
    table keeps each row's time for ``check_times``.
    """
    d = Path(backend_dir)

    def decoded(key: str, column: Callable[[list], list]) -> list:
        """The data rows of one file through ``column``, which replays;
        a row that fails to decode is a FormatError naming the file and
        the line of the first bad row."""
        path = d / BACKEND_FILES[key]
        rows = read_ndjson(path, _NDJSON_HEADER_KINDS[key])
        try:
            return column([row for _, row in rows])
        except _MALFORMED as e:
            raise FormatError(
                f"{path}: bad row at line {rows[e.index][0]}: {type(e).__name__}: {e}"
            ) from None

    def stage_rows(pairs: list) -> list[_StageRow]:
        """The stage row of each (previous row or None, row) pair. A row
        whose t is not after the previous row's is bad; replayed in line
        order, the previous row is good, so its JSON t is its t."""
        rows = _records(_StageRow, [obj for _, obj in pairs])
        for (last, _), row in zip(pairs, rows):
            if last is not None and not row.t > last["t"]:
                raise ValueError(f"t {row.t!r} is not after the previous row's {last['t']!r}")
        return rows

    def candidate_rows(objs: list) -> list[tuple]:
        bodies = [dict(_typed(obj, dict)) for obj in objs]
        frames = [_typed(body.pop("frame"), int) for body in bodies]
        cands = _candidates_from_objs(bodies)
        return [((frame, cand.plane), cand) for frame, cand in zip(frames, cands)]

    seg = decoded("segmentation", _column(_SegRow))
    frag = decoded("fragmentation", _column(_FragRow))
    stage = decoded("stage_probs", lambda objs: _replay(stage_rows, [*zip([None, *objs], objs)]))
    tables = {
        "seg": _FileTable("zona_segmentation", d / BACKEND_FILES["segmentation"],
                          (((r.frame, r.plane), r.map) for r in seg)),
        "frag": _FileTable("fragmentation", d / BACKEND_FILES["fragmentation"],
                           (((r.frame, r.plane), float(r.score)) for r in frag)),
        "stage": _FileTable("stage_classification", d / BACKEND_FILES["stage_probs"],
                            enumerate(r.p for r in stage), [r.t for r in stage]),
    }
    for key in ("cells", "pronuclei"):
        table: dict = {}
        for k, cand in decoded(key, functools.partial(_replay, candidate_rows)):
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
