"""The seg-map runs codec against `json`: `_seg_runs_text` writes what
`json.dumps` writes for the list of runs, and `_loads` cuts each runs
value out of a text so that the text reads as the plain json reader
reads it.

The writer lays each run out as a fixed-width row and drops the leading
zeros of its count; the reader ends a runs value at the last `]]` before
the next `"` and checks each run's separators as one uint32. The cases
below sit on the edges of those three steps: every digit count of a
count in every place of the map, a value with no quote after it, a
value followed by `]]` outside it, and a quote right after the value.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embryometrics import serialize
from embryometrics.errors import ValidationError
from embryometrics.model import SegmentationMap
from embryometrics.serialize import (
    _loads,
    _seg_runs_text,
    _Text,
    _to_json,
    canonical_dumps,
    read_json,
    seg_map_from_obj,
    truth_from_obj,
    truth_to_obj,
    write_backend_files,
    write_json,
)
from embryometrics.synth import NoiseConfig, SynthConfig, generate_movie, render_model_outputs
from test_runs_reader import handed_on, slow_reader

INT_MAX = {np.int32: 2**31 - 1, np.int64: 2**63 - 1}


def reference_text(labels, counts) -> str:
    """The runs as `json.dumps` writes the list of `[label, count]` pairs."""
    pairs = [[label, count] for label, count in zip(labels, counts)]
    return json.dumps(pairs, separators=(",", ":"))


def runs_map(labels, counts, dtype=np.int64) -> SegmentationMap:
    """A one-row map holding exactly these runs; the writer reads only the
    runs, so the width may be past anything a grid could hold."""
    labels = np.asarray(labels, dtype=np.uint8)
    counts = np.asarray(counts, dtype=dtype)
    return SegmentationMap._from_runs(labels, counts, sum(counts.tolist()), 1)


def written(labels, counts, dtype=np.int64) -> str:
    return _seg_runs_text(runs_map(labels, counts, dtype))


# ---------------------------------------------------------------------------
# Writer


def digit_counts(dtype):
    """Every digit count from 1 to the widest the dtype holds, with its
    smallest and largest value."""
    top = INT_MAX[dtype]
    for n in range(1, len(str(top)) + 1):
        for count in (10 ** (n - 1), min(10**n - 1, top)):
            yield pytest.param(dtype, count, id=f"{dtype.__name__}-{count}")


@pytest.mark.parametrize("dtype, count", [*digit_counts(np.int32), *digit_counts(np.int64)])
@pytest.mark.parametrize("place", ["first", "middle", "last"])
def test_every_digit_count_in_every_place(dtype, count, place):
    others = [7, 12, 345, 1]
    at = {"first": 0, "middle": 2, "last": len(others)}[place]
    counts = [*others[:at], count, *others[at:]]
    labels = [i % 4 for i in range(len(counts))]
    assert written(labels, counts, dtype) == reference_text(labels, counts)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("count", [1, 9, 10, 99, 100, 250000, 2**31 - 1])
def test_one_run_maps(dtype, count):
    for label in range(4):
        assert written([label], [count], dtype) == f"[[{label},{count}]]"


@pytest.mark.parametrize("label", range(4))
def test_one_pixel_maps(label):
    assert _seg_runs_text(SegmentationMap([[label]])) == f"[[{label},1]]"


@st.composite
def runs(draw, dtype):
    """Labels and counts of any digit counts the dtype holds, mixed."""
    top = INT_MAX[dtype]

    def count():
        n = draw(st.integers(1, len(str(top))))
        return draw(st.integers(10 ** (n - 1) if n > 1 else 0, min(10**n - 1, top)))

    k = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    return labels, [count() for _ in range(k)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.int32, np.int64]).flatmap(lambda t: st.tuples(st.just(t), runs(t))))
def test_writer_is_json_dumps_on_random_runs(case):
    dtype, (labels, counts) = case
    assert written(labels, counts, dtype) == reference_text(labels, counts)


SEED_1 = SynthConfig(seed=1, frames=8, fragmentation_distribution=(0.5, 0.5, 0, 0))
NOISY = NoiseConfig(seg_flip_rate=0.05)


@pytest.fixture(scope="module")
def seed_1_maps():
    """The seed-1 truth maps (painted, int32 counts) and the noisy maps
    rendered from them (flipped, int64 counts), 500 x 500."""
    movie, truth = generate_movie(SEED_1)
    noisy = render_model_outputs(truth, replace(SEED_1, noise=NOISY))
    return movie, truth, noisy


def test_seed_1_clean_and_noisy_maps(seed_1_maps):
    _, truth, rendered = seed_1_maps
    dtypes = set()
    for seg in (*truth.seg_maps, *rendered.seg_maps):
        labels, counts = seg._runs
        dtypes.add(counts.dtype)
        assert _seg_runs_text(seg) == reference_text(labels.tolist(), counts.tolist())
    assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}


def test_every_line_the_writer_writes_takes_the_numpy_path(seed_1_maps, tmp_path):
    movie, truth, rendered = seed_1_maps
    write_backend_files(tmp_path, rendered, movie.times, seg_plane=3)
    write_json(tmp_path / "truth.json", truth_to_obj(truth))
    lines = (tmp_path / "segmentation.ndjson").read_text().splitlines()[1:]
    lines.append((tmp_path / "truth.json").read_text())
    assert len(lines) == SEED_1.frames + 1
    for line in lines:
        values = line.count('"runs":')
        assert values and parsed_values(_loads(line)) == values


def parsed_values(obj) -> int:
    """How many runs values in ``obj`` the numpy reader parsed."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return sum(map(parsed_values, obj))
    return int(type(obj) is _Text and obj.runs is not None)


# ---------------------------------------------------------------------------
# Reader: where a runs value ends


def seg_maps_in(obj) -> list:
    """Every JSON object in ``obj`` with a ``runs`` key, in order."""
    if isinstance(obj, dict):
        return [obj] if "runs" in obj else [m for v in obj.values() for m in seg_maps_in(v)]
    if isinstance(obj, list):
        return [m for v in obj for m in seg_maps_in(v)]
    return []


def outcome(path):
    """The maps a JSON file reads as, and the bytes it writes back to, or
    the error's class and text."""
    try:
        obj = read_json(path)
        maps = [seg_map_from_obj(m) for m in seg_maps_in(obj)]
        return "maps", [(m.labels.shape, m.labels.tobytes()) for m in maps], canonical_dumps(obj)
    except (ValidationError, ValueError, TypeError, KeyError) as e:
        return "error", type(e).__name__, str(e)


def both(tmp_path, text):
    path = tmp_path / "maps.json"
    path.write_text(text)
    fast = outcome(path)
    with slow_reader():
        slow = outcome(path)
    return fast, slow


A = '{"h":1,"runs":[[0,2],[3,1]],"w":3}'
B = '{"h":2,"runs":[[1,1],[2,3]],"w":2}'

# Each text holds one or more seg maps; ``fast`` says whether the numpy
# reader takes it.
VALUE_ENDS = {
    "value last, no quote after": ('{"h":1,"w":3,"runs":[[0,2],[3,1]]}', True),
    "value ends the text": ('{"h":1,"w":3,"runs":[[0,2],[3,1]]', False),
    "value ends the text short of a bracket": ('{"h":1,"w":3,"runs":[[0,2],[3,1]', False),
    "value followed by }]], no quote after": ('[[{"h":1,"w":3,"runs":[[0,2],[3,1]]}]]', False),
    "value followed by ]], no quote after": ('{"h":1,"w":3,"runs":[[0,2],[3,1]]]]', False),
    "value followed by }], no quote after": ('[{"h":1,"w":3,"runs":[[0,2],[3,1]]}]', True),
    "string holding ]] after the value": (
        '{"h":1,"runs":[[0,2],[3,1]],"w":3,"x":"]]"}', True),
    "key holding ]] right after the value": (
        '{"h":1,"runs":[[0,2],[3,1]],"]]":"]]","w":3}', True),
    "string holding ]] before the value": (
        '{"h":1,"x":"]]","runs":[[0,2],[3,1]],"w":3}', True),
    "string holding a runs value after it": (
        '{"h":1,"runs":[[0,2],[3,1]],"w":3,"x":"[[0,3]]"}', True),
    "two maps in one object": (f'{{"a":{A},"b":{B}}}', True),
    "two maps, the second last with no quote after": (
        f'{{"a":{A},"b":{{"h":2,"w":2,"runs":[[1,1],[2,3]]}}}}', True),
    "two maps in a list": (f"[{A},{B}]", True),
    "two maps, one not canonical": (f'{{"a":{A},"b":{B.replace("[2,3]", "[2, 3]")}}}', False),
    "two maps, one runs value cut short": (f'{{"a":{A},"b":{{"h":1,"runs":[[0,', False),
    "quote inside the value": ('{"h":1,"runs":[[0,2],"x",[3,1]],"w":3}', False),
    "value whose ]] is past a quote": ('{"h":1,"runs":[[0,2],[3,1],"]]"],"w":3}', False),
    "runs value of a string": ('{"h":1,"runs":"[[0,3]]","w":3}', False),
}


@pytest.mark.parametrize("name", VALUE_ENDS)
def test_value_ends_read_as_json_reads_them(tmp_path, name):
    text, fast = VALUE_ENDS[name]
    got, want = both(tmp_path, text)
    assert got == want
    assert handed_on(text) == fast


# Where a map's runs value may sit and what may follow it: the last key
# of its object, closed by brackets with no quote after, a string with
# brackets after it, a second map.
WRAPPERS = [
    '{{"h":{h},"runs":{runs},"w":{w}}}',
    '{{"h":{h},"w":{w},"runs":{runs}}}',
    '[[{{"h":{h},"w":{w},"runs":{runs}}}]]',
    '[{{"h":{h},"w":{w},"runs":{runs}}},[[0]]]',
    '{{"h":{h},"runs":{runs},"w":{w},"x":"]]"}}',
    '{{"h":{h},"runs":{runs},"]]":"[[0,1]]","w":{w}}}',
    '{{"a":{{"h":{h},"runs":{runs},"w":{w}}},"b":{{"h":1,"w":1,"runs":[[2,1]]}}}}',
]


@st.composite
def wrapped_maps(draw):
    """A seg map's canonical runs text, maximal or not, possibly cut
    short or with one byte changed, inside one of ``WRAPPERS``."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, w * h - 1)))) if w * h > 1 else []
    counts = np.diff([0, *cuts, w * h]).tolist()
    labels = draw(st.lists(st.integers(0, 4), min_size=len(counts), max_size=len(counts)))
    runs = reference_text(labels, counts)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(runs) - 1))
        runs = runs[:at] + draw(st.sampled_from(list('0123456789[],"} '))) + runs[at + 1:]
    text = draw(st.sampled_from(WRAPPERS)).format(h=h, w=w, runs=runs)
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(1, len(text) - 1))]
    return text


@settings(max_examples=400, deadline=None)
@given(text=wrapped_maps())
def test_wrapped_maps_read_as_json_reads_them(tmp_path_factory, text):
    got, want = both(tmp_path_factory.mktemp("codec"), text)
    assert got == want


# ---------------------------------------------------------------------------
# Reader: the separators of each run


@pytest.mark.parametrize("runs, fast", [
    ("[[0,2],[3,1]]", True),
    ("[[0,3]]", True),
    ("[[0,2],[3,1],]", False),
    ("[[0,2]],[3,1]]", False),
    ("[[0,2],[3,1]", False),
    ("[[0,2][3,1]]", False),
    ("[[0,2]],[[3,1]]", False),
    ("[[0,2],[3,1]]]", False),
    ("[[0],[2,3,1]]", False),
    ("[[0,2,3],[1]]", False),
    ("[[[0,2],[3,1]]", False),
    ("[,[0,2],[3,1]]", False),
    ("[[0,2],[3,1]],", False),
    ("[[0,2],[3,1]:", False),
    ("[[0:2],[3,1]]", False),
    ("[[0,2},[3,1]]", False),
    (",[0,2],[3,1]]", False),
    ("][0,2],[3,1]]", False),
])
def test_separator_groups(tmp_path, runs, fast):
    text = f'{{"h":1,"runs":{runs},"w":3}}'
    got, want = both(tmp_path, text)
    assert got == want
    assert handed_on(text) == fast
    assert (serialize._runs_arrays(runs) is not None) == fast


@pytest.mark.parametrize("runs, counts", [
    ("[[0,1],[1,10],[2,100]]", [1, 10, 100]),
    ("[[0,0],[1,7]]", [0, 7]),
    ("[[0,123456789]]", [123456789]),
])
def test_counts_of_one_digit_may_be_zero_and_longer_ones_are_read(runs, counts):
    assert serialize._runs_arrays(runs)[1].tolist() == counts


@pytest.mark.parametrize("runs", ["[[0,01]]", "[[0,00]]", "[[0,1],[1,010]]", "[[0,0123456789]]",
                                  "[[01,1]]", "[[0,1234567890]]"])
def test_leading_zero_or_tenth_digit_is_not_canonical(runs):
    assert serialize._runs_arrays(runs) is None


# ---------------------------------------------------------------------------
# A decoded object decodes again without json


@pytest.fixture
def no_json_loads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(serialize.json, "loads", refuse)


def test_second_decode_of_a_parsed_truth_skips_json(seed_1_maps, tmp_path, no_json_loads):
    _, truth, _ = seed_1_maps
    write_json(tmp_path / "truth.json", truth_to_obj(truth))
    obj = read_json(tmp_path / "truth.json")
    first, second = truth_from_obj(obj), truth_from_obj(obj)
    for a, b in zip(first.seg_maps, second.seg_maps, strict=True):
        assert b._runs_text is not None and b._runs_text == a._runs_text
        assert all(np.array_equal(x, y) for x, y in zip(a._runs, b._runs))
        assert np.array_equal(a.labels, b.labels)
    assert canonical_dumps(truth_to_obj(second)) == canonical_dumps(truth_to_obj(first))


def test_a_written_map_decodes_without_json(seed_1_maps, no_json_loads):
    _, truth, rendered = seed_1_maps
    for seg in (truth.seg_maps[0], rendered.seg_maps[0], SegmentationMap([[1, 1], [2, 3]])):
        obj = _to_json(seg)
        assert type(obj["runs"]) is _Text and obj["runs"].runs is None
        back = seg_map_from_obj(obj)
        assert back._runs_text == obj["runs"]
        assert np.array_equal(back._runs[1], seg._runs[1])
        assert np.array_equal(back.labels, seg.labels)
