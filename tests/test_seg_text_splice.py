"""A seg map read from canonical, maximal runs text writes that text back.

`serialize.seg_map_from_obj` keeps the `_Text` a map was read from on
the map, and `_to_json` splices it back in instead of encoding the grid
again. Only text that `_seg_runs_text` would write for the grid may be
kept: every count at least 1 and no two neighbouring runs with the same
label. Any other spelling must be written from the grid, as before.
"""

import copy
import json
import shutil
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings

from embryometrics.cli import main
from embryometrics.model import SegmentationMap
from embryometrics.serialize import (
    _loads,
    _Text,
    _to_json,
    canonical_dumps,
    read_ndjson,
    seg_map_from_obj,
)
from test_runs_reader import runs_texts


def written(seg: SegmentationMap) -> str:
    return canonical_dumps(_to_json(seg))


def read(runs: str, w: int, h: int) -> SegmentationMap:
    return seg_map_from_obj(_loads(f'{{"h":{h},"runs":{runs},"w":{w}}}'))


# ---------------------------------------------------------------------------
# The grid is copied once


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_map_copies_its_grid_once_and_freezes_it(dtype):
    arr = np.array([[0, 1, 2], [3, 2, 1]], dtype=dtype)
    seg = SegmentationMap(arr)
    assert seg.labels.dtype == np.uint8
    assert not seg.labels.flags.writeable
    assert not np.shares_memory(seg.labels, arr)
    arr[0, 0] = 3
    assert seg.labels[0, 0] == 0


# ---------------------------------------------------------------------------
# Which text is kept


def test_maximal_text_is_kept_without_its_arrays():
    seg = read("[[0,2],[3,1]]", 3, 1)
    assert type(seg._runs_text) is _Text
    assert seg._runs_text == "[[0,2],[3,1]]"
    assert seg._runs_text.runs is None
    assert written(seg) == '{"h":1,"runs":[[0,2],[3,1]],"w":3}'
    # The text is outside the fields that `==` and hash read.
    assert [f.name for f in fields(seg)] == ["labels"]
    # On one pixel, where `==` on the labels is defined, the text does not
    # change what the map equals.
    assert read("[[2,1]]", 1, 1) == SegmentationMap([[2]])


@pytest.mark.parametrize("runs, expected", [
    ("[[1,5],[1,5]]", "[[1,10]]"),
    ("[[0,0],[2,3]]", "[[2,3]]"),
    ("[[2,3],[1,0]]", "[[2,3]]"),
    ("[[0,1],[2,0],[0,2]]", "[[0,3]]"),
])
def test_text_that_is_not_maximal_is_written_from_the_grid(runs, expected):
    w = sum(c for _, c in json.loads(runs))
    seg = read(runs, w, 1)
    assert seg._runs_text is None
    assert written(seg) == f'{{"h":1,"runs":{expected},"w":{w}}}'


def test_a_map_built_from_a_grid_keeps_no_text():
    assert SegmentationMap(np.zeros((2, 2), dtype=np.uint8))._runs_text is None


@settings(max_examples=300, deadline=None)
@given(text=runs_texts())
def test_kept_text_writes_what_the_grid_encodes_to(text):
    try:
        m = seg_map_from_obj(_loads(text))
    except ValueError:  # not JSON, or not a map
        return
    reference = SegmentationMap(m.labels)
    assert canonical_dumps(_to_json(m)) == canonical_dumps(_to_json(reference))
    if m._runs_text is not None:
        assert m._runs_text.runs is None
    # `==` reads the labels field only (see below), so m equals the reference.
    assert np.array_equal(m.labels, reference.labels)
    assert written(copy.deepcopy(m)) == written(m)


# ---------------------------------------------------------------------------
# Through `run`


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One default-size seed-0 bundle and the result `run` writes for it."""
    root = tmp_path_factory.mktemp("splice")
    assert main(["synth", "--out", str(root / "data"), "--embryos", "1", "--seed", "0"]) == 0
    embryo = root / "data" / "synth-0000"
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends",
                 str(embryo), "--out", str(root / "result.json")]) == 0
    return root, embryo


def test_run_writes_the_same_result_from_runs_that_are_not_maximal(bundle, tmp_path):
    root, embryo = bundle
    edited = tmp_path / "bundle"
    shutil.copytree(embryo, edited)
    seg_file = edited / "backend" / "segmentation.ndjson"
    header, *rows = seg_file.read_text().splitlines(keepends=True)
    # Row 0: its first run split in two. Row 1: a zero count in front.
    label, count = json.loads(rows[0])["map"]["runs"][0]
    assert count >= 2
    rows[0] = rows[0].replace(f'"runs":[[{label},{count}]',
                              f'"runs":[[{label},1],[{label},{count - 1}]', 1)
    rows[1] = rows[1].replace('"runs":[[', '"runs":[[2,0],[', 1)
    seg_file.write_text(header + "".join(rows))

    (_, first), (_, second), *_ = read_ndjson(seg_file, "backend_segmentation")
    assert json.loads(first["map"]["runs"])[:2] == [[label, 1], [label, count - 1]]
    assert json.loads(second["map"]["runs"])[0] == [2, 0]
    for row in (first, second):  # both edits take the canonical reader
        assert type(row["map"]["runs"]) is _Text and row["map"]["runs"].runs is not None

    assert main(["run", "--movie", str(edited / "manifest.json"), "--backends",
                 str(edited), "--out", str(tmp_path / "result.json")]) == 0
    assert (tmp_path / "result.json").read_bytes() == (root / "result.json").read_bytes()
