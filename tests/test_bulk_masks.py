"""Masks decoded by the column: `serialize._masks_from_objs` checks every
mask of a list and finds each one's tight box in one vectorised pass, and
`synth._disk_masks` gives each disk the box of its row intervals.

Each mask must equal the one `BinaryMask(w, h, runs)` builds, and its
cached box the box `tight_bbox()` finds on a fresh copy; an empty mask
has none. A column that holds a bad value raises the error the first bad
value raises alone, as decoding one value at a time did: the messages
below are those of the one-at-a-time decoder.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embryometrics.cli import main
from embryometrics.errors import FormatError, ValidationError
from embryometrics.model import BinaryMask
from embryometrics.serialize import (
    _column,
    _masks_from_objs,
    mask_from_obj,
    mask_to_obj,
    read_backend_tables,
    read_json,
    seg_map_from_obj,
    synth_config_to_obj,
    truth_from_obj,
    write_json,
)
from embryometrics.synth import SynthConfig, _disk_masks


def fresh_box(mask: BinaryMask):
    """The tight box of a copy of ``mask`` built through its checks, or
    None if it has no foreground."""
    copy = BinaryMask(mask.width, mask.height, mask.runs)
    return copy.tight_bbox() if copy.area else None


def assert_boxed_like(got: BinaryMask, want: BinaryMask):
    assert got == want
    assert all(type(r) is int for r in got.runs)
    assert got.__dict__.get("_tight_bbox") == fresh_box(want)


@st.composite
def grids(draw, max_side=6):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    kind = draw(st.sampled_from(["random", "full", "empty", "rows"]))
    if kind == "full":
        return np.ones((h, w), bool)
    if kind == "empty":
        return np.zeros((h, w), bool)
    if kind == "rows":  # whole rows, so that runs wrap row breaks
        rows = draw(st.lists(st.booleans(), min_size=h, max_size=h))
        return np.repeat(np.array(rows)[:, None], w, axis=1)
    flat = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
    return np.array(flat).reshape(h, w)


masks = grids().map(BinaryMask.from_array)


class TestAgainstTheConstructor:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(masks, min_size=1, max_size=8))
    def test_mixed_shapes_in_one_call(self, want):
        got = _masks_from_objs([mask_to_obj(m) for m in want])
        assert len(got) == len(want)
        for g, m in zip(got, want):
            assert_boxed_like(g, m)

    @pytest.mark.parametrize("w, h, runs, box", [
        (1, 1, (0, 1), (0, 0, 1, 1)),  # 1x1, full
        (1, 1, (1,), None),  # 1x1, background only
        (3, 2, (0, 6), (0, 0, 3, 2)),  # full grid, zero first run
        (3, 2, (6,), None),  # background only
        (3, 2, (0, 1, 5), (0, 0, 1, 1)),  # zero first run
        (3, 2, (2, 2, 2), (0, 0, 3, 2)),  # one run across the row break
        (4, 3, (1, 2, 2, 2, 5), (1, 0, 2, 2)),  # two runs, no wrap
        (4, 3, (11, 1), (3, 2, 1, 1)),  # the last pixel
    ])
    def test_edge_shapes(self, w, h, runs, box):
        (got,) = _masks_from_objs([{"w": w, "h": h, "rle": list(runs)}])
        assert_boxed_like(got, BinaryMask(w, h, runs))
        assert got.__dict__.get("_tight_bbox") == box

    def test_no_masks(self):
        assert _masks_from_objs([]) == []

    def test_one_mask_decodes_as_before(self):
        mask = mask_from_obj({"w": 3, "h": 2, "rle": [1, 2, 3]})
        assert mask == BinaryMask(3, 2, (1, 2, 3))
        assert mask.tight_bbox() == (1, 0, 2, 1)


# Bad masks and the error each raises alone.
BAD = [
    ({"w": 3, "h": 2, "rle": [1, True, 4]}, FormatError, "bad mask: run values must be integers"),
    ({"w": 2, "h": 1, "rle": [True, True]}, FormatError, "bad mask: run values must be integers"),
    ({"w": 3, "h": 2, "rle": [1.5, 1, 4]}, FormatError, "bad mask: run values must be integers"),
    ({"w": 3, "h": 2, "rle": [1, 2**64, 4]}, FormatError, "bad mask: run values must be integers"),
    ({"w": 3, "h": 2, "rle": []}, ValidationError, "bad mask: runs may not be empty"),
    ({"w": 0, "h": 2, "rle": [0]}, ValidationError, "bad mask: mask dimensions must be positive"),
    ({"w": 3, "h": 2, "rle": [1, 0, 5]}, ValidationError,
     "bad mask: first run must be >= 0 and all later runs > 0 (canonical RLE)"),
    ({"w": 3, "h": 2, "rle": [-1, 7]}, ValidationError,
     "bad mask: first run must be >= 0 and all later runs > 0 (canonical RLE)"),
    ({"w": 3, "h": 2, "rle": [1, 2]}, ValidationError,
     "bad mask: run lengths sum to 3, expected 6"),
    ({"w": 3, "h": 2}, FormatError, "bad mask: missing key 'rle'"),
    ({"w": "3", "h": 2, "rle": [6]}, FormatError, "bad mask: expected int, got '3'"),
]


class TestBadMasks:
    @pytest.mark.parametrize("obj, error, text", BAD)
    def test_alone(self, obj, error, text):
        with pytest.raises(error) as info:
            mask_from_obj(obj)
        assert type(info.value) is error and str(info.value) == text

    @settings(max_examples=100, deadline=None)
    @given(st.lists(masks, min_size=1, max_size=5), st.data())
    def test_in_a_column_the_first_bad_one_raises(self, good, data):
        objs = [mask_to_obj(m) for m in good]
        bad = data.draw(st.lists(st.sampled_from(BAD), min_size=1, max_size=3))
        for obj, _, _ in bad:
            objs.insert(data.draw(st.integers(0, len(objs))), obj)
        raised = {id(obj): (error, text) for obj, error, text in BAD}
        error, text = next(raised[id(o)] for o in objs if id(o) in raised)
        with pytest.raises(error) as info:
            _column(BinaryMask)(objs)
        assert type(info.value) is error and str(info.value) == text


circles = st.tuples(
    st.floats(-30, 80, allow_nan=False),
    st.floats(-30, 80, allow_nan=False),
    st.floats(0, 60, allow_nan=False),
)


class TestDiskBoxes:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 48), st.lists(circles, max_size=12))
    @example(48, [(0.0, 0.0, 10.0), (47.0, 47.0, 10.0), (0.0, 47.0, 5.0), (47.0, 0.0, 5.0)])
    @example(48, [(24.0, -20.0, 19.5), (-20.0, 24.0, 21.0), (70.0, 70.0, 3.0), (24.0, 24.0, 60.0)])
    @example(1, [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    def test_seeded_boxes_are_fresh_boxes(self, size, discs):
        for mask in _disk_masks(size, discs):
            assert mask.__dict__.get("_tight_bbox") == fresh_box(mask)

    def test_off_the_grid(self):
        (mask,) = _disk_masks(48, [(-10.0, -10.0, 5.0)])
        assert mask.area == 0 and "_tight_bbox" not in mask.__dict__


SMALL = SynthConfig(frames=6, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))


@pytest.fixture(scope="module")
def embryo(tmp_path_factory):
    root = tmp_path_factory.mktemp("bulk")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "1"]) == 0
    return root / "data" / "synth-0000"


@pytest.fixture
def cells(embryo, tmp_path):
    """A copy of the backend files whose rows 2 and 4 (lines 3 and 5) of
    one file, ``cells.ndjson`` unless named, a test edits, and its path."""
    backend = tmp_path / "backend"
    backend.mkdir()
    for f in (embryo / "backend").iterdir():
        (backend / f.name).write_bytes(f.read_bytes())

    def edit(change, name="cells.ndjson"):
        path = backend / name
        lines = path.read_text().splitlines()
        rows = {i: json.loads(lines[i]) for i in (2, 4)}
        change(rows)
        for i, row in rows.items():
            lines[i] = json.dumps(row, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        return path

    return backend, edit


def bad_rle(row):
    row["mask"]["rle"][0] = 1.5


def no_frame(row):
    del row["frame"]


def loose_box(row):
    row["bbox"][0] += 1


def late_t(row):
    row["t"] = 1e9


def bad_p(row):
    row["p"] = "x"


def bad_map(row):
    row["map"]["w"] += 1


def bad_frame(row):
    row["frame"] = "x"


# The stage rows' t check runs row by row with their decoding, so a row
# that is not after the one before is a bad row, in line order.
@pytest.mark.parametrize("name, first, second, line, message", [
    ("cells.ndjson", bad_rle, no_frame, 3, "FormatError: bad mask: run values must be integers"),
    ("cells.ndjson", no_frame, bad_rle, 3, "KeyError: 'frame'"),
    ("cells.ndjson", loose_box, bad_rle, 3, "ValidationError: bad candidate: bbox (21, 20, 23, 23) "
                                            "is not the tight bounding box (20, 20, 23, 23)"),
    ("stage_probs.ndjson", late_t, bad_p, 4,
     "ValueError: t 40.0 is not after the previous row's 1000000000.0"),
    ("stage_probs.ndjson", bad_p, late_t, 3, "TypeError: 'p': expected list, got 'x'"),
    ("segmentation.ndjson", bad_map, bad_frame, 3,
     "FormatError: bad segmentation map: run lengths do not cover the grid"),
    ("segmentation.ndjson", bad_frame, bad_map, 3, "TypeError: 'frame': expected int, got 'x'"),
])
def test_two_bad_rows_name_the_first(cells, name, first, second, line, message):
    backend, edit = cells

    def change(rows):
        first(rows[2])
        second(rows[4])

    path = edit(change, name)
    with pytest.raises(FormatError) as info:
        read_backend_tables(backend)
    assert str(info.value) == f"{path}: bad row at line {line}: {message}"


def test_a_bool_run_fails_run(cells, embryo, tmp_path, capsys):
    backend, edit = cells
    path = edit(lambda rows: rows[2]["mask"]["rle"].__setitem__(1, True))
    code = main(["run", "--movie", str(embryo / "manifest.json"), "--backends",
                 str(backend), "--out", str(tmp_path / "result.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}: bad row at line 3: FormatError: bad mask: run values must be integers\n"
    )


def test_truth_names_the_first_bad_frame(embryo):
    obj = read_json(embryo / "truth.json")
    obj["cell_masks"][1][0]["rle"][-1] -= 1
    obj["cell_masks"][3] = "x"
    with pytest.raises(ValidationError) as info:
        truth_from_obj(obj)
    assert type(info.value) is ValidationError
    assert str(info.value) == "bad ground truth: bad mask: run lengths sum to 4095, expected 4096"


def test_a_bool_count_fails_a_seg_map():
    # [1, true] read as a count of 1 would cover the 2x2 grid.
    with pytest.raises(FormatError, match="^bad segmentation map: run values must be integers$"):
        seg_map_from_obj({"w": 2, "h": 2, "runs": [[1, True], [2, 3]]})
