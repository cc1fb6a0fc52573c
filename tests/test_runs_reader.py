"""The seg-map runs reader against the plain json reader it stands in for.

`serialize._loads` cuts each canonical `"runs":[[label,count],...]` value
out of the text and parses it with numpy; any other text goes whole to
json. `slow_loads` below is the reader as it was before: one json
decoder that refuses the NaN and Infinity tokens. Through both, a text
must give equal maps and write back to the same bytes, or fail with the
same error; the CLI must give the same exit code, the same stderr and
the same output bytes.
"""

import contextlib
import json
import random
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embryometrics import serialize
from embryometrics.cli import main
from embryometrics.errors import ValidationError
from embryometrics.serialize import (
    canonical_dumps,
    read_json,
    read_ndjson,
    seg_map_from_obj,
    synth_config_to_obj,
    write_json,
)
from embryometrics.synth import NoiseConfig, SynthConfig


def _refuse(token):
    raise ValueError(f"{token} is not a JSON number")


slow_loads = json.JSONDecoder(parse_constant=_refuse).decode


@contextlib.contextmanager
def slow_reader():
    """``read_json`` and ``read_ndjson`` through ``slow_loads``."""
    fast = serialize._loads
    serialize._loads = slow_loads
    try:
        yield
    finally:
        serialize._loads = fast


def outcome(path, kind=None):
    """What reading ``path`` and decoding its seg map gives: the map's
    shape and pixels and the bytes the object writes back to, or the
    error's class and text."""
    try:
        if kind is None:
            obj = read_json(path)
        else:
            ((_, row),) = read_ndjson(path, kind)
            obj = row["map"]
        written = canonical_dumps(obj)
        labels = seg_map_from_obj(obj).labels
        return "map", labels.shape, labels.tobytes(), written
    except (ValidationError, ValueError, TypeError, KeyError) as e:
        return "error", type(e).__name__, str(e)


def both(path, kind=None):
    fast = outcome(path, kind)
    with slow_reader():
        slow = outcome(path, kind)
    return fast, slow


def handed_on(text):
    """Whether ``_loads`` hands on any runs value as parsed text."""
    try:
        obj = serialize._loads(text)
    except ValueError:
        return False
    found = []

    def walk(v):
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, list):
            for x in v:
                walk(x)
        elif type(v) is serialize._Text and v.runs is not None:
            found.append(v)

    walk(obj)
    return bool(found)


def seg_text(runs, w, h, extra=""):
    return f'{{"h":{h},{extra}"runs":{runs},"w":{w}}}'


# Each case is a JSON text holding one seg map; ``fast`` says whether
# the text is canonical, so that the numpy parse must have been used.
CASES = {
    "canonical": (seg_text("[[0,2],[3,1]]", 3, 1), True),
    "one run": (seg_text("[[1,6]]", 2, 3), True),
    "space after comma": (seg_text("[[0, 2],[3,1]]", 3, 1), False),
    "space between runs": (seg_text("[[0,2], [3,1]]", 3, 1), False),
    "newline inside": (seg_text("[[0,2],\n[3,1]]", 3, 1), False),
    "leading zero count": (seg_text("[[0,02],[3,1]]", 3, 1), False),
    "leading zero label": (seg_text("[[00,2],[3,1]]", 3, 1), False),
    "minus zero label": (seg_text("[[-0,2],[3,1]]", 3, 1), False),
    "minus count": (seg_text("[[0,-2],[3,5]]", 3, 1), False),
    "fraction": (seg_text("[[0,2.0],[3,1]]", 3, 1), False),
    "exponent": (seg_text("[[0,1e3]]", 1000, 1), False),
    "label 4": (seg_text("[[4,2],[3,1]]", 3, 1), True),
    "label 9": (seg_text("[[0,2],[9,1]]", 3, 1), True),
    "label 300": (seg_text("[[300,2],[3,1]]", 3, 1), True),
    "label 300 sum off": (seg_text("[[300,2],[3,2]]", 3, 1), True),
    "zero count": (seg_text("[[0,0],[2,3]]", 3, 1), True),
    "zero count last": (seg_text("[[2,3],[1,0]]", 3, 1), True),
    "sum short": (seg_text("[[0,2]]", 3, 1), True),
    "sum long": (seg_text("[[0,2],[1,2]]", 3, 1), True),
    "9-digit count": (seg_text("[[0,999999999]]", 3, 1), True),
    "10-digit count": (seg_text("[[0,1000000000]]", 3, 1), False),
    "18-digit count": (seg_text("[[0,999999999999999999]]", 3, 1), False),
    "19-digit count": (seg_text("[[0,9223372036854775808]]", 3, 1), False),
    "counts past int64 summing to the grid": (
        seg_text("[[0,9223372036854775808],[1,-9223372036854775805]]", 3, 1), False),
    "25-digit count": (seg_text("[[0,1000000000000000000000000]]", 3, 1), False),
    "empty runs": (seg_text("[]", 3, 1), False),
    "empty run": (seg_text("[[]]", 3, 1), False),
    "one number": (seg_text("[[0]]", 3, 1), False),
    "three numbers": (seg_text("[[0,1,2]]", 3, 1), False),
    "nested": (seg_text("[[[0],3]]", 3, 1), False),
    "bare pairs": (seg_text("[[0,3],0,3]", 3, 1), False),
    "missing comma": (seg_text("[[0,2][3,1]]", 3, 1), False),
    "double comma": (seg_text("[[0,2],,[3,1]]", 3, 1), False),
    "trailing comma": (seg_text("[[0,2],[3,1],]", 3, 1), False),
    "extra bracket": (seg_text("[[0,2],[3,1]]]", 3, 1), False),
    "digit between runs": (seg_text("[[0,2]5,[3,1]]", 3, 1), False),
    "digit before the first run": (seg_text("[5[0,2],[3,1]]", 3, 1), False),
    "digit before the last bracket": (seg_text("[[0,2],[3,1]5]", 3, 1), False),
    "truncated value": ('{"h":1,"runs":[[0,2],[3,', False),
    "truncated after value": ('{"h":1,"runs":[[0,2],[3,1]]', False),
    "truncated in digits": ('{"h":1,"runs":[[0,2],[3,1', False),
    "text after value": (seg_text("[[0,3]]0", 3, 1), False),
    "runs in a string": (seg_text("[[0,3]]", 3, 1, '"id":"\\"runs\\":[[0,1]]",'), True),
    "runs key after an escaped quote": (
        seg_text("[[0,3]]", 3, 1, '"a\\"runs":[[0,1]],'), False),
    "runs value under another key": (seg_text("[[0,3]]", 3, 1, '"x":{"runs":[[0,1]]},'), True),
    "NaN beside runs": (seg_text("[[0,3]]", 3, 1, '"x":NaN,'), False),
    "Infinity beside runs": (seg_text("[[0,3]]", 3, 1, '"x":-Infinity,'), False),
    "non-ascii beside runs": (seg_text("[[0,3]]", 3, 1, '"id":"é漢",'), True),
    "non-ascii in runs": (seg_text("[[0,٣]]", 3, 1), False),
    "runs as a string": (seg_text('"[[0,3]]"', 3, 1), False),
    "w as a string": ('{"h":1,"runs":[[0,3]],"w":"3"}', True),
}


@pytest.mark.parametrize("name", CASES)
def test_fast_and_slow_readers_agree(tmp_path, name):
    text, fast = CASES[name]
    path = tmp_path / "seg.json"
    path.write_text(text)
    got, want = both(path)
    assert got == want
    # The cases cover both sides of the canonical test.
    assert handed_on(text) == fast


def test_canonical_runs_keep_their_text_and_arrays():
    obj = serialize._loads(seg_text("[[0,12],[3,1],[1,1000]]", 1013, 1))
    runs = obj["runs"]
    assert type(runs) is serialize._Text
    assert runs == "[[0,12],[3,1],[1,1000]]"
    labels, counts = runs.runs
    assert labels.tolist() == [0, 3, 1] and counts.tolist() == [12, 1, 1000]


@pytest.mark.parametrize("runs, fast", [
    ("[[2,3]]", True), ("[[2, 3]]", False), ("[[2,03]]", False), ("[[5,3]]", True),
    ("[[2,3],[1", False),
])
def test_ndjson_lines_agree(tmp_path, runs, fast):
    header = '{"format_version":1,"kind":"backend_segmentation"}'
    row = f'{{"frame":0,"map":{seg_text(runs, 3, 1)},"plane":3}}'
    path = tmp_path / "segmentation.ndjson"
    path.write_text(f"{header}\n{row}\n")
    got, want = both(path, "backend_segmentation")
    assert got == want
    assert handed_on(row) == fast


NUMBER_SPELLINGS = [
    lambda n: str(n),
    lambda n: str(n),
    lambda n: str(n),
    lambda n: "0" + str(n),
    lambda n: "-" + str(n),
    lambda n: f"{n}.0",
    lambda n: f"{n}e0",
    lambda n: str(n + 10**19),
]


@st.composite
def runs_texts(draw):
    """A seg map's JSON text: runs over a small grid, each number spelt
    canonically or not, optional whitespace, labels past 3, zero counts,
    and sometimes cut short or given a runs-like string beside it."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cuts = sorted(draw(st.sets(st.integers(1, w * h - 1)))) if w * h > 1 else []
    counts = np.diff([0, *cuts, w * h]).tolist()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(counts)))
        counts.insert(at, 0)
    if draw(st.integers(0, 9)) == 0:
        counts[-1] += draw(st.integers(-1, 1))
    labels = draw(st.lists(st.sampled_from([0, 1, 2, 3, 0, 1, 2, 3, 4, 300]),
                           min_size=len(counts), max_size=len(counts)))
    canonical = draw(st.booleans())

    def number(n):
        return str(n) if canonical else draw(st.sampled_from(NUMBER_SPELLINGS))(n)

    def gap():
        return "" if canonical else draw(st.sampled_from(["", "", "", " ", "\n"]))

    pairs = [f"[{gap()}{number(l)},{gap()}{number(c)}]" for l, c in zip(labels, counts)]
    runs = f"[{gap()}" + f",{gap()}".join(pairs) + "]"
    extra = draw(st.sampled_from(["", "", '"id":"\\"runs\\":[[0,1]]",', '"x":{"runs":[[0,1]]},',
                                  '"a\\"runs":[[1,1]],', '"x":NaN,']))
    text = seg_text(runs, w, h, extra)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(1, len(text) - 1))]
    return text


@settings(max_examples=300, deadline=None)
@given(text=runs_texts())
def test_fast_and_slow_readers_agree_on_random_texts(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("runs") / "seg.json"
    path.write_text(text)
    fast, slow = both(path)
    assert fast == slow


# ---------------------------------------------------------------------------
# Flip-a-byte through the CLI

NOISY = SynthConfig(
    frames=6,
    image_size=64,
    fragmentation_distribution=(0.5, 0.5, 0, 0),
    noise=NoiseConfig(seg_flip_rate=0.05, mask_jitter_px=1.0, confidence_sigma=0.05),
)
FLIPS = 60
# Bytes a flip writes: digits most often, so that many edits stay valid
# JSON, then the rest of the runs grammar, the spellings it must refuse,
# JSON structure and a letter; then characters outside ASCII, and bytes
# that are not UTF-8 (a continuation byte, a lead byte cut short, 0xff).
REPLACEMENTS = [bytes([b]) for b in b"0123456789" * 4 + b",[]- .e\"\\{}:nx"] + [
    "é".encode(), "٣".encode(), b"\x80", b"\xc3", b"\xff"] * 2
# The files whose seg maps the runs reader parses.
RUNS_FILES = ["result.json", "truth.json", "segmentation.ndjson"]
OTHER_FILES = ["manifest.json", "synth_config.json", "fragmentation.ndjson",
               "stage_probs.ndjson", "cells.ndjson", "pronuclei.ndjson", "report.json"]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("flip")
    write_json(root / "synth.json", synth_config_to_obj(NOISY))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "2"]) == 0
    embryo = root / "data" / "synth-0000"
    write_json(root / "pipeline.json", {"roi_side": 48})
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends",
                 str(embryo), "--config", str(root / "pipeline.json"), "--out",
                 str(root / "result.json")]) == 0
    assert main(["eval", "--result", str(root / "result.json"), "--truth",
                 str(embryo / "truth.json"), "--out", str(root / "report.json")]) == 0
    return root, embryo


def flips(data: bytes, seed: int):
    """Seeded one-byte edits of ``data``: half of them inside a runs
    value, if it has one, the rest anywhere."""
    rng = random.Random(seed)
    spans = []
    at = 0
    while (key := data.find(b'"runs":[[', at)) >= 0:
        at = data.find(b"]]", key) + 2
        spans.append((key, at))
    for i in range(FLIPS):
        if i % 2 and spans:
            lo, hi = rng.choice(spans)
            pos = rng.randrange(lo, hi)
        else:
            pos = rng.randrange(len(data))
        new = rng.choice(REPLACEMENTS)
        if new == data[pos:pos + 1]:
            new = b"7" if new != b"7" else b"8"
        yield pos, data[:pos] + new + data[pos + 1:]


def original(name, root, embryo):
    """The bundle's copy of the file ``name``."""
    if name in ("result.json", "report.json"):
        return root / name
    if name.endswith(".ndjson"):
        return embryo / "backend" / name
    return embryo / name


def command(name, root, embryo, tmp):
    """The file to edit, the output to compare and the CLI arguments
    that read the file."""
    out = tmp / "out.json"
    edited = tmp / name
    if name.endswith(".ndjson"):
        backend = tmp / "backend"
        shutil.copytree(embryo / "backend", backend)
        return backend / name, out, [
            "run", "--movie", str(embryo / "manifest.json"), "--backends", str(backend),
            "--config", str(root / "pipeline.json"), "--out", str(out)]
    if name == "manifest.json":
        return edited, out, [
            "run", "--movie", str(edited), "--backends", str(embryo),
            "--config", str(root / "pipeline.json"), "--out", str(out)]
    if name == "synth_config.json":
        data = tmp / "data"
        return edited, data / "index.json", [
            "synth", "--config", str(edited), "--out", str(data), "--seed", "2"]
    if name == "report.json":
        table = tmp / "table.csv"
        return edited, table, ["report", "--reports", str(edited), "--out", str(table)]
    if name == "truth.json":
        return edited, out, ["eval", "--result", str(root / "result.json"), "--truth",
                             str(edited), "--out", str(out)]
    return edited, out, ["eval", "--result", str(edited), "--truth",
                         str(embryo / "truth.json"), "--out", str(out)]


def cli_outcome(argv, out, capsys):
    out.unlink(missing_ok=True)
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    return rc, err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("name", RUNS_FILES + OTHER_FILES)
def test_flipped_byte_reads_the_same_through_both_readers(
        bundle, tmp_path, capsys, name):
    root, embryo = bundle
    data = original(name, root, embryo).read_bytes()
    # The untouched file reads fast.
    assert handed_on(data.decode().splitlines()[-1]) == (name in RUNS_FILES)
    path, out, argv = command(name, root, embryo, tmp_path)
    differ, bad_exit = [], []
    for pos, edited in flips(data, seed=sum(map(ord, name))):
        path.write_bytes(edited)
        fast = cli_outcome(argv, out, capsys)
        with slow_reader():
            slow = cli_outcome(argv, out, capsys)
        if fast != slow:
            differ.append((pos, fast[:2], slow[:2]))
        rc, err, _ = fast
        if rc not in (0, 1, 2) or (rc and len(err.splitlines()) != 1):
            bad_exit.append((pos, rc, err))
    assert differ == []
    assert bad_exit == []
