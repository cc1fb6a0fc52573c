"""One token codec for every enum, one fragmentation average for any
plane count, and error lines that name their format."""

import struct

import pytest
from hypothesis import given, strategies as st

from embryometrics.cli import main
from embryometrics.errors import ValidationError, WrongArityError
from embryometrics.gating import average_fragmentation
from embryometrics.model import CandidateKind, FragmentationScore, SegClass, StageClass
from embryometrics.serialize import read_json, synth_config_to_obj, write_json
from embryometrics.synth import SynthConfig

STAGE_TOKENS = [
    "cell1", "cell2", "cell3", "cell4", "cell5", "cell6", "cell7", "cell8",
    "cell9plus", "morula", "blastocyst", "empty", "degenerate",
]
SEG_TOKENS = ["outside_well", "inside_well", "zona", "inside_zona"]
KIND_TOKENS = ["cell", "pronucleus"]


@pytest.mark.parametrize(
    "enum, tokens",
    [(StageClass, STAGE_TOKENS), (SegClass, SEG_TOKENS), (CandidateKind, KIND_TOKENS)],
)
def test_token_table(enum, tokens):
    assert [c.token for c in enum] == tokens
    assert [enum.from_token(t) for t in tokens] == list(enum)


@pytest.mark.parametrize(
    "enum, token",
    [
        (StageClass, "cell_9_plus"),
        (StageClass, "CELL1"),
        (SegClass, "ZONA"),
        (SegClass, "insidezona"),
        (CandidateKind, "Cell"),
    ],
)
def test_from_token_rejects_other_spellings(enum, token):
    with pytest.raises(ValidationError, match=rf"unknown {enum.__name__} token: '{token}'"):
        enum.from_token(token)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.floats(min_value=0.0, max_value=3.0))
def test_average_of_one_score_is_that_score(s):
    assert _bits(average_fragmentation([FragmentationScore(s)]).value) == _bits(s)


@pytest.mark.parametrize("count", [0, 2, 4])
def test_average_takes_one_or_three_scores(count):
    with pytest.raises(WrongArityError):
        average_fragmentation([FragmentationScore(1.0)] * count)


@pytest.fixture(scope="module")
def kept_bundle(tmp_path_factory):
    """A small synthetic embryo that passes the gate, with its result."""
    root = tmp_path_factory.mktemp("tokens")
    synth_path = root / "synth.json"
    write_json(
        synth_path,
        synth_config_to_obj(
            SynthConfig(frames=6, image_size=64, fragmentation_distribution=(1, 0, 0, 0))
        ),
    )
    assert main(["synth", "--config", str(synth_path), "--out", str(root / "data")]) == 0
    embryo = root / "data" / "synth-0000"
    config_path = root / "pipeline.json"
    write_json(config_path, {"roi_side": 48})
    result = root / "result.json"
    assert main(["run", "--movie", str(embryo / "manifest.json"),
                 "--backends", str(embryo), "--config", str(config_path),
                 "--out", str(result)]) == 0
    assert read_json(result)["gate"]["low_fragmentation"] is True
    return embryo, result


def _one_error_line(capsys, rc, prefix):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1
    assert err.startswith(f"error: {prefix}"), err
    return err


@pytest.mark.parametrize(
    "key, value, detail",
    [
        ("decoded_class", "cell99", "unknown StageClass token: 'cell99'"),
        ("decoded_class", "cell_9_plus", "unknown StageClass token: 'cell_9_plus'"),
        ("fragmentation_score", 7, "fragmentation score 7 outside [0, 3]"),
    ],
)
def test_rejected_result_value_names_format(tmp_path, kept_bundle, capsys, key, value, detail):
    embryo, result = kept_bundle
    obj = read_json(result)
    obj["frames"][2][key] = value
    bad = tmp_path / "result.json"
    write_json(bad, obj)
    rc = main(["eval", "--result", str(bad), "--truth", str(embryo / "truth.json"),
               "--out", str(tmp_path / "report.json")])
    err = _one_error_line(capsys, rc, f"{bad}: bad pipeline result: ")
    assert err == f"error: {bad}: bad pipeline result: {detail}\n"


def test_rejected_config_value_names_format(tmp_path, kept_bundle, capsys):
    embryo, _ = kept_bundle
    config = tmp_path / "pipeline.json"
    write_json(config, {"roi_side": -1})
    rc = main(["run", "--movie", str(embryo / "manifest.json"),
               "--backends", str(embryo), "--config", str(config),
               "--out", str(tmp_path / "r.json")])
    err = _one_error_line(capsys, rc, f"{config}: bad pipeline config: ")
    assert err == f"error: {config}: bad pipeline config: roi_side must be positive\n"
    assert not (tmp_path / "r.json").exists()


def test_rejected_nested_mask_names_both_formats(tmp_path, kept_bundle, capsys):
    embryo, result = kept_bundle
    truth = read_json(embryo / "truth.json")
    mask = next(m[0] for m in truth["cell_masks"] if m)
    mask["rle"][-1] += 1
    bad = tmp_path / "truth.json"
    write_json(bad, truth)
    rc = main(["eval", "--result", str(result), "--truth", str(bad),
               "--out", str(tmp_path / "report.json")])
    err = _one_error_line(capsys, rc, f"{bad}: bad ground truth: bad mask: run lengths sum to ")
    assert err.endswith(", expected 4096\n")
