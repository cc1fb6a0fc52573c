"""Non-finite numbers are bad input.

JSON has no NaN or Infinity, but Python's json reads the `NaN`,
`Infinity` and `-Infinity` tokens, and a number such as `1e999` reads
as infinity. The readers reject the tokens with one error naming the
file (and the line, for NDJSON); `SynthConfig` rejects a non-finite
frame interval, noise value or distribution entry, however it got there.
Each case exits 1 with one `error: ` line. An integer past Python's
digit limit, which `int()` refuses, is a format error too.
"""

import json
import math
import shutil

import pytest

from embryometrics.cli import main
from embryometrics.errors import FormatError, InvalidConfigError
from embryometrics.serialize import (
    read_json,
    read_ndjson,
    synth_config_to_obj,
    write_json,
)
from embryometrics.synth import NoiseConfig, SynthConfig

SMALL = SynthConfig(frames=6, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))
TOKENS = ["NaN", "Infinity", "-Infinity"]
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One small synthetic bundle, its pipeline config and its result."""
    root = tmp_path_factory.mktemp("non_finite")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "1"]) == 0
    embryo = root / "data" / "synth-0000"
    write_json(root / "pipeline.json", {"roi_side": 48})
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends",
                 str(embryo), "--config", str(root / "pipeline.json"), "--out",
                 str(root / "result.json")]) == 0
    return root, embryo


def exits_1_with_one_line(capsys, argv) -> str:
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    return err


def with_token(obj, placeholder: float, token: str) -> str:
    """``obj`` as JSON text with the number ``placeholder`` spelt ``token``."""
    text = json.dumps(obj)
    assert text.count(repr(placeholder)) == 1
    return text.replace(repr(placeholder), token)


class TestReaders:
    @pytest.mark.parametrize("token", TOKENS)
    def test_read_json_rejects_token_naming_the_file(self, tmp_path, token):
        path = tmp_path / "x.json"
        path.write_text('{"a": [1, %s]}\n' % token)
        with pytest.raises(FormatError, match=f"x.json: .*{token} is not a JSON number"):
            read_json(path)

    @pytest.mark.parametrize("token", TOKENS)
    def test_read_ndjson_names_file_and_line(self, tmp_path, token):
        path = tmp_path / "x.ndjson"
        header = '{"format_version": 1, "kind": "k"}'
        path.write_text(f'{header}\n{{"a": 1}}\n{{"a": {token}}}\n')
        with pytest.raises(FormatError, match=f"x.ndjson: .*line 3: {token} is not"):
            read_ndjson(path, "k")

    def test_integer_past_the_digit_limit_is_a_format_error(self, tmp_path):
        # int() refuses it with a ValueError that used to escape the reader.
        path = tmp_path / "x.json"
        path.write_text('{"a": %s}\n' % ("1" * 5000))
        with pytest.raises(FormatError, match="x.json: invalid JSON"):
            read_json(path)
        path = tmp_path / "x.ndjson"
        header = '{"format_version": 1, "kind": "k"}'
        path.write_text(f'{header}\n{{"a": {"1" * 5000}}}\n')
        with pytest.raises(FormatError, match="x.ndjson: invalid JSON at line 2"):
            read_ndjson(path, "k")

    def test_token_inside_a_string_is_text(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": "NaN Infinity"}\n')
        assert read_json(path) == {"a": "NaN Infinity"}


class TestCliFiles:
    @pytest.mark.parametrize("token", TOKENS)
    def test_manifest_time_token_exits_1(self, tmp_path, capsys, bundle, token):
        root, embryo = bundle
        manifest = json.loads((embryo / "manifest.json").read_text())
        manifest["frames"][2]["t"] = 12345.5
        (tmp_path / "manifest.json").write_text(with_token(manifest, 12345.5, token))
        shutil.copy(embryo / "synth_config.json", tmp_path / "synth_config.json")
        err = exits_1_with_one_line(capsys, [
            "run", "--movie", str(tmp_path / "manifest.json"), "--backends", "synth",
            "--config", str(root / "pipeline.json"), "--out", str(tmp_path / "r.json")])
        assert "manifest.json" in err and token in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("token", TOKENS)
    def test_result_token_exits_1_in_eval(self, tmp_path, capsys, bundle, token):
        root, embryo = bundle
        result = json.loads((root / "result.json").read_text())
        result["frames"][0]["t"] = 12345.5
        (tmp_path / "result.json").write_text(with_token(result, 12345.5, token))
        err = exits_1_with_one_line(capsys, [
            "eval", "--result", str(tmp_path / "result.json"), "--truth",
            str(embryo / "truth.json"), "--out", str(tmp_path / "report.json")])
        assert "result.json" in err and token in err

    @pytest.mark.parametrize("token", TOKENS)
    def test_backend_row_token_exits_1_naming_the_line(
        self, tmp_path, capsys, bundle, token
    ):
        root, embryo = bundle
        backend = tmp_path / "backend"
        shutil.copytree(embryo / "backend", backend)
        lines = (backend / "stage_probs.ndjson").read_text().splitlines()
        row = json.loads(lines[2])
        row["t"] = 12345.5
        lines[2] = with_token(row, 12345.5, token)
        (backend / "stage_probs.ndjson").write_text("\n".join(lines) + "\n")
        err = exits_1_with_one_line(capsys, [
            "run", "--movie", str(embryo / "manifest.json"), "--backends", str(backend),
            "--config", str(root / "pipeline.json"), "--out", str(tmp_path / "r.json")])
        assert "stage_probs.ndjson" in err and "line 3" in err


# Each path sets one config number; 1e999 reads as infinity without a token.
CONFIG_NUMBERS = [
    ("frame_interval_minutes",),
    ("noise", "logit_sigma"),
    ("noise", "logit_scale"),
    ("noise", "mask_jitter_px"),
    ("noise", "confidence_sigma"),
    ("noise", "fragmentation_sigma"),
    ("noise", "seg_flip_rate"),
    ("fragmentation_distribution", 0),
    ("pronucleus_distribution", 2),
]


@pytest.mark.parametrize("where", CONFIG_NUMBERS)
@pytest.mark.parametrize("spelt", ["1e999", "-1e999"])
def test_synth_config_overflow_exits_1(tmp_path, capsys, where, spelt):
    obj = synth_config_to_obj(SMALL)
    node = obj
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = 12345.5
    (tmp_path / "synth.json").write_text(with_token(obj, 12345.5, spelt))
    exits_1_with_one_line(capsys, [
        "synth", "--config", str(tmp_path / "synth.json"), "--out",
        str(tmp_path / "data")])
    assert not (tmp_path / "data").exists()


class TestSynthConfig:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_frame_interval(self, value):
        with pytest.raises(InvalidConfigError):
            SynthConfig(frame_interval_minutes=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", [
        "logit_sigma", "logit_scale", "mask_jitter_px", "confidence_sigma",
        "fragmentation_sigma", "seg_flip_rate"])
    def test_noise_values(self, field, value):
        with pytest.raises(InvalidConfigError):
            SynthConfig(noise=NoiseConfig(**{field: value}))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_distribution_entries(self, value):
        with pytest.raises(InvalidConfigError):
            SynthConfig(fragmentation_distribution=(value, 0.5, 0.5, 0.0))
        with pytest.raises(InvalidConfigError):
            SynthConfig(pronucleus_distribution=(0.5, value, 0.5))

    def test_nan_fragmentation_entry_in_the_cli_exits_1(self, tmp_path, capsys):
        # Used to end in a ValueError traceback from rng.choice.
        obj = synth_config_to_obj(SMALL)
        obj["fragmentation_distribution"] = [0.5, 0.5, 0.0, 12345.5]
        (tmp_path / "synth.json").write_text(with_token(obj, 12345.5, "NaN"))
        exits_1_with_one_line(capsys, [
            "synth", "--config", str(tmp_path / "synth.json"), "--out",
            str(tmp_path / "data")])
