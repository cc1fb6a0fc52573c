"""Malformed configs and files end in exit 1 with a one-line diagnostic."""

import json

import pytest

from embryometrics.cli import main
from embryometrics.errors import FormatError, InvalidConfigError
from embryometrics.pipeline import PipelineConfig, result_from_obj
from embryometrics.serialize import (
    read_json,
    read_ndjson,
    synth_config_to_obj,
    write_json,
)
from embryometrics.synth import SynthConfig


class TestPipelineConfigFromObj:
    @pytest.mark.parametrize(
        "obj",
        [
            {"roi_sid": 100},
            {"use_dp": "no"},
            {"use_roi": 1},
            {"roi_side": "100"},
            {"roi_side": True},
            {"roi_side": 100.0},
            {"fragmentation_threshold": True},
            {"merge_iou_threshold": "0.5"},
            {"gate_aggregation": 1},
            [1, 2],
        ],
    )
    def test_rejects_unknown_keys_and_wrong_types(self, obj):
        with pytest.raises(InvalidConfigError):
            PipelineConfig.from_obj(obj)

    def test_ints_stay_as_given(self):
        config = PipelineConfig.from_obj(
            {"roi_side": 64, "fragmentation_threshold": 2, "use_dp": False}
        )
        assert config.to_obj()["fragmentation_threshold"] == 2
        assert type(config.to_obj()["fragmentation_threshold"]) is int
        assert config == PipelineConfig(
            roi_side=64, fragmentation_threshold=2, use_dp=False
        )

    def test_round_trips_every_field(self):
        config = PipelineConfig(
            roi_side=64,
            fragmentation_threshold=2.5,
            gate_aggregation="mean",
            merge_iou_threshold=0.4,
            match_iou_threshold=0.6,
            use_roi=False,
            use_focus_averaging=False,
            use_dp=False,
        )
        assert PipelineConfig.from_obj(config.to_obj()) == config


class TestJsonDecodeErrors:
    def test_read_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{\n  "a": 1,\n  "b": [1, 2')
        with pytest.raises(FormatError, match=r"cut\.json: invalid JSON at line 3"):
            read_json(path)

    def test_read_ndjson_names_file_and_line(self, tmp_path):
        path = tmp_path / "rows.ndjson"
        path.write_text('{"format_version":1,"kind":"k"}\n{"a":1}\n{"a":\n')
        with pytest.raises(FormatError, match=r"rows\.ndjson: invalid JSON at line 3"):
            read_ndjson(path, "k")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One small synthetic bundle with its pipeline result."""
    root = tmp_path_factory.mktemp("strict")
    synth_path = root / "synth.json"
    write_json(
        synth_path,
        synth_config_to_obj(
            SynthConfig(
                frames=6, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0)
            )
        ),
    )
    assert main(["synth", "--config", str(synth_path), "--out", str(root / "data"),
                 "--seed", "1"]) == 0
    embryo = root / "data" / "synth-0000"
    config_path = root / "pipeline.json"
    write_json(config_path, {"roi_side": 48})
    result = root / "result.json"
    assert main(["run", "--movie", str(embryo / "manifest.json"),
                 "--backends", str(embryo), "--config", str(config_path),
                 "--out", str(result)]) == 0
    return embryo, result


def assert_one_line_error(capsys, rc):
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestCliExitCodes:
    # roi_side 48 fits the 64 px frames, so only the marked key is wrong.
    @pytest.mark.parametrize(
        "config",
        [
            {"roi_side": 48, "roi_sid": 100},
            {"roi_side": 48, "use_dp": "no"},
            {"roi_side": "48"},
            {"roi_side": True},
            {"roi_side": 48, "fragmentation_threshold": False},
            [1, 2],
        ],
    )
    def test_bad_pipeline_config(self, tmp_path, bundle, capsys, config):
        embryo, _ = bundle
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(config))
        rc = main(["run", "--movie", str(embryo / "manifest.json"),
                   "--backends", str(embryo), "--config", str(path),
                   "--out", str(tmp_path / "r.json")])
        assert_one_line_error(capsys, rc)
        assert not (tmp_path / "r.json").exists()

    def test_truncated_manifest(self, tmp_path, bundle, capsys):
        embryo, _ = bundle
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes((embryo / "manifest.json").read_bytes()[:100])
        rc = main(["run", "--movie", str(manifest), "--backends", str(embryo),
                   "--out", str(tmp_path / "r.json")])
        assert_one_line_error(capsys, rc)

    def test_backend_line_cut_mid_record(self, tmp_path, bundle, capsys):
        embryo, _ = bundle
        backend = tmp_path / "backend"
        backend.mkdir()
        for f in (embryo / "backend").iterdir():
            (backend / f.name).write_bytes(f.read_bytes())
        cells = backend / "cells.ndjson"
        header, first_row = cells.read_bytes().splitlines(keepends=True)[:2]
        cells.write_bytes(header + first_row[: len(first_row) // 2])
        rc = main(["run", "--movie", str(embryo / "manifest.json"),
                   "--backends", str(backend), "--out", str(tmp_path / "r.json")])
        assert_one_line_error(capsys, rc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj.pop("gate"),
            lambda obj: obj.pop("frames"),
            lambda obj: obj["gate"].update(low_fragmentation="no"),
            lambda obj: obj["gate"].update(threshold="1.5"),
            lambda obj: obj["frames"][0].pop("seg_map"),
            lambda obj: obj["frames"][0]["roi"].update(fallback=0),
            lambda obj: obj["frames"][0].update(excluded="no"),
            lambda obj: obj.update(frames=5),
            lambda obj: obj.update(config={"roi_side": "48"}),
        ],
    )
    def test_malformed_result(self, tmp_path, bundle, capsys, edit):
        embryo, result = bundle
        obj = read_json(result)
        edit(obj)
        bad = tmp_path / "result.json"
        write_json(bad, obj)
        rc = main(["eval", "--result", str(bad), "--truth", str(embryo / "truth.json"),
                   "--out", str(tmp_path / "report.json")])
        assert_one_line_error(capsys, rc)

    @pytest.mark.parametrize("content", ["[1, 2]", '"report"', "null"])
    def test_report_input_not_an_object(self, tmp_path, capsys, content):
        path = tmp_path / "bad.report.json"
        path.write_text(content)
        rc = main(["report", "--reports", str(path), "--out", str(tmp_path / "t.csv")])
        assert_one_line_error(capsys, rc)


def test_result_missing_key_is_format_error(bundle):
    _, result = bundle
    obj = read_json(result)
    del obj["gate"]
    with pytest.raises(FormatError):
        result_from_obj(obj)
