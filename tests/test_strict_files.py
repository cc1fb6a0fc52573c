"""Malformed synth configs and backend rows end in exit 1 with one line."""

import json
import shutil

import pytest

from embryometrics.cli import main
from embryometrics.errors import FormatError, InvalidConfigError
from embryometrics.serialize import (
    read_backend_tables,
    synth_config_from_obj,
    synth_config_to_obj,
    write_json,
)
from embryometrics.synth import SynthConfig

SMALL = SynthConfig(frames=6, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))

BAD_SYNTH_CONFIGS = [
    lambda obj: obj.update(sed=1),
    lambda obj: obj.update(frames=True),
    lambda obj: obj.update(frames=6.0),
    lambda obj: obj.pop("seed"),
    lambda obj: obj.pop("noise"),
    lambda obj: obj.update(seed="x"),
    lambda obj: obj.update(embryo_id=7),
    lambda obj: obj.update(noise=[1]),
    lambda obj: obj.update(dwell_ranges=[1, 2]),
    lambda obj: obj.update(dwell_ranges=[[1, 2, 3]] * 11),
    lambda obj: obj.update(dwell_ranges=[[1.0, 2]] * 11),
    lambda obj: obj.update(fragmentation_distribution=["a", 1, 0, 0]),
    lambda obj: obj.update(pronucleus_distribution=0.5),
    lambda obj: obj["noise"].update(foo=1),
    lambda obj: obj["noise"].pop("seg_flip_rate"),
    lambda obj: obj["noise"].update(logit_sigma="0"),
    lambda obj: obj["noise"].update(seg_flip_rate=False),
    lambda obj: obj.update(seed=-1),
]


def assert_one_line_error(capsys, rc):
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestSynthConfigFromObj:
    @pytest.mark.parametrize("edit", BAD_SYNTH_CONFIGS)
    def test_rejects_unknown_missing_and_wrong_typed_keys(self, edit):
        obj = synth_config_to_obj(SMALL)
        edit(obj)
        with pytest.raises(InvalidConfigError):
            synth_config_from_obj(obj)

    def test_ints_accepted_where_floats_are_written(self):
        obj = synth_config_to_obj(SMALL)
        obj["frame_interval_minutes"] = 20
        obj["noise"]["logit_sigma"] = 1
        config = synth_config_from_obj(obj)
        assert config.frame_interval_minutes == 20.0
        assert config.noise.logit_sigma == 1

    @pytest.mark.parametrize("edit", BAD_SYNTH_CONFIGS[::4])
    def test_cli_exits_1_with_one_line(self, tmp_path, capsys, edit):
        obj = synth_config_to_obj(SMALL)
        edit(obj)
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(obj))
        rc = main(["synth", "--config", str(path), "--out", str(tmp_path / "out")])
        assert_one_line_error(capsys, rc)
        assert not (tmp_path / "out" / "index.json").exists()


def test_negative_seed_option_exits_1_with_one_line(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert_one_line_error(capsys, rc)
    assert not (tmp_path / "out" / "index.json").exists()


@pytest.fixture(scope="module")
def embryo(tmp_path_factory):
    root = tmp_path_factory.mktemp("rows")
    synth_path = root / "synth.json"
    write_json(synth_path, synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(synth_path), "--out", str(root / "data"),
                 "--seed", "1"]) == 0
    return root / "data" / "synth-0000"


BAD_ROWS = [
    ("cells.ndjson", lambda row: row.update(confidence="x")),
    ("cells.ndjson", lambda row: row.update(confidence="0.5")),
    ("cells.ndjson", lambda row: row.update(plane="a")),
    ("cells.ndjson", lambda row: row.update(plane=3.0)),
    ("cells.ndjson", lambda row: row["mask"].update(rle="abc")),
    ("cells.ndjson", lambda row: row.pop("frame")),
    ("fragmentation.ndjson", lambda row: row.update(score="x")),
    ("fragmentation.ndjson", lambda row: row.update(frame="0")),
    ("stage_probs.ndjson", lambda row: row.update(p="x")),
    ("stage_probs.ndjson", lambda row: row.update(p=["a"] * 13)),
    ("segmentation.ndjson", lambda row: row.update(map=5)),
    ("stage_probs.ndjson", lambda row: row.pop("t")),
    ("stage_probs.ndjson", lambda row: row.update(t="x")),
]


def edited_backend(tmp_path, embryo, name, edit):
    """Copy of the embryo's backend directory with data row 1 of one file edited."""
    backend = tmp_path / "backend"
    shutil.copytree(embryo / "backend", backend)
    path = backend / name
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    edit(row)
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    return backend


class TestBackendRows:
    @pytest.mark.parametrize("name, edit", BAD_ROWS)
    def test_format_error_names_file_and_line(self, tmp_path, embryo, name, edit):
        backend = edited_backend(tmp_path, embryo, name, edit)
        with pytest.raises(FormatError, match=rf"{name}: bad row at line 2: "):
            read_backend_tables(backend)

    @pytest.mark.parametrize("name, edit", BAD_ROWS[::2])
    def test_cli_exits_1_with_one_line(self, tmp_path, capsys, embryo, name, edit):
        backend = edited_backend(tmp_path, embryo, name, edit)
        rc = main(["run", "--movie", str(embryo / "manifest.json"),
                   "--backends", str(backend), "--out", str(tmp_path / "r.json")])
        assert_one_line_error(capsys, rc)
        assert not (tmp_path / "r.json").exists()


def test_stage_rows_out_of_time_order(tmp_path, embryo):
    backend = edited_backend(
        tmp_path, embryo, "stage_probs.ndjson", lambda row: row.update(t=1e9)
    )
    with pytest.raises(FormatError, match=r"stage_probs.ndjson: bad row at line 3: .*not after"):
        read_backend_tables(backend)
