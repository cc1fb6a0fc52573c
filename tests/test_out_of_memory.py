"""An allocation too large for any machine exits 1 with one stderr line.

The sizes are at least 10**15 bytes, beyond a 47-bit address space, so
numpy refuses them at once whatever the overcommit policy; none of them
is ever mapped.
"""

import pytest

from embryometrics.cli import main
from embryometrics.serialize import read_json, synth_config_to_obj, write_json
from embryometrics.synth import SynthConfig

SMALL = SynthConfig(frames=4, image_size=64)


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("oom")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "1"]) == 0
    embryo = root / "data" / "synth-0000"
    # roi_side 48 fits the 64 px frames.
    write_json(root / "pipeline.json", {"roi_side": 48})
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends", str(embryo),
                 "--config", str(root / "pipeline.json"), "--out", str(root / "result.json")]) == 0
    return root


def test_eval_on_a_huge_seg_map(bundle, tmp_path, capsys):
    result = read_json(bundle / "result.json")
    # The counts cover the grid, so the map passes every check before decoding.
    result["frames"][0]["seg_map"] = {"w": 10**8, "h": 10**7, "runs": [[0, 10**15]]}
    write_json(tmp_path / "result.json", result)
    capsys.readouterr()
    rc = main(["eval", "--result", str(tmp_path / "result.json"),
               "--truth", str(bundle / "data" / "synth-0000" / "truth.json"),
               "--out", str(tmp_path / "report.json")])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: out of memory: ")
    assert not (tmp_path / "report.json").exists()


def test_synth_with_a_huge_image_size(tmp_path, capsys):
    obj = synth_config_to_obj(SMALL)
    obj["image_size"] = 10**8
    write_json(tmp_path / "synth.json", obj)
    capsys.readouterr()
    rc = main(["synth", "--config", str(tmp_path / "synth.json"),
               "--out", str(tmp_path / "data")])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: out of memory: ")
