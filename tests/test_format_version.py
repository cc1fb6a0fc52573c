"""A file's `format_version` must be the JSON integer 1.

`true` and `1.0` equal 1 in Python, but they are not the version any
writer writes: every reader refuses them, as it refuses 2, with the
`unsupported format_version ... for <kind>` line and exit code 1.
"""

import pytest

from embryometrics.cli import main
from embryometrics.errors import FormatError
from embryometrics.serialize import _check_kind, synth_config_to_obj, write_json
from embryometrics.synth import SynthConfig

BAD_VERSIONS = {"true": "True", "1.0": "1.0", "2": "2", '"1"': "'1'", "null": "None"}


@pytest.mark.parametrize("value", [True, 1.0, 2, "1", None, [1]])
def test_only_the_integer_1_is_version_1(value):
    assert _check_kind({"format_version": 1, "kind": "k", "a": 0}, "k") == {"a": 0}
    with pytest.raises(FormatError) as e:
        _check_kind({"format_version": value, "kind": "k"}, "k")
    assert str(e.value) == f"unsupported format_version {value!r} for k"


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One small bundle, the pipeline config that fits it, and its result."""
    root = tmp_path_factory.mktemp("version")
    config = SynthConfig(frames=4, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))
    write_json(root / "synth.json", synth_config_to_obj(config))
    write_json(root / "pipeline.json", {"roi_side": 48})
    assert main(["synth", "--config", str(root / "synth.json"), "--out", str(root / "data"),
                 "--seed", "0"]) == 0
    embryo = root / "data" / "synth-0000"
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends", str(embryo),
                 "--config", str(root / "pipeline.json"), "--out", str(root / "result.json")]) == 0
    return root, embryo


def error_line(argv, capsys) -> str:
    capsys.readouterr()
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    return line


@pytest.mark.parametrize("version", BAD_VERSIONS)
def test_eval_refuses_a_truth_file_of_another_version(bundle, tmp_path, capsys, version):
    root, embryo = bundle
    text = (embryo / "truth.json").read_text()
    truth = tmp_path / "truth.json"
    truth.write_text(text.replace('"format_version":1,', f'"format_version":{version},', 1))
    line = error_line(["eval", "--result", str(root / "result.json"), "--truth", str(truth),
                       "--out", str(tmp_path / "report.json")], capsys)
    assert line == (f"error: {truth}: unsupported format_version {BAD_VERSIONS[version]} "
                    "for ground_truth")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("version", BAD_VERSIONS)
def test_run_refuses_a_backend_file_of_another_version(bundle, tmp_path, capsys, version):
    root, embryo = bundle
    backend = tmp_path / "backend"
    backend.mkdir()
    for path in (embryo / "backend").iterdir():
        (backend / path.name).write_bytes(path.read_bytes())
    seg = backend / "segmentation.ndjson"
    header, rest = seg.read_text().split("\n", 1)
    seg.write_text(header.replace('"format_version":1', f'"format_version":{version}') + "\n" + rest)
    line = error_line(["run", "--movie", str(embryo / "manifest.json"), "--backends", str(tmp_path),
                       "--config", str(root / "pipeline.json"),
                       "--out", str(tmp_path / "result.json")], capsys)
    assert line == (f"error: unsupported format_version {BAD_VERSIONS[version]} "
                    "for backend_segmentation")
    assert not (tmp_path / "result.json").exists()
