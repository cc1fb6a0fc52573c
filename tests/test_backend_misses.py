"""A seg or frag entry missing from a backend file names the file.

Each case drops one data line of `segmentation.ndjson` or
`fragmentation.ndjson` and runs the pipeline on the bundle. The run is
a backend failure (exit 2) whose one stderr line names the stage, the
file, and the frame and plane of the dropped row, as a missing stage
row already does.
"""

import json
import shutil

import pytest

from embryometrics.cli import main
from embryometrics.serialize import synth_config_to_obj, write_json
from embryometrics.synth import SynthConfig

SMALL = SynthConfig(frames=4, image_size=64, fragmentation_distribution=(1, 0, 0, 0))


@pytest.fixture(scope="module")
def embryo(tmp_path_factory):
    root = tmp_path_factory.mktemp("misses")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "4"]) == 0
    # roi_side 48 fits the 64 px frames.
    write_json(root / "pipeline.json", {"roi_side": 48})
    return root / "data" / "synth-0000"


@pytest.mark.parametrize("name, stage, line", [
    ("segmentation.ndjson", "zona_segmentation", 1),
    ("segmentation.ndjson", "zona_segmentation", 3),
    ("fragmentation.ndjson", "fragmentation", 1),
    ("fragmentation.ndjson", "fragmentation", 2),
    ("fragmentation.ndjson", "fragmentation", 6),
])
def test_dropped_line_names_file_frame_and_plane(embryo, tmp_path, capsys, name, stage, line):
    backend = tmp_path / "backend"
    shutil.copytree(embryo / "backend", backend)
    path = backend / name
    lines = path.read_text().splitlines(keepends=True)
    dropped = json.loads(lines.pop(line))
    path.write_text("".join(lines))
    capsys.readouterr()
    rc = main(["run", "--movie", str(embryo / "manifest.json"), "--backends", str(backend),
               "--config", str(embryo.parent.parent / "pipeline.json"),
               "--out", str(tmp_path / "result.json")])
    frame, plane = dropped["frame"], dropped["plane"]
    assert rc == 2
    assert capsys.readouterr().err == (
        f"backend failure: backend '{stage}' failed on frame {frame}: "
        f"{path} has no row for frame {frame}, plane {plane}\n"
    )
    assert not (tmp_path / "result.json").exists()
