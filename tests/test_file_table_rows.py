"""Every table read from a backend file names that file.

A stage row missing on the library path names `stage_probs.ndjson`, as a
missing seg or frag row names its file. A second seg or frag row for one
frame and plane is a FormatError naming the file, the frame and the
plane: the run exits 1 with one stderr line and writes no result.
"""

import json
import shutil

import pytest

from embryometrics import file_backend_suite, run_pipeline
from embryometrics.cli import main, write_bundle
from embryometrics.errors import BackendError, FormatError
from embryometrics.pipeline import PipelineConfig
from embryometrics.serialize import movie_from_obj, read_backend_tables, read_json, write_json
from embryometrics.synth import SynthConfig

CONFIG = SynthConfig(seed=3, frames=4, image_size=64, fragmentation_distribution=(1, 0, 0, 0))
PIPELINE = PipelineConfig(roi_side=48)


@pytest.fixture(scope="module")
def embryo(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    write_bundle(out, CONFIG)
    write_json(out / "pipeline.json", {"roi_side": 48})
    return out / CONFIG.embryo_id


@pytest.fixture(scope="module")
def movie(embryo):
    return movie_from_obj(read_json(embryo / "manifest.json"))


def edited(tmp_path, embryo, name, edit):
    """Copy of the embryo's backend directory with the data lines of
    ``name`` replaced by ``edit(lines)``."""
    backend = tmp_path / "backend"
    shutil.copytree(embryo / "backend", backend)
    path = backend / name
    header, *lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([header, *edit(lines)]))
    return backend


def run(embryo, backend, out):
    return main(["run", "--movie", str(embryo / "manifest.json"), "--backends", str(backend),
                 "--config", str(embryo.parent / "pipeline.json"), "--out", str(out)])


def test_library_stage_miss_names_the_file(embryo, movie, tmp_path):
    backend = edited(tmp_path, embryo, "stage_probs.ndjson", lambda lines: lines[:-1])
    with pytest.raises(BackendError) as caught:
        run_pipeline(movie, file_backend_suite(backend), PIPELINE)
    last = CONFIG.frames - 1
    assert (caught.value.stage, caught.value.frame) == ("stage_classification", last)
    assert str(caught.value) == (
        f"backend 'stage_classification' failed on frame {last}: "
        f"{backend / 'stage_probs.ndjson'} has no row for frame {last}"
    )


def repeat_seg_row(lines):
    """Frame 1's map appended again as the row for frame 0, plane 3."""
    row = {**json.loads(lines[1]), "frame": 0, "plane": 3}
    return [*lines, json.dumps(row) + "\n"]


def repeat_frag_row(lines):
    """The row for frame 0, plane 2 appended a second time."""
    (row,) = [line for line in lines if json.loads(line)["frame"] == 0
              and json.loads(line)["plane"] == 2]
    return [*lines, row]


@pytest.mark.parametrize("name, edit, plane", [
    ("segmentation.ndjson", repeat_seg_row, 3),
    ("fragmentation.ndjson", repeat_frag_row, 2),
])
def test_repeated_row_exits_1_naming_the_file(embryo, tmp_path, capsys, name, edit, plane):
    backend = edited(tmp_path, embryo, name, edit)
    message = f"{backend / name}: a second row for frame 0, plane {plane}"
    with pytest.raises(FormatError) as caught:
        read_backend_tables(backend)
    assert str(caught.value) == message
    capsys.readouterr()
    assert run(embryo, backend, tmp_path / "result.json") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "result.json").exists()
