"""run_pipeline checks every detector's output.

Each item a detector returns must be an InstanceCandidate of the
detector's kind, on the plane asked, with a mask of the movie's frame
size. Anything else is a backend failure naming the detector's stage and
the frame, on the library path (BackendError) as on the CLI (exit 2).
"""

import dataclasses
import json

import pytest

from conftest import candidate, disk_mask
from embryometrics.backends import synth_backend_suite
from embryometrics.cli import main, write_bundle
from embryometrics.errors import BackendError
from embryometrics.model import CandidateKind
from embryometrics.pipeline import PipelineConfig, run_pipeline
from embryometrics.serialize import write_json
from embryometrics.synth import SynthConfig, generate_movie

CONFIG = SynthConfig(seed=3, frames=4, image_size=64, fragmentation_distribution=(1, 0, 0, 0))
PIPELINE = PipelineConfig(roi_side=48)


@pytest.fixture(scope="module")
def setup():
    movie, truth = generate_movie(CONFIG)
    suite = synth_backend_suite(truth, CONFIG)
    frames = run_pipeline(movie, suite, PIPELINE).frames
    # The last frame the cell detector runs on, so earlier frames pass.
    target = max(i for i, f in enumerate(frames) if f.cells is not None)
    return movie, suite, target


class OnFrame:
    """The synth cell detector, except on frame ``target``, where it
    returns ``output(plane)``."""

    def __init__(self, inner, target, output):
        self.inner, self.target, self.output = inner, target, output

    def detect(self, movie, frame, plane, roi):
        if frame == self.target:
            return self.output(plane)
        return self.inner.detect(movie, frame, plane, roi)


def disk(plane, size=64, kind=CandidateKind.CELL):
    return candidate(disk_mask(size, size / 2, size / 2, size / 4), 0.9, plane, kind)


@pytest.mark.parametrize("output", [
    lambda plane: None,
    lambda plane: "cells",
    lambda plane: (disk(plane, kind=CandidateKind.PRONUCLEUS),),
    lambda plane: (disk(6 if plane != 6 else 5),),
    lambda plane: (disk(plane, size=32),),
    lambda plane: (disk(plane), disk(plane, size=32)),
], ids=["none", "string", "pronucleus", "other-plane", "32-grid", "mixed-grids"])
def test_bad_output_is_backend_error(setup, output):
    movie, suite, target = setup
    bad = dataclasses.replace(suite, cells=OnFrame(suite.cells, target, output))
    with pytest.raises(BackendError) as caught:
        run_pipeline(movie, bad, PIPELINE)
    assert (caught.value.stage, caught.value.frame) == ("cell_detection", target)


def test_well_formed_output_passes(setup):
    movie, suite, target = setup
    good = dataclasses.replace(suite, cells=OnFrame(suite.cells, target, lambda p: [disk(p)]))
    frame = run_pipeline(movie, good, PIPELINE).frames[target]
    assert frame.cells == (disk(2),)  # the three planes' disks merge into the first


def test_pronucleus_rows_in_cells_file_exit_2(tmp_path, capsys):
    write_bundle(tmp_path, CONFIG)
    write_json(tmp_path / "pipeline.json", {"roi_side": 48})
    embryo = tmp_path / CONFIG.embryo_id
    path = embryo / "backend" / "cells.ndjson"
    header, *lines = path.read_text().splitlines(keepends=True)
    rows = [{**json.loads(line), "kind": "pronucleus"} for line in lines]
    path.write_text(header + "".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    rc = main(["run", "--movie", str(embryo / "manifest.json"), "--backends", str(embryo),
               "--config", str(tmp_path / "pipeline.json"),
               "--out", str(tmp_path / "result.json")])
    err = capsys.readouterr().err
    frame = min(r["frame"] for r in rows)
    assert rc == 2
    assert err.startswith(f"backend failure: backend 'cell_detection' failed on frame {frame}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "result.json").exists()
