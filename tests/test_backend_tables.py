"""One table class serves every replayed backend.

A table read from a backend file answers a missing seg or frag row with
a BackendError naming that file, on the library path as on the CLI. A
suite built from tables serves lookups from the mappings it is given,
read-only ones included; a detector with no row found nothing.
"""

import json
import shutil
from types import MappingProxyType

import pytest

from embryometrics import file_backend_suite, run_pipeline, suite_from_tables
from embryometrics.cli import main, write_bundle
from embryometrics.errors import BackendError, FormatError
from embryometrics.geometry import Roi
from embryometrics.pipeline import PipelineConfig, result_to_obj
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


def without_line(tmp_path, embryo, name, line):
    """Copy of the embryo's backend directory with one data line of
    ``name`` dropped; returns the directory and the dropped row."""
    backend = tmp_path / "backend"
    shutil.copytree(embryo / "backend", backend)
    path = backend / name
    lines = path.read_text().splitlines(keepends=True)
    dropped = json.loads(lines.pop(line))
    path.write_text("".join(lines))
    return backend, dropped


@pytest.mark.parametrize("name, stage, line", [
    ("segmentation.ndjson", "zona_segmentation", 2),
    ("fragmentation.ndjson", "fragmentation", 1),
    ("fragmentation.ndjson", "fragmentation", 5),
])
def test_library_miss_matches_cli_line(embryo, movie, tmp_path, capsys, name, stage, line):
    backend, dropped = without_line(tmp_path, embryo, name, line)
    with pytest.raises(BackendError) as caught:
        run_pipeline(movie, file_backend_suite(backend), PIPELINE)
    frame, plane = dropped["frame"], dropped["plane"]
    assert (caught.value.stage, caught.value.frame) == (stage, frame)
    assert str(caught.value) == (
        f"backend '{stage}' failed on frame {frame}: "
        f"{backend / name} has no row for frame {frame}, plane {plane}"
    )
    capsys.readouterr()
    rc = main(["run", "--movie", str(embryo / "manifest.json"), "--backends", str(backend),
               "--config", str(embryo.parent / "pipeline.json"),
               "--out", str(tmp_path / "result.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"backend failure: {caught.value}\n"


def test_read_only_tables_serve_the_same_result(embryo, movie):
    tables = read_backend_tables(embryo / "backend")
    proxied = suite_from_tables(**{k: MappingProxyType(v) for k, v in tables.items()})
    expected = result_to_obj(run_pipeline(movie, file_backend_suite(embryo), PIPELINE))
    assert result_to_obj(run_pipeline(movie, proxied, PIPELINE)) == expected


def test_suite_serves_from_the_given_mappings(movie):
    roi = Roi(0, 0, 48, (24, 24))
    cells = {(0, 3): ("found",)}
    suite = suite_from_tables(
        seg=MappingProxyType({}), frag=MappingProxyType({}), stage=MappingProxyType({}),
        cells=MappingProxyType(cells), pronuclei=MappingProxyType({}),
    )
    assert suite.cells.detect(movie, 0, 3, roi) == ("found",)
    assert suite.cells.detect(movie, 1, 3, roi) == ()
    assert suite.pronuclei.detect(movie, 0, 3, roi) == ()
    cells[1, 3] = ("later",)  # not copied: the suite sees the change
    assert suite.cells.detect(movie, 1, 3, roi) == ("later",)
    with pytest.raises(KeyError):
        suite.segmenter.segment(movie, 0, 3)
    with pytest.raises(KeyError):
        suite.stage.probabilities(movie, 0, roi)


@pytest.mark.parametrize("times, error", [
    ([0.0, 20.0, 40.0], FormatError),
    ([0.0, 20.0, 40.0, 60.0, 80.0], BackendError),
    ([0.0, 20.0, 40.0, 60.0], None),
])
def test_suite_stage_table_checks_times_as_read(embryo, times, error):
    served = file_backend_suite(embryo).stage.table
    read = read_backend_tables(embryo / "backend")["stage"]
    if error is None:
        served.check_times(times)
        read.check_times(times)
        return
    messages = []
    for stage in (served, read):
        with pytest.raises(error) as caught:
            stage.check_times(times)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "stage_probs.ndjson" in messages[0]
