"""``run`` matches stage rows to the manifest's frames by time.

A row at no frame's time exits 1; a frame without a row is a backend
failure, exit 2, as a missing segmentation entry is. Both name the file
in one stderr line.
"""

import json
import shutil

import pytest

from embryometrics.cli import main, write_bundle
from embryometrics.errors import BackendError, FormatError
from embryometrics.serialize import read_backend_tables, write_json
from embryometrics.synth import NoiseConfig, SynthConfig

CONFIG = SynthConfig(
    seed=2,
    frames=6,
    image_size=64,
    fragmentation_distribution=(0.5, 0.5, 0.0, 0.0),
    noise=NoiseConfig(logit_sigma=1.0, mask_jitter_px=0.5),
)


@pytest.fixture(scope="module")
def embryo(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    write_bundle(out, CONFIG)
    write_json(out / "pipeline.json", {"roi_side": 48})
    return out / CONFIG.embryo_id


def run_args(embryo, backends, out):
    return ["run", "--movie", str(embryo / "manifest.json"), "--backends", str(backends),
            "--config", str(embryo.parent / "pipeline.json"), "--out", str(out)]


def edited_stage_file(tmp_path, embryo, edit):
    """Copy of the embryo's backend directory with the stage data rows edited."""
    backend = tmp_path / "backend"
    shutil.copytree(embryo / "backend", backend)
    path = backend / "stage_probs.ndjson"
    header, *rows = path.read_text().splitlines()
    rows = [json.loads(r) for r in rows]
    rows = edit(rows)
    path.write_text("\n".join([header, *map(json.dumps, rows)]) + "\n")
    return backend


def run(tmp_path, embryo, backend, capsys):
    rc = main(run_args(embryo, backend, tmp_path / "r.json"))
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "stage_probs.ndjson" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()
    return rc, err


def shifted(rows):
    return [dict(r, t=r["t"] + 1.0) for r in rows]


def extra(rows):
    return rows + [dict(rows[-1], t=rows[-1]["t"] + 10.0)]


def between(rows):
    return rows[:2] + [dict(rows[2], t=rows[2]["t"] - 0.5)] + rows[3:]


@pytest.mark.parametrize("edit", [shifted, extra, between])
def test_row_at_no_frame_time_exits_1(tmp_path, capsys, embryo, edit):
    rc, err = run(tmp_path, embryo, edited_stage_file(tmp_path, embryo, edit), capsys)
    assert rc == 1
    assert err.startswith("error: ") and "no frame's time" in err


@pytest.mark.parametrize("dropped", [0, 3, CONFIG.frames - 1])
def test_frame_without_row_exits_2(tmp_path, capsys, embryo, dropped):
    backend = edited_stage_file(
        tmp_path, embryo, lambda rows: rows[:dropped] + rows[dropped + 1:]
    )
    rc, err = run(tmp_path, embryo, backend, capsys)
    assert rc == 2
    assert err.startswith("backend failure: ")
    assert f"frame {dropped}:" in err and "has no row at t" in err


def test_check_times_names_the_file(embryo):
    stage = read_backend_tables(embryo / "backend")["stage"]
    times = [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
    assert stage.times == tuple(times)
    stage.check_times(times)
    with pytest.raises(FormatError, match=r"stage_probs.ndjson: stage row 6 has t 100.0"):
        stage.check_times(times[:-1])
    with pytest.raises(BackendError, match=r"frame 6: .*stage_probs.ndjson has no row at t 120.0"):
        stage.check_times(times + [120.0])


def test_bundle_runs_byte_identical_to_synth_backends(tmp_path, embryo):
    out = {}
    for name, backends in (("files", str(embryo)), ("synth", "synth")):
        out[name] = tmp_path / f"{name}.json"
        assert main(run_args(embryo, backends, out[name])) == 0
    assert out["files"].read_bytes() == out["synth"].read_bytes()
