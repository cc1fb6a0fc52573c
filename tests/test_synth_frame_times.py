"""``run --backends synth`` checks the manifest's frame times.

The synth route serves the outputs it regenerates from
``synth_config.json`` by frame index, so a manifest whose frame times
differ from the ones that config generates (shifted, a frame fewer, a
frame more) exits 1 with one stderr line naming the manifest and
``synth_config.json``. The file route matches stage rows by time and
keeps its own exit codes and lines for the same edits.
"""

import json

import pytest

from embryometrics.cli import main, write_bundle
from embryometrics.serialize import write_json
from embryometrics.synth import SynthConfig

CONFIG = SynthConfig(seed=3, frames=6, image_size=64)


@pytest.fixture(scope="module")
def embryo(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    write_bundle(out, CONFIG)
    write_json(out / "pipeline.json", {"roi_side": 48})
    return out / CONFIG.embryo_id


def shifted(frames):
    return [dict(f, t=f["t"] + 1) for f in frames]


def fewer(frames):
    return frames[:-1]


def more(frames):
    return frames + [dict(frames[-1], t=frames[-1]["t"] + CONFIG.frame_interval_minutes)]


def as_ints(frames):
    return [dict(f, t=int(f["t"])) for f in frames]


def edited_manifest(tmp_path, embryo, edit):
    """The embryo's manifest with its frames edited, next to its
    ``synth_config.json``."""
    obj = json.loads((embryo / "manifest.json").read_text())
    path = embryo / f"manifest-{tmp_path.name}.json"
    write_json(path, dict(obj, frames=edit(obj["frames"])))
    return path


def run(tmp_path, embryo, manifest, backends, capsys):
    out = tmp_path / f"result-{backends == 'synth'}.json"
    rc = main(["run", "--movie", str(manifest), "--backends", str(backends),
               "--config", str(embryo.parent / "pipeline.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 0 or (len(err.splitlines()) == 1 and not out.exists())
    return rc, err, out


@pytest.mark.parametrize("edit, file_rc, file_line", [
    (shifted, 1, "error: {stage}: stage row 1 has t 0.0, no frame's time"),
    (fewer, 1, "error: {stage}: stage row 6 has t 100.0, no frame's time"),
    (more, 2, "backend failure: backend 'stage_classification' failed on frame 6: "
              "{stage} has no row at t 120.0"),
], ids=["shifted", "fewer", "more"])
def test_edited_frame_times(tmp_path, capsys, embryo, edit, file_rc, file_line):
    manifest = edited_manifest(tmp_path, embryo, edit)
    rc, err, _ = run(tmp_path, embryo, manifest, "synth", capsys)
    assert rc == 1
    assert err == (
        f"error: {manifest}: frame times differ from those "
        f"{embryo / 'synth_config.json'} generates\n"
    )
    rc, err, _ = run(tmp_path, embryo, manifest, embryo, capsys)
    assert rc == file_rc
    assert err == file_line.format(stage=embryo / "backend" / "stage_probs.ndjson") + "\n"


def test_times_compare_by_value(tmp_path, capsys, embryo):
    manifest = edited_manifest(tmp_path, embryo, as_ints)
    assert '"t":20}' in manifest.read_text()
    rc_synth, _, synth_out = run(tmp_path, embryo, manifest, "synth", capsys)
    rc_file, _, file_out = run(tmp_path, embryo, manifest, embryo, capsys)
    assert rc_synth == rc_file == 0
    assert synth_out.read_bytes() == file_out.read_bytes()
