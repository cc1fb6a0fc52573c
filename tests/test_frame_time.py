"""A frame time must be a finite number.

`1e999` is a valid JSON number that Python reads as infinity, so a
manifest can carry an infinite `t` past the reader's NaN/Infinity token
check. `Frame` rejects it, and `run` exits 1 with one line instead of
writing `"t":Infinity` into a `result.json` that `eval` then refuses.
"""

import math
import shutil

import pytest

from embryometrics.cli import main
from embryometrics.errors import ValidationError
from embryometrics.model import PLANE_COUNT, Frame
from embryometrics.serialize import read_json, synth_config_to_obj, write_json
from embryometrics.synth import SynthConfig

SMALL = SynthConfig(frames=6, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))
PLANES = tuple(f"p{k}.png" for k in range(PLANE_COUNT))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("frame_time")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "1"]) == 0
    write_json(root / "pipeline.json", {"roi_side": 48})
    return root, root / "data" / "synth-0000"


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_frame_rejects_non_finite_time(t):
    with pytest.raises(ValidationError, match="frame time .* is not finite"):
        Frame(t, PLANES)


def test_frame_keeps_finite_time_as_float():
    assert Frame(20, PLANES).time_minutes == 20.0
    assert type(Frame(20, PLANES).time_minutes) is float


@pytest.mark.parametrize("number", ["1e999", "-1e999"])
def test_run_rejects_manifest_time_that_reads_as_infinity(bundle, tmp_path, capsys, number):
    root, embryo = bundle
    text = (embryo / "manifest.json").read_text()
    last = read_json(embryo / "manifest.json")["frames"][-1]["t"]
    assert text.count(f'"t":{last!r}') == 1
    # --backends synth reads the synth config next to the manifest.
    shutil.copy(embryo / "synth_config.json", tmp_path)
    movie = tmp_path / "manifest.json"
    movie.write_text(text.replace(f'"t":{last!r}', f'"t":{number}'))
    out = tmp_path / "result.json"
    capsys.readouterr()
    rc = main(["run", "--movie", str(movie), "--backends", "synth", "--config",
               str(root / "pipeline.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {movie}: bad movie manifest: frame time ")
    assert "not finite" in err
    assert not out.exists()
