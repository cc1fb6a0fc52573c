"""No command leaves the cyclic garbage collector in a state other than
the one it found: after a format error, and after ``synth`` with worker
threads.
"""

import gc
import json

import pytest

from embryometrics import serialize
from embryometrics.cli import main, write_bundle
from embryometrics.errors import FormatError
from embryometrics.serialize import read_backend_tables, write_json
from embryometrics.synth import NoiseConfig, SynthConfig

# Seg flips give each 128x128 map ~1600 runs.
NOISY = SynthConfig(
    seed=5,
    frames=8,
    image_size=128,
    fragmentation_distribution=(0.5, 0.5, 0.0, 0.0),
    noise=NoiseConfig(logit_sigma=1.0, mask_jitter_px=1.0, seg_flip_rate=0.05),
)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A noisy bundle and the result.json that ``run`` writes for it."""
    out = tmp_path_factory.mktemp("data")
    write_bundle(out, NOISY)
    embryo = out / NOISY.embryo_id
    write_json(out / "pipeline.json", {"roi_side": 96})
    rc = main(["run", "--movie", str(embryo / "manifest.json"), "--backends", str(embryo),
               "--config", str(out / "pipeline.json"), "--out", str(out / "result.json")])
    assert rc == 0
    return embryo


@pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
def gc_state(request):
    """GC enabled or disabled on entry; the suite's state comes back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestStateAfterFormatError:
    def test_truncated_result(self, tmp_path, bundle, gc_state, capsys):
        text = (bundle.parent / "result.json").read_text()
        cut = tmp_path / "result.json"
        cut.write_text(text[: len(text) // 2])
        rc = main(["eval", "--result", str(cut), "--truth", str(bundle / "truth.json"),
                   "--out", str(tmp_path / "report.json")])
        assert rc == 1
        assert "invalid JSON" in capsys.readouterr().err
        assert gc.isenabled() is gc_state

    def test_bad_segmentation_row(self, tmp_path, bundle, gc_state):
        backend = tmp_path / "backend"
        backend.mkdir()
        for name in serialize.BACKEND_FILES.values():
            lines = (bundle / "backend" / name).read_text().splitlines()
            if name == "segmentation.ndjson":
                row = json.loads(lines[2])
                row["map"]["runs"][0] = [0, "x"]
                lines[2] = json.dumps(row)
            (backend / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"segmentation.ndjson: bad row at line 3"):
            read_backend_tables(backend)
        assert gc.isenabled() is gc_state


def test_gc_enabled_after_threaded_synth(tmp_path):
    assert gc.isenabled()
    config = tmp_path / "synth.json"
    write_json(config, serialize.synth_config_to_obj(
        SynthConfig(frames=4, image_size=64, noise=NOISY.noise)))
    rc = main(["synth", "--config", str(config), "--out", str(tmp_path / "data"),
               "--embryos", "4", "--jobs", "2"])
    assert rc == 0
    assert gc.isenabled()
