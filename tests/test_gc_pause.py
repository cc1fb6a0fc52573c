"""Bulk JSON reads and writes run with the cyclic garbage collector paused.

``serialize._gc_paused`` must restore the state it found, after an error
too, and no collection may run while a tree of seg-map runs is alive.
"""

import gc
import json
import sys
import threading
import time

import pytest

from embryometrics import pipeline, serialize
from embryometrics.cli import main, write_bundle
from embryometrics.errors import FormatError
from embryometrics.serialize import _gc_paused, read_backend_tables, write_json
from embryometrics.synth import NoiseConfig, SynthConfig

# Seg flips give each 128x128 map ~1600 runs, so one file parses into
# enough lists for an unpaused parse to collect many times.
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


@pytest.fixture
def collections():
    """A list that gains one entry per collection started while it lives."""
    seen = []

    def hook(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(hook)
    yield seen
    gc.callbacks.remove(hook)


class TestState:
    def test_paused_inside_and_restored_after(self, gc_state):
        with _gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is gc_state

    def test_restored_after_an_exception(self, gc_state):
        with pytest.raises(RuntimeError):
            with _gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled() is gc_state

    def test_nested_pause_leaves_the_outer_state(self, gc_state):
        with _gc_paused():
            with _gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is gc_state

    def test_overlapping_pauses_restore_the_first_state(self, gc_state):
        # Two threads' pauses can end in the order they began; the second
        # one in must not restore the "disabled" it found.
        first, second = _gc_paused(), _gc_paused()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert not gc.isenabled()
        second.__exit__(None, None, None)
        assert gc.isenabled() is gc_state


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


def test_pauses_in_many_threads(gc_state):
    # More threads than cores and a short switch interval: a lost update
    # of the shared depth would let GC run inside a pause or stay off.
    enabled_inside = []

    def work():
        for _ in range(500):
            with _gc_paused():
                time.sleep(0)  # lets another thread enter or leave its pause
                if gc.isenabled():
                    enabled_inside.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert enabled_inside == []
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


class TestNoCollectionWhileTreesLive:
    def test_unpaused_parse_collects(self, bundle, collections):
        # The guard for the two tests below: the same file, parsed with GC
        # on, does set off collections.
        json.loads((bundle / "backend" / "segmentation.ndjson").read_text().splitlines()[1])
        json.loads((bundle.parent / "result.json").read_text())
        assert len(collections) > 0

    def test_read_backend_tables(self, bundle, collections):
        read_backend_tables(bundle / "backend")
        assert collections == []
        assert gc.isenabled()

    def test_eval_reads_and_decodes_result(self, tmp_path, bundle, collections,
                                           monkeypatch):
        result_path = bundle.parent / "result.json"
        marks = {}
        read_json, result_from_obj = serialize.read_json, pipeline.result_from_obj

        def reading(path):
            if path == str(result_path):
                marks["start"] = len(collections)
            return read_json(path)

        def decoding(obj):
            result = result_from_obj(obj)
            marks["end"] = len(collections)
            return result

        monkeypatch.setattr(serialize, "read_json", reading)
        monkeypatch.setattr(pipeline, "result_from_obj", decoding)
        rc = main(["eval", "--result", str(result_path), "--truth", str(bundle / "truth.json"),
                   "--out", str(tmp_path / "report.json")])
        assert rc == 0
        assert marks["end"] - marks["start"] == 0
        assert gc.isenabled()
