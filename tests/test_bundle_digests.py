"""Byte pins for every file `synth` writes.

`bench/digests.json` pins only `result.json` and `report.json`; these
digests also guard the truth masks, the manifest, the synth config and
the five backend files. They were recorded from the full-grid disk
renderer, so a rasteriser or run encoder that marks one pixel
differently fails here.
"""

import hashlib

import pytest

from embryometrics.cli import main
from embryometrics.serialize import synth_config_to_obj, write_json
from embryometrics.synth import NoiseConfig, SynthConfig

CONFIGS = {
    "zero_noise": SynthConfig(frames=30, image_size=160),
    "noisy": SynthConfig(
        frames=30,
        image_size=160,
        noise=NoiseConfig(
            logit_sigma=0.7,
            mask_jitter_px=2.5,
            confidence_sigma=0.05,
            fragmentation_sigma=0.4,
            seg_flip_rate=0.03,
        ),
    ),
}

DIGESTS = {
    "zero_noise": {
        "index.json":
            "427cef00f6d0646a11eaffcae3e7b61694b06476d9994323692aaa3d745d20cf",
        "synth-0000/backend/cells.ndjson":
            "34ffa82097fecc852e99a7bd2db91546eda32898cc33bb3a4c497b2091a44e84",
        "synth-0000/backend/fragmentation.ndjson":
            "410d691fbe0123bd5edff0de2d9545bca41b59de581110ea8ce86e25622ad102",
        "synth-0000/backend/pronuclei.ndjson":
            "11e0a4b39a0cc6b24f809a69c7b0f7508912f1cc0f41e0a1df020a8cd14bec4f",
        "synth-0000/backend/segmentation.ndjson":
            "fd293d67b7b34cff52853a80a293f8ffc6ea5cdc1ea413f1ed812edd70f12848",
        "synth-0000/backend/stage_probs.ndjson":
            "c2eccedc1d2343de12333551aec5ea0cb5400a24a460462dfde315d86ff7b8ff",
        "synth-0000/manifest.json":
            "1819a43846822a09287b8795753b491f228cca5926a8aeadc14ea5fffaaa8239",
        "synth-0000/synth_config.json":
            "e3623e1b4c3bab50c3e0a8403a1ce2b9849876df5dcff129f8796a27c4cbd223",
        "synth-0000/truth.json":
            "e1c8f8bf5cde8bf5a8f9b707be0f26b4143387d43117a7ba1ff44ffb9790cd45",
        "synth-0001/backend/cells.ndjson":
            "45abf2fb8ccff4316e344a4402a8fee7bab53edd656941c0d1c1a822835fcaaa",
        "synth-0001/backend/fragmentation.ndjson":
            "d93e29bb4e2790f37a2b5e177ac562cf15b816e5fde81b3f867538147d8caa0b",
        "synth-0001/backend/pronuclei.ndjson":
            "5551718a3272cc7e12c446cda8e9c8dc0a2d237fd564ff8a5e8671fc4d2cc000",
        "synth-0001/backend/segmentation.ndjson":
            "7b1550f63416b3cbf57939eb97bd5cd4b6855d016ced6ea5c972bc34970e5284",
        "synth-0001/backend/stage_probs.ndjson":
            "552dd2dc18b717947d7465a46088253fd4af6310aa22f59fc4efba96c51d13ae",
        "synth-0001/manifest.json":
            "f59955ddc05469adb2d2782618f232787769cae54139f8659ba116f2858e31c9",
        "synth-0001/synth_config.json":
            "98330c2fba1539ae2d62cd43f565ca67095a665579279f04b1b4c7241438eb53",
        "synth-0001/truth.json":
            "d998d4e2e640ea9dc0ba56ba8a77ae3b92ab79bfeca5b52b8875e4d68ef5cb58",
    },
    "noisy": {
        "index.json":
            "427cef00f6d0646a11eaffcae3e7b61694b06476d9994323692aaa3d745d20cf",
        "synth-0000/backend/cells.ndjson":
            "2c9e34064c4fb6263df071753bd90cb5ab0d9177930f0e7a4633631ddb711198",
        "synth-0000/backend/fragmentation.ndjson":
            "8973d7fb880fb7951737fe4c0e895c0a15db63d3245e289aa0e44bf0f88dde4c",
        "synth-0000/backend/pronuclei.ndjson":
            "1dead8f72e9455297290c13e6a70bb0d3d93459b54cfeb496bb0aa760672b4e3",
        "synth-0000/backend/segmentation.ndjson":
            "8729e72aea17c881c1a70ad4a10c35f24480ab24e8045724f21595cfca19e7a1",
        "synth-0000/backend/stage_probs.ndjson":
            "ece9d305703e93d58849d984633be10750ff0715e878666844b3dbaeff33df03",
        "synth-0000/manifest.json":
            "1819a43846822a09287b8795753b491f228cca5926a8aeadc14ea5fffaaa8239",
        "synth-0000/synth_config.json":
            "3d09e0bbe73bd2a285357bf5e3469c46092a4ceb37cfac68b301360ef1256d10",
        "synth-0000/truth.json":
            "e1c8f8bf5cde8bf5a8f9b707be0f26b4143387d43117a7ba1ff44ffb9790cd45",
        "synth-0001/backend/cells.ndjson":
            "2c0dc8b0c60126483b2476fed5a19828f5f9668c6939496316d87fff189bbd56",
        "synth-0001/backend/fragmentation.ndjson":
            "9865befcce9681e973d7a866563e064d18a8c36b34f89b04311c69997c9e361f",
        "synth-0001/backend/pronuclei.ndjson":
            "775eb50a6f7e1a30718bc585fb9d70bab7e01247c3ad79b51d13107ad79dd79c",
        "synth-0001/backend/segmentation.ndjson":
            "f5567dd260a60d3c6f737fa685cb41fb72632f4788c5f582961671ab000fd105",
        "synth-0001/backend/stage_probs.ndjson":
            "d2030e5e16453726cad8b0ae40365ac7584019013fa04aac16e1c03c276418ca",
        "synth-0001/manifest.json":
            "f59955ddc05469adb2d2782618f232787769cae54139f8659ba116f2858e31c9",
        "synth-0001/synth_config.json":
            "7be2ae5ea52e2ec973990b92dfa2a48af4b98f4c0931c3f81c619ef3e5450b0d",
        "synth-0001/truth.json":
            "d998d4e2e640ea9dc0ba56ba8a77ae3b92ab79bfeca5b52b8875e4d68ef5cb58",
    },
}


def bundle_digests(tmp_path, name: str) -> dict[str, str]:
    config_path = tmp_path / "synth.json"
    write_json(config_path, synth_config_to_obj(CONFIGS[name]))
    out = tmp_path / "data"
    argv = ["synth", "--config", str(config_path), "--out", str(out),
            "--embryos", "2", "--seed", "3"]
    assert main(argv) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_synth_bundle_bytes_are_pinned(tmp_path, name):
    assert bundle_digests(tmp_path, name) == DIGESTS[name]
