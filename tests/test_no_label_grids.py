"""The synthetic paths make no label grid: every seg map `generate_movie`
paints and every map `render_model_outputs` renders from it holds runs,
and running, serializing and writing bundles reads none of their grids."""

import pytest

from embryometrics import cli, serialize
from embryometrics.backends import synth_backend_suite
from embryometrics.pipeline import PipelineConfig, result_to_obj, run_pipeline
from embryometrics.synth import NoiseConfig, SynthConfig, generate_movie

FLIPS = NoiseConfig(seg_flip_rate=0.05, mask_jitter_px=1.0)


def grids(maps) -> list:
    """The maps that hold a label grid."""
    maps = list(maps)
    assert maps
    return [m for m in maps if "labels" in vars(m)]


@pytest.mark.parametrize("noise", [NoiseConfig(), FLIPS])
def test_library_path(noise):
    config = SynthConfig(
        seed=5,
        frames=12,
        image_size=192,
        fragmentation_distribution=(1, 0, 0, 0),
        noise=noise,
    )
    movie, truth = generate_movie(config)
    suite = synth_backend_suite(truth, config)
    result = run_pipeline(movie, suite, PipelineConfig(roi_side=150))
    serialize.canonical_dumps(result_to_obj(result))
    assert len(result.frames) == len(movie)
    assert grids(truth.seg_maps) == []
    assert grids(f.seg_map for f in result.frames) == []


@pytest.mark.parametrize("noise", [NoiseConfig(), FLIPS])
def test_write_bundle(tmp_path, monkeypatch, noise):
    made = []

    def keep(make):
        def wrapper(*args):
            made.append(make(*args))
            return made[-1]

        return wrapper

    monkeypatch.setattr(cli, "generate_movie", keep(cli.generate_movie))
    monkeypatch.setattr(cli, "render_model_outputs", keep(cli.render_model_outputs))
    cli.write_bundle(tmp_path, SynthConfig(seed=2, frames=10, image_size=96, noise=noise))
    (_, truth), rendered = made
    assert grids(truth.seg_maps) == []
    assert grids(rendered.seg_maps) == []
    # At zero noise the rendered maps are the truth maps: one object each.
    same = [a is b for a, b in zip(rendered.seg_maps, truth.seg_maps)]
    assert same == [noise == NoiseConfig()] * len(same)
