import numpy as np
import pytest

from embryometrics.errors import InvalidConfigError
from embryometrics.model import StageClass
from embryometrics.serialize import movie_to_obj, truth_to_obj
from embryometrics.synth import (
    NoiseConfig,
    SynthConfig,
    _flip_labels,
    derive_embryo_seed,
    generate_movie,
    render_model_outputs,
)

C = StageClass

CELL1_ONLY_DWELL = ((100, 100),) + ((1, 1),) * 10


def small_config(**kwargs):
    defaults = dict(seed=11, frames=12, image_size=64)
    defaults.update(kwargs)
    return SynthConfig(**defaults)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SynthConfig()
        assert cfg.frames == 40
        assert cfg.image_size == 500

    def test_pronucleus_default_is_renormalized(self):
        # The default 38/6/54 split sums to 0.98.
        cfg = SynthConfig()
        assert sum(cfg.pronucleus_distribution) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(frames=0),
            dict(image_size=16),
            dict(plane_count=5),
            dict(frame_interval_minutes=0),
            dict(dwell_ranges=((0, 3),) + ((1, 2),) * 10),
            dict(dwell_ranges=((3, 1),) + ((1, 2),) * 10),
            dict(fragmentation_distribution=(0.5, 0.5, 0.5, 0.5)),
            dict(pronucleus_distribution=(0.2, 0.2, 0.2)),
            dict(noise=NoiseConfig(logit_sigma=-1.0)),
            dict(noise=NoiseConfig(seg_flip_rate=1.5)),
            dict(noise=NoiseConfig(logit_scale=0.0)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            SynthConfig(**kwargs)


class TestGenerateMovie:
    def test_deterministic(self):
        cfg = small_config()
        m1, t1 = generate_movie(cfg)
        m2, t2 = generate_movie(cfg)
        assert movie_to_obj(m1) == movie_to_obj(m2)
        assert truth_to_obj(t1) == truth_to_obj(t2)

    def test_different_seeds_differ(self):
        _, t1 = generate_movie(small_config(seed=1))
        _, t2 = generate_movie(small_config(seed=2))
        assert truth_to_obj(t1) != truth_to_obj(t2)

    def test_forced_one_cell_trajectory(self):
        cfg = small_config(dwell_ranges=CELL1_ONLY_DWELL)
        _, truth = generate_movie(cfg)
        assert all(s == C.CELL_1 for s in truth.stages)
        assert all(len(masks) == 1 for masks in truth.cell_masks)

    def test_timestamps_at_20_minute_cadence(self):
        cfg = SynthConfig(seed=0, frames=300, image_size=48)
        movie, _ = generate_movie(cfg)
        times = movie.times
        assert times[0] == 0.0
        assert times[-1] == 5980.0
        assert np.allclose(np.diff(times), 20.0)

    def test_trajectory_is_monotone(self):
        for seed in range(10):
            _, truth = generate_movie(small_config(seed=seed, frames=40))
            ordered = [int(s) for s in truth.stages]
            assert ordered == sorted(ordered)

    def test_cell_count_matches_stage(self):
        _, truth = generate_movie(small_config(seed=3, frames=40))
        for stage, masks in zip(truth.stages, truth.cell_masks):
            if stage.cell_count is not None:
                assert len(masks) == stage.cell_count
            else:
                assert masks == ()

    def test_masks_in_bounds_with_positive_area(self):
        for seed in range(5):
            cfg = small_config(seed=seed, frames=30)
            _, truth = generate_movie(cfg)
            for masks in truth.cell_masks + truth.pronucleus_masks:
                for m in masks:
                    assert m.area > 0
                    assert (m.width, m.height) == (cfg.image_size, cfg.image_size)

    def test_fragmentation_grade_constant_per_embryo(self):
        _, truth = generate_movie(small_config())
        assert len(set(truth.fragmentation_grades)) == 1

    def test_pronucleus_fractions_converge(self):
        # Frame-count fractions over many embryos approach the
        # configured (renormalized) distribution.
        counts = np.zeros(3)
        cfg0 = small_config(
            image_size=48, frames=10, dwell_ranges=CELL1_ONLY_DWELL
        )
        from dataclasses import replace

        for i in range(1000):
            cfg = replace(cfg0, seed=derive_embryo_seed(99, i))
            _, truth = generate_movie(cfg)
            for stage, masks in zip(truth.stages, truth.pronucleus_masks):
                assert stage == C.CELL_1
                counts[len(masks)] += 1
        fractions = counts / counts.sum()
        for got, target in zip(fractions, (0.38, 0.06, 0.54)):
            assert abs(got - target) <= 0.03


def boolean_mask_flips(labels, rate, rng):
    """The seg-pixel flips `render_model_outputs` made with boolean masks."""
    labels = np.array(labels)
    flip = rng.random(labels.shape) < rate
    shift = rng.integers(1, 4, size=labels.shape).astype(np.uint8)
    labels[flip] = (labels[flip] + shift[flip]) % 4
    return labels


@pytest.mark.parametrize("rate", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_flips_by_index_match_the_boolean_masks(rate, seed):
    """Same labels and the same next draw, frame after frame."""
    _, truth = generate_movie(small_config(seed=seed, frames=3))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for seg in truth.seg_maps:
        flipped = _flip_labels(seg.labels, rate, ours)
        assert np.array_equal(flipped, boolean_mask_flips(seg.labels, rate, theirs))
        assert flipped.dtype == np.uint8 and flipped.shape == seg.labels.shape
        if rate != 0.05:  # none or every pixel moves
            assert ((flipped != seg.labels) == (rate == 1.0)).all()
    assert ours.random() == theirs.random()


class TestRenderModelOutputs:
    def test_zero_noise_encodes_truth_exactly(self):
        cfg = small_config(frames=16)
        _, truth = generate_movie(cfg)
        rendered = render_model_outputs(truth, cfg)
        for i, stage in enumerate(truth.stages):
            vec = rendered.stage_probs[i]
            assert vec[int(stage)] == 1.0 and vec.sum() == 1.0
            for score in rendered.fragmentation[i].values():
                assert score == float(truth.fragmentation_grades[i])
            assert np.array_equal(
                rendered.seg_maps[i].labels, truth.seg_maps[i].labels
            )
            for plane, cands in rendered.cells[i].items():
                assert plane in (2, 3, 4)
                assert len(cands) == len(truth.cell_masks[i])
                for c, m in zip(cands, truth.cell_masks[i]):
                    assert c.confidence == 1.0
                    assert c.mask == m

    def test_deterministic(self):
        cfg = small_config(
            noise=NoiseConfig(
                logit_sigma=1.0,
                mask_jitter_px=1.0,
                confidence_sigma=0.1,
                fragmentation_sigma=0.3,
                seg_flip_rate=0.02,
            )
        )
        _, truth = generate_movie(cfg)
        r1 = render_model_outputs(truth, cfg)
        r2 = render_model_outputs(truth, cfg)
        for a, b in zip(r1.stage_probs, r2.stage_probs):
            assert np.array_equal(a, b)
        assert r1.fragmentation == r2.fragmentation
        for a, b in zip(r1.seg_maps, r2.seg_maps):
            assert np.array_equal(a.labels, b.labels)
        assert r1.cells == r2.cells
        assert r1.pronuclei == r2.pronuclei

    def test_pixel_flip_rate_calibration(self):
        cfg = SynthConfig(
            seed=5,
            frames=30,
            image_size=64,
            noise=NoiseConfig(seg_flip_rate=0.05),
        )
        _, truth = generate_movie(cfg)
        rendered = render_model_outputs(truth, cfg)
        total = 0
        equal = 0
        for pred, true in zip(rendered.seg_maps, truth.seg_maps):
            total += true.labels.size
            equal += int((pred.labels == true.labels).sum())
        assert total >= 100_000
        assert equal / total == pytest.approx(0.95, abs=0.01)

    def test_noisy_probabilities_are_valid(self):
        cfg = small_config(noise=NoiseConfig(logit_sigma=2.0, logit_scale=6.0))
        _, truth = generate_movie(cfg)
        rendered = render_model_outputs(truth, cfg)
        for vec in rendered.stage_probs:
            assert vec.shape == (13,)
            assert np.all(vec >= 0)
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_confidence_tracks_iou_under_jitter(self):
        cfg = small_config(frames=16, noise=NoiseConfig(mask_jitter_px=2.0))
        _, truth = generate_movie(cfg)
        rendered = render_model_outputs(truth, cfg)
        from embryometrics.geometry import mask_iou

        checked = 0
        for i in range(len(truth.stages)):
            for plane, cands in rendered.cells[i].items():
                for c, m in zip(cands, truth.cell_masks[i]):
                    assert c.confidence == pytest.approx(
                        mask_iou(c.mask, m), abs=1e-12
                    )
                    checked += 1
        assert checked > 0


class TestDerivedSeeds:
    def test_stable_and_distinct(self):
        s1 = derive_embryo_seed(42, 0)
        s2 = derive_embryo_seed(42, 1)
        assert s1 == derive_embryo_seed(42, 0)
        assert s1 != s2
