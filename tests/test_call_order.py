"""The order in which run_pipeline calls its backends.

A spy suite logs every model call as ``(model, frame, plane)``, where
``model`` is the BackendSuite field and ``plane`` is None for stage
probabilities. The pipeline calls frame-major: segmentation and
fragmentation for every frame, then stage probabilities for every frame,
then per frame the cell detector before the pronucleus detector, each
on the three middle planes in ascending order.
"""

import pytest

from embryometrics.backends import (
    BackendSuite,
    suite_from_tables,
    synth_backend_suite,
)
from embryometrics.errors import BackendError
from embryometrics.model import StageClass
from embryometrics.pipeline import PipelineConfig, run_pipeline
from embryometrics.synth import SynthConfig, generate_movie, render_model_outputs

C = StageClass
MID = 3
PLANES = (2, 3, 4)


class Spy:
    """Forwards each call to ``inner`` after logging it."""

    def __init__(self, calls, model, inner):
        self.calls = calls
        self.model = model
        self.inner = inner

    def segment(self, movie, frame, plane):
        self.calls.append((self.model, frame, plane))
        return self.inner.segment(movie, frame, plane)

    def score(self, movie, frame, plane, roi):
        self.calls.append((self.model, frame, plane))
        return self.inner.score(movie, frame, plane, roi)

    def probabilities(self, movie, frame, roi):
        self.calls.append((self.model, frame, None))
        return self.inner.probabilities(movie, frame, roi)

    def detect(self, movie, frame, plane, roi):
        self.calls.append((self.model, frame, plane))
        return self.inner.detect(movie, frame, plane, roi)


def spy_suite(suite, calls):
    return BackendSuite(
        segmenter=Spy(calls, "segmenter", suite.segmenter),
        fragmentation=Spy(calls, "fragmentation", suite.fragmentation),
        stage=Spy(calls, "stage", suite.stage),
        cells=Spy(calls, "cells", suite.cells),
        pronuclei=Spy(calls, "pronuclei", suite.pronuclei),
    )


def setup(frames=30, grades=(0.5, 0.5, 0.0, 0.0)):
    cfg = SynthConfig(
        seed=3, frames=frames, image_size=64, fragmentation_distribution=grades
    )
    movie, truth = generate_movie(cfg)
    return cfg, movie, truth


def config():
    return PipelineConfig(roi_side=48)


def scoring_calls(n):
    calls = []
    for i in range(n):
        calls.append(("segmenter", i, MID))
        calls.extend(("fragmentation", i, p) for p in PLANES)
    return calls


def detector_calls(stages):
    calls = []
    for i, stage in enumerate(stages):
        if stage == C.CELL_1:
            models = ("cells", "pronuclei")
        elif C.CELL_2 <= stage <= C.CELL_8:
            models = ("cells",)
        else:
            models = ()
        calls.extend((m, i, p) for m in models for p in PLANES)
    return calls


def test_full_call_sequence():
    cfg, movie, truth = setup()
    assert truth.stages[0] == C.CELL_1
    assert truth.stages[-1] > C.CELL_8  # frames routed to no detector
    calls = []
    suite = spy_suite(synth_backend_suite(truth, cfg), calls)
    result = run_pipeline(movie, suite, config())
    assert result.decoded_stages() == list(truth.stages)
    n = len(movie)
    expected = (
        scoring_calls(n)
        + [("stage", i, None) for i in range(n)]
        + detector_calls(truth.stages)
    )
    assert calls == expected


def test_gated_out_embryo_calls_no_stage_or_detector():
    cfg, movie, truth = setup(frames=12, grades=(0.0, 0.0, 0.0, 1.0))
    calls = []
    suite = spy_suite(synth_backend_suite(truth, cfg), calls)
    result = run_pipeline(movie, suite, config())
    assert not result.gate.low_fragmentation
    assert calls == scoring_calls(len(movie))


def test_first_failing_detector_names_the_stage():
    cfg, movie, truth = setup(frames=12)
    assert truth.stages[0] == C.CELL_1  # both detectors are routed

    class Raising:
        def detect(self, movie, frame, plane, roi):
            raise RuntimeError("detector exploded")

    suite = synth_backend_suite(truth, cfg)
    broken = BackendSuite(
        segmenter=suite.segmenter,
        fragmentation=suite.fragmentation,
        stage=suite.stage,
        cells=Raising(),
        pronuclei=Raising(),
    )
    with pytest.raises(BackendError) as err:
        run_pipeline(movie, broken, config())
    assert err.value.stage == "cell_detection"
    assert err.value.frame == 0


def tables(cfg, truth):
    rendered = render_model_outputs(truth, cfg)
    seg = {(i, MID): m for i, m in enumerate(rendered.seg_maps)}
    frag = {
        (i, p): s
        for i, scores in enumerate(rendered.fragmentation)
        for p, s in scores.items()
    }
    stage = dict(enumerate(rendered.stage_probs))
    return seg, frag, stage


@pytest.mark.parametrize(
    "table, key, stage",
    [("seg", (1, MID), "zona_segmentation"), ("frag", (2, MID + 1), "fragmentation")],
)
def test_missing_scoring_entry_is_backend_error(table, key, stage):
    cfg, movie, truth = setup(frames=6)
    seg, frag, stage_probs = tables(cfg, truth)
    del {"seg": seg, "frag": frag}[table][key]
    suite = suite_from_tables(seg, frag, stage_probs, {}, {})
    with pytest.raises(BackendError) as err:
        run_pipeline(movie, suite, config())
    assert err.value.stage == stage
    assert err.value.frame == key[0]


def test_missing_detector_entry_means_no_detections():
    cfg, movie, truth = setup(frames=12)
    seg, frag, stage_probs = tables(cfg, truth)
    result = run_pipeline(
        movie, suite_from_tables(seg, frag, stage_probs, {}, {}), config()
    )
    assert result.gate.low_fragmentation
    for record in result.frames:
        assert record.cells == ()
        if record.decoded_class == C.CELL_1:
            assert record.pronuclei == ()
        else:
            assert record.pronuclei is None
