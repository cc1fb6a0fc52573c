"""One table shape for both backend routes.

``backend_tables`` builds the five tables from rendered outputs. The
files ``write_backend_files`` writes read back to those tables, key for
key and value for value, and the synth suite serves them.
"""

import numpy as np
import pytest

from embryometrics.backends import synth_backend_suite
from embryometrics.serialize import backend_tables, read_backend_tables, write_backend_files
from embryometrics.synth import NoiseConfig, SynthConfig, generate_movie, render_model_outputs

CONFIG = SynthConfig(
    seed=5,
    frames=8,
    image_size=64,
    noise=NoiseConfig(
        logit_sigma=1.0,
        mask_jitter_px=1.5,
        confidence_sigma=0.1,
        fragmentation_sigma=0.4,
        seg_flip_rate=0.02,
    ),
)

# Table name -> the suite field that serves it.
SUITE_FIELDS = {
    "seg": "segmenter",
    "frag": "fragmentation",
    "stage": "stage",
    "cells": "cells",
    "pronuclei": "pronuclei",
}


@pytest.fixture(scope="module")
def rendered():
    movie, truth = generate_movie(CONFIG)
    return movie, truth, render_model_outputs(truth, CONFIG)


@pytest.fixture(scope="module")
def backend(rendered, tmp_path_factory):
    movie, _, outputs = rendered
    out = tmp_path_factory.mktemp("backend")
    write_backend_files(out, outputs, movie.times, seg_plane=3)
    return out


def assert_same_tables(got, expected):
    assert set(got) == set(expected) == set(SUITE_FIELDS)
    for name in SUITE_FIELDS:
        assert list(got[name]) == list(expected[name]), name
    for key, value in expected["seg"].items():
        assert np.array_equal(got["seg"][key].labels, value.labels), key
    for key, value in expected["stage"].items():
        assert np.array_equal(got["stage"][key], value), key
    for name in ("frag", "cells", "pronuclei"):
        for key, value in expected[name].items():
            assert got[name][key] == value, (name, key)


def test_bundle_has_planes_with_and_without_candidates(rendered):
    _, _, outputs = rendered
    found = [c for per_frame in (outputs.cells, outputs.pronuclei)
             for planes in per_frame for c in planes.values()]
    assert any(found) and not all(found)
    assert any(s not in (0.0, 3.0) for planes in outputs.fragmentation for s in planes.values())


def test_files_read_back_to_the_built_tables(rendered, backend):
    movie, _, outputs = rendered
    built = backend_tables(outputs, 3)
    read = read_backend_tables(backend)
    assert_same_tables(read, built)
    assert read["stage"].times == movie.times
    # A plane without candidates has no row in a file and no key in a table.
    for name in ("cells", "pronuclei"):
        assert all(built[name].values())


def test_synth_suite_serves_the_built_tables(rendered, backend):
    _, truth, outputs = rendered
    suite = synth_backend_suite(truth, CONFIG)
    served = {name: getattr(suite, field).table for name, field in SUITE_FIELDS.items()}
    assert_same_tables(served, backend_tables(outputs, 3))
    assert_same_tables(served, read_backend_tables(backend))
