"""Pluggable model backends.

The pipeline pulls five kinds of per-frame outputs from a
:class:`BackendSuite`: zona segmentation, fragmentation scores, stage
probabilities, and cell / pronucleus candidates. Two suites ship with
the package: a synthetic suite that renders outputs from ground truth
(with configurable noise), and a file suite that replays precomputed
outputs from disk. Both serve deterministic lookups from tables of the
shape ``serialize.backend_tables`` defines, so memoization and re-runs
are safe.

Backends return candidates in full-image coordinates; the ROI is passed
for context (a real model would crop and resize with it) but no
resampling happens here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .geometry import Roi
from .model import EmbryoMovie, InstanceCandidate, SegmentationMap
from .serialize import backend_tables, read_backend_tables
from .synth import GroundTruth, SynthConfig, render_model_outputs


class ZonaSegmenter(ABC):
    @abstractmethod
    def segment(
        self, movie: EmbryoMovie, frame: int, plane: int
    ) -> SegmentationMap: ...


class FragmentationScorer(ABC):
    @abstractmethod
    def score(
        self, movie: EmbryoMovie, frame: int, plane: int, roi: Roi
    ) -> float: ...


class StageClassifier(ABC):
    @abstractmethod
    def probabilities(
        self, movie: EmbryoMovie, frame: int, roi: Roi
    ) -> np.ndarray: ...


class InstanceDetector(ABC):
    @abstractmethod
    def detect(
        self, movie: EmbryoMovie, frame: int, plane: int, roi: Roi
    ) -> tuple[InstanceCandidate, ...]: ...


@dataclass(frozen=True)
class BackendSuite:
    """The five model handles the pipeline runs on."""

    segmenter: ZonaSegmenter
    fragmentation: FragmentationScorer
    stage: StageClassifier
    cells: InstanceDetector
    pronuclei: InstanceDetector


class _Table(ZonaSegmenter, FragmentationScorer, StageClassifier, InstanceDetector):
    """Any model served from a lookup table.

    Keys are ``(frame, plane)``, or the frame alone for stage
    probabilities. A missing key raises what the table raises for it
    (``KeyError`` from a plain dict), except in a detector: no row
    there means it found nothing.
    """

    def __init__(self, table: Mapping):
        self.table = table

    def segment(self, movie, frame, plane):
        return self.table[frame, plane]

    def score(self, movie, frame, plane, roi):
        return self.table[frame, plane]

    def probabilities(self, movie, frame, roi):
        return self.table[frame]

    def detect(self, movie, frame, plane, roi):
        return self.table.get((frame, plane), ())


def suite_from_tables(
    seg: Mapping, frag: Mapping, stage: Mapping, cells: Mapping, pronuclei: Mapping
) -> BackendSuite:
    """A suite that serves lookups from the mappings it is given; it does
    not copy them."""
    return BackendSuite(*map(_Table, (seg, frag, stage, cells, pronuclei)))


def synth_backend_suite(truth: GroundTruth, config: SynthConfig) -> BackendSuite:
    """Render all model outputs for the movie once and serve them in the
    table shape ``serialize.backend_tables`` defines."""
    rendered = render_model_outputs(truth, config)
    return suite_from_tables(**backend_tables(rendered, truth.plane_count // 2))


def file_backend_suite(bundle_dir: Path | str) -> BackendSuite:
    """Replay a bundle's outputs in the table shape ``serialize.backend_tables`` defines.

    Accepts either the bundle directory (containing ``backend/``) or
    the backend directory itself. A missing seg, frag or stage row raises
    a BackendError naming its file. Stage rows are served by position:
    only ``stage.table.check_times(movie.times)``, which ``run`` calls,
    matches them to the movie's frames by time.
    """
    d = Path(bundle_dir)
    if (d / "backend").is_dir():
        d = d / "backend"
    return suite_from_tables(**read_backend_tables(d))
