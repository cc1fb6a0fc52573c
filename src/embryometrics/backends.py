"""Pluggable model backends.

The pipeline pulls five kinds of per-frame outputs from a
:class:`BackendSuite`: zona segmentation, fragmentation scores, stage
probabilities, and cell / pronucleus candidates. Two suites ship with
the package: a synthetic suite that renders outputs from ground truth
(with configurable noise), and a file suite that replays precomputed
outputs from disk. Both are deterministic lookups, so memoization and
re-runs are safe.

Backends return candidates in full-image coordinates; the ROI is passed
for context (a real model would crop and resize with it) but no
resampling happens here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import BackendError
from .geometry import Roi
from .model import EmbryoMovie, InstanceCandidate, SegmentationMap
from .serialize import BACKEND_FILES, read_backend_tables
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
    probabilities. A missing key raises ``KeyError`` unless a default
    is given: no line in a detector table means it found nothing there.
    """

    def __init__(self, table: Mapping, default=None):
        self._table = dict(table)
        self._default = default

    def _get(self, key):
        if self._default is None:
            return self._table[key]
        return self._table.get(key, self._default)

    def segment(self, movie, frame, plane):
        return self._get((frame, plane))

    def score(self, movie, frame, plane, roi):
        return self._get((frame, plane))

    def probabilities(self, movie, frame, roi):
        return self._get(frame)

    def detect(self, movie, frame, plane, roi):
        return self._get((frame, plane))


def suite_from_tables(
    seg: Mapping, frag: Mapping, stage: Mapping, cells: Mapping, pronuclei: Mapping
) -> BackendSuite:
    return BackendSuite(
        segmenter=_Table(seg),
        fragmentation=_Table(frag),
        stage=_Table(stage),
        cells=_Table(cells, default=()),
        pronuclei=_Table(pronuclei, default=()),
    )


def _plane_table(per_frame: Sequence[Mapping[int, object]]) -> dict:
    """Flatten per-frame ``{plane: value}`` maps into a ``(frame, plane)`` table."""
    return {
        (i, plane): value
        for i, planes in enumerate(per_frame)
        for plane, value in planes.items()
    }


def synth_backend_suite(truth: GroundTruth, config: SynthConfig) -> BackendSuite:
    """Render all model outputs for the movie once and serve lookups."""
    rendered = render_model_outputs(truth, config)
    mid = truth.plane_count // 2
    return suite_from_tables(
        seg={(i, mid): m for i, m in enumerate(rendered.seg_maps)},
        frag=_plane_table(rendered.fragmentation),
        stage=dict(enumerate(rendered.stage_probs)),
        cells=_plane_table(rendered.cells),
        pronuclei=_plane_table(rendered.pronuclei),
    )


class _FilePlanes(_Table):
    """Seg maps or fragmentation scores replayed from the file at ``path``
    for the pipeline stage ``stage``; a missing entry is a BackendError
    naming the file, as a missing stage row is."""

    def __init__(self, table, stage: str, path: Path):
        super().__init__(table)
        self._stage, self._path = stage, path

    def _get(self, key):
        if key not in self._table:
            frame, plane = key
            raise BackendError(
                self._stage, frame, f"{self._path} has no row for frame {frame}, plane {plane}"
            )
        return self._table[key]


class _FileStages(_Table):
    """Stage rows replayed from a file. ``rows`` keeps the file's path and
    row times, so that a caller holding the movie can check them with
    ``rows.check_times(movie.times)``."""

    def __init__(self, rows):
        super().__init__(rows)
        self.rows = rows


def file_backend_suite(bundle_dir: Path | str) -> BackendSuite:
    """Replay precomputed outputs from a bundle directory.

    Accepts either the bundle directory (containing ``backend/``) or
    the backend directory itself.
    """
    d = Path(bundle_dir)
    if (d / "backend").is_dir():
        d = d / "backend"
    tables = read_backend_tables(d)
    return replace(
        suite_from_tables(**tables),
        segmenter=_FilePlanes(
            tables["seg"], "zona_segmentation", d / BACKEND_FILES["segmentation"]
        ),
        fragmentation=_FilePlanes(
            tables["frag"], "fragmentation", d / BACKEND_FILES["fragmentation"]
        ),
        stage=_FileStages(tables["stage"]),
    )
