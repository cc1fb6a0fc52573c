"""Monotone stage-trajectory decoding.

A movie's per-frame class probabilities rarely form a biologically
possible stage sequence when read frame-by-frame: development never
moves backward, but independent per-frame argmaxes do. The decoder
finds the non-decreasing sequence over the 11 ordered classes that
maximizes the summed log-probabilities, via dynamic programming with
running suffix maxima (O(T * 11)). Frames whose 13-class argmax is
``empty`` or ``degenerate`` are excluded from the trajectory and keep
their argmax as the decoded class.

``brute_force_decode`` enumerates every non-decreasing sequence and is
the testing oracle for the dynamic program.

Inputs may be a validated :class:`StageProbabilityMatrix` or any raw
(T, 13) non-negative array. Rows are deliberately not renormalized:
scaling a row multiplies every path's probability by the same constant,
so the decoded path is unchanged and the oracle stays simple.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllFramesExcludedError,
    NoFeasiblePathError,
    TooManyFramesError,
    ValidationError,
)
from .model import (
    EXCLUDED_CLASSES,
    NUM_CLASSES,
    ORDERED_CLASSES,
    StageClass,
    StageProbabilityMatrix,
)

N_ORDERED = len(ORDERED_CLASSES)  # 11

# brute_force_decode enumerates C(T+10, 10) sequences; refuse inputs
# where that blows up.
BRUTE_FORCE_MAX_FRAMES = 12


@dataclass(frozen=True)
class FrameDecode:
    """Per-frame decoding record."""

    argmax_class: StageClass
    decoded_class: StageClass
    excluded: bool


@dataclass(frozen=True)
class TrajectoryResult:
    """Decoded trajectory plus the log-score of the chosen path."""

    frames: tuple[FrameDecode, ...]
    path_log_score: float

    @property
    def decoded(self) -> tuple[StageClass, ...]:
        return tuple(f.decoded_class for f in self.frames)

    @property
    def excluded(self) -> tuple[bool, ...]:
        return tuple(f.excluded for f in self.frames)


def _coerce_probs(matrix) -> np.ndarray:
    """Accept a StageProbabilityMatrix or a raw (T, 13) array."""
    if isinstance(matrix, StageProbabilityMatrix):
        return matrix.probs
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != NUM_CLASSES or arr.shape[0] == 0:
        raise ValidationError(
            f"expected a (T, {NUM_CLASSES}) probability array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("probabilities must be finite")
    if np.any(arr < 0):
        raise ValidationError("probabilities must be non-negative")
    return arr


def _argmax_classes(probs: np.ndarray) -> list[StageClass]:
    # np.argmax takes the first maximum, which is the lowest class index.
    return [StageClass(int(i)) for i in np.argmax(probs, axis=1)]


def argmax_trajectory(matrix) -> list[StageClass]:
    """Per-frame 13-class argmax, ties to the lowest class index.

    The no-smoothing baseline a monotone decoder is measured against;
    applies no ordering constraint.
    """
    return _argmax_classes(_coerce_probs(matrix))


def exclude_frames(matrix) -> list[bool]:
    """True for frames whose 13-class argmax is empty or degenerate."""
    return [c in EXCLUDED_CLASSES for c in _argmax_classes(_coerce_probs(matrix))]


def _path_score(logp: np.ndarray, path: np.ndarray) -> float:
    return float(np.sum(logp[np.arange(len(path)), path]))


def _prepare(matrix):
    """Shared setup: argmaxes, exclusion flags, log-probs of kept frames."""
    probs = _coerce_probs(matrix)
    argmaxes = _argmax_classes(probs)
    excluded = [c in EXCLUDED_CLASSES for c in argmaxes]
    kept = np.flatnonzero(~np.asarray(excluded))
    if kept.size == 0:
        raise AllFramesExcludedError("every frame is empty or degenerate")
    with np.errstate(divide="ignore"):
        logp = np.log(probs[kept][:, :N_ORDERED])
    return argmaxes, excluded, kept, logp


def _assemble(argmaxes, excluded, kept, path, score) -> TrajectoryResult:
    decoded: list[StageClass] = list(argmaxes)
    for pos, frame_idx in enumerate(kept):
        decoded[frame_idx] = ORDERED_CLASSES[int(path[pos])]
    frames = tuple(
        FrameDecode(argmax_class=a, decoded_class=d, excluded=e)
        for a, d, e in zip(argmaxes, decoded, excluded)
    )
    return TrajectoryResult(frames=frames, path_log_score=score)


def decode_monotone(matrix) -> TrajectoryResult:
    """Most-likely non-decreasing stage trajectory.

    Maximizes the summed per-frame log-probabilities over all
    non-decreasing sequences of ordered classes on the non-excluded
    frames. Ties are broken toward the lexicographically smallest index
    sequence, i.e. the trajectory stays low and calls each division as
    late as the evidence allows.

    Raises:
        AllFramesExcludedError: no frame survives exclusion.
        NoFeasiblePathError: every monotone path has probability zero.
    """
    argmaxes, excluded, kept, logp = _prepare(matrix)
    n = logp.shape[0]

    # g[t][s]: best score of frames t.. given stage s at frame t.
    # suffix[t][s] = max(g[t][s:]), the running maxima that keep the
    # recurrence O(n_classes) per frame.
    g = np.empty((n, N_ORDERED))
    suffix = np.empty((n, N_ORDERED))
    g[n - 1] = logp[n - 1]
    suffix[n - 1] = np.maximum.accumulate(g[n - 1][::-1])[::-1]
    for t in range(n - 2, -1, -1):
        g[t] = logp[t] + suffix[t + 1]
        suffix[t] = np.maximum.accumulate(g[t][::-1])[::-1]

    if suffix[0][0] == -np.inf:
        raise NoFeasiblePathError(
            "every non-decreasing trajectory has probability zero"
        )

    # Walk forward, always taking the smallest class that still attains
    # the optimum. Comparisons are exact: suffix entries are copies of
    # g entries, never arithmetic on them.
    path = np.empty(n, dtype=np.int64)
    lo = 0
    for t in range(n):
        target = suffix[t][lo]
        lo = lo + int(np.flatnonzero(g[t][lo:] == target)[0])
        path[t] = lo

    return _assemble(argmaxes, excluded, kept, path, _path_score(logp, path))


@functools.cache
def _monotone_sequences(n: int) -> np.ndarray:
    """All non-decreasing length-n index sequences, lexicographically sorted."""
    return np.array(
        list(itertools.combinations_with_replacement(range(N_ORDERED), n)),
        dtype=np.int64,
    )


def brute_force_decode(matrix) -> TrajectoryResult:
    """Oracle decoder: score every non-decreasing sequence.

    Same exclusion rule, scoring, and tie-break as
    :func:`decode_monotone`, found by exhaustive enumeration instead of
    dynamic programming.

    Raises:
        TooManyFramesError: more than 12 frames.
    """
    probs = _coerce_probs(matrix)
    if probs.shape[0] > BRUTE_FORCE_MAX_FRAMES:
        raise TooManyFramesError(
            f"{probs.shape[0]} frames exceeds the enumeration guard "
            f"({BRUTE_FORCE_MAX_FRAMES})"
        )
    argmaxes, excluded, kept, logp = _prepare(matrix)
    n = logp.shape[0]

    seqs = _monotone_sequences(n)
    scores = logp[np.arange(n), seqs].sum(axis=1)
    # First maximum = lexicographically smallest argmax sequence.
    best = int(np.argmax(scores))
    if scores[best] == -np.inf:
        raise NoFeasiblePathError(
            "every non-decreasing trajectory has probability zero"
        )
    path = seqs[best]
    return _assemble(argmaxes, excluded, kept, path, _path_score(logp, path))
