"""Core domain types shared by every module.

All types are immutable value objects after construction: numpy payloads
are stored as read-only arrays and the dataclasses are frozen, so
instances can be shared freely across threads.

The 13 developmental classes use one canonical index order everywhere,
including serialized vectors and matrices: ``CELL_1 = 0`` through
``DEGENERATE = 12``. The first 11 classes form the developmental order a
trajectory may move along; ``EMPTY`` and ``DEGENERATE`` sit outside it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import (
    LengthMismatchError,
    NegativeProbabilityError,
    NotNormalizedError,
    ValidationError,
)

NUM_CLASSES = 13

# |sum - 1| tolerated before a vector is rejected; accepted vectors are
# renormalized so the stored sum is 1 to within an ulp.
PROB_TOLERANCE = 1e-6

# Below this drift a vector counts as already normalized and is returned
# unchanged, which is what makes validation idempotent.
EXACT_SUM_ATOL = 1e-12

NEGATIVE_CLAMP = -1e-9

#: Focal planes per frame in every movie.
PLANE_COUNT = 7


class _Tokens:
    """Enum mixin: the string token that stands for a member in files."""

    @property
    def token(self) -> str:
        return self.name.lower()

    @classmethod
    def from_token(cls, token: str):
        for member in cls:
            if member.token == token:
                return member
        raise ValidationError(f"unknown {cls.__name__} token: {token!r}")


class StageClass(_Tokens, IntEnum):
    """Developmental stage labels, in canonical index order."""

    CELL_1 = 0
    CELL_2 = 1
    CELL_3 = 2
    CELL_4 = 3
    CELL_5 = 4
    CELL_6 = 5
    CELL_7 = 6
    CELL_8 = 7
    CELL_9_PLUS = 8
    MORULA = 9
    BLASTOCYST = 10
    EMPTY = 11
    DEGENERATE = 12

    @property
    def is_ordered(self) -> bool:
        """True for the 11 classes that participate in the stage order."""
        return self <= StageClass.BLASTOCYST

    @property
    def cell_count(self) -> int | None:
        """Number of cells for the 1--8 cell classes, else None."""
        if StageClass.CELL_1 <= self <= StageClass.CELL_8:
            return int(self) + 1
        return None

    @property
    def token(self) -> str:
        return self.name.lower().replace("_", "")


#: The 11 classes a decoded trajectory may move along, in order.
ORDERED_CLASSES: tuple[StageClass, ...] = tuple(
    c for c in StageClass if c.is_ordered
)

#: Classes whose frames are excluded from trajectory decoding.
EXCLUDED_CLASSES: tuple[StageClass, ...] = (StageClass.EMPTY, StageClass.DEGENERATE)


class SegClass(_Tokens, IntEnum):
    """Per-pixel classes of the zona segmentation."""

    OUTSIDE_WELL = 0
    INSIDE_WELL = 1
    ZONA = 2
    INSIDE_ZONA = 3


class CandidateKind(_Tokens, IntEnum):
    """What an instance candidate outlines."""

    CELL = 0
    PRONUCLEUS = 1


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


def _checked_ints(
    values: Iterable, what: str, error: type[ValidationError] = ValidationError
) -> tuple[int, ...]:
    """``values`` as Python ints, each an integer or an integral float but
    not a bool, else ``error``. Checked before ``int()``, which would turn
    2.9 into 2, '2' into 2 and True into 1, and raises ValueError on NaN
    and OverflowError on an infinity."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) and not (
            isinstance(v, numbers.Real) and float(v).is_integer()
        ):
            raise error(f"{what} {v!r} is not an integer")
    return tuple(map(int, values))


def validate_prob_vector(raw: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate a raw 13-class probability vector.

    Entries in [-1e-9, 0) are clamped to 0. The sum must be within 1e-6
    of 1; accepted vectors are renormalized so they sum to 1 within an
    ulp (bit-exact unit sums are unreachable for some inputs). The
    function is idempotent: a vector already within 1e-12 of unit sum is
    returned unchanged (as a read-only copy).

    Raises:
        NegativeProbabilityError: an entry is below -1e-9.
        NotNormalizedError: the sum is off by more than 1e-6.
        ValidationError: wrong length or non-finite entries.
    """
    p = np.asarray(raw, dtype=np.float64)
    if p.shape != (NUM_CLASSES,):
        raise ValidationError(f"expected {NUM_CLASSES} entries, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("probability vector has non-finite entries")
    if np.any(p < NEGATIVE_CLAMP):
        raise NegativeProbabilityError(
            f"negative probability entry: min = {p.min():.3e}"
        )
    p = np.where(p < 0.0, 0.0, p)
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise NotNormalizedError(f"probabilities sum to {total!r}, not 1")
    if abs(total - 1.0) > EXACT_SUM_ATOL:
        p = p / total
        # Push the division's rounding residual into the largest entry;
        # the result sums to 1 within an ulp and revalidates unchanged.
        residual = 1.0 - float(p.sum())
        if residual != 0.0:
            p = np.array(p)
            p[int(np.argmax(p))] += residual
    return _readonly(p)


@dataclass(frozen=True)
class StageProbabilityMatrix:
    """Per-frame 13-class probability rows with frame timestamps."""

    probs: np.ndarray  # (T, 13) float64, each row a validated ProbVector13
    times: np.ndarray  # (T,) minutes, strictly increasing

    def __init__(self, rows: Iterable[Sequence[float]], times: Iterable[float]):
        probs = np.array([validate_prob_vector(r) for r in rows], dtype=np.float64)
        t = np.asarray(list(times), dtype=np.float64)
        if probs.shape[0] == 0:
            raise ValidationError("matrix needs at least one frame")
        if t.shape != (probs.shape[0],):
            raise LengthMismatchError(
                f"{probs.shape[0]} probability rows but times have shape {t.shape}"
            )
        if np.any(np.diff(t) <= 0):
            raise ValidationError("frame times must be strictly increasing")
        object.__setattr__(self, "probs", _readonly(probs))
        object.__setattr__(self, "times", _readonly(t))

    def __len__(self) -> int:
        return int(self.probs.shape[0])


@dataclass(frozen=True)
class ConfusionMatrix:
    """Label-noise model: ``q[t][l]`` = p(observed label l | true class t).

    Every row is a valid probability vector over the 13 classes.
    """

    q: np.ndarray  # (13, 13) float64, row-stochastic

    def __init__(self, rows: Sequence[Sequence[float]] | np.ndarray):
        arr = np.asarray(rows, dtype=np.float64)
        if arr.shape != (NUM_CLASSES, NUM_CLASSES):
            raise ValidationError(
                f"confusion matrix must be {NUM_CLASSES}x{NUM_CLASSES}, got {arr.shape}"
            )
        validated = np.array([validate_prob_vector(r) for r in arr])
        object.__setattr__(self, "q", _readonly(validated))

    @classmethod
    def identity(cls) -> "ConfusionMatrix":
        return cls(np.eye(NUM_CLASSES))

    def row(self, true_class: StageClass) -> np.ndarray:
        return self.q[int(true_class)]

    def to_rows(self) -> list[list[float]]:
        """13x13 nested lists, rows indexed by true class."""
        return [[float(v) for v in row] for row in self.q]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "ConfusionMatrix":
        return cls(rows)


def _value_runs(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and length of each run of equal values in the non-empty
    1-D array ``flat``.

    A run starts at index 0 and at each flat index where the value
    changes. This is the one grid-to-runs encoder: binary masks, label
    grids and label arrays are all encoded by it.
    """
    starts = np.concatenate(([0], np.flatnonzero(flat[1:] != flat[:-1]) + 1))
    return flat[starts], np.diff(starts, append=flat.size)


def _runs_bbox(first: np.ndarray, last: np.ndarray, width: int) -> tuple[int, int, int, int]:
    """Tight (x, y, w, h) box of the runs from flat index ``first[k]`` to
    ``last[k]`` inclusive, in row-major order on a grid ``width`` wide;
    there is at least one run."""
    y0, y1 = int(first[0]) // width, int(last[-1]) // width
    if np.any(first // width != last // width):
        # A run across a row break covers the last and the first column.
        x0, x1 = 0, width - 1
    else:
        x0, x1 = int((first % width).min()), int((last % width).max())
    return (x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def _runs_bboxes(
    starts: np.ndarray, stops: np.ndarray, width: np.ndarray, counts: np.ndarray
) -> list[tuple[tuple[int, int, int, int] | None, tuple[np.ndarray, np.ndarray]]]:
    """``_runs_bbox`` of many masks in one pass, and their runs: mask j's
    runs are the next ``counts[j]`` of the flat int64 ``starts`` and
    exclusive ``stops`` on a grid ``width[j]`` wide. A mask without runs
    has no box, None. Its runs are views of the two arrays, made read-only."""
    starts.flags.writeable = stops.flags.writeable = False
    boxes: list = [None] * counts.size
    has = np.flatnonzero(counts)
    if has.size:
        last = stops - 1
        at = (np.cumsum(counts) - counts)[has]  # each mask's first run
        w, w_has = np.repeat(width, counts), width[has]
        across = np.logical_or.reduceat(starts // w != last // w, at)
        x0 = np.where(across, 0, np.minimum.reduceat(starts % w, at))
        x1 = np.where(across, w_has - 1, np.maximum.reduceat(last % w, at))
        y0, y1 = starts[at] // w_has, last[at + counts[has] - 1] // w_has
        for j, box in zip(has.tolist(), np.stack([x0, y0, x1 - x0 + 1, y1 - y0 + 1], 1).tolist()):
            boxes[j] = tuple(box)
    cut = [0, *np.cumsum(counts).tolist()]
    return [(box, (starts[a:b], stops[a:b])) for box, a, b in zip(boxes, cut, cut[1:])]


def _shared_copy(self, memo):
    # `__deepcopy__` of a type whose held state is all immutable: the copy
    # shares it instead of visiting every array and run count.
    clone = object.__new__(type(self))
    clone.__dict__.update(self.__dict__)
    return clone


@dataclass(frozen=True)
class SegmentationMap:
    """Per-pixel 4-class zona segmentation on a width x height grid.

    Every map holds its maximal row-major (labels uint8, integer counts)
    runs and decodes ``labels`` on first read, keeping the grid in the
    instance's ``__dict__``; repr reads ``labels``, while ``==`` and hash
    read the shape and runs, which every birth route makes maximal. A map
    built from a grid encodes it at once. Run counts are int32 where they
    are known to fit, so sums over them ask for int64.

    A map ``synth`` paints also holds its zona box (``_zona_box``), read
    off the zona disks it was painted from; a map built from a grid, read
    from a file or flipped by ``render_model_outputs`` computes it off the
    runs on each call.
    """

    labels: np.ndarray  # (height, width) uint8 with values in SegClass
    # Set on the instance, outside the dataclass field: the canonical runs
    # text the map was read from, which serialize writes back, and the
    # map's runs.
    _runs_text: ClassVar[str | None] = None
    _runs: ClassVar[tuple[np.ndarray, np.ndarray]]

    def __init__(self, labels: np.ndarray | Sequence[Sequence[int]]):
        arr = np.asarray(labels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("segmentation map must be a non-empty 2-D grid")
        # Checked before the cast, which would turn 1.5 into 1 and NaN into 0.
        if not np.isin(arr, range(4)).all():
            raise ValidationError("segmentation labels must be in 0..3")
        self._hold(_value_runs(arr.astype(np.uint8).ravel()), arr.shape)

    @classmethod
    def _from_runs(
        cls, labels: np.ndarray, counts: np.ndarray, width: int, height: int, zona_box=...
    ) -> "SegmentationMap":
        """The map whose row-major pixels are ``counts[i]`` copies of
        ``labels[i]``, in order, holding ``zona_box`` as its ``_zona_box()``
        if one is given (None: no zona). The caller has checked that the
        grid is not empty, the labels are in 0..3, the counts, an integer
        array, cover the grid, and a box is the map's; the runs are kept
        as given, so they are maximal if the caller's are, the counts keep
        their dtype, and uint8 labels are not copied.
        """
        seg = object.__new__(cls)
        seg._hold((labels.astype(np.uint8, copy=False), counts), (height, width))
        if zona_box is not ...:
            seg.__dict__["_zona"] = zona_box
        return seg

    def _hold(self, runs: tuple[np.ndarray, np.ndarray], shape: tuple[int, int]) -> None:
        for arr in runs:
            arr.flags.writeable = False
        self.__dict__.update(_runs=runs, _shape=shape)

    def __getattr__(self, name: str):
        # Reached only for what the instance does not hold: the grid,
        # decoded once.
        if name != "labels":
            raise AttributeError(name)
        grid = np.repeat(*self._runs).reshape(self._shape)
        grid.flags.writeable = False
        self.__dict__["labels"] = grid
        return grid

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._shape == other._shape and all(map(np.array_equal, self._runs, other._runs))

    def __hash__(self) -> int:
        labels, counts = self._runs
        return hash((self._shape, labels.tobytes(), counts.astype(np.int64).tobytes()))

    __deepcopy__ = _shared_copy

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays are writeable: hold them read-only again.
        self.__dict__.update(state)
        self._hold(self._runs, self._shape)
        if "labels" in state:
            self.labels.flags.writeable = False

    def _zona_box(self) -> tuple[int, int, int, int] | None:
        """Tight (x, y, w, h) box of the zona and inside-zona pixels, None
        if there are none: the box the map holds, else computed off the
        zona runs, without decoding, and not kept."""
        if "_zona" in self.__dict__:
            return self._zona
        labels, counts = self._runs
        # Labels are 0..3, so >= ZONA is zona or inside-zona; a plain int keeps
        # numpy from casting the uint8 labels to the enum's int64.
        runs = np.flatnonzero(labels >= int(SegClass.ZONA))
        if runs.size == 0:
            return None
        stops = np.cumsum(counts, dtype=np.int64)[runs]
        return _runs_bbox(stops - counts[runs], stops - 1, self.width)

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def height(self) -> int:
        return self._shape[0]


@dataclass(frozen=True)
class BinaryMask:
    """A binary mask stored as row-major run-length encoding.

    ``runs`` alternate background/foreground counts starting with
    background (which may be 0); all later runs are positive and the
    counts sum to ``width * height``. This canonical layout makes the
    serialized form bit-exact for a given pixel set.

    A mask built in bulk (``_from_runs``) also holds its tight box and
    foreground runs in ``__dict__``, outside ``==``, hash and repr.
    """

    width: int
    height: int
    runs: tuple[int, ...]

    def __post_init__(self):
        width, height = _checked_ints((self.width, self.height), "mask dimension")
        if width <= 0 or height <= 0:
            raise ValidationError("mask dimensions must be positive")
        runs = _checked_ints(self.runs, "mask run")
        if len(runs) == 0:
            raise ValidationError("runs may not be empty")
        if runs[0] < 0 or min(runs[1:], default=1) <= 0:
            raise ValidationError(
                "first run must be >= 0 and all later runs > 0 (canonical RLE)"
            )
        total = sum(runs)
        if total != width * height:
            raise ValidationError(f"run lengths sum to {total}, expected {width * height}")
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)

    @classmethod
    def _from_runs(
        cls, width: int, height: int, runs: tuple[int, ...], box: tuple[int, int, int, int] | None,
        foreground: tuple[np.ndarray, np.ndarray],
    ) -> "BinaryMask":
        """The mask of ``runs`` on a ``width`` x ``height`` grid, with its
        tight box ``box`` cached, or no box if it has no foreground, and
        holding ``foreground``, its read-only int64 ``_foreground``. The
        caller has checked what ``__post_init__`` checks, and ``runs`` is
        a tuple of ints.
        """
        mask = object.__new__(cls)
        mask.__dict__.update(width=width, height=height, runs=runs, _held=foreground)
        if box is not None:
            mask.__dict__["_tight_bbox"] = box
        return mask

    @classmethod
    def from_array(cls, arr: np.ndarray | Sequence[Sequence[int]]) -> "BinaryMask":
        """Encode a 2-D boolean/0-1 array (row-major, background first)."""
        a = np.asarray(arr)
        if a.ndim != 2 or a.size == 0:
            raise ValidationError("mask must be a non-empty 2-D grid")
        foreground, counts = _value_runs((a != 0).ravel())
        # The runs start with background, which may be empty.
        runs = ([0] if foreground[0] else []) + counts.tolist()
        return cls(a.shape[1], a.shape[0], tuple(runs))

    def to_array(self) -> np.ndarray:
        """Decode to a (height, width) boolean array."""
        # Odd-indexed runs are foreground.
        foreground = np.arange(len(self.runs)) % 2 == 1
        flat = np.repeat(foreground, self.runs)
        return flat.reshape(self.height, self.width)

    @property
    def area(self) -> int:
        """Foreground pixel count."""
        return int(sum(self.runs[1::2]))

    def _foreground(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat start and (exclusive) stop index of each foreground run, in
        int64: the arrays the mask holds, else computed and not kept."""
        if "_held" in self.__dict__:
            return self._held
        ends = np.cumsum(np.fromiter(self.runs, np.int64, len(self.runs)))
        return ends[:-1:2], ends[1::2]

    def tight_bbox(self) -> tuple[int, int, int, int]:
        """Tight (x, y, w, h) bounding box of the foreground, read off the
        runs without decoding the grid.

        Raises ValidationError on an empty mask.
        """
        return self._tight_bbox

    __deepcopy__ = _shared_copy

    @cached_property
    def _tight_bbox(self) -> tuple[int, int, int, int]:
        # Kept in the instance's __dict__, outside the fields `==` and hash read.
        first, stop = self._foreground()
        if first.size == 0:
            raise ValidationError("empty mask has no bounding box")
        return _runs_bbox(first, stop - 1, self.width)


@dataclass(frozen=True)
class InstanceCandidate:
    """One scored detection: mask, tight bbox, confidence, plane, kind."""

    mask: BinaryMask
    bbox: tuple[int, int, int, int]
    confidence: float
    plane: int
    kind: CandidateKind

    def __post_init__(self):
        if self.mask.area <= 0:
            raise ValidationError("candidate mask must have positive area")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence {self.confidence} outside [0, 1]")
        (plane,) = _checked_ints((self.plane,), "plane index")
        if not 0 <= plane < PLANE_COUNT:
            raise ValidationError(f"plane index {plane} outside 0..{PLANE_COUNT - 1}")
        bbox = _checked_ints(self.bbox, "bbox value")
        tight = self.mask.tight_bbox()
        if bbox != tight:
            raise ValidationError(f"bbox {bbox} is not the tight bounding box {tight}")
        object.__setattr__(self, "bbox", bbox)
        object.__setattr__(self, "confidence", float(self.confidence))
        object.__setattr__(self, "plane", plane)
        object.__setattr__(self, "kind", CandidateKind(self.kind))

    @classmethod
    def from_mask(
        cls, mask: BinaryMask, confidence: float, plane: int, kind: CandidateKind
    ) -> "InstanceCandidate":
        return cls(
            mask=mask,
            bbox=mask.tight_bbox(),
            confidence=confidence,
            plane=plane,
            kind=kind,
        )


@dataclass(frozen=True)
class FragmentationScore:
    """Clinical fragmentation grade as a real number in [0, 3]."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or not 0.0 <= v <= 3.0:
            raise ValidationError(f"fragmentation score {self.value} outside [0, 3]")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Frame:
    """One movie time point: timestamp plus its 7 focal-plane references."""

    time_minutes: float
    planes: tuple[str, ...]

    def __post_init__(self):
        planes = tuple(self.planes)
        for p in planes:
            if not isinstance(p, str):
                raise ValidationError(f"plane reference {p!r} is not a string")
        if len(planes) != PLANE_COUNT:
            raise ValidationError(
                f"frame needs exactly {PLANE_COUNT} plane refs, got {len(planes)}"
            )
        t = float(self.time_minutes)
        if not np.isfinite(t):
            raise ValidationError(f"frame time {t!r} is not finite")
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "time_minutes", t)


@dataclass(frozen=True)
class EmbryoMovie:
    """Input movie manifest: per-frame focal-plane image references."""

    embryo_id: str
    frames: tuple[Frame, ...]
    image_size: int = 500
    plane_spacing_um: float = 15.0

    def __post_init__(self):
        frames = tuple(self.frames)
        if len(frames) == 0:
            raise ValidationError("movie needs at least one frame")
        times = [f.time_minutes for f in frames]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("frame times must be strictly increasing")
        (image_size,) = _checked_ints((self.image_size,), "image_size")
        if image_size <= 0:
            raise ValidationError("image_size must be positive")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "image_size", image_size)
        object.__setattr__(self, "plane_spacing_um", float(self.plane_spacing_um))

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(f.time_minutes for f in self.frames)

    def __len__(self) -> int:
        return len(self.frames)
