"""Synthetic embryo movies with exact ground truth.

The generator stands in for the private clinical data and the five
trained networks: it samples a monotone stage trajectory (dwell times
per stage), renders the embryo as simple circle geometry (a zona
annulus drifting in the well, cells as circles whose area roughly
halves per division, pronuclei as two small circles inside the 1-cell
embryo), and then renders per-frame "model outputs" with configurable
noise on every channel. With all noise at zero the rendered outputs
encode the ground truth exactly, which is what end-to-end exactness
tests run on.

Randomness comes from numpy's PCG64 generator seeded through
SeedSequence, so outputs are reproducible for a given (seed, config)
across platforms. Movie generation and output rendering use separate
spawn keys of the same seed, so adding noise never perturbs the
geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidConfigError
from .gating import middle_planes
from .geometry import _pair_iou
from .model import (
    BinaryMask,
    CandidateKind,
    EmbryoMovie,
    Frame,
    InstanceCandidate,
    ORDERED_CLASSES,
    PLANE_COUNT,
    SegmentationMap,
    StageClass,
    _checked_ints,
    _runs_bboxes,
    _value_runs,
)

# Geometry as fractions of the image size / zona radius.
WELL_RADIUS_FRACTION = 0.47
ZONA_OUTER_FRACTION = 0.30
ZONA_INNER_FRACTION = 0.24
FIRST_CELL_FRACTION = 0.78  # of the zona inner radius
CELL_REGION_FRACTION = 0.92  # packing region inside the zona
PRONUCLEUS_RADIUS_FRACTION = 0.22  # of the current cell radius
PRONUCLEUS_OFFSET_FRACTION = 0.30
MIN_MASK_RADIUS = 1.6

#: Dwell-time ranges (frames, inclusive) per ordered class.
DEFAULT_DWELL_RANGES: tuple[tuple[int, int], ...] = (
    (5, 9),  # 1-cell
    (3, 6),
    (1, 3),
    (3, 6),
    (1, 3),
    (2, 4),
    (1, 3),
    (3, 6),
    (3, 6),  # >= 9 cells
    (5, 8),  # morula
    (6, 10),  # blastocyst
)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise applied when rendering model outputs from ground truth."""

    logit_sigma: float = 0.0
    logit_scale: float = 8.0
    mask_jitter_px: float = 0.0
    confidence_sigma: float = 0.0
    fragmentation_sigma: float = 0.0
    seg_flip_rate: float = 0.0


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    embryo_id: str = "synth-0000"
    frames: int = 40
    image_size: int = 500
    plane_count: int = PLANE_COUNT
    frame_interval_minutes: float = 20.0
    dwell_ranges: tuple[tuple[int, int], ...] = DEFAULT_DWELL_RANGES
    fragmentation_distribution: tuple[float, float, float, float] = (
        0.25,
        0.25,
        0.25,
        0.25,
    )
    # Fractions of 1-cell frames showing 0, 1, or 2 pronuclei.
    pronucleus_distribution: tuple[float, float, float] = (0.38, 0.06, 0.54)
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self):
        for name in ("seed", "frames", "image_size"):
            (value,) = _checked_ints((getattr(self, name),), name, InvalidConfigError)
            object.__setattr__(self, name, value)
        if self.seed < 0:
            # SeedSequence takes only non-negative entropy.
            raise InvalidConfigError("seed must be >= 0")
        if self.frames < 1:
            raise InvalidConfigError("frames must be >= 1")
        if self.image_size < 48:
            raise InvalidConfigError("image_size must be >= 48 for the geometry")
        if self.plane_count != PLANE_COUNT:
            raise InvalidConfigError(f"plane_count must be {PLANE_COUNT}")
        if not 0 < self.frame_interval_minutes < math.inf:
            raise InvalidConfigError("frame interval must be positive and finite")
        dwell = tuple(
            _checked_ints((lo, hi), "dwell range bound", InvalidConfigError)
            for lo, hi in self.dwell_ranges
        )
        if len(dwell) != len(ORDERED_CLASSES):
            raise InvalidConfigError(
                f"need {len(ORDERED_CLASSES)} dwell ranges, got {len(dwell)}"
            )
        if any(lo < 1 or hi < lo for lo, hi in dwell):
            raise InvalidConfigError("dwell ranges must satisfy 1 <= lo <= hi")
        # Distributions may carry rounded entries (the pronucleus default
        # sums to 0.98); accept anything near 1 and renormalize exactly.
        for name, attr, arity in (
            ("fragmentation", "fragmentation_distribution", 4),
            ("pronucleus", "pronucleus_distribution", 3),
        ):
            d = tuple(float(x) for x in getattr(self, attr))
            total = sum(d)
            finite = all(0 <= x < math.inf for x in d)
            if len(d) != arity or not finite or abs(total - 1.0) > 0.05:
                raise InvalidConfigError(
                    f"{name} distribution must be {arity} non-negative finite "
                    "values summing to ~1"
                )
            object.__setattr__(self, attr, tuple(x / total for x in d))
        n = self.noise
        sigmas = (
            n.logit_sigma,
            n.mask_jitter_px,
            n.confidence_sigma,
            n.fragmentation_sigma,
        )
        if not all(0 <= s < math.inf for s in sigmas):
            raise InvalidConfigError("noise sigmas must be >= 0 and finite")
        if not 0.0 <= n.seg_flip_rate <= 1.0:
            raise InvalidConfigError("seg_flip_rate must be in [0, 1]")
        if not 0 < n.logit_scale < math.inf:
            raise InvalidConfigError("logit_scale must be positive and finite")
        object.__setattr__(self, "dwell_ranges", dwell)
        object.__setattr__(
            self, "frame_interval_minutes", float(self.frame_interval_minutes)
        )


Circle = tuple[float, float, float]  # (cx, cy, r)


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-frame truth for one synthetic embryo."""

    embryo_id: str
    image_size: int
    plane_count: int
    stages: tuple[StageClass, ...]
    fragmentation_grades: tuple[int, ...]
    seg_maps: tuple[SegmentationMap, ...]
    cell_masks: tuple[tuple[BinaryMask, ...], ...]
    pronucleus_masks: tuple[tuple[BinaryMask, ...], ...]
    # Circle parameters behind the masks; the renderer jitters these.
    cell_circles: tuple[tuple[Circle, ...], ...]
    pronucleus_circles: tuple[tuple[Circle, ...], ...]

    def __post_init__(self):
        ordered = [int(s) for s in self.stages if s.is_ordered]
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise InvalidConfigError("true stages must be non-decreasing")
        for stage, masks in zip(self.stages, self.cell_masks):
            count = stage.cell_count
            if count is not None and len(masks) != count:
                raise InvalidConfigError(
                    f"{stage.token} frame has {len(masks)} cell masks"
                )


@dataclass(frozen=True)
class RenderedOutputs:
    """Synthetic per-frame backend outputs for one embryo."""

    seg_maps: tuple[SegmentationMap, ...]  # middle plane, one per frame
    fragmentation: tuple[Mapping[int, float], ...]  # plane -> score
    stage_probs: tuple[np.ndarray, ...]  # 13-class vector per frame
    cells: tuple[Mapping[int, tuple[InstanceCandidate, ...]], ...]
    pronuclei: tuple[Mapping[int, tuple[InstanceCandidate, ...]], ...]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def derive_embryo_seed(base_seed: int, index: int) -> int:
    """Independent per-embryo seed for parallel batch generation."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(1000, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _disk_rows(size: int, circles: Sequence[Circle]) -> tuple[np.ndarray, np.ndarray]:
    """For every circle, the pixels (x, y) of its box, clipped to the grid,
    where `(x - cx)**2 + (y - cy)**2 <= r*r`, found in one pass: the flat
    `[start, stop)` of each row's interval, shape (rows, 2), and the circle
    each row belongs to, rows in circle order and then top to bottom.

    `fl(x - cx)` is monotone in the integer x, so each row's pixels form
    one interval around the box pixel nearest cx. Each end starts from a
    `sqrt` guess and steps by one while the exact predicate says so; the
    nearest pixel bounds the inward steps.
    """
    c = np.array(circles, dtype=np.float64).reshape(-1, 3)
    cx, cy, r = c.T
    lo = np.clip(np.floor(c[:, :2] - r[:, None]), 0, size).astype(np.int64)
    hi = np.clip(np.ceil(c[:, :2] + r[:, None]) + 1, 0, size).astype(np.int64)
    heights = np.maximum(hi[:, 1] - lo[:, 1], 0)
    k = np.repeat(np.arange(len(c)), heights)  # disk of each box row
    y = lo[k, 1] + np.arange(k.size) - np.repeat(np.cumsum(heights) - heights, heights)
    cx, rr, x0, x1 = cx[k], (r * r)[k], lo[k, 0], hi[k, 0] - 1
    dy2 = (y - cy[k]) ** 2

    def inside(x, i=slice(None)):
        return (x - cx[i]) ** 2 + dy2[i] <= rr[i]

    # A row has pixels only if its box pixel nearest cx is one of them.
    near = [np.clip(np.floor(cx) + d, x0, x1).astype(np.int64) for d in (0, 1)]
    hit = [inside(m) for m in near]
    full = (x0 <= x1) & (hit[0] | hit[1])
    mid = np.where(hit[0], *near)
    h = np.sqrt(np.maximum(rr - dy2, 0.0))
    ends = []
    for guess, out, bound, pick in (
        (np.ceil(cx - h), -1, x0, np.minimum),
        (np.floor(cx + h), 1, x1, np.maximum),
    ):
        x = pick(np.clip(guess, x0, x1).astype(np.int64), mid)
        i = np.flatnonzero(full & (x != bound) & inside(x + out))
        while i.size:  # outward while the next pixel is inside
            x[i] += out
            i = i[(x[i] != bound[i]) & inside(x[i] + out, i)]
        i = np.flatnonzero(full & ~inside(x))
        while i.size:  # inward while this pixel is outside; stops at mid
            x[i] -= out
            i = i[~inside(x[i], i)]
        ends.append(x[full])
    y = y[full] * size
    return np.stack([y + ends[0], y + ends[1] + 1], axis=1), k[full]


def _disk_masks(size: int, circles: Sequence[Circle]) -> list[BinaryMask]:
    """For every circle, the mask of its `_disk_rows`, holding its
    foreground runs and its tight box, read off them (`_runs_bboxes`); a
    disk without rows has no box. A stop that is the same mask's next
    start (a full-width row) drops with that start."""
    edges, k = _disk_rows(size, circles)
    n = len(circles)
    joined = np.flatnonzero((edges[:-1, 1] == edges[1:, 0]) & (k[:-1] == k[1:]))
    starts, stops = np.delete(edges[:, 0], joined + 1), np.delete(edges[:, 1], joined)
    k = np.delete(k, joined + 1)
    held = _runs_bboxes(starts, stops, np.full(n, size), np.bincount(k, minlength=n))
    edges = np.stack([starts, stops], axis=1).ravel()
    keep = edges != size * size  # a run to the grid's end needs no stop
    edges, owner = edges[keep], np.repeat(k, 2)[keep]
    # Mask j's edges, offset by j grids, between boundaries j and j + 1.
    first = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))
    grids = np.arange(n + 1) * (size * size)
    runs = np.diff(np.insert(edges + grids[owner], first, grids)).tolist()
    at = (first + np.arange(n + 1)).tolist()
    return [BinaryMask._from_runs(size, size, tuple(runs[a:b]), box, fg)
            for a, b, (box, fg) in zip(at, at[1:], held)]


# `_paint_label_runs`: the cover-mask step of each event code, and the
# label a cover mask leaves, its highest bit: bit b is label b + 1.
_STEPS = np.array([0, -1, -2, -4, 1, 2, 4])
_TOP_LABEL = np.array([0, 1, 2, 2, 3, 3, 3, 3], dtype=np.uint8)


def _paint_label_runs(
    size: int, edges: np.ndarray, owner: np.ndarray, frames: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each frame's maximal row-major (labels, counts) runs on a `size`
    grid, painted from `_disk_rows` of the well (disk 0, label 1 in every
    frame) and of frame f's outer and inner zona (disks 2f + 1 and 2f + 2,
    labels 2 and 3): a pixel takes the highest label of the disks that
    cover it, as painting them in label order would leave it.

    The frames lie end to end on one line. Each interval's start sets its
    label's bit in a cover mask and its stop clears it, so the running sum
    of these steps is the mask. Events sort as one key, position and then
    code: each frame's first pixel (code 0, no step, so every frame starts
    a run), stops (1-3), then starts (4-6), so the mask stays in 0..7.
    Counts are int32 when a grid's pixel count fits.
    """
    n = size * size
    wells = np.count_nonzero(owner == 0)  # the well's rows come first
    z = owner[wells:] - 1  # 2f for frame f's outer zona, 2f + 1 for its inner
    first = np.arange(frames) * (8 * n)  # each frame's first key
    well = edges[:wells] * 8 + [4, 1] + first[:, None, None]
    zona = edges[wells:] * 8 + (z // 2 * (8 * n) + 2 + z % 2)[:, None] + [3, 0]
    key = np.sort(np.concatenate([well.ravel(), zona.ravel(), first]))
    at = key >> 3
    labels = _TOP_LABEL[np.cumsum(_STEPS[key & 7])]
    # Only the last event at a pixel starts a piece that is not empty.
    last = np.flatnonzero(np.diff(at, append=frames * n))
    at, labels = at[last], labels[last]
    new = np.zeros(at.size, dtype=bool)
    new[np.searchsorted(at, np.arange(frames) * n)] = True
    new[1:] |= labels[1:] != labels[:-1]
    at, labels = at[new], labels[new]
    counts = np.diff(at, append=frames * n)
    if n <= np.iinfo(np.int32).max:
        counts = counts.astype(np.int32)
    cut = np.searchsorted(at, np.arange(1, frames) * n)
    return list(zip(np.split(labels, cut), np.split(counts, cut)))


def _zona_boxes(size: int, edges: np.ndarray, owner: np.ndarray, frames: int) -> list:
    """Each frame's tight (x, y, w, h) box of the pixels `_paint_label_runs`
    labels zona or inside-zona from the same `_disk_rows`, or None if there
    are none. These are the pixels of frame f's outer zona, disk 2f + 1:
    its inner zona has the same centre and a smaller radius, so the exact
    disk predicate puts every inner pixel among the outer's."""
    outer = owner % 2 == 1
    counts = np.bincount(owner[outer] // 2, minlength=frames)
    held = _runs_bboxes(edges[outer, 0], edges[outer, 1], np.full(frames, size), counts)
    return [box for box, _ in held]


def _disk_mask(size: int, cx: float, cy: float, r: float) -> BinaryMask:
    return _disk_masks(size, [(cx, cy, r)])[0]


def _sample_stages(rng: np.random.Generator, config: SynthConfig):
    seq: list[StageClass] = []
    for cls, (lo, hi) in zip(ORDERED_CLASSES, config.dwell_ranges):
        dwell = int(rng.integers(lo, hi + 1))
        seq.extend([cls] * dwell)
    if len(seq) < config.frames:
        seq.extend([ORDERED_CLASSES[-1]] * (config.frames - len(seq)))
    return tuple(seq[: config.frames])


def _pronucleus_plan(rng: np.random.Generator, n_frames: int, dist) -> list[int]:
    """Per-frame pronucleus counts over the 1-cell stage.

    Counts per value come from a multinomial over the configured
    distribution; they are laid out as rise-and-fade
    (0.., 1.., 2.., 1.., 0..) so pronuclei appear and disappear in
    contiguous sub-intervals.
    """
    if n_frames == 0:
        return []
    n0, n1, n2 = (int(v) for v in rng.multinomial(n_frames, dist))
    lead0 = (n0 + 1) // 2
    lead1 = (n1 + 1) // 2
    return (
        [0] * lead0
        + [1] * lead1
        + [2] * n2
        + [1] * (n1 - lead1)
        + [0] * (n0 - lead0)
    )


def _cell_layout(
    n: int, zona_inner: float, theta: float
) -> list[tuple[float, float, float]]:
    """Offsets (dx, dy) and radius for n cells packed in the zona."""
    radius = FIRST_CELL_FRACTION * zona_inner / math.sqrt(n)
    region = CELL_REGION_FRACTION * zona_inner
    ring = max(region - radius, 0.0)
    offsets: list[tuple[float, float]] = []
    if n == 1:
        offsets.append((0.0, 0.0))
    else:
        on_ring = n if n <= 6 else n - 1
        if n > 6:
            offsets.append((0.0, 0.0))
        for k in range(on_ring):
            angle = theta + 2.0 * math.pi * k / on_ring
            offsets.append((ring * math.cos(angle), ring * math.sin(angle)))
    return [(dx, dy, radius) for dx, dy in offsets]


def generate_movie(config: SynthConfig) -> tuple[EmbryoMovie, GroundTruth]:
    """Generate one synthetic movie and its exact ground truth.

    Deterministic for a given config: calling twice returns identical
    objects. Frame timestamps run at the configured cadence starting
    at 0 minutes.
    """
    rng = _rng(config.seed, 0)
    size = config.image_size
    stages = _sample_stages(rng, config)
    grade = int(rng.choice(4, p=config.fragmentation_distribution))

    one_cell = [i for i, s in enumerate(stages) if s == StageClass.CELL_1]
    plan = _pronucleus_plan(rng, len(one_cell), config.pronucleus_distribution)
    pronuclei_per_frame = dict(zip(one_cell, plan))

    zona_outer = ZONA_OUTER_FRACTION * size
    zona_inner = ZONA_INNER_FRACTION * size

    base = size / 2.0 + rng.uniform(-0.02 * size, 0.02 * size, size=2)
    drift = np.cumsum(rng.normal(0.0, 0.002 * size, size=(config.frames, 2)), axis=0)
    centers = np.clip(base + drift, size / 2.0 - 0.04 * size, size / 2.0 + 0.04 * size)
    theta0 = float(rng.uniform(0.0, 2.0 * math.pi))
    spin = float(rng.uniform(-0.03, 0.03))
    pn_angle = float(rng.uniform(0.0, 2.0 * math.pi))

    cell_circles = []
    pn_circles = []
    # No label grid is made, but the rasteriser's row arrays grow with size
    # before any memory runs out: asking for one grid's bytes here makes a
    # size too large for memory fail at once.
    np.empty((size, size), dtype=np.uint8)
    for i, stage in enumerate(stages):
        cx, cy = float(centers[i, 0]), float(centers[i, 1])
        count = stage.cell_count
        circles: list[Circle] = []
        if count is not None:
            layout = _cell_layout(count, zona_inner, theta0 + spin * i)
            jitter = rng.normal(0.0, 0.004 * size, size=(count, 2))
            circles = [
                (cx + dx + float(jitter[k, 0]), cy + dy + float(jitter[k, 1]), r)
                for k, (dx, dy, r) in enumerate(layout)
            ]
        cell_circles.append(tuple(circles))

        pn: list[Circle] = []
        n_pn = pronuclei_per_frame.get(i, 0)
        if n_pn > 0:
            ccx, ccy, cr = circles[0]
            off = PRONUCLEUS_OFFSET_FRACTION * cr
            pn_r = PRONUCLEUS_RADIUS_FRACTION * cr
            signs = (1.0,) if n_pn == 1 else (1.0, -1.0)
            pn = [
                (
                    ccx + s * off * math.cos(pn_angle),
                    ccy + s * off * math.sin(pn_angle),
                    pn_r,
                )
                for s in signs
            ]
        pn_circles.append(tuple(pn))

    # The well, then each frame's outer and inner zona.
    disks = [(size / 2.0, size / 2.0, WELL_RADIUS_FRACTION * size)]
    disks += [(cx, cy, r) for cx, cy in centers.tolist() for r in (zona_outer, zona_inner)]
    edges, owner = _disk_rows(size, disks)
    runs = _paint_label_runs(size, edges, owner, len(stages))
    boxes = _zona_boxes(size, edges, owner, len(stages))
    seg_maps = [SegmentationMap._from_runs(*r, size, size, box) for r, box in zip(runs, boxes)]
    masks = iter(_disk_masks(size, [c for g in cell_circles + pn_circles for c in g]))
    cell_masks = [tuple(islice(masks, len(g))) for g in cell_circles]
    pn_masks = [tuple(islice(masks, len(g))) for g in pn_circles]

    frames = tuple(
        Frame(
            time_minutes=i * config.frame_interval_minutes,
            planes=tuple(
                f"synth://{config.embryo_id}/f{i:04d}/p{j}"
                for j in range(config.plane_count)
            ),
        )
        for i in range(config.frames)
    )
    movie = EmbryoMovie(
        embryo_id=config.embryo_id, frames=frames, image_size=size
    )
    truth = GroundTruth(
        embryo_id=config.embryo_id,
        image_size=size,
        plane_count=config.plane_count,
        stages=stages,
        fragmentation_grades=tuple([grade] * config.frames),
        seg_maps=tuple(seg_maps),
        cell_masks=tuple(cell_masks),
        pronucleus_masks=tuple(pn_masks),
        cell_circles=tuple(cell_circles),
        pronucleus_circles=tuple(pn_circles),
    )
    return movie, truth


def _flip_labels(labels: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """A copy of the label array in which each pixel, with probability
    ``rate``, moves to a uniformly random *other* class. Draws one uniform
    and then one class shift per pixel, in row-major order."""
    out = np.array(labels)
    flat = out.reshape(-1)
    flip = np.flatnonzero(rng.random(flat.size) < rate)
    shift = rng.integers(1, 4, size=flat.size)
    flat[flip] = (flat[flip] + shift[flip]) % 4
    return out


def render_model_outputs(
    truth: GroundTruth, config: SynthConfig
) -> RenderedOutputs:
    """Render noisy per-frame backend outputs from ground truth.

    Stage probabilities are softmax(one-hot * logit_scale + noise), or
    the exact one-hot vector when logit_sigma is 0. Fragmentation plane
    scores are the true grade plus Gaussian noise, clamped to [0, 3].
    Candidates are the true circles with jittered centers/radii,
    duplicated on each middle plane, with confidence = clamp(IoU with
    truth + noise). Segmentation maps get independent per-pixel label
    flips at the configured rate. Deterministic for a given
    (truth, config).
    """
    rng = _rng(config.seed, 1)
    noise = config.noise
    size = truth.image_size
    planes = middle_planes(truth.plane_count)

    seg_maps = []
    frag = []
    probs = []
    draws = []  # (kind, truth masks, jittered circles, offsets) per frame and kind
    for i, stage in enumerate(truth.stages):
        # Stage probabilities.
        vec = np.zeros(13)
        vec[int(stage)] = 1.0
        if noise.logit_sigma > 0:
            logits = vec * noise.logit_scale + rng.normal(0.0, noise.logit_sigma, size=13)
            e = np.exp(logits - logits.max())
            vec = e / e.sum()
        probs.append(vec)

        # Fragmentation scores on the middle planes.
        grade = float(truth.fragmentation_grades[i])
        scores = {}
        for plane in planes:
            s = grade
            if noise.fragmentation_sigma > 0:
                s += float(rng.normal(0.0, noise.fragmentation_sigma))
            scores[plane] = float(np.clip(s, 0.0, 3.0))
        frag.append(scores)

        # Zona segmentation with pixel flips.
        seg = truth.seg_maps[i]
        if noise.seg_flip_rate > 0:
            # Flipped on the decoded runs, as reading `labels` would keep a
            # grid on the truth map, and kept as runs too.
            flipped = _flip_labels(np.repeat(*seg._runs), noise.seg_flip_rate, rng)
            seg = SegmentationMap._from_runs(*_value_runs(flipped), seg.width, seg.height)
        seg_maps.append(seg)

        # Candidate circles: the true ones, jittered, on each middle plane.
        for kind, circles, truth_masks in (
            (CandidateKind.CELL, truth.cell_circles[i], truth.cell_masks[i]),
            (CandidateKind.PRONUCLEUS, truth.pronucleus_circles[i], truth.pronucleus_masks[i]),
        ):
            jittered, offsets = [], []
            for plane in planes:
                for cx, cy, r in circles:
                    if noise.mask_jitter_px > 0:
                        cx = cx + float(rng.normal(0.0, noise.mask_jitter_px))
                        cy = cy + float(rng.normal(0.0, noise.mask_jitter_px))
                        r = r + float(rng.normal(0.0, noise.mask_jitter_px / 2.0))
                    r = max(r, MIN_MASK_RADIUS)
                    cx = min(max(cx, r + 1.0), size - 2.0 - r)
                    cy = min(max(cy, r + 1.0), size - 2.0 - r)
                    jittered.append((cx, cy, r))
                    # Drawn here, between the jitters, to keep the RNG stream.
                    if noise.confidence_sigma > 0:
                        offsets.append(float(rng.normal(0.0, noise.confidence_sigma)))
                    else:
                        offsets.append(0.0)
            draws.append((kind, truth_masks, jittered, offsets))

    # Every candidate mask of the movie in one pass, and one kernel call
    # for only the pairs read: candidate k of each plane against truth k.
    candidates = _disk_masks(size, [c for d in draws for c in d[2]])
    truth_at = accumulate((len(d[1]) for d in draws), initial=len(candidates))
    pj = [at + np.tile(np.arange(len(d[1])), len(planes)) for d, at in zip(draws, truth_at)]
    all_ious = _pair_iou(
        [*candidates, *(m for d in draws for m in d[1])],
        np.arange(len(candidates)),
        np.concatenate([np.zeros(0, np.intp), *pj]),
    )
    ends = accumulate(len(d[2]) for d in draws)
    found = []
    for (kind, truth_masks, jittered, offsets), end in zip(draws, ends):
        start, n = end - len(jittered), len(truth_masks)
        masks = candidates[start:end]
        ious = all_ious[start:end].reshape(len(planes), n)
        confidence = np.clip(ious + np.reshape(offsets, ious.shape), 0.0, 1.0)
        found.append(
            {
                plane: tuple(
                    InstanceCandidate.from_mask(mask, float(c), plane, kind)
                    for mask, c in zip(masks[p * n : (p + 1) * n], confidence[p])
                )
                for p, plane in enumerate(planes)
            }
        )

    return RenderedOutputs(
        seg_maps=tuple(seg_maps),
        fragmentation=tuple(frag),
        stage_probs=tuple(probs),
        cells=tuple(found[0::2]),
        pronuclei=tuple(found[1::2]),
    )
