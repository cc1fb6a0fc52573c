"""The benchmark's workloads.

A workload builds its inputs from the seed in ``setup``, runs one timed
unit of its flow in ``batch``, and verifies that unit's outputs in
``check``, which the runner calls outside the timed and traced region.
Every CLI command, ``run_pipeline`` call and output check is one
operation in ``Ops``.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import embryometrics
from embryometrics import cli, pipeline, serialize
from embryometrics import NoiseConfig, PipelineConfig, SynthConfig

# One dwell per stage, the midpoint of each default range, so that every
# seed puts the same number of cells on the same frames. Under the default
# ranges the per-seed spread of evaluation work alone (about 25% in eval
# time) is wider than any timing bound. The seed still moves the geometry,
# drift, fragmentation grade, pronucleus plan and every noise draw.
FIXED_DWELL = (
    (7, 7), (4, 4), (2, 2), (4, 4), (2, 2), (3, 3),
    (2, 2), (4, 4), (4, 4), (6, 6), (8, 8),
)

# Fragmentation grades 0-1 always pass the gate (threshold 1.5) and grades
# 2-3 never do, as long as fragmentation noise stays small.
LOW_FRAGMENTATION = (0.5, 0.5, 0.0, 0.0)
HIGH_FRAGMENTATION = (0.0, 0.0, 0.5, 0.5)

NOISY = NoiseConfig(
    logit_sigma=1.5,
    logit_scale=6.0,
    mask_jitter_px=2.0,
    confidence_sigma=0.05,
    fragmentation_sigma=0.3,
    seg_flip_rate=0.05,
)
# lib_run: noise on masks, confidences and stage logits only.
LIB_NOISE = replace(NOISY, fragmentation_sigma=0.0, seg_flip_rate=0.0)

#: The seed whose output digests are recorded in digests.json.
DIGEST_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Scale:
    image_size: int = 500
    frames: int = 40
    lib_embryos: int = 6


FULL = Scale()


class Ops:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


@dataclass
class Batch:
    """One timed unit of a workload and what it produced."""

    index: int
    frames: int = 0
    wall_s: float = 0.0
    synth_s: float = 0.0
    run_s: float = 0.0
    eval_s: float = 0.0
    report_s: float = 0.0
    bytes_written: int = 0
    outputs: dict = field(default_factory=dict)
    layers: dict | None = None
    results: list | None = None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Workload:
    name = ""

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed
        self.reference: dict | None = None
        self.expected = None
        if seed == DIGEST_SEED and DIGESTS.exists():
            self.expected = json.loads(DIGESTS.read_text()).get(self.name)

    def synth_config(self, fragmentation, noise=NoiseConfig()) -> SynthConfig:
        return SynthConfig(
            frames=self.scale.frames,
            image_size=self.scale.image_size,
            dwell_ranges=FIXED_DWELL,
            fragmentation_distribution=fragmentation,
            noise=noise,
        )

    def check_outputs(self, batch: Batch, ops: Ops) -> None:
        """Outputs equal the first batch's and, at the digest seed, the record."""
        if self.reference is None:
            self.reference = batch.outputs
        else:
            ops.record(
                batch.outputs == self.reference,
                f"{self.name} batch {batch.index}: outputs differ from batch 0",
            )
        if self.expected is not None:
            ops.record(
                batch.outputs == self.expected,
                f"{self.name} batch {batch.index}: outputs differ from {DIGESTS.name}",
            )


class CliWorkload(_Workload):
    """synth -> run/eval per embryo -> report, through ``cli.main`` in process."""

    def __init__(self, scale: Scale, seed: int):
        super().__init__(scale, seed)
        self.work: Path | None = None
        self.configs: list[tuple[str, Path, int]] = []

    def groups(self) -> list[tuple[str, SynthConfig]]:
        raise NotImplementedError

    def check_report(self, label: str, report: dict) -> bool:
        raise NotImplementedError

    def setup(self, work: Path, tracer=None) -> None:
        """Write one synth config file per embryo group."""
        self.work = work
        groups = self.groups()
        for k, (label, config) in enumerate(groups):
            path = work / f"{label}.synth.json"
            serialize.write_json(path, serialize.synth_config_to_obj(config))
            self.configs.append((label, path, self.seed * len(groups) + k))

    def _command(self, ops: Ops, tracer, *argv: str, embryo=None) -> float:
        main = cli.main
        if tracer is not None:
            tracer.embryo = embryo
            main = tracer.wrap(f"cli.{argv[0]}", main)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(list(argv))
        except Exception:  # noqa: BLE001 - a failed command is counted, not fatal
            traceback.print_exc()
            code = None
        elapsed = perf_counter() - start
        ops.record(code == 0, f"{self.name}: {argv[0]} {embryo or ''} exited {code}")
        return elapsed

    def batch(self, index: int, ops: Ops, tracer=None) -> Batch:
        out = self.work / f"batch-{index}"
        (out / "results").mkdir(parents=True)
        (out / "reports").mkdir()
        batch = Batch(index)
        start = perf_counter()
        for label, config_path, synth_seed in self.configs:
            batch.synth_s += self._command(
                ops, tracer,
                "synth", "--config", str(config_path), "--out", str(out / label),
                "--embryos", "1", "--seed", str(synth_seed), "--jobs", "1",
            )
        for label, _, _ in self.configs:
            bundle = out / label / "synth-0000"
            result = out / "results" / f"{label}.json"
            report = out / "reports" / f"{label}.json"
            batch.run_s += self._command(
                ops, tracer,
                "run", "--movie", str(bundle / "manifest.json"),
                "--backends", str(bundle), "--out", str(result),
                embryo=label,
            )
            batch.eval_s += self._command(
                ops, tracer,
                "eval", "--result", str(result), "--truth", str(bundle / "truth.json"),
                "--out", str(report), "--csv", str(out / "reports" / f"{label}.csv"),
                embryo=label,
            )
        batch.report_s = self._command(
            ops, tracer,
            "report", "--reports", str(out / "reports" / "*.json"),
            "--out", str(out / "table.csv"),
        )
        batch.wall_s = perf_counter() - start
        batch.frames = len(self.configs) * self.scale.frames
        return batch

    def check(self, batch: Batch, ops: Ops, full: bool = True) -> None:
        out = self.work / f"batch-{batch.index}"
        batch.bytes_written = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()
        )
        for label, _, _ in self.configs:
            for kind in ("results", "reports"):
                path = out / kind / f"{label}.json"
                data = path.read_bytes() if path.exists() else b""
                batch.outputs[f"{kind}/{label}.json"] = _sha256(data)
            try:
                report = json.loads((out / "reports" / f"{label}.json").read_text())
                ok = self.check_report(label, report)
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            ops.record(ok, f"{self.name} batch {batch.index}: {label} report check failed")
        self.check_outputs(batch, ops)
        shutil.rmtree(out)


def _perfect_detection(block) -> bool:
    return block is None or (
        block["mean_ap"] == 1.0 and block["precision"] == 1.0 and block["recall"] == 1.0
    )


class CliClean(CliWorkload):
    name = "cli_clean"
    why = (
        "README quickstart at zero noise: synth rendering and mAP evaluation do "
        "most of the work, clean seg maps keep serialize light; one kept and one "
        "gated-out embryo per batch"
    )

    def groups(self):
        # Two fragmentation distributions, so that every seed has one embryo
        # on each side of the gate.
        return [
            ("kept", self.synth_config(LOW_FRAGMENTATION)),
            ("gated", self.synth_config(HIGH_FRAGMENTATION)),
        ]

    def check_report(self, label, report):
        """Zero-noise exactness."""
        exact_maps = (
            report["segmentation"]["overall"] == 1.0
            and report["fragmentation"]["mad"] == 0.0
        )
        if label == "gated":
            return (
                exact_maps
                and report["low_fragmentation"] is False
                and report["stage"] is None
                and report["cells"] is None
            )
        return (
            exact_maps
            and report["low_fragmentation"] is True
            and report["stage"]["accuracy"] == 1.0
            and report["cells"] is not None
            and _perfect_detection(report["cells"])
            and _perfect_detection(report["pronuclei"])
        )


class CliNoisy(CliWorkload):
    name = "cli_noisy"
    why = (
        "same CLI flow on one low-fragmentation embryo with noise on every "
        "channel: seg flips make serialize dominate run, jittered masks make "
        "mAP matching non-trivial"
    )

    def groups(self):
        return [("noisy", self.synth_config(LOW_FRAGMENTATION, NOISY))]

    def check_report(self, label, report):
        """Loose sanity; exact bytes are checked by digest."""
        return (
            report["low_fragmentation"] is True
            and abs(report["segmentation"]["overall"] - (1.0 - NOISY.seg_flip_rate))
            < 0.005
            and report["stage"]["accuracy"] >= 0.5
            and 0.0 < report["cells"]["mean_ap"] <= 1.0
        )


class LibRun(_Workload):
    name = "lib_run"
    why = (
        "library path without ground truth: run_pipeline over distinct "
        "in-memory embryos, no evaluation, no files; the geometry merge "
        "dominates, decoder and gating are too small to move end-to-end metrics"
    )

    def setup(self, work: Path, tracer=None) -> float:
        """Build the movies and backend suites; returns their synthesis time."""
        base = self.synth_config(LOW_FRAGMENTATION, LIB_NOISE)
        self.config = PipelineConfig()
        self.embryos = []
        synth_s = 0.0
        for i in range(self.scale.lib_embryos):
            config = replace(
                base,
                seed=embryometrics.derive_embryo_seed(self.seed, i),
                embryo_id=f"lib-{i:04d}",
            )
            if tracer is not None:
                tracer.embryo = config.embryo_id
            start = perf_counter()
            movie, truth = embryometrics.generate_movie(config)
            suite = embryometrics.synth_backend_suite(truth, config)
            synth_s += perf_counter() - start
            self.embryos.append((movie, suite))
        return synth_s

    def batch(self, index: int, ops: Ops, tracer=None) -> Batch:
        """One pass over fresh copies of the embryos, each once, so that no
        state cached on the movies or suites carries over from setup or from
        an earlier pass; the copy is made before the timer starts."""
        embryos = copy.deepcopy(self.embryos)
        batch = Batch(index)
        results = []
        start = perf_counter()
        for movie, suite in embryos:
            if tracer is not None:
                tracer.embryo = movie.embryo_id
            call_start = perf_counter()
            try:
                result = embryometrics.run_pipeline(movie, suite, self.config)
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                traceback.print_exc()
                result = None
            batch.run_s += perf_counter() - call_start
            ops.record(result is not None, f"lib_run: run_pipeline {movie.embryo_id} raised")
            results.append(result)
        batch.wall_s = perf_counter() - start
        batch.frames = sum(len(movie) for movie, _ in self.embryos)
        batch.results = results
        return batch

    def check(self, batch: Batch, ops: Ops, full: bool = True) -> None:
        """Every pass: each embryo kept. ``full``: result bytes as well,
        which takes about half as long as the pass itself."""
        for (movie, _), result in zip(self.embryos, batch.results):
            if result is None:
                continue
            ops.record(
                result.gate.low_fragmentation and len(result.frames) == len(movie),
                f"lib_run batch {batch.index}: {movie.embryo_id} was gated out",
            )
            if full:
                data = serialize.canonical_dumps(pipeline.result_to_obj(result))
                batch.outputs[movie.embryo_id] = _sha256(data.encode())
        batch.results = None
        if full:
            self.check_outputs(batch, ops)


WORKLOADS = {w.name: w for w in (CliClean, CliNoisy, LibRun)}
