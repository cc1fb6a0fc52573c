"""Seeded benchmark of embryometrics; see README.md in this directory.

    python3 bench/run.py --workload cli_clean --seed 1 --seconds 30 --trace 0

Runs the package from ``src/`` of the checkout this file sits in. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"


def import_package():
    """Import embryometrics from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import embryometrics

    origin = Path(embryometrics.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"embryometrics imported from {origin}, not from {src}")


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import embryometrics; print(time.perf_counter() - t)"
)

#: Set-ups per untraced run; ``setup_s`` and lib_run's ``synth_s`` are
#: their medians.
SETUP_REPEATS = 3


def fresh_import_s() -> float:
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def _median(values):
    return statistics.median(values) if values else 0.0


def run_benchmark(name, seed, seconds, trace):
    """Run one workload; returns (result, extra figures, digests, problems).

    ``result`` is the object of the last output line, with each metric as
    ``{"value": ..., "unit": ...}``.

    An untraced run sets up ``SETUP_REPEATS`` times, each time timing a
    package import in a fresh interpreter and a new workload's setup, and
    keeps the last workload. Batches run until their summed wall time is
    nearest ``seconds``, at least two of them, so that every run checks
    one batch's outputs against another's; ``full`` asks for the costly
    checks on the first two batches and the last. With ``trace`` the one
    setup is traced and the batches alternate untraced and traced.
    """
    from spans import Tracer
    from workloads import FULL, WORKLOADS, Ops

    ops = Ops()
    tracer = Tracer() if trace else None
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups_s, synths_s = [], []
        for i in range(1 if trace else SETUP_REPEATS):
            workload = None  # frees the previous set-up's inputs first
            import_s = fresh_import_s()
            start = perf_counter()
            workload = WORKLOADS[name](FULL, seed)
            setup_dir = work / f"setup-{i}"
            setup_dir.mkdir()
            uninstall = tracer.install() if trace else None
            try:
                synths_s.append(workload.setup(setup_dir, tracer))
            finally:
                if uninstall:
                    uninstall()
            setups_s.append(import_s + perf_counter() - start)
        setup_layers = tracer.layer_metrics(0, 0.0) if trace else None

        batches = []
        measured = 0.0
        while True:
            traced = trace and len(batches) % 2 == 1
            mark = tracer.mark() if traced else 0
            gc.collect()  # every batch starts from the same heap
            uninstall = tracer.install() if traced else None
            try:
                batch = workload.batch(len(batches), ops, tracer if traced else None)
            finally:
                if uninstall:
                    uninstall()
            if traced:
                batch.layers = tracer.layer_metrics(mark, batch.wall_s)
            batches.append(batch)
            measured += batch.wall_s
            last = len(batches) >= 2 and measured * (1 + 0.5 / len(batches)) >= seconds
            workload.check(batch, ops, full=len(batches) <= 2 or last)
            if last:
                break
        if trace:
            tracer.write(WORK / f"spans-{name}-{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [b for b in batches if b.layers is None]
    frames_per_s = _median([b.frames / b.wall_s for b in plain])
    if trace:
        metrics = _layer_metrics(setup_layers, batches, frames_per_s)
    else:
        metrics = {
            "frames_per_s": frames_per_s,
            "setup_s": _median(setups_s),
            "synth_s": _median(synths_s)
            if synths_s[0] is not None
            else _median([b.synth_s for b in plain]),
            "run_s": _median([b.run_s for b in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    extra = {
        "eval_s": _median([b.eval_s for b in plain]),
        "report_s": _median([b.report_s for b in plain]),
        "bytes_written": _median([b.bytes_written for b in plain]),
        "failed_frac": ops.failed / ops.attempted,
        "batches": len(batches),
        "batch_wall_s": [round(b.wall_s, 3) for b in batches],
    }
    units = _units()
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, extra, workload.reference, ops.problems


def _layer_metrics(setup_layers, batches, untraced_fps):
    """Setup's layer metrics plus the median traced batch's, per metric."""
    traced = [b for b in batches if b.layers is not None]
    out = {}
    for key, value in setup_layers.items():
        out[key] = value + _median([b.layers[key] for b in traced])
    merge_in = out["geometry.merge_in"]
    out["geometry.merge_keep_ratio"] = out["geometry.merge_out"] / merge_in if merge_in else 0.0
    out["trace.coverage_frac"] = _median([b.layers["trace.coverage_frac"] for b in traced])
    traced_fps = _median([b.frames / b.wall_s for b in traced])
    out["trace.overhead_frac"] = 1.0 - traced_fps / untraced_fps
    out["cli.bytes_written"] = _median([b.bytes_written for b in batches])
    return out


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units() -> dict[str, str]:
    spec = _spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--write-digests",
        action="store_true",
        help="record this run's output digests in digests.json (seed 0 only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_digests and args.seed != 0:
        parser.error("--write-digests needs --seed 0")

    try:
        spec = _spec()
        import_package()
    except (OSError, ValueError, KeyError, ImportError, subprocess.SubprocessError) as e:
        print(f"error: cannot set up the benchmark: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result, extra, digests, problems = run_benchmark(
        args.workload, args.seed, seconds, bool(args.trace)
    )
    for line in problems:
        print(f"FAILED: {line}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    for key, value in extra.items():
        print(f"{args.workload} ({key}) {value}")
    if args.write_digests:
        from workloads import DIGESTS

        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded[args.workload] = digests
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
