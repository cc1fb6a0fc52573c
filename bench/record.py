"""Run the benchmark over many seeds and summarise, optionally as the baseline.

    python3 bench/record.py --seeds 1-10 [--sets 2] [--workloads cli_clean,lib_run]
                            [--trace-seeds 1-2] [--out bench/baseline.json]

Each run is a separate process, one after another. Each seed runs once per
set, the sets taking turns, so that two sets of runs of the same code can
be compared. For every workload and end-to-end metric it prints each set's
median and spread, (q3 - q1) / median of the quartiles that
``statistics.quantiles`` (n=4) gives, and how much worse a later set's
median is than the first's, next to the metric's bound from BENCHMARK.json;
a spread of a third of the bound or more, or a shift above the bound, is
flagged. With ``--out`` it writes each set's medians, quartiles and values,
the machine, why each workload exists, which end-to-end metric each
per-layer metric should move, and the layer shares of each CLI command from
the traced runs' spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "metrics.*": "eval_s (cli.eval_s) and frames_per_s on cli_clean and cli_noisy; "
    "nothing on lib_run, which runs no evaluation",
    "model.*": "cli.eval_s on both CLI workloads, synth_s on cli_clean, "
    "run_s on lib_run through the merge",
    "serialize.*": "run_s, cli.eval_s and synth_s on cli_noisy; little on "
    "cli_clean; nothing on lib_run",
    "backends.*": "run_s on the CLI workloads; setup_s on lib_run",
    "synth.*": "synth_s on both CLI workloads; setup_s and synth_s on lib_run",
    "geometry.*, pipeline.roi_fallbacks": "run_s and frames_per_s on lib_run; "
    "a small share of run_s on cli_noisy",
    "decoder.*, gating.*, pipeline.run_s, pipeline.self_s": "run_s on lib_run",
    "cli.*, trace.*": "the CLI's own overhead and the trace's reach; "
    "cli.eval_s and cli.bytes_written stand in for the end-to-end eval_s and "
    "bytes_written, which lib_run cannot report",
}


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def command_shares(spans_path: Path) -> dict:
    """Seconds per layer (self time) inside each CLI command, summed."""
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    shares: dict = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        root = i
        while spans[root]["parent"] >= 0:
            root = spans[root]["parent"]
        command = spans[root]["name"]
        layer = s["name"].split(".", 1)[0]
        shares[command][layer] += s["end"] - s["start"] - child[i]
    return {c: dict(sorted(v.items())) for c, v in sorted(shares.items())}


def _machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _collect(run: dict, workload: str, seed: int, into: dict) -> None:
    """Add a run's metric values to ``into``; stops on incorrect outputs."""
    if not run["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    for key, metric in run["metrics"].items():
        into[key].append(metric["value"])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    baseline = {
        "machine": _machine(),
        "run_seconds": args.seconds,
        "seeds": _seeds(args.seeds),
        "trace_seeds": _seeds(args.trace_seeds),
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    worst_spread = worst_shift = 0.0
    for workload in args.workloads.split(","):
        entry = {"why": whys[workload]}
        sets = [defaultdict(list) for _ in range(args.sets)]
        for seed in _seeds(args.seeds):
            for values in sets:  # the sets alternate, so host drift hits each alike
                _collect(_run(workload, seed, args.seconds, 0), workload, seed, values)
        summaries = [{k: _summary(v) for k, v in values.items()} for values in sets]
        if summaries[0]:
            entry["end_to_end_sets"] = summaries
            entry["median_shift"] = {}
        for key in summaries[0]:
            bound = metrics[key]["bound"]
            first = summaries[0][key]["median"]
            sign = 1 if metrics[key]["better"] == "lower" else -1
            # How much worse each later set's median is than the first's.
            shift = max(
                (sign * (s[key]["median"] - first) / first for s in summaries[1:]),
                default=0.0,
            )
            entry["median_shift"][key] = shift
            spreads = [s[key]["spread"] for s in summaries]
            worst_spread = max(worst_spread, max(spreads) / bound)
            worst_shift = max(worst_shift, shift / bound)
            flags = "  <-- spread above bound/3" if max(spreads) >= bound / 3 else ""
            flags += "  <-- shift above bound" if shift > bound else ""
            print(
                f"{workload:10s} {key:13s} medians "
                + " ".join(f"{s[key]['median']:.5g}" for s in summaries)
                + " spreads "
                + " ".join(f"{s[key]['spread']:.4f}" for s in summaries)
                + f" worse by {shift:+.4f} bound {bound}{flags}",
                flush=True,
            )
        trace_seeds = _seeds(args.trace_seeds)
        if trace_seeds:
            values = defaultdict(list)
            for seed in trace_seeds:
                _collect(_run(workload, seed, args.seconds, 1), workload, seed, values)
            entry["per_layer"] = {k: _summary(v) for k, v in values.items()}
            spans = HERE / "_work" / f"spans-{workload}-{trace_seeds[-1]}.jsonl"
            entry["command_layer_self_s"] = command_shares(spans)
        baseline["workloads"][workload] = entry
    print(f"largest spread / bound: {worst_spread:.3f}")
    print(f"largest median shift / bound: {worst_shift:.3f}")
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
