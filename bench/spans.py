"""Spans around the package's public functions, installed from outside.

The tracer replaces each traced function at every name the package binds
it under (``embryometrics.cli.run_pipeline`` and
``embryometrics.pipeline.run_pipeline`` are both the same function, and
callers look up whichever name they imported), so no file of the package
changes. ``install`` returns a function that puts the originals back.

A span is ``(name, start, end, parent, embryo)``; ``parent`` is the index
of the enclosing span or -1. Spans stay in memory until ``write``.
A traced function that a later version of the package no longer has is
skipped, so its layer reports zero calls instead of failing.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# Per-call counters, each computed from (args, result) of one call.
def _count_match(c, args, out):
    c["metrics.iou_pairs"] += len(args[0]) * len(args[1])


def _count_bytes_read(c, args, out):
    c["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_seg_runs(c, args, out):
    c["serialize.seg_runs_written"] += len(out["runs"])


def _count_merge(c, args, out):
    c["geometry.merge_in"] += len(args[0])
    c["geometry.merge_out"] += len(out)


def _count_gate(c, args, out):
    c["gating.embryos_gated_out"] += not out.low_fragmentation


def _count_route(c, args, out):
    for detector in out:
        c[f"gating.frames_routed_{detector.name.lower()}"] += 1


def _count_decode(c, args, out):
    c["decoder.frames_excluded"] += sum(f.excluded for f in out.frames)


def _count_exclude(c, args, out):
    c["decoder.frames_excluded"] += sum(out)


def _count_run(c, args, out):
    c["pipeline.roi_fallbacks"] += sum(f.roi_fallback for f in out.frames)


# (span name, module, attribute, counter). The span name's first part is
# the layer; result_to_obj/result_from_obj live in pipeline.py but are
# codecs, so they count as serialize.
FUNCTIONS = [
    ("synth.generate_movie", "synth", "generate_movie", None),
    ("synth.render_model_outputs", "synth", "render_model_outputs", None),
    ("backends.file_backend_suite", "backends", "file_backend_suite", None),
    ("backends.synth_backend_suite", "backends", "synth_backend_suite", None),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline", _count_run),
    ("pipeline.evaluate_run", "pipeline", "evaluate_run", None),
    ("gating.average_fragmentation", "gating", "average_fragmentation", None),
    ("gating.gate_embryo", "gating", "gate_embryo", _count_gate),
    ("gating.route_frame", "gating", "route_frame", _count_route),
    ("decoder.decode_monotone", "decoder", "decode_monotone", _count_decode),
    ("decoder.argmax_trajectory", "decoder", "argmax_trajectory", None),
    ("decoder.exclude_frames", "decoder", "exclude_frames", _count_exclude),
    ("geometry.embryo_roi", "geometry", "embryo_roi", None),
    ("geometry.center_roi", "geometry", "center_roi", None),
    ("geometry.merge_across_planes", "geometry", "merge_across_planes", _count_merge),
    ("metrics.pixel_accuracy", "metrics", "pixel_accuracy", None),
    ("metrics.fragmentation_metrics", "metrics", "fragmentation_metrics", None),
    ("metrics.stage_metrics", "metrics", "stage_metrics", None),
    ("metrics.mean_average_precision", "metrics", "mean_average_precision", None),
    ("metrics.average_precision_at", "metrics", "average_precision_at", None),
    ("metrics.match_instances", "metrics", "match_instances", _count_match),
    ("metrics.precision_recall", "metrics", "precision_recall", None),
    ("metrics.area_ratio_stats", "metrics", "area_ratio_stats", None),
    ("serialize.write_json", "serialize", "write_json", None),
    ("serialize.write_backend_files", "serialize", "write_backend_files", None),
    ("serialize.write_report_csv", "serialize", "write_report_csv", None),
    ("serialize.movie_to_obj", "serialize", "movie_to_obj", None),
    ("serialize.truth_to_obj", "serialize", "truth_to_obj", None),
    ("serialize.synth_config_to_obj", "serialize", "synth_config_to_obj", None),
    ("serialize.report_to_obj", "serialize", "report_to_obj", None),
    ("serialize.seg_map_to_obj", "serialize", "seg_map_to_obj", _count_seg_runs),
    ("serialize.result_to_obj", "pipeline", "result_to_obj", None),
    ("serialize.read_json", "serialize", "read_json", _count_bytes_read),
    ("serialize.read_ndjson", "serialize", "read_ndjson", _count_bytes_read),
    ("serialize.read_backend_tables", "serialize", "read_backend_tables", None),
    ("serialize.movie_from_obj", "serialize", "movie_from_obj", None),
    ("serialize.truth_from_obj", "serialize", "truth_from_obj", None),
    ("serialize.synth_config_from_obj", "serialize", "synth_config_from_obj", None),
    ("serialize.result_from_obj", "pipeline", "result_from_obj", None),
]

# BinaryMask's run-length codec, patched on the class.
MASK_METHODS = [
    ("model.mask_decode", "to_array"),
    ("model.mask_encode", "from_array"),
]

SUITE_BUILDERS = ("backends.file_backend_suite", "backends.synth_backend_suite")
BACKEND_CALL = "backends.call"

# Named groups of spans; a group's time is the wall time its spans cover,
# counting a span nested in another span of the same group once.
GROUPS = {
    "metrics.detection_s": {
        "metrics.mean_average_precision",
        "metrics.average_precision_at",
        "metrics.match_instances",
        "metrics.precision_recall",
        "metrics.area_ratio_stats",
    },
    "metrics.segmentation_s": {"metrics.pixel_accuracy"},
    "metrics.fragmentation_s": {"metrics.fragmentation_metrics"},
    "metrics.stage_s": {"metrics.stage_metrics"},
    "model.mask_decode_s": {"model.mask_decode"},
    "model.mask_encode_s": {"model.mask_encode"},
    "serialize.write_s": {
        "serialize.write_json",
        "serialize.write_backend_files",
        "serialize.write_report_csv",
        "serialize.movie_to_obj",
        "serialize.truth_to_obj",
        "serialize.synth_config_to_obj",
        "serialize.report_to_obj",
        "serialize.seg_map_to_obj",
        "serialize.result_to_obj",
    },
    "serialize.read_s": {
        "serialize.read_json",
        "serialize.read_ndjson",
        "serialize.read_backend_tables",
        "serialize.movie_from_obj",
        "serialize.truth_from_obj",
        "serialize.synth_config_from_obj",
        "serialize.result_from_obj",
    },
    "backends.load_s": set(SUITE_BUILDERS),
    "backends.call_s": {BACKEND_CALL},
    "synth.generate_s": {"synth.generate_movie"},
    "synth.render_s": {"synth.render_model_outputs"},
    "geometry.merge_s": {"geometry.merge_across_planes"},
    "geometry.roi_s": {"geometry.embryo_roi", "geometry.center_roi"},
    "decoder.decode_s": {
        "decoder.decode_monotone",
        "decoder.argmax_trajectory",
        "decoder.exclude_frames",
    },
    "gating.gate_s": {
        "gating.average_fragmentation",
        "gating.gate_embryo",
        "gating.route_frame",
    },
    "pipeline.run_s": {"pipeline.run_pipeline"},
    "cli.eval_s": {"cli.eval"},
    "cli.report_s": {"cli.report"},
}

# Span counts reported as call counts.
CALL_COUNTS = {
    "metrics.match_calls": "metrics.match_instances",
    "model.mask_decodes": "model.mask_decode",
    "model.mask_encodes": "model.mask_encode",
    "geometry.merge_calls": "geometry.merge_across_planes",
    "backends.calls": BACKEND_CALL,
}

SELF_TIMES = ("metrics", "pipeline", "cli")

# Keys the per-call counters above add to; reported as 0 when never hit.
COUNTERS = (
    "metrics.iou_pairs",
    "serialize.bytes_read",
    "serialize.seg_runs_written",
    "geometry.merge_in",
    "geometry.merge_out",
    "gating.embryos_gated_out",
    "gating.frames_routed_cell",
    "gating.frames_routed_pronucleus",
    "decoder.frames_excluded",
    "pipeline.roi_fallbacks",
)


class Tracer:
    """Collects spans and counters; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.embryo: str | None = None
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, post=None):
        """``fn`` with a span named ``name`` around every call made while
        the tracer is installed."""
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.embryo)
            if count is not None:
                try:
                    count(counters, args, out)
                except (LookupError, TypeError, AttributeError, OSError):
                    pass  # a changed signature loses the count, not the run
            return post(out) if post is not None else out

        return traced

    def install(self):
        """Patch the package; returns a function that undoes the patches."""
        undo = []
        self.active = True
        package = sys.modules["embryometrics"]
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "embryometrics" or n.startswith("embryometrics."))
        ]
        for name, module_name, attr, count in FUNCTIONS:
            module = getattr(package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            post = self._trace_suite if name in SUITE_BUILDERS else None
            traced = self.wrap(name, fn, count, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
                        undo.append((m, key, fn))
        mask_cls = getattr(getattr(package, "model", None), "BinaryMask", None)
        for name, attr in MASK_METHODS:
            raw = vars(mask_cls).get(attr) if mask_cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__))
            else:
                traced = self.wrap(name, raw)
            setattr(mask_cls, attr, traced)
            undo.append((mask_cls, attr, raw))

        def uninstall():
            self.active = False
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return uninstall

    def _trace_suite(self, suite):
        """A copy of a backend suite whose models record a span per call.

        The copy outlives ``uninstall`` (lib_run keeps its suites from
        setup), so its spans, like all others, depend on ``active``.
        """
        if not dataclasses.is_dataclass(suite):
            return suite
        return dataclasses.replace(
            suite,
            **{
                f.name: _TracedModel(self, getattr(suite, f.name))
                for f in dataclasses.fields(suite)
            },
        )

    def mark(self) -> int:
        """Position to pass to ``layer_metrics`` for spans recorded after it."""
        return len(self.spans)

    def layer_metrics(self, since: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``since``.

        ``wall_s`` is the wall time of the traced region, the base of
        ``trace.coverage_frac``.
        """
        spans = self.spans[since:]
        counters = self.counters
        names = [s[0] for s in spans]
        durations = [s[2] - s[1] for s in spans]
        parents = [s[3] - since if s[3] >= since else -1 for s in spans]
        child_time = [0.0] * len(spans)
        for i, p in enumerate(parents):
            if p >= 0:
                child_time[p] += durations[i]

        out: dict[str, float] = {}
        for metric, group in GROUPS.items():
            total = 0.0
            for i, name in enumerate(names):
                if name not in group:
                    continue
                p = parents[i]
                while p >= 0 and names[p] not in group:
                    p = parents[p]
                if p < 0:
                    total += durations[i]
            out[metric] = total
        for layer in SELF_TIMES:
            out[f"{layer}.self_s"] = sum(
                durations[i] - child_time[i]
                for i, name in enumerate(names)
                if _layer(name) == layer
            )
        for metric, name in CALL_COUNTS.items():
            out[metric] = names.count(name)
        for key in COUNTERS:
            out[key] = counters[key]
        merge_in = out["geometry.merge_in"]
        out["geometry.merge_keep_ratio"] = (
            out["geometry.merge_out"] / merge_in if merge_in else 0.0
        )
        root_time = sum(d for d, p in zip(durations, parents) if p < 0)
        out["trace.coverage_frac"] = root_time / wall_s if wall_s > 0 else 0.0
        counters.clear()
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for name, start, end, parent, embryo in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "embryo": embryo,
                        }
                    )
                    + "\n"
                )


class _TracedModel:
    """Forwards to one backend model, with a span around each method call."""

    def __init__(self, tracer: Tracer, model):
        self._tracer = tracer
        self._model = model

    def __deepcopy__(self, memo):
        # A copy forwards to a copy of the model, through the same tracer.
        return _TracedModel(self._tracer, copy.deepcopy(self._model, memo))

    def __getattr__(self, attr):
        value = getattr(self._model, attr)
        if callable(value):
            value = self._tracer.wrap(BACKEND_CALL, value)
            setattr(self, attr, value)
        return value
