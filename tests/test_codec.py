"""The schema-walk codecs against the hand-written encoders they replace.

The reference encoders below are the per-field bodies the file formats
were first written with; the walk in ``serialize`` must give the same
bytes. Every reader must also reject an unknown key at any depth and a
value of the wrong shape, with exit 1 and one stderr line from the CLI.
"""

import json
import shutil
from dataclasses import asdict, replace

import pytest

from embryometrics.backends import synth_backend_suite
from embryometrics.cli import main
from embryometrics.errors import FormatError, ValidationError
from embryometrics.model import Frame, SegClass
from embryometrics.pipeline import (
    PipelineConfig,
    evaluate_run,
    result_from_obj,
    result_to_obj,
    run_pipeline,
)
from embryometrics.serialize import (
    FORMAT_VERSION,
    candidate_from_obj,
    candidate_to_obj,
    canonical_dumps,
    mask_from_obj,
    mask_to_obj,
    movie_from_obj,
    movie_to_obj,
    report_from_obj,
    report_to_obj,
    seg_map_from_obj,
    seg_map_to_obj,
    synth_config_from_obj,
    synth_config_to_obj,
    truth_from_obj,
    truth_to_obj,
    write_json,
)
from embryometrics.synth import NoiseConfig, SynthConfig, generate_movie

# ---------------------------------------------------------------------------
# Reference encoders


def ref_candidate_to_obj(cand):
    return {
        "kind": cand.kind.token,
        "confidence": float(cand.confidence),
        "bbox": list(cand.bbox),
        "plane": cand.plane,
        "mask": mask_to_obj(cand.mask),
    }


def ref_movie_to_obj(movie):
    return {
        "format_version": FORMAT_VERSION,
        "kind": "movie_manifest",
        "embryo_id": movie.embryo_id,
        "image_size": movie.image_size,
        "plane_spacing_um": float(movie.plane_spacing_um),
        "frames": [{"t": f.time_minutes, "planes": list(f.planes)} for f in movie.frames],
    }


def ref_circles(circles):
    return [[float(cx), float(cy), float(r)] for cx, cy, r in circles]


def ref_truth_to_obj(truth):
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ground_truth",
        "embryo_id": truth.embryo_id,
        "image_size": truth.image_size,
        "plane_count": truth.plane_count,
        "stages": [s.token for s in truth.stages],
        "fragmentation_grades": list(truth.fragmentation_grades),
        "seg_maps": [seg_map_to_obj(m) for m in truth.seg_maps],
        "cell_masks": [[mask_to_obj(m) for m in ms] for ms in truth.cell_masks],
        "pronucleus_masks": [
            [mask_to_obj(m) for m in ms] for ms in truth.pronucleus_masks
        ],
        "cell_circles": [ref_circles(c) for c in truth.cell_circles],
        "pronucleus_circles": [ref_circles(c) for c in truth.pronucleus_circles],
    }


def ref_synth_config_to_obj(config):
    return {
        "format_version": FORMAT_VERSION,
        "kind": "synth_config",
        "seed": config.seed,
        "embryo_id": config.embryo_id,
        "frames": config.frames,
        "image_size": config.image_size,
        "plane_count": config.plane_count,
        "frame_interval_minutes": float(config.frame_interval_minutes),
        "dwell_ranges": [list(r) for r in config.dwell_ranges],
        "fragmentation_distribution": list(config.fragmentation_distribution),
        "pronucleus_distribution": list(config.pronucleus_distribution),
        "noise": asdict(config.noise),
    }


def ref_result_to_obj(result):
    def candidates(cands):
        return None if cands is None else [ref_candidate_to_obj(c) for c in cands]

    def token(c):
        return None if c is None else c.token

    frames = [
        {
            "t": f.time_minutes,
            "roi": {
                "x": f.roi.x,
                "y": f.roi.y,
                "side": f.roi.side,
                "center": list(f.roi.center),
                "fallback": f.roi_fallback,
            },
            "seg_map": seg_map_to_obj(f.seg_map),
            "fragmentation_score": f.fragmentation_score.value,
            "stage_probs": None
            if f.stage_probs is None
            else [float(x) for x in f.stage_probs],
            "argmax_class": token(f.argmax_class),
            "decoded_class": token(f.decoded_class),
            "excluded": f.excluded,
            "cells": candidates(f.cells),
            "pronuclei": candidates(f.pronuclei),
        }
        for f in result.frames
    ]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "pipeline_result",
        "embryo_id": result.embryo_id,
        "config": result.config.to_obj(),
        "gate": {
            "embryo_score": result.gate.embryo_score.value,
            "low_fragmentation": result.gate.low_fragmentation,
            "threshold": result.gate.threshold,
        },
        "frames": frames,
    }


REF_SEG_CLASS_TOKENS = {
    SegClass.OUTSIDE_WELL: "outside_well",
    SegClass.INSIDE_WELL: "inside_well",
    SegClass.ZONA: "zona",
    SegClass.INSIDE_ZONA: "inside_zona",
}


def ref_round6(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: ref_round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_round6(v) for v in value]
    return value


def ref_report_to_obj(report):
    obj = {"format_version": FORMAT_VERSION, "kind": "evaluation_report", **asdict(report)}
    if report.segmentation is not None:
        obj["segmentation"]["per_class"] = {
            REF_SEG_CLASS_TOKENS[c]: v for c, v in report.segmentation.per_class.items()
        }
    if report.stage is not None:
        obj["stage"]["confusion"] = {
            c.token: row for c, row in report.stage.confusion.items()
        }
    return ref_round6(obj)


# ---------------------------------------------------------------------------
# Embryos

BASE = SynthConfig(frames=12, image_size=64, fragmentation_distribution=(1, 0, 0, 0))
NOISE = NoiseConfig(
    logit_sigma=1.0,
    mask_jitter_px=1.5,
    confidence_sigma=0.1,
    fragmentation_sigma=0.3,
    seg_flip_rate=0.05,
)
CASES = {
    "kept": (BASE, PipelineConfig(roi_side=48)),
    "gated_out": (
        replace(BASE, fragmentation_distribution=(0, 0, 0, 1)),
        PipelineConfig(roi_side=48),
    ),
    "noisy": (replace(BASE, seed=3, noise=NOISE), PipelineConfig(roi_side=48)),
    "no_dp": (replace(BASE, seed=5, noise=NOISE), PipelineConfig(roi_side=48, use_dp=False)),
    "int_interval": (replace(BASE, frame_interval_minutes=20), PipelineConfig(roi_side=48)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def embryo(request):
    config, pipeline_config = CASES[request.param]
    movie, truth = generate_movie(config)
    result = run_pipeline(movie, synth_backend_suite(truth, config), pipeline_config)
    report = evaluate_run(result, truth, pipeline_config)
    return config, movie, truth, result, report


def test_cases_cover_kept_gated_out_and_detections(embryo):
    _, _, _, result, _ = embryo
    if result.gate.low_fragmentation:
        assert any(f.cells for f in result.frames)
    else:
        assert all(f.decoded_class is None for f in result.frames)


def test_int_interval_is_stored_as_float():
    config, _ = CASES["int_interval"]
    assert type(config.frame_interval_minutes) is float
    assert '"frame_interval_minutes":20.0' in canonical_dumps(synth_config_to_obj(config))


def formats(embryo):
    """(name, value, encode, reference encode, decode) for each format."""
    config, movie, truth, result, report = embryo
    cands = [c for f in result.frames for c in (f.cells or ()) + (f.pronuclei or ())]
    out = [
        ("movie", movie, movie_to_obj, ref_movie_to_obj, movie_from_obj),
        ("truth", truth, truth_to_obj, ref_truth_to_obj, truth_from_obj),
        ("synth_config", config, synth_config_to_obj, ref_synth_config_to_obj,
         synth_config_from_obj),
        ("result", result, result_to_obj, ref_result_to_obj, result_from_obj),
        ("report", report, report_to_obj, ref_report_to_obj, report_from_obj),
    ]
    out += [("candidate", c, candidate_to_obj, ref_candidate_to_obj, candidate_from_obj)
            for c in cands[:5]]
    return out


def test_bytes_equal_reference_encoders(embryo):
    for name, value, encode, ref_encode, _ in formats(embryo):
        assert canonical_dumps(encode(value)) == canonical_dumps(ref_encode(value)), name


def test_decode_then_encode_repeats_the_bytes(embryo):
    for name, value, encode, _, decode in formats(embryo):
        data = canonical_dumps(encode(value))
        again = canonical_dumps(encode(decode(json.loads(data))))
        assert again == data, name


def test_seg_class_tokens_round_trip():
    assert [c.token for c in SegClass] == list(REF_SEG_CLASS_TOKENS.values())
    assert all(SegClass.from_token(c.token) is c for c in SegClass)
    with pytest.raises(ValidationError):
        SegClass.from_token("ZONA")


# ---------------------------------------------------------------------------
# Strict readers


def test_plane_reference_must_be_a_string():
    with pytest.raises(ValidationError, match="not a string"):
        Frame(0.0, ("a", "b", "c", None, "e", "f", "g"))
    assert Frame(0.0, ("",) * 7).planes == ("",) * 7


@pytest.mark.parametrize(
    "decode, obj",
    [
        (mask_from_obj, {"w": 3, "h": 2, "rle": [1.9, 1, 4]}),
        (mask_from_obj, {"w": 2, "h": 1, "rle": [True, True]}),
        (seg_map_from_obj, {"w": 5, "h": 1, "runs": [[0.7, 2], [1.2, 3]]}),
        (seg_map_from_obj, {"w": 5, "h": 1, "runs": [[0, 2.0], [1, 3]]}),
        (seg_map_from_obj, {"w": 5, "h": 1, "runs": [0, 5]}),
    ],
)
def test_run_values_must_be_integers(decode, obj):
    with pytest.raises(FormatError):
        decode(obj)


@pytest.mark.parametrize("label", [-1, 4, 256, 300])
def test_seg_map_labels_must_be_classes(label):
    with pytest.raises(FormatError, match="0..3"):
        seg_map_from_obj({"w": 5, "h": 1, "runs": [[0, 2], [label, 3]]})


SMALL = SynthConfig(frames=8, image_size=64, fragmentation_distribution=(1, 0, 0, 0))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One small kept embryo on disk with its result."""
    root = tmp_path_factory.mktemp("codec")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "1"]) == 0
    embryo = root / "data" / "synth-0000"
    write_json(root / "pipeline.json", {"roi_side": 48})
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends",
                 str(embryo / "backend"), "--config", str(root / "pipeline.json"),
                 "--out", str(root / "result.json")]) == 0
    return root, embryo


def first_detected(result):
    return next(f for f in result["frames"] if f["cells"])


def float_at(items, i):
    """Write ``items[i]`` as a float of the same value, ``3.0`` for ``3``."""
    items[i] = float(items[i])


def set_plane(manifest, value):
    manifest["frames"][0]["planes"][3] = value


EDITS = {
    "manifest frame key": ("manifest.json", lambda o: o["frames"][0].update(z=1)),
    "null plane": ("manifest.json", lambda o: set_plane(o, None)),
    "list plane": ("manifest.json", lambda o: set_plane(o, [7])),
    "candidate row key": ("cells.ndjson", lambda o: o.update(z=1)),
    "float bbox": ("cells.ndjson", lambda o: float_at(o["bbox"], 0)),
    "float rle": ("cells.ndjson", lambda o: float_at(o["mask"]["rle"], 0)),
    "result frame key": ("result.json", lambda o: o["frames"][0].update(z=1)),
    "roi key": ("result.json", lambda o: o["frames"][0]["roi"].update(z=1)),
    "float roi center": (
        "result.json",
        lambda o: o["frames"][0]["roi"].update(center=[32.7, 30.2]),
    ),
    "result candidate key": (
        "result.json",
        lambda o: first_detected(o)["cells"][0].update(z=1),
    ),
    "distribution length": (
        "synth_config.json",
        lambda o: o.update(pronucleus_distribution=[0.5, 0.5]),
    ),
    "truth float run": ("truth.json", lambda o: float_at(o["seg_maps"][0]["runs"][0], 1)),
}


@pytest.mark.parametrize("case", sorted(EDITS))
def test_cli_rejects_with_one_line(tmp_path, capsys, bundle, case):
    root, embryo = bundle
    name, edit = EDITS[case]
    copy = tmp_path / "embryo"
    shutil.copytree(embryo, copy)
    shutil.copy(root / "result.json", tmp_path / "result.json")
    path = {
        "cells.ndjson": copy / "backend" / name,
        "result.json": tmp_path / name,
    }.get(name, copy / name)
    if path.suffix == ".ndjson":
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        edit(row)
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
    else:
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
    if name in ("result.json", "truth.json"):
        argv = ["eval", "--result", str(tmp_path / "result.json"), "--truth",
                str(copy / "truth.json")]
    else:
        backends = "synth" if name == "synth_config.json" else str(copy / "backend")
        argv = ["run", "--movie", str(copy / "manifest.json"), "--backends", backends,
                "--config", str(root / "pipeline.json")]
    rc = main(argv + ["--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")
    assert not (tmp_path / "out.json").exists()
