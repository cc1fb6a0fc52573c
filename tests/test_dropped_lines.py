"""One dropped data line in every file whose lines the CLI can count.

Each case deletes one data line of a backend NDJSON file, or one frame
of `manifest.json` or `result.json`, and runs the command that reads
the file. The command must exit non-zero with exactly one line on
stderr, or exit 0 with output byte-identical to the untouched run's: a
lost line may never go unnoticed into a different result.

The candidate files (`cells.ndjson`, `pronuclei.ndjson`) are left out.
A frame without candidate rows means "no detections", so a dropped
candidate line still reads as a valid, different file; telling the two
apart needs a row count in the header line, which the format does not
have yet.
"""

import json
import shutil

import pytest

from embryometrics.cli import main
from embryometrics.serialize import synth_config_to_obj, write_json
from embryometrics.synth import SynthConfig

SMALL = SynthConfig(frames=6, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One small synthetic bundle with its pipeline config, result and report."""
    root = tmp_path_factory.mktemp("dropped")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "1"]) == 0
    embryo = root / "data" / "synth-0000"
    # roi_side 48 fits the 64 px frames.
    write_json(root / "pipeline.json", {"roi_side": 48})
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends",
                 str(embryo), "--config", str(root / "pipeline.json"), "--out",
                 str(root / "result.json")]) == 0
    assert main(["eval", "--result", str(root / "result.json"), "--truth",
                 str(embryo / "truth.json"), "--out", str(root / "report.json")]) == 0
    return root, embryo


def run_argv(movie, backends, root, out):
    return ["run", "--movie", str(movie), "--backends", str(backends), "--config",
            str(root / "pipeline.json"), "--out", str(out)]


def without_line(path, i):
    """Delete data line ``i`` (the header is line 0) of an NDJSON file."""
    lines = path.read_text().splitlines(keepends=True)
    del lines[i + 1]
    path.write_text("".join(lines))


def without_frame(path, i):
    """Delete frame ``i`` of a JSON file with a ``frames`` list."""
    obj = json.loads(path.read_text())
    del obj["frames"][i]
    path.write_text(json.dumps(obj))


def data_lines(path) -> int:
    return len(path.read_text().splitlines()) - 1


def frame_count(path) -> int:
    return len(json.loads(path.read_text())["frames"])


def cases(root, embryo, tmp):
    """(label, mutate, argv, output, reference output) for every line of
    every covered file; ``mutate()`` edits a fresh copy of the file."""
    out = tmp / "out.json"
    for name in ("segmentation.ndjson", "fragmentation.ndjson", "stage_probs.ndjson"):
        for i in range(data_lines(embryo / "backend" / name)):
            backend = tmp / f"{name}-{i}"
            shutil.copytree(embryo / "backend", backend)
            yield (f"{name} line {i + 1}", lambda i=i, p=backend / name: without_line(p, i),
                   run_argv(embryo / "manifest.json", backend, root, out), out,
                   root / "result.json")
    for i in range(frame_count(embryo / "manifest.json")):
        movie = tmp / f"manifest-{i}.json"
        shutil.copy(embryo / "manifest.json", movie)
        yield (f"manifest.json frame {i}", lambda i=i, p=movie: without_frame(p, i),
               run_argv(movie, embryo, root, out), out, root / "result.json")
    for i in range(frame_count(root / "result.json")):
        result = tmp / f"result-{i}.json"
        shutil.copy(root / "result.json", result)
        yield (f"result.json frame {i}", lambda i=i, p=result: without_frame(p, i),
               ["eval", "--result", str(result), "--truth", str(embryo / "truth.json"),
                "--out", str(out)], out, root / "report.json")


def test_every_file_has_lines_to_drop(bundle, tmp_path):
    root, embryo = bundle
    labels = [label.split()[0] for label, *_ in cases(root, embryo, tmp_path)]
    for name in ("segmentation.ndjson", "fragmentation.ndjson", "stage_probs.ndjson",
                 "manifest.json", "result.json"):
        assert labels.count(name) >= SMALL.frames, name


PREFIX = {1: "error: ", 2: "backend failure: "}


def test_dropped_line_fails_or_changes_nothing(bundle, tmp_path, capsys):
    root, embryo = bundle
    wrong = []
    for label, mutate, argv, out, reference in cases(root, embryo, tmp_path):
        out.unlink(missing_ok=True)
        mutate()
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        if rc == 0:
            ok = out.read_bytes() == reference.read_bytes()
        else:
            ok = rc in PREFIX and len(err.splitlines()) == 1 and err.startswith(PREFIX[rc])
        if not ok:
            wrong.append((label, rc, err))
    assert wrong == []
