"""Seeded corruption of every file the CLI reads.

Each case cuts a file at a random offset, deletes a random key, or
replaces a random value with a value of another JSON type, then runs the
CLI command that reads the file. The command must return exit code 0, 1
or 2 without raising, and a non-zero exit writes exactly one line to
stderr. Exit 0 is allowed: some edits leave a file that still decodes
(a backend file cut on a line boundary reads as "no detections", a
deleted `plane_spacing_um` takes its default).
"""

import json
import random
import shutil

import pytest

from embryometrics.cli import main
from embryometrics.serialize import BACKEND_FILES, synth_config_to_obj, write_json
from embryometrics.synth import SynthConfig

SMALL = SynthConfig(frames=6, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))
SEEDS = range(20)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One small synthetic bundle with its pipeline config, result and report."""
    root = tmp_path_factory.mktemp("corrupt")
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


def run_argv(movie, backends, root, tmp):
    return ["run", "--movie", str(movie), "--backends", str(backends), "--config",
            str(root / "pipeline.json"), "--out", str(tmp / "out.json")]


def command(name, root, embryo, tmp):
    """Copy the inputs of the command that reads file ``name`` into ``tmp``;
    returns the copy of ``name`` and the command's arguments."""
    if name == "manifest.json":
        shutil.copy(embryo / name, tmp / name)
        return tmp / name, run_argv(tmp / name, embryo, root, tmp)
    if name == "synth_config.json":
        # --backends synth reads the synth config next to the manifest.
        shutil.copy(embryo / "manifest.json", tmp / "manifest.json")
        shutil.copy(embryo / name, tmp / name)
        return tmp / name, run_argv(tmp / "manifest.json", "synth", root, tmp)
    if name.startswith("backend/"):
        shutil.copytree(embryo / "backend", tmp / "backend")
        return tmp / name, run_argv(embryo / "manifest.json", tmp / "backend", root, tmp)
    if name == "truth.json":
        shutil.copy(embryo / name, tmp / name)
        return tmp / name, ["eval", "--result", str(root / "result.json"), "--truth",
                            str(tmp / name), "--out", str(tmp / "out.json")]
    if name == "result.json":
        shutil.copy(root / name, tmp / name)
        return tmp / name, ["eval", "--result", str(tmp / name), "--truth",
                            str(embryo / "truth.json"), "--out", str(tmp / "out.json")]
    assert name == "report.json"
    shutil.copy(root / name, tmp / name)
    return tmp / name, ["report", "--reports", str(tmp / name), "--out",
                        str(tmp / "out.csv")]


def random_slot(rnd, obj, dicts_only):
    """A (container, key) pair on a random walk down from ``obj``; the walk
    stops after each step with probability 1/2 and at any leaf."""
    slots = []
    node = obj
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = rnd.choice(keys)
        if isinstance(node, dict) or not dicts_only:
            slots.append((node, key))
        node = node[key]
        if rnd.random() < 0.5:
            break
    return slots[-1]


def json_type(value):
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value)
    return float  # ints and floats are both JSON numbers


OTHER_VALUES = [None, True, 7, "x", [7], {"x": 7}]


def delete_key(rnd, obj):
    container, key = random_slot(rnd, obj, dicts_only=True)
    del container[key]


def replace_value(rnd, obj):
    container, key = random_slot(rnd, obj, dicts_only=False)
    old = json_type(container[key])
    container[key] = rnd.choice([v for v in OTHER_VALUES if json_type(v) != old])


def edit_json(rnd, path, edit):
    """Apply ``edit`` to a JSON file, or to one random line of an NDJSON file."""
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
        edit(rnd, obj)
        path.write_text(json.dumps(obj))
        return
    lines = path.read_text().splitlines()
    i = rnd.randrange(len(lines))
    row = json.loads(lines[i])
    edit(rnd, row)
    lines[i] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")


def cut(rnd, path):
    data = path.read_bytes()
    path.write_bytes(data[: rnd.randrange(len(data))])


MUTATIONS = {
    "cut": cut,
    "delete_key": lambda rnd, path: edit_json(rnd, path, delete_key),
    "replace_value": lambda rnd, path: edit_json(rnd, path, replace_value),
}
FILES = [
    "manifest.json",
    "synth_config.json",
    *(f"backend/{name}" for name in BACKEND_FILES.values()),
    "truth.json",
    "result.json",
    "report.json",
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", FILES)
def test_corrupt_file_ends_in_known_exit(tmp_path, capsys, bundle, name, mutation, seed):
    root, embryo = bundle
    path, argv = command(name, root, embryo, tmp_path)
    rnd = random.Random(f"{name}/{mutation}/{seed}")
    MUTATIONS[mutation](rnd, path)
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc != 0:
        assert len(err.splitlines()) == 1, err


# Edits the seeded cases rarely reach, each of which must be rejected.
HAND_EDITS = [
    # A kept embryo must have a decoded stage on every frame.
    ("result.json", lambda obj: obj["frames"][0].update(decoded_class=None)),
    # json reads Infinity; int() of it overflows.
    ("result.json", lambda obj: obj["frames"][0]["seg_map"]["runs"][0].__setitem__(
        1, float("inf"))),
    ("report.json", lambda obj: obj["stage"].update(confusion=7)),
    ("report.json", lambda obj: obj["segmentation"].update(per_class="x")),
    # A label that does not fit the uint8 label grid.
    ("backend/segmentation.ndjson",
     lambda row: row["map"]["runs"][0].__setitem__(0, 300)),
]


@pytest.mark.parametrize("name, edit", HAND_EDITS)
def test_hand_edit_exits_1_with_one_line(tmp_path, capsys, bundle, name, edit):
    root, embryo = bundle
    path, argv = command(name, root, embryo, tmp_path)
    lines = path.read_text().splitlines()
    # The whole JSON file, or the first data row of an NDJSON file.
    i = 0 if path.suffix == ".json" else 1
    obj = json.loads(lines[i])
    edit(obj)
    lines[i] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
