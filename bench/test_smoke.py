"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import workloads  # noqa: E402 - needs the package on sys.path
import embryometrics  # noqa: E402
from embryometrics import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Scale(image_size=336, frames=12, lib_embryos=2)


def _result(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "FULL", TINY)
    monkeypatch.setattr(run, "fresh_import_s", lambda: 0.1)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    result = _result(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace
    )
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_a_flipped_byte_in_a_result_is_counted_as_failed(tiny, capsys, monkeypatch):
    real_main = cli.main
    flipped = []

    def main_flipping_first_result(argv):
        code = real_main(argv)
        if argv[0] == "run" and not flipped:
            path = Path(argv[argv.index("--out") + 1])
            data = bytearray(path.read_bytes())
            at = data.index(b'"fragmentation_score":') + len(b'"fragmentation_score":')
            data[at] ^= 1  # '0' <-> '1'
            path.write_bytes(bytes(data))
            flipped.append(path)
        return code

    monkeypatch.setattr(cli, "main", main_flipping_first_result)
    result = _result(capsys, "--workload", "cli_clean", "--seed", "3", "--seconds", "0")
    assert flipped
    assert result["failed"] > 0
    assert result["correct"] is False


def test_a_command_that_raises_is_counted_as_failed(tiny, capsys, monkeypatch):
    real_main = cli.main

    def main_raising_on_eval(argv):
        if argv[0] == "eval":
            raise ValueError("injected")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", main_raising_on_eval)
    result = _result(capsys, "--workload", "cli_noisy", "--seed", "3", "--seconds", "0")
    assert result["failed"] > 0
    assert result["correct"] is False


def test_lib_run_passes_get_fresh_objects(tiny, capsys, monkeypatch):
    real_run = embryometrics.run_pipeline
    seen = []  # keeps every object alive, so equal ids mean the same object

    def spying_run(movie, suite, config):
        seen.append((movie, suite.segmenter))
        return real_run(movie, suite, config)

    monkeypatch.setattr(embryometrics, "run_pipeline", spying_run)
    result = _result(capsys, "--workload", "lib_run", "--seed", "3", "--seconds", "0")
    assert result["correct"] is True
    assert len(seen) >= 2 * TINY.lib_embryos
    for k in range(2):
        assert len({id(pair[k]) for pair in seen}) == len(seen)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli_clean"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
