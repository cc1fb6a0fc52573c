"""A file that is not UTF-8, and a seg map whose runs do not cover its
grid, end the command with exit 1 and one line on stderr."""

import shutil

import pytest

from embryometrics.cli import main
from embryometrics.serialize import synth_config_to_obj, write_json
from embryometrics.synth import SynthConfig

SMALL = SynthConfig(frames=4, image_size=64, fragmentation_distribution=(0.5, 0.5, 0, 0))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    write_json(root / "synth.json", synth_config_to_obj(SMALL))
    assert main(["synth", "--config", str(root / "synth.json"), "--out",
                 str(root / "data"), "--seed", "1"]) == 0
    embryo = root / "data" / "synth-0000"
    write_json(root / "pipeline.json", {"roi_side": 48})
    assert main(["run", "--movie", str(embryo / "manifest.json"), "--backends",
                 str(embryo), "--config", str(root / "pipeline.json"), "--out",
                 str(root / "result.json")]) == 0
    assert main(["eval", "--result", str(root / "result.json"), "--truth",
                 str(embryo / "truth.json"), "--out", str(root / "report.json")]) == 0
    return root, embryo


def one_line_error(capsys, argv) -> str:
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ")
    return err.strip()


def with_byte(src, dst, at, byte=0xFF):
    data = bytearray(src.read_bytes())
    data[at] = byte
    dst.write_bytes(bytes(data))


class TestNotUtf8:
    def test_eval_result(self, bundle, tmp_path, capsys):
        root, embryo = bundle
        bad = tmp_path / "result.json"
        with_byte(root / "result.json", bad, 100)
        err = one_line_error(capsys, ["eval", "--result", str(bad), "--truth",
                                      str(embryo / "truth.json"), "--out",
                                      str(tmp_path / "report.json")])
        assert err.startswith(f"error: {bad}: invalid JSON: 'utf-8' codec can't decode")

    def test_run_candidates(self, bundle, tmp_path, capsys):
        root, embryo = bundle
        backend = tmp_path / "backend"
        shutil.copytree(embryo / "backend", backend)
        cells = backend / "cells.ndjson"
        line = cells.read_bytes().count(b"\n", 0, 200) + 1
        assert line > 1  # a data line, not the header
        with_byte(embryo / "backend" / "cells.ndjson", cells, 200)
        err = one_line_error(capsys, ["run", "--movie", str(embryo / "manifest.json"),
                                      "--backends", str(backend), "--config",
                                      str(root / "pipeline.json"), "--out",
                                      str(tmp_path / "result.json")])
        assert err.startswith(f"error: {cells}: invalid JSON at line {line}: 'utf-8' codec")

    def test_synth_config(self, bundle, tmp_path, capsys):
        root, _ = bundle
        bad = tmp_path / "synth.json"
        with_byte(root / "synth.json", bad, 20)
        err = one_line_error(capsys, ["synth", "--config", str(bad), "--out",
                                      str(tmp_path / "data")])
        assert str(bad) in err
        assert not (tmp_path / "data").exists()

    def test_report(self, bundle, tmp_path, capsys):
        root, _ = bundle
        bad = tmp_path / "report.json"
        with_byte(root / "report.json", bad, 30)
        err = one_line_error(capsys, ["report", "--reports", str(bad), "--out",
                                      str(tmp_path / "table.csv")])
        assert str(bad) in err
        assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("runs_key", ['"runs":[[', '"runs":[ ['], ids=["canonical", "list"])
def test_run_sum_error_names_the_format(bundle, tmp_path, capsys, runs_key):
    # The second spelling is not canonical, so the whole file goes
    # through the list path.
    root, embryo = bundle
    text = (root / "result.json").read_text()
    start = text.index('"runs":[[') + len('"runs":[[')
    comma = text.index(",", start) + 1
    close = text.index("]", comma)
    text = text[:comma] + str(int(text[comma:close]) + 1) + text[close:]
    bad = tmp_path / "result.json"
    bad.write_text(text.replace('"runs":[[', runs_key, 1))
    err = one_line_error(capsys, ["eval", "--result", str(bad), "--truth",
                                  str(embryo / "truth.json"), "--out",
                                  str(tmp_path / "report.json")])
    assert err == f"error: {bad}: bad segmentation map: run lengths do not cover the grid"


class TestReportNamesItsFileOnce:
    def test_truncated_report(self, bundle, tmp_path, capsys):
        root, _ = bundle
        bad = tmp_path / "r.json"
        bad.write_text((root / "report.json").read_text()[:40])
        err = one_line_error(capsys, ["report", "--reports", str(bad), "--out",
                                      str(tmp_path / "table.csv")])
        assert err.count(str(bad)) == 1
        assert err.startswith(f"error: {bad}: invalid JSON at line 1: ")

    def test_report_that_does_not_decode(self, bundle, tmp_path, capsys):
        root, _ = bundle
        bad = tmp_path / "r.json"
        bad.write_text("[1, 2]")
        err = one_line_error(capsys, ["report", "--reports", str(bad), "--out",
                                      str(tmp_path / "table.csv")])
        assert err.count(str(bad)) == 1
        assert err.startswith(f"error: {bad}: ")
